"""Derivation-built matrix rings over exact rational-function fields.

Two constructions need a field carrying a derivation rather than a finite
coefficient ring.  The triangle ring places a function on the diagonal of
a 3x3 matrix with its two partial derivatives on the superdiagonal and a
free corner; products stay in the family precisely because derivatives
obey the Leibniz rule.  The jet ring embeds a univariate function field
into 4x4 matrices next to a nilpotent shift whose commutators surface the
derivation.  Entries are fractions of sparse polynomials over a prime
field, each a dict from exponent tuple to a coefficient in 1..p-1, so
every identity checked here is exact.  Every identity is an equality, and
a/b = c/d exactly when a*d = b*c, so fractions are never reduced.  sympy
is imported only to print a fraction in lowest terms.
"""

import random
from dataclasses import dataclass
from operator import add, index

from ringbench.core import InputError


# -- sparse polynomials over F_p ------------------------------------------------
# A polynomial maps exponent tuples to coefficients in 1..p-1.  No zero
# coefficient is ever stored, so == is dict equality and zero is {}.

def _add(a, b, p):
    out = dict(a)
    for m, c in b.items():
        c = (out.get(m, 0) + c) % p
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def _neg(a, p):
    return {m: p - c for m, c in a.items()}


def _mul(a, b, p):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c % p for m, c in out.items() if c % p}


def _derivative(a, i, p):
    """d/dx_i; a term whose exponent is a multiple of p drops out."""
    out = {}
    for m, c in a.items():
        c = c * m[i] % p
        if c:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c
    return out


class FunctionField:
    """F_p(names), its elements held as unreduced RationalFunction pairs
    over the sparse polynomial ring F_p[names].  names is "x,y" or a
    sequence of names."""

    def __init__(self, p, names):
        if isinstance(names, str):
            names = names.replace(",", " ").split()
        self.p = p
        self.names = tuple(map(str, names))
        n = len(self.names)
        self.one_exp = (0,) * n
        one = {self.one_exp: 1}
        self.zero = RationalFunction(self, {}, one)
        self.one = RationalFunction(self, one, one)
        self.gens = tuple(
            RationalFunction(self, {tuple(int(i == j) for j in range(n)): 1},
                             one)
            for i in range(n))

    def __str__(self):
        return "F_%d(%s)" % (self.p, ", ".join(self.names))

    def __call__(self, value):
        """The element for an integer or a fraction.  A fraction of other
        variables or characteristic is an InputError."""
        if isinstance(value, RationalFunction):
            if value.field is self:
                return value
            if (value.field.p, value.field.names) != (self.p, self.names):
                raise InputError("%s is an element of %s, not of %s"
                                 % (value, value.field, self))
            return RationalFunction(self, value.num, value.den)
        c = index(value) % self.p
        return RationalFunction(self, {self.one_exp: c} if c else {},
                                self.one.den)


class RationalFunction:
    """The fraction num/den of two polynomials, den non-zero, kept as the
    pair it was computed as.  Equal values may be held as different pairs:
    == cross-multiplies, and the value is zero exactly when num is."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    def _lift(self, other):
        if isinstance(other, RationalFunction) and other.field is self.field:
            return other
        return self.field(other)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._lift(other)
        if self.den == other.den:
            return self.num == other.num
        p = self.field.p
        return _mul(self.num, other.den, p) == _mul(other.num, self.den, p)

    def __neg__(self):
        return RationalFunction(self.field, _neg(self.num, self.field.p),
                                self.den)

    def __add__(self, other):
        other = self._lift(other)
        if not other.num:
            return self
        if not self.num:
            return other
        p = self.field.p
        if self.den == other.den:
            return RationalFunction(self.field, _add(self.num, other.num, p),
                                    self.den)
        return RationalFunction(self.field,
                                _add(_mul(self.num, other.den, p),
                                     _mul(other.num, self.den, p), p),
                                _mul(self.den, other.den, p))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._lift(other)
        if not self.num or not other.num:
            return self.field.zero
        p = self.field.p
        return RationalFunction(self.field, _mul(self.num, other.num, p),
                                _mul(self.den, other.den, p))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("rational function division by zero")
        return RationalFunction(self.field, self.den, self.num)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent")
        out = self.field.one
        for _ in range(n):
            out = out * self
        return out

    def diff(self, var):
        """Partial derivative in the generator var, by the quotient rule."""
        i = self.field.gens.index(var)
        p = self.field.p
        dnum = _derivative(self.num, i, p)
        dden = _derivative(self.den, i, p)
        if not dden:
            return RationalFunction(self.field, dnum, self.den)
        return RationalFunction(self.field,
                                _add(_mul(dnum, self.den, p),
                                     _neg(_mul(self.num, dden, p), p), p),
                                _mul(self.den, self.den, p))

    def __str__(self):
        """The fraction in lowest terms, the one place a gcd is taken."""
        from sympy import GF
        from sympy.polys.rings import ring
        from sympy.printing.precedence import PRECEDENCE
        from sympy.printing.str import StrPrinter

        sympy_ring = ring(self.field.names, GF(self.field.p))[0]
        num, den = sympy_ring.from_dict(self.num).cancel(
            sympy_ring.from_dict(self.den))
        printer = StrPrinter()
        if den == 1:
            return printer._print(num)
        return "%s/%s" % (
            printer.parenthesize(num, PRECEDENCE["Mul"], strict=True),
            printer.parenthesize(den, PRECEDENCE["Atom"], strict=True))

    __repr__ = __str__


def function_field(p, names):
    """Rational function field over F_p.  Returns (field, generator list)."""
    made = FunctionField(p, names)
    return made, list(made.gens)


def random_rational(rng, field_, degree=2, terms=2):
    """Random sparse fraction: numerator and denominator each a sum of
    `terms` monomials of degree at most `degree`, so the degrees of the
    unreduced fractions built from a few of them stay small."""
    p = field_.p
    gens = [g.num for g in field_.gens]

    def poly():
        total = {}
        for _ in range(terms):
            term = {field_.one_exp: rng.randrange(1, p)}
            for _ in range(rng.randint(0, degree)):
                term = _mul(term, rng.choice(gens), p)
            total = _add(total, term, p)
        return total

    num = poly()
    if rng.random() < 0.5:
        return RationalFunction(field_, num, field_.one.den)
    den = poly()
    while not den:
        den = poly()
    return RationalFunction(field_, num, den)


# -- small exact matrices ------------------------------------------------------

def mat_zero(field_, n):
    return tuple((field_.zero,) * n for _ in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    zero = a[0][0].field.zero
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), start=zero)
              for col in cols)
        for row in a)


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a):
    return not any(x for row in a for x in row)


@dataclass
class SymbolicReport:
    ok: bool
    checked: int
    failure: str = ""

    def __bool__(self):
        return self.ok


# -- triangle ring: diagonal function with its partial derivatives ----------------

def triangle_embed(field_, f, g):
    """3x3 matrix with f on the diagonal, df/dx and df/dy above it, g in
    the corner."""
    f, g = field_(f), field_(g)
    x, y = field_.gens[:2]
    z = field_.zero
    return ((f, f.diff(x), g),
            (z, f, f.diff(y)),
            (z, z, f))


def triangle_product(field_, f1, g1, f2, g2):
    """The pair whose embedding is embed(f1, g1) * embed(f2, g2), by the
    Leibniz rule: (f1*f2, f1*g2 + g1*f2 + df1/dx * df2/dy)."""
    x, y = field_.gens[:2]
    return f1 * f2, f1 * g2 + g1 * f2 + f1.diff(x) * f2.diff(y)


def corner_matrix(field_, g):
    m = [[field_.zero] * 3 for _ in range(3)]
    m[0][2] = field_(g)
    return tuple(tuple(row) for row in m)


def triangle_verify(p=5, samples=100, seed=0):
    """Check the triangle family is a noncommutative ring with the corner
    line as an ideal squaring to zero.

    Closure is the Leibniz rule in matrix form: the product of the
    embeddings of (f1, g1) and (f2, g2) is the embedding of
    triangle_product(f1, g1, f2, g2).
    """
    if p < 3:
        raise InputError("characteristic must be at least 3")
    field_, (x, y) = function_field(p, "x,y")
    rng = random.Random(seed)
    pool = [field_(x), field_(y), x + y, x * y, 1 / field_(x)]
    checked = 0

    def draw():
        f = rng.choice(pool) if rng.random() < 0.3 else \
            random_rational(rng, field_)
        g = random_rational(rng, field_)
        return f, g

    for _ in range(samples):
        f1, g1 = draw()
        f2, g2 = draw()
        product = mat_mul(triangle_embed(field_, f1, g1),
                          triangle_embed(field_, f2, g2))
        expected = triangle_embed(
            field_, *triangle_product(field_, f1, g1, f2, g2))
        if not mat_eq(product, expected):
            return SymbolicReport(False, checked,
                                  "closure failed at f1=%s g1=%s f2=%s g2=%s"
                                  % (f1, g1, f2, g2))
        checked += 1

    a = triangle_embed(field_, x, 0)
    b = triangle_embed(field_, y, 0)
    commutator = mat_sub(mat_mul(a, b), mat_mul(b, a))
    if mat_is_zero(commutator) or commutator[0][2] != field_.one:
        return SymbolicReport(False, checked, "commutator corner is not 1")
    checked += 1

    zero_embed = triangle_embed(field_, 0, 0)
    if not mat_is_zero(mat_mul(zero_embed, a)):
        return SymbolicReport(False, checked, "zero embedding not absorbing")
    checked += 1

    # the corner line is a two-sided ideal and squares to zero
    for _ in range(20):
        f, g = draw()
        h = random_rational(rng, field_)
        m = triangle_embed(field_, f, g)
        c = corner_matrix(field_, h)
        left = mat_mul(m, c)
        right = mat_mul(c, m)
        for prod in (left, right):
            stray = [prod[i][j] for i in range(3) for j in range(3)
                     if (i, j) != (0, 2) and prod[i][j]]
            if stray:
                return SymbolicReport(False, checked,
                                      "corner line is not an ideal")
        if left[0][2] != f * h or right[0][2] != h * f:
            return SymbolicReport(False, checked, "corner product wrong")
        if not mat_is_zero(mat_mul(c, corner_matrix(field_, g))):
            return SymbolicReport(False, checked,
                                  "corner line does not square to zero")
        checked += 1
    return SymbolicReport(True, checked)


# -- jet ring: field embedding beside a nilpotent shift --------------------------

def jet_embed(field_, a):
    """4x4 scalar matrix for a with its derivative hooked below the first
    diagonal entry."""
    a = field_(a)
    da = a.diff(field_.gens[0])
    z = field_.zero
    return ((a, z, z, z),
            (da, a, z, z),
            (z, z, a, z),
            (z, z, z, a))


def shift_matrix(field_):
    z, o = field_.zero, field_.one
    return ((z, z, z, z),
            (o, z, z, z),
            (z, o, z, z),
            (z, z, o, z))


def shift_squared_coeffs(m, x2, x3):
    """(alpha, beta) with m = alpha*x2 + beta*x3, or None.  x2 = E20 + E31
    and x3 = E30 have disjoint supports, so alpha is entry (2, 0) of m and
    beta entry (3, 0)."""
    alpha, beta = m[2][0], m[3][0]
    if mat_eq(m, mat_add(mat_scale(alpha, x2), mat_scale(beta, x3))):
        return alpha, beta
    return None


def jet_verify(p=5, samples=60, seed=0, witness=None):
    """Check the jet embedding is a ring homomorphism and that the shift
    fails to commute with it even modulo the ideal of shift-squared
    multiples.

    The commutator of the shift with an embedded function is the
    derivative placed two steps below the diagonal; membership in the
    span of {embed(b) * shift^2, embed(b) * shift^3} is read off two
    entries and checked exactly (shift_squared_coeffs), and the verdict
    is that it never lies there once the derivative is non-zero.
    """
    if p < 3:
        raise InputError("characteristic must be at least 3")
    field_, (t,) = function_field(p, "t")
    if witness is None:
        witness = field_(t)
    else:
        witness = field_(witness)
    if not witness.diff(t):
        raise InputError("witness must have a non-zero derivative")
    rng = random.Random(seed)
    checked = 0

    for _ in range(samples):
        a = random_rational(rng, field_)
        b = random_rational(rng, field_)
        fa, fb = jet_embed(field_, a), jet_embed(field_, b)
        if not mat_eq(mat_add(fa, fb), jet_embed(field_, a + b)):
            return SymbolicReport(False, checked, "additivity failed")
        if not mat_eq(mat_mul(fa, fb), jet_embed(field_, a * b)):
            return SymbolicReport(False, checked,
                                  "multiplicativity failed at a=%s b=%s"
                                  % (a, b))
        checked += 1

    x = shift_matrix(field_)
    x2 = mat_mul(x, x)
    x3 = mat_mul(x2, x)
    if mat_is_zero(x3) or not mat_is_zero(mat_mul(x3, x)):
        return SymbolicReport(False, checked, "shift is not nilpotent of index 4")
    checked += 1

    one = jet_embed(field_, 1)
    if not mat_eq(mat_mul(one, x), mat_mul(x, one)):
        return SymbolicReport(False, checked, "embedded 1 is not central")
    checked += 1

    # embedded multiples of shift powers collapse to scalar multiples,
    # which justifies the two-parameter span below; embed(b)*shift^3 =
    # (embed(b)*shift^2)*shift = b*shift^3 follows by associativity
    for _ in range(10):
        b = random_rational(rng, field_)
        if not mat_eq(mat_mul(jet_embed(field_, b), x2), mat_scale(b, x2)):
            return SymbolicReport(False, checked, "embed(b)*shift^2 != b*shift^2")
        checked += 1

    fa = jet_embed(field_, witness)
    commutator = mat_sub(mat_mul(x, fa), mat_mul(fa, x))
    if mat_is_zero(commutator):
        return SymbolicReport(False, checked, "shift commutes with the witness")
    coeffs = shift_squared_coeffs(commutator, x2, x3)
    if coeffs is not None:
        return SymbolicReport(False, checked,
                              "commutator lies in the shift-squared ideal: %s"
                              % (coeffs,))
    checked += 1
    return SymbolicReport(True, checked)
