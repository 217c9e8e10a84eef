"""Derivation-built matrix rings over exact rational-function fields.

Two constructions need a field carrying a derivation rather than a finite
coefficient ring.  The triangle ring places a function on the diagonal of
a 3x3 matrix with its two partial derivatives on the superdiagonal and a
free corner; products stay in the family precisely because derivatives
obey the Leibniz rule.  The jet ring embeds a univariate function field
into 4x4 matrices next to a nilpotent shift whose commutators surface the
derivation.  Entries are fractions of sympy polynomials over a prime
field, so every identity checked here is exact.  Every identity is an
equality, and a/b = c/d exactly when a*d = b*c, so fractions are never
reduced: no polynomial gcd is taken except to print one.
"""

import random
from dataclasses import dataclass

from sympy import GF
from sympy.polys.rings import ring as _polynomial_ring
from sympy.printing.precedence import PRECEDENCE
from sympy.printing.str import StrPrinter

from ringbench.core import InputError


class FunctionField:
    """F_p(names), its elements held as unreduced RationalFunction pairs
    over the sparse polynomial ring F_p[names]."""

    def __init__(self, p, names):
        self.ring, *gens = _polynomial_ring(names, GF(p))
        one = self.ring.one
        self.zero = RationalFunction(self, self.ring.zero, one)
        self.one = RationalFunction(self, one, one)
        self.gens = tuple(RationalFunction(self, g, one) for g in gens)

    def __str__(self):
        return "F_%d(%s)" % (self.ring.domain.characteristic(),
                             ", ".join(map(str, self.ring.symbols)))

    def __call__(self, value):
        """The element for an integer, a polynomial or a fraction.  A
        fraction of other variables or characteristic is an InputError."""
        if isinstance(value, RationalFunction):
            if value.field is self:
                return value
            try:
                return RationalFunction(self, self.ring(value.num),
                                        self.ring(value.den))
            except NotImplementedError:   # sympy's "conversion"
                raise InputError("%s is an element of %s, not of %s"
                                 % (value, value.field, self)) from None
        return RationalFunction(self, self.ring(value), self.ring.one)


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
        return other if isinstance(other, RationalFunction) \
            else self.field(other)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._lift(other)
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __neg__(self):
        return RationalFunction(self.field, -self.num, self.den)

    def __add__(self, other):
        other = self._lift(other)
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return RationalFunction(self.field, self.num + other.num, self.den)
        return RationalFunction(self.field,
                                self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._lift(other)
        if not self.num or not other.num:
            return self.field.zero
        return RationalFunction(self.field, self.num * other.num,
                                self.den * other.den)

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
        return RationalFunction(self.field, self.num ** n, self.den ** n)

    def diff(self, var):
        """Partial derivative in the generator var, by the quotient rule."""
        dnum = _derivative(self.num, var.num)
        dden = _derivative(self.den, var.num)
        if not dden:
            return RationalFunction(self.field, dnum, self.den)
        return RationalFunction(self.field,
                                dnum * self.den - self.num * dden,
                                self.den ** 2)

    def __str__(self):
        """The fraction in lowest terms, the one place a gcd is taken."""
        num, den = self.num.cancel(self.den)
        printer = StrPrinter()
        if den == 1:
            return printer._print(num)
        return "%s/%s" % (
            printer.parenthesize(num, PRECEDENCE["Mul"], strict=True),
            printer.parenthesize(den, PRECEDENCE["Atom"], strict=True))

    __repr__ = __str__


def _derivative(poly, x):
    # PolyElement.diff keeps a zero coefficient where the exponent is a
    # multiple of p; == and bool need those terms gone
    out = poly.diff(x)
    out.strip_zero()
    return out


def function_field(p, names):
    """Rational function field over F_p.  Returns (field, generator list)."""
    made = FunctionField(p, names)
    return made, list(made.gens)


def random_rational(rng, field_, degree=2, terms=2):
    """Random sparse fraction: numerator and denominator each a sum of
    `terms` monomials of degree at most `degree`, so the degrees of the
    unreduced fractions built from a few of them stay small."""
    ring = field_.ring
    p = ring.domain.characteristic()
    gens = ring.gens

    def poly():
        total = ring.zero
        for _ in range(terms):
            term = ring(rng.randrange(1, p))
            for _ in range(rng.randint(0, degree)):
                term *= rng.choice(gens)
            total += term
        return total

    num = poly()
    if rng.random() < 0.5:
        return field_(num)
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
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                  start=a[0][0].field.zero) for j in range(n))
        for i in range(n))


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
    # which justifies the two-parameter span below
    for _ in range(10):
        b = random_rational(rng, field_)
        if not mat_eq(mat_mul(jet_embed(field_, b), x2), mat_scale(b, x2)):
            return SymbolicReport(False, checked, "embed(b)*shift^2 != b*shift^2")
        if not mat_eq(mat_mul(jet_embed(field_, b), x3), mat_scale(b, x3)):
            return SymbolicReport(False, checked, "embed(b)*shift^3 != b*shift^3")
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
