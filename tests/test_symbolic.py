"""Exact rational-function arithmetic, derivations, and the two
derivation-built matrix rings.  The polynomial kernel is checked against
sympy's PolyElement, the unreduced fraction pairs against sympy's
FracField, and the draw and printed form against the sympy-ring versions
they replaced (tests/oracles.py).  Broken carriers show that the
verifiers reject a wrong identity, one failure branch each."""

import random

import pytest

from ringbench import symbolic
from ringbench.core import InputError
from ringbench.symbolic import (
    RationalFunction, corner_matrix, function_field, jet_embed, jet_verify,
    mat_add, mat_eq, mat_is_zero, mat_mul, mat_scale, mat_sub, mat_zero,
    random_rational, shift_matrix, shift_squared_coeffs, triangle_embed,
    triangle_product, triangle_verify,
)
from tests import oracles


# -- field arithmetic -----------------------------------------------------------

def test_field_axioms_on_random_samples():
    for p in (3, 5):
        field_, _ = function_field(p, "x,y")
        rng = random.Random(p)
        for _ in range(350):
            f = random_rational(rng, field_)
            g = random_rational(rng, field_)
            h = random_rational(rng, field_)
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f
            if f != 0:
                assert f * (1 / f) == field_.one


def test_derivations_are_linear_and_leibniz():
    field_, (x, y) = function_field(5, "x,y")
    tfield, (t,) = function_field(3, "t")
    rng = random.Random(9)
    for fld, var in ((field_, x), (field_, y), (tfield, t)):
        for _ in range(350):
            f = random_rational(rng, fld)
            g = random_rational(rng, fld)
            assert (f + g).diff(var) == f.diff(var) + g.diff(var)
            assert (f * g).diff(var) == f.diff(var) * g + f * g.diff(var)


def test_specific_derivatives():
    field_, (x, y) = function_field(5, "x,y")
    assert (x ** 2).diff(x) == 2 * x
    assert (1 / field_(x)).diff(x) == 4 / x ** 2
    assert (x * y).diff(x) == y
    assert field_(3).diff(x) == 0


def test_oracle_normalized_makes_denominator_monic():
    field_, (x, y) = oracles.frac_field(5, "x,y")
    f = (2 * x) / (2 * y)
    g = oracles.normalized(f)
    assert g.denom.LC == field_.domain.one
    assert oracles.rf_eq(f, g)
    assert g == x / y
    assert oracles.normalized(field_(3)) == field_(3)


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("names", ("t", "x,y"))
def test_pair_arithmetic_matches_frac_field(p, names):
    field_, gens = function_field(p, names)
    frac, frac_gens = oracles.frac_field(p, names)
    rng = random.Random(100 * p + len(gens))
    for _ in range(60):
        f = random_rational(rng, field_)
        g = random_rational(rng, field_)
        frac_f, frac_g = oracles.as_frac(frac, f), oracles.as_frac(frac, g)
        for got, want in ((f + g, frac_f + frac_g), (f - g, frac_f - frac_g),
                          (f * g, frac_f * frac_g), (-f, -frac_f)):
            assert oracles.rf_eq(oracles.as_frac(frac, got), want)
        if frac_g:
            assert oracles.rf_eq(oracles.as_frac(frac, f / g), frac_f / frac_g)
            assert f == f * g / g
        else:
            with pytest.raises(ZeroDivisionError):
                f / g
        for var, fvar in zip(gens, frac_gens):
            # products reach exponent p, where the derivative drops terms
            for got, want in ((f, frac_f), (f * g, frac_f * frac_g)):
                d = got.diff(var)
                assert oracles.rf_eq(oracles.as_frac(frac, d), want.diff(fvar))
                assert bool(d) == bool(want.diff(fvar))
        assert (f == g) == oracles.rf_eq(frac_f, frac_g)
        assert (f == f + g) == (not frac_g)
        assert bool(f) == bool(frac_f)


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("names", ("t", "x,y"))
def test_polynomial_kernel_matches_sympy(p, names):
    ring = oracles.frac_field(p, names)[0].ring
    k = len(ring.gens)
    rng = random.Random(10 * p + k)

    # derivatives drop the terms at multiples of p
    exponents = (0, 1, 2, p - 1, p, p + 1, 2 * p)

    def draw():
        return {tuple(rng.choice(exponents) for _ in range(k)):
                rng.randrange(1, p) for _ in range(rng.randint(0, 4))}

    def check(got, want):
        want.strip_zero()
        assert all(0 < c < p for c in got.values())
        assert ring.from_dict(got) == want

    dropped = cancelled = 0
    for _ in range(200):
        a = draw()
        # b cancels some of a's terms mod p
        b = {**draw(), **{m: p - c for m, c in a.items() if rng.random() < 0.5}}
        sa, sb = ring.from_dict(a), ring.from_dict(b)
        total = symbolic._add(a, b, p)
        check(total, sa + sb)
        check(symbolic._neg(a, p), -sa)
        check(symbolic._mul(a, b, p), sa * sb)
        check(symbolic._add(a, symbolic._neg(a, p), p), ring.zero)
        for i, x in enumerate(ring.gens):
            d = symbolic._derivative(a, i, p)
            check(d, sa.diff(x))
            dropped += len(d) < sum(1 for m in a if m[i])
        cancelled += len(total) < len(a.keys() | b.keys())
    assert dropped and cancelled


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("names", ("t", "x,y"))
def test_random_rational_is_the_sympy_draw(p, names):
    # the same rng calls in the same order, so every seeded verifier run
    # draws what it drew on sympy's ring, and prints it the same way
    field_, _ = function_field(p, names)
    ring = oracles.frac_field(p, names)[0].ring
    for seed in range(20):
        rng, old = random.Random(seed), random.Random(seed)
        for _ in range(10):
            f = random_rational(rng, field_)
            num, den = oracles.random_rational_pair(old, ring)
            assert ring.from_dict(f.num) == num
            assert ring.from_dict(f.den) == den
            assert str(f) == oracles.fraction_str(num, den)
        assert rng.getstate() == old.getstate()


def test_str_is_the_sympy_rendering():
    field_, (x, y) = function_field(5, "x,y")
    tfield, (t,) = function_field(5, ("t",))
    assert [str(e) for e in triangle_embed(field_, x * y, x)[1]] \
        == ["0 mod 5", "x*y", "x"]
    assert str(jet_embed(tfield, (t * t + 1) / t)[1][0]) \
        == "(t**2 + 4 mod 5)/(t**2)"
    assert str(1 / t) == "1 mod 5/t"
    assert str(2 * t / (3 * t ** 2)) == "2 mod 5/(3 mod 5*t)"
    assert str((t + 1) / (t * t + 2 * t + 1)) == "1 mod 5/(t + 1 mod 5)"
    assert str(field_) == "F_5(x, y)" and str(tfield) == "F_5(t)"


def test_division_by_zero_rejected():
    field_, (x, _) = function_field(5, "x,y")
    with pytest.raises(ZeroDivisionError):
        x / (x - x)


def test_random_rational_is_seeded():
    field_, _ = function_field(5, "x,y")
    a = [random_rational(random.Random(4), field_) for _ in range(5)]
    b = [random_rational(random.Random(4), field_) for _ in range(5)]
    assert a == b


# -- matrix helpers -----------------------------------------------------------

def test_matrix_helpers():
    field_, (x, y) = function_field(5, "x,y")
    z = mat_zero(field_, 3)
    assert mat_is_zero(z)
    m = triangle_embed(field_, x, y)
    assert mat_eq(mat_add(m, z), m)
    assert mat_is_zero(mat_sub(m, m))
    assert mat_eq(mat_scale(field_(2), mat_add(m, m)),
                  mat_scale(field_(4), m))


def test_shift_squared_coeffs():
    field_, (t,) = function_field(5, "t")
    x = shift_matrix(field_)
    x2 = mat_mul(x, x)
    x3 = mat_mul(x2, x)
    target = mat_add(mat_scale(field_(2), x2), mat_scale(t, x3))
    coeffs = shift_squared_coeffs(target, x2, x3)
    assert coeffs == (field_(2), field_(t))
    assert shift_squared_coeffs(x, x2, x3) is None


# -- triangle ring -----------------------------------------------------------

def test_triangle_closure_and_witnesses():
    rep = triangle_verify(p=5, samples=100, seed=0)
    assert rep.ok
    assert rep.checked >= 102
    assert triangle_verify(p=3, samples=40, seed=1).ok


def test_triangle_commutator_sits_in_the_corner():
    field_, (x, y) = function_field(5, "x,y")
    a = triangle_embed(field_, x, 0)
    b = triangle_embed(field_, y, 0)
    c = mat_sub(mat_mul(a, b), mat_mul(b, a))
    assert c[0][2] == field_.one
    assert all(c[i][j] == 0 for i in range(3) for j in range(3)
               if (i, j) != (0, 2))


def test_triangle_product_formula():
    # product embeds (f1*f2, f1*g2 + g1*f2 + df1/dx * df2/dy)
    field_, (x, y) = function_field(5, "x,y")
    f1, g1 = 1 / field_(x), field_(y)
    f2, g2 = x * y, field_(2)
    prod = mat_mul(triangle_embed(field_, f1, g1),
                   triangle_embed(field_, f2, g2))
    expected = triangle_embed(
        field_, f1 * f2,
        f1 * g2 + g1 * f2 + f1.diff(x) * f2.diff(y))
    assert mat_eq(prod, expected)
    assert mat_eq(expected, triangle_embed(
        field_, *triangle_product(field_, f1, g1, f2, g2)))


def test_triangle_corner_ideal():
    field_, (x, y) = function_field(5, "x,y")
    c = corner_matrix(field_, x + y)
    m = triangle_embed(field_, x * y, field_(1))
    assert mat_is_zero(mat_mul(c, c))
    left = mat_mul(m, c)
    assert left[0][2] == (x + y) * x * y


def test_triangle_rejects_characteristic_two():
    with pytest.raises(InputError):
        triangle_verify(p=2)


# -- jet ring ------------------------------------------------------------------

def test_jet_verify():
    rep = jet_verify(p=5, samples=60, seed=0)
    assert rep.ok
    assert rep.checked >= 72
    assert jet_verify(p=3, samples=25, seed=3).ok


def test_jet_embedding_is_a_homomorphism_pointwise():
    field_, (t,) = function_field(5, "t")
    a = (t ** 2 + 1) / t
    b = t + 3
    assert mat_eq(mat_mul(jet_embed(field_, a), jet_embed(field_, b)),
                  jet_embed(field_, a * b))
    assert mat_eq(mat_add(jet_embed(field_, a), jet_embed(field_, b)),
                  jet_embed(field_, a + b))


def test_jet_shift_powers():
    field_, _ = function_field(5, "t")
    x = shift_matrix(field_)
    x3 = mat_mul(mat_mul(x, x), x)
    assert not mat_is_zero(x3)
    assert mat_is_zero(mat_mul(x3, x))


def test_jet_commutator_escapes_the_shift_squared_span():
    field_, (t,) = function_field(5, "t")
    x = shift_matrix(field_)
    fa = jet_embed(field_, t)
    c = mat_sub(mat_mul(x, fa), mat_mul(fa, x))
    assert c[2][0] == field_.one
    assert sum(1 for i in range(4) for j in range(4) if c[i][j] != 0) == 1
    x2 = mat_mul(x, x)
    assert shift_squared_coeffs(c, x2, mat_mul(x2, x)) is None


def test_jet_constant_commutes():
    field_, _ = function_field(5, "t")
    one = jet_embed(field_, 1)
    x = shift_matrix(field_)
    assert mat_eq(mat_mul(one, x), mat_mul(x, one))


def test_jet_rejects_flat_witness():
    with pytest.raises(InputError):
        jet_verify(p=5, samples=1, witness=3)
    field_, (t,) = function_field(5, "t")
    assert jet_verify(p=5, samples=5, witness=t ** 2 + t).ok


def test_jet_rejects_a_witness_from_another_field():
    _, (t7,) = function_field(7, "t")
    _, (s,) = function_field(5, "s")
    for witness, other in ((t7 ** 2 + t7, r"F_7\(t\)"), (s, r"F_5\(s\)")):
        with pytest.raises(InputError, match=other + r", not of F_5\(t\)"):
            jet_verify(p=5, samples=1, witness=witness)
    with pytest.raises(InputError, match=r"F_5\(s\), not of F_7\(t\)"):
        t7 + s
    # a field of the same characteristic and names reads the same pairs
    field_, (t,) = function_field(5, "t")
    t5 = function_field(5, ["t"])[1][0]
    assert field_(t5) == t and (t + t5).field is field_


# -- the equality is not weaker than the field's --------------------------------

def test_triangle_rejects_a_product_without_the_derivative_term(monkeypatch):
    def leibniz_without_derivatives(field_, f1, g1, f2, g2):
        return f1 * f2, f1 * g2 + g1 * f2

    monkeypatch.setattr(symbolic, "triangle_product",
                        leibniz_without_derivatives)
    rep = triangle_verify(p=5, samples=100, seed=0)
    assert not rep.ok
    assert rep.failure.startswith("closure failed")


def test_jet_rejects_an_embedding_without_the_derivative(monkeypatch):
    def flat_embed(field_, a):
        a, z = field_(a), field_.zero
        return ((a, z, z, z), (z, a, z, z), (z, z, a, z), (z, z, z, a))

    monkeypatch.setattr(symbolic, "jet_embed", flat_embed)
    rep = jet_verify(p=5, samples=60, seed=0)
    assert not rep.ok
    assert rep.failure == "shift commutes with the witness"


def test_verifiers_reject_numerator_only_equality(monkeypatch):
    def numerators_equal(self, other):
        return self.num == self._lift(other).num

    monkeypatch.setattr(RationalFunction, "__eq__", numerators_equal)
    assert not triangle_verify(p=5, samples=100, seed=0).ok
    assert not jet_verify(p=5, samples=60, seed=0).ok


def test_closure_check_degrees_stay_bounded(monkeypatch):
    # Fractions are never reduced, so degrees add up.  A draw has numerator
    # and denominator of total degree at most 2, and a partial derivative
    # (n'd - nd')/d^2 at most (3, 4).  The worst entry is the corner: three
    # products of two such factors, f1*g2 and g1*f2 at (4, 4) and
    # df1/dx*df2/dy at (6, 8), summed pairwise over distinct denominators,
    # which adds the degrees: at most (16, 16).
    bound = 16
    compared = []

    def recording_mat_eq(a, b):
        compared.append((a, b))
        return mat_eq(a, b)

    def total_degree(poly):
        return max((sum(m) for m in poly), default=0)

    monkeypatch.setattr(symbolic, "mat_eq", recording_mat_eq)
    assert triangle_verify(p=5, samples=100, seed=0).ok
    assert len(compared) == 100
    for pair in compared:
        for entry in (e for m in pair for row in m for e in row):
            assert total_degree(entry.num) <= bound
            assert total_degree(entry.den) <= bound


# -- every failure branch is reached by a broken carrier --------------------------

_REAL = {name: getattr(symbolic, name) for name in (
    "triangle_embed", "triangle_product", "jet_embed", "shift_matrix")}


def _swapped_embed(field_, f, g):
    # the derivations trade places: still closed, but [x, y] = -1
    f, g = field_(f), field_(g)
    x, y = field_.gens[:2]
    z = field_.zero
    return ((f, f.diff(y), g), (z, f, f.diff(x)), (z, z, f))


def _swapped_product(field_, f1, g1, f2, g2):
    x, y = field_.gens[:2]
    return f1 * f2, f1 * g2 + g1 * f2 + f1.diff(y) * f2.diff(x)


def _shifted_embed(field_, f, g):
    # the same set of matrices with its corner offset by one, so
    # embed(0, 0) is not the zero matrix
    return _REAL["triangle_embed"](field_, f, field_(g) + 1)


def _shifted_product(field_, f1, g1, f2, g2):
    f, g = _REAL["triangle_product"](field_, f1, g1 + 1, f2, g2 + 1)
    return f, g - 1


def _corner(*cells, scale=1):
    def corner(field_, g):
        m = [[field_.zero] * 3 for _ in range(3)]
        for i, j in cells:
            m[i][j] = scale * field_(g)
        return tuple(map(tuple, m))
    return corner


def _jet_with(**slots):
    # jet_embed with entry (i, j) of slot "ij" replaced by slot(field_, a)
    def embed(field_, a):
        a = field_(a)
        m = [list(row) for row in _REAL["jet_embed"](field_, a)]
        for cell, value in slots.items():
            m[int(cell[1])][int(cell[2])] = value(field_, a)
        return tuple(map(tuple, m))
    return embed


def _short_shift(field_):
    m = [list(row) for row in _REAL["shift_matrix"](field_)]
    m[3][2] = field_.zero
    return tuple(map(tuple, m))


def _d_dt(field_, a):
    return a.diff(field_.gens[0])


_BROKEN = {
    "commutator corner is not 1": (
        triangle_verify, {"triangle_embed": _swapped_embed,
                          "triangle_product": _swapped_product}),
    "zero embedding not absorbing": (
        triangle_verify, {"triangle_embed": _shifted_embed,
                          "triangle_product": _shifted_product}),
    "corner line is not an ideal": (
        triangle_verify, {"corner_matrix": _corner((0, 1))}),
    "corner product wrong": (
        triangle_verify, {"corner_matrix": _corner((0, 2), scale=2)}),
    "additivity failed": (
        jet_verify, {"jet_embed": _jet_with(e03=lambda field_, a: field_.one)}),
    "multiplicativity failed at a=(3 mod 5*t + 4 mod 5)/(2 mod 5*t + 3 mod 5)"
    " b=3 mod 5*t**2 + 2 mod 5": (
        jet_verify, {"jet_embed": _jet_with(e10=lambda field_, a: a)}),
    "shift is not nilpotent of index 4": (
        jet_verify, {"shift_matrix": _short_shift}),
    # a ring homomorphism with embed(1) = diag(1, 1, 1, 0)
    "embedded 1 is not central": (
        jet_verify, {"jet_embed": _jet_with(e33=lambda field_, a: field_.zero)}),
    # two 2x2 jet blocks: a homomorphism with embed(1) = 1
    "embed(b)*shift^2 != b*shift^2": (
        jet_verify, {"jet_embed": _jet_with(e32=_d_dt)}),
    # the derivative two steps below the diagonal: the commutator with the
    # shift is da * shift^3
    "commutator lies in the shift-squared ideal: (0 mod 5, 1 mod 5)": (
        jet_verify, {"jet_embed": _jet_with(e10=lambda field_, a: field_.zero,
                                            e20=_d_dt)}),
}


@pytest.mark.parametrize("failure", _BROKEN)
def test_a_broken_carrier_meets_its_failure_branch(monkeypatch, failure):
    verify, patches = _BROKEN[failure]
    for name, broken in patches.items():
        monkeypatch.setattr(symbolic, name, broken)
    rep = verify(p=5, seed=0)
    assert not rep.ok
    assert rep.failure == failure


def test_a_corner_that_is_not_square_zero_needs_a_zero_draw(monkeypatch):
    # Where the drawn f is non-zero, m = embed(f, g) is invertible, and
    # m*c = c*m = f*h*E02 forces the corner matrix c to be h*E02, whose
    # square is zero.  A corner that also fills (1, 1) is seen only on a
    # draw with f = 0: seed 20 draws one first.
    monkeypatch.setattr(symbolic, "corner_matrix", _corner((0, 2), (1, 1)))
    rep = triangle_verify(p=5, seed=20)
    assert (rep.ok, rep.checked, rep.failure) == \
        (False, 102, "corner line does not square to zero")
    assert triangle_verify(p=5, seed=0).failure == "corner line is not an ideal"
