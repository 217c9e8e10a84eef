"""Exact rational-function arithmetic, derivations, and the two
derivation-built matrix rings.  The unreduced fraction pairs are checked
against sympy's FracField (tests/oracles.py), and mutation checks show
that the verifiers reject a wrong identity."""

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
        return max((sum(m) for m in poly.itermonoms()), default=0)

    monkeypatch.setattr(symbolic, "mat_eq", recording_mat_eq)
    assert triangle_verify(p=5, samples=100, seed=0).ok
    assert len(compared) == 100
    for pair in compared:
        for entry in (e for m in pair for row in m for e in row):
            assert total_degree(entry.num) <= bound
            assert total_degree(entry.den) <= bound
