"""Group algebras, matrix pattern rings, and the example catalog."""

import numpy as np
import pytest

from ringbench.core import (
    ConstructionError, DomainError, InputError, LimitError, Limits, center,
)
from ringbench.construct import (
    Congruent, Free, GroupAlgebra, MatrixPattern, Tied, Zero, augmentation,
    augmentation_ideal, catalog, catalog_names, ex51_ring, ex52_ring,
    exterior_square_ring, full_matrix_ring, group_algebra, group_sum_element,
    group_sum_ideal, integers_mod, matrix_pattern_ring,
    relative_augmentation_ideal, triangular_matrix_ring,
)
from ringbench.groups import cyclic, quaternion8
from ringbench.ideals import all_ideals


def vec(ring, **names):
    """Coefficient tuple from basis-name keywords."""
    coeffs = [0] * len(ring.basis_names)
    for name, value in names.items():
        coeffs[ring.basis_names.index(name)] = value
    return ring.element(coeffs)


# -- group algebras --------------------------------------------------------------

def test_group_algebra_of_cyclic_group():
    r = group_algebra(2, cyclic(2))
    assert r.size == 4
    x = r.element((0, 1))
    assert r.mul(x, x) == r.one  # g^2 = e
    y = r.add(r.one, x)          # 1 + g
    assert r.mul(y, y) == r.zero  # (1+g)^2 = 0 in characteristic 2


def test_z2q8_basics():
    r = catalog("z2q8")
    assert r.size == 256
    assert r.basis_names == ("e", "a", "a2", "b", "ab", "a3", "a2b", "a3b")
    assert r.one == (1, 0, 0, 0, 0, 0, 0, 0)
    a, b = vec(r, a=1), vec(r, b=1)
    assert r.mul(a, b) == vec(r, ab=1)
    assert r.mul(b, a) == vec(r, a3b=1)
    assert r.mul(b, b) == vec(r, a2=1)


def test_z2q8_center_is_class_sums():
    r = catalog("z2q8")
    z = center(r)
    assert z.size == 32  # 2^(number of conjugacy classes)
    assert len(quaternion8().conjugacy_classes()) == 5
    for w in (vec(r, e=1), vec(r, a2=1), vec(r, a=1, a3=1),
              vec(r, b=1, a2b=1), vec(r, ab=1, a3b=1)):
        assert w in set(z.elements())
    assert vec(r, a=1) not in set(z.elements())


def test_z3q8_center_without_tables():
    r = catalog("z3q8")
    assert r.size == 6561
    assert r.tables() is None
    z = center(r)
    assert z.size == 243  # 3^5


def test_augmentation_map():
    r = catalog("z2q8")
    assert augmentation(r, r.one) == 1
    assert augmentation(r, vec(r, a=1, b=1)) == 0
    assert augmentation(r, group_sum_element(r)) == 0
    with pytest.raises(DomainError):
        augmentation(ex52_ring(), (0,) * 7)


def test_augmentation_ideal_size():
    r = catalog("z2q8")
    omega = augmentation_ideal(r)
    assert omega.size == 2 ** 7
    assert all(augmentation(r, x) == 0 for x in omega.elements[:32])


def test_group_sum_ideal():
    r = catalog("z2q8")
    ghat = group_sum_ideal(r)
    assert ghat.elements == (r.zero, (1,) * 8)
    r3 = catalog("z3q8")
    ghat3 = group_sum_ideal(r3)
    assert ghat3.size == 3
    assert (1,) * 8 in ghat3 and (2,) * 8 in ghat3


def test_relative_augmentation_ideal_of_derived_subgroup():
    r = catalog("z3q8")
    q8 = r.group
    omega_rel = relative_augmentation_ideal(r, q8.derived_subgroup())
    assert omega_rel.size == 81  # 4-dimensional over Z3
    f = r.element([2 if n == "e" else (1 if n == "a2" else 0)
                   for n in r.basis_names])  # 2 + a2 = (1 - a2)/2 mod 3
    assert f in omega_rel
    assert r.mul(f, f) == f  # central idempotent
    af = r.mul(vec(r, a=1), f)
    assert af == vec(r, a=2, a3=1)


# -- matrix patterns ---------------------------------------------------------------

def test_pattern_ring_matches_explicit_matrix_ring():
    r = full_matrix_ring(2, 2)
    assert r.size == 16
    from tests.test_core import make_mat
    explicit = make_mat(2, 2)
    assert r.elements() == explicit.elements()
    for x in r.elements():
        for y in r.elements():
            assert r.mul(x, y) == explicit.mul(x, y)


def test_triangular_pattern_ring():
    r = triangular_matrix_ring(2, 2)
    assert r.size == 8
    assert center(r).size == 2
    ideals = all_ideals(r)
    assert [i.size for i in ideals] == [1, 2, 4, 4, 8]


def test_pattern_to_matrix_roundtrip():
    r = ex52_ring()
    m = r.to_matrix(r.one)
    assert (m == np.eye(6, dtype=int)).all()
    x = vec(r, a11=1, b12=1)
    mx = r.to_matrix(x)
    assert mx[0, 2] == 1 and mx[2, 4] == 1 and mx[0, 5] == 1
    assert mx.sum() == 3


def test_pattern_rejects_escaping_products():
    # E21 * E12 = E22 hits a zero cell
    pattern = MatrixPattern(2, {
        (0, 0): Free(2), (0, 1): Free(2), (1, 0): Free(2),
    })
    with pytest.raises(ConstructionError) as err:
        matrix_pattern_ring(pattern)
    assert err.value.witness == (1, 1)


def test_pattern_rejects_broken_tie():
    # forcing both diagonal entries and the corner to one value cannot
    # survive squaring: [[1,1],[0,1]]^2 = [[1,0],[0,1]] breaks the tie
    pattern = MatrixPattern(2, {
        (0, 0): Free(2), (0, 1): Tied((0, 0)), (1, 1): Tied((0, 0)),
    })
    with pytest.raises(ConstructionError) as err:
        matrix_pattern_ring(pattern)
    assert err.value.witness == (0, 1)


def test_pattern_rejects_ill_defined_moduli():
    # wraparound of the mod-2 cell is visible mod 4 in the product
    pattern = MatrixPattern(2, {
        (0, 0): Free(2), (0, 1): Free(4), (1, 1): Free(2),
    })
    with pytest.raises(ConstructionError):
        matrix_pattern_ring(pattern)


def test_pattern_rejects_unrepresentable_identity():
    pattern = MatrixPattern(2, {(0, 1): Free(2), (1, 1): Free(2)})
    with pytest.raises(ConstructionError) as err:
        matrix_pattern_ring(pattern)
    assert "identity" in str(err.value)


def test_pattern_input_validation():
    with pytest.raises(InputError):
        MatrixPattern(2, {(0, 0): Tied((1, 1))})  # forward reference
    with pytest.raises(InputError):
        MatrixPattern(2, {(0, 0): Congruent((0, 1), 2)})
    with pytest.raises(InputError):
        MatrixPattern(2, {(2, 0): Free(2)})  # outside the grid
    with pytest.raises(InputError):
        MatrixPattern(2, {(0, 0): Free(4), (1, 1): Congruent((0, 0), 3)})


@pytest.mark.parametrize("build, exc, message", [
    (lambda: GroupAlgebra(1, cyclic(2)), InputError,
     "coefficient modulus must be at least 2"),
    (lambda: Free(1), InputError, "free cells need modulus >= 2"),
    (lambda: Congruent((0, 0), 0), InputError,
     "congruence step must be positive"),
    (lambda: MatrixPattern(1, {(0, 0): ("nope",)}), InputError,
     "unknown cell spec ('nope',)"),
    (lambda: MatrixPattern(2, {}), InputError,
     "pattern has no free parameters"),
    (lambda: matrix_pattern_ring(
        MatrixPattern(2, {(0, 0): Free(2), (0, 1): Free(2), (1, 1): Free(2)}),
        limits=Limits(max_elements=4)),
     LimitError, "limit max_elements=4 exceeded (needed 8)"),
    (lambda: integers_mod(1), InputError, "modulus must be at least 2"),
    (lambda: exterior_square_ring(1), InputError,
     "modulus must be at least 2"),
    (lambda: relative_augmentation_ideal(catalog("z2q8"), [1]), DomainError,
     "subgroup must contain the identity"),
], ids=["group-algebra-mod-1", "free-1", "congruent-0", "unknown-cell",
        "no-parameters", "pattern-max-elements", "integers-mod-1",
        "exterior-mod-1", "augmentation-without-identity"])
def test_constructors_reject_bad_parameters(build, exc, message):
    with pytest.raises(exc) as err:
        build()
    assert str(err.value) == message


# -- the catalog -------------------------------------------------------------------

def test_ex52_shape_and_witnesses():
    r = ex52_ring()
    assert r.size == 128
    assert r.shape.moduli == (2,) * 7
    big_a = vec(r, a11=1)
    big_b = vec(r, a11=1, a12=1, a22=1)
    assert r.mul(big_a, big_b) == vec(r, b11=1, b12=1)
    assert r.mul(big_b, big_a) == vec(r, b11=1)
    assert r.mul(big_a, big_b) != r.mul(big_b, big_a)
    # not reversible: x*y != 0 but y*x == 0
    y = vec(r, a12=1)
    assert r.mul(big_a, y) == vec(r, b12=1)
    assert r.mul(y, big_a) == r.zero


def test_ex52_center():
    r = ex52_ring()
    z = center(r)
    assert z.size == 32
    assert vec(r, a11=1, a22=1) in set(z.elements())  # scalar middle block
    assert vec(r, b11=1) in set(z.elements())
    assert vec(r, a11=1) not in set(z.elements())


def test_ex51_family():
    r = ex51_ring(3)
    assert r.size == 128
    assert r.shape.moduli == (8, 4, 4)
    x = r.element((1, 0, 1))   # diag(1, 3)
    y = vec(r, b=1)
    assert r.mul(x, y) == (0, 1, 0)
    assert r.mul(y, x) == (0, 3, 0)
    m = r.to_matrix(x)
    assert m[0, 0] == 1 and m[1, 1] == 3
    assert ex51_ring(2).size == 32
    assert ex51_ring(4).size == 512


def test_ex51_needs_m_at_least_2():
    with pytest.raises(InputError, match="at least 2"):
        ex51_ring(1)


def test_catalog_names_and_parsing():
    for name in ("z2q8", "z3q8", "z2d4", "ex52", "m2z2", "t2z2"):
        ring = catalog(name)
        assert ring.size > 1
    assert catalog("ex51(4)").size == 512
    assert catalog("ex51").size == 128
    assert catalog("ext2(4)").size == 256
    assert catalog("ext2(3)").size == 81
    assert catalog("EX52").size == 128
    with pytest.raises(InputError) as err:
        catalog("nope")
    assert "available" in str(err.value)
    assert isinstance(catalog_names(), tuple)


def test_catalog_integers_mod_n_in_both_forms():
    assert "z(n)" in catalog_names()
    for form in ("z(12)", "Z(12)", " z12 "):
        ring = catalog(form)
        assert (ring.size, ring.one, ring.tensor.tolist()) == (12, (1,), [[[1]]])
    for bad in ("z(12", "z12)", "z()"):
        with pytest.raises(InputError):
            catalog(bad)
