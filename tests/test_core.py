"""Ring realizations: construction, validation, arithmetic, tables."""

import functools
import itertools
import random

import numpy as np
import pytest

from ringbench import core
from ringbench.core import (
    AdditiveShape, ConstructionError, DomainError, InputError, LimitError,
    Limits, QuotientRing, RingError, StructureRing, SubRing, center,
    elem_arith, _OnDemandTables, _central_blocks, _outer_codes,
    enumerate_elements, make_ring, units_and_regulars,
    validate_ring,
)
from ringbench.construct import (
    as_structure_ring, catalog, full_matrix_ring, group_algebra,
)
from ringbench.groups import cyclic, dihedral, direct_product, quaternion8
from ringbench.ideals import additive_closure, jacobson_radical, quotient
from ringbench.props import full_report, ore_check, sample_rings
from tests import oracles


def make_zn(n):
    return make_ring([n], [[[1 % n]]], (1,), basis_names=("u",))


def full_matrix_tensor(n, mod):
    """Structure constants of n x n matrices over Z_mod, basis E(i,j) row-major."""
    k = n * n
    c = np.zeros((k, k, k), dtype=np.int64)
    for i, j, l, m in itertools.product(range(n), repeat=4):
        if j == l:  # E(i,j) E(l,m) = E(i,m) when j == l
            c[i * n + j, l * n + m, i * n + m] = 1 % mod
    return c


def make_mat(n, mod):
    one = tuple(1 if i % (n + 1) == 0 else 0 for i in range(n * n))
    names = tuple("e%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n))
    return make_ring([mod] * (n * n), full_matrix_tensor(n, mod), one,
                     basis_names=names)


def as_matrix(elem, n):
    return np.array(elem, dtype=np.int64).reshape(n, n)


# -- shape ------------------------------------------------------------------

def test_shape_index_roundtrip():
    shape = AdditiveShape((2, 3, 4))
    assert shape.cardinality == 24
    assert shape.weights == (12, 4, 1)
    seen = []
    for i, e in enumerate(shape.iter_elements()):
        assert shape.index(e) == i
        assert shape.element(i) == e
        seen.append(e)
    assert seen == sorted(seen)  # lexicographic
    assert seen[0] == (0, 0, 0)
    assert shape.reduce((5, -1, 9)) == (1, 2, 1)


def test_shape_rejects_bad_moduli():
    with pytest.raises(InputError):
        AdditiveShape((0, 2))
    with pytest.raises(InputError):
        AdditiveShape(())


def test_shape_moduli_stop_below_2_63():
    # the tensor and the element codes are int64: StructureRing and
    # validate_ring both take the shape first, so neither overflows
    for build in (make_ring, validate_ring):
        with pytest.raises(InputError, match=r"^shape moduli must be below 2\*\*63"):
            build([2 ** 63], [[[1]]], (1,))
    assert catalog("z(%d)" % (2 ** 63 - 1)).size == 2 ** 63 - 1


# -- validation -------------------------------------------------------------

def test_validate_accepts_z6():
    rep = validate_ring([6], [[[1]]], (1,))
    assert rep.ok and not rep.violations


def test_validate_identity_law_failure():
    rep = validate_ring([4], [[[2]]], (1,))
    assert not rep.ok
    assert any("identity" in v for v in rep.violations)
    with pytest.raises(InputError):
        make_ring([4], [[[2]]], (1,))


def test_validate_order_incompatibility():
    # b0 has additive order 2 but b0*b0 = b1 of order 4: 0 = (2b0)b0 = 2b1 != 0
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 1] = 1
    rep = validate_ring([2, 4], c, (0, 1))
    assert not rep.ok
    assert any("order incompatibility" in v for v in rep.violations)


def test_validate_associativity_failure():
    # x*x = y, y*y = y instead of x: (xx)(xx) = y but x(x(xx)) walks to x
    k = 3
    c = np.zeros((k, k, k), dtype=int)
    for j in range(k):
        c[0, j, j] = 1
        c[j, 0, j] = 1
    c[1, 1, 2] = 1
    c[1, 2, 0] = 1
    c[2, 1, 0] = 1
    c[2, 2, 2] = 1
    rep = validate_ring([5, 5, 5], c, (1, 0, 0))
    assert not rep.ok
    assert any("associativity" in v for v in rep.violations)


def test_validate_zero_ring_rejected():
    rep = validate_ring([2], [[[0]]], (0,))
    assert not rep.ok
    assert any("zero" in v for v in rep.violations)


BIG = 2 ** 33 + 17   # products of two entries mod BIG overflow int64


def test_validate_is_exact_past_int64_products():
    # Z_m[x]/(x^2 - 5) on the basis 1, y = x + t, so y^2 = (5 - t^2) + 2t y
    t = 2 ** 32 + 3
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1
    c[1, 1] = ((5 - t * t) % BIG, 2 * t % BIG)
    assert validate_ring([BIG, BIG], c, (1, 0)).violations == []
    # Z_m on the basis u = t: u * u = t u, and 1 = t^-1 u
    assert validate_ring([BIG], [[[t]]], (pow(t, -1, BIG),)).violations == []


def _first_nonassociative(mods, c):
    """The first generator triple (i, j, l) where associativity fails, by
    a loop over triples on Python ints."""
    k = len(mods)
    c = np.asarray(c).tolist()
    for i, j, l in itertools.product(range(k), repeat=3):
        for m in range(k):
            lhs = sum(c[i][j][w] * c[w][l][m] for w in range(k))
            rhs = sum(c[j][l][w] * c[i][w][m] for w in range(k))
            if (lhs - rhs) % mods[m]:
                return i, j, l
    return None


@pytest.mark.parametrize("n", [54_000_000, 55_000_000, BIG])
def test_validate_reports_the_first_nonassociative_triple(n):
    # 3 * (n - 1)^2 is just below 2^53 for the first modulus, so its
    # products run in float64, and past it for the other two
    rng = np.random.default_rng(n)
    c = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        c[0, j, j] = c[j, 0, j] = 1
    c[1:, 1:] = rng.integers(0, n, size=(2, 2, 3))
    triple = _first_nonassociative([n] * 3, c)
    assert triple is not None
    rep = validate_ring([n] * 3, c, (1, 0, 0))
    assert rep.violations == [
        "associativity fails on generators (%d, %d, %d)" % triple]


# -- structure ring arithmetic ---------------------------------------------

def test_z6_matches_integer_arithmetic():
    r = make_zn(6)
    assert r.size == 6
    assert r.one == (1,) and r.zero == (0,)
    for a in range(6):
        for b in range(6):
            assert r.add((a,), (b,)) == ((a + b) % 6,)
            assert r.mul((a,), (b,)) == ((a * b) % 6,)
        assert r.neg((a,)) == ((-a) % 6,)
    assert enumerate_elements(r) == tuple((i,) for i in range(6))


def test_m2_z2_matches_matrix_arithmetic():
    r = make_mat(2, 2)
    elems = r.elements()
    assert len(elems) == 16
    for a in elems:
        for b in elems:
            want = (as_matrix(a, 2) @ as_matrix(b, 2)) % 2
            got = as_matrix(r.mul(a, b), 2)
            assert (want == got).all()


def test_element_canonicalization_and_arith_surface():
    r = make_zn(6)
    assert r.element((13,)) == (1,)
    assert elem_arith(r, "add", (5,), (2,)) == (1,)
    assert elem_arith(r, "mul", (-1,), (2,)) == (4,)
    assert elem_arith(r, "neg", (2,)) == (4,)
    with pytest.raises(InputError):
        elem_arith(r, "pow", (1,), (2,))
    with pytest.raises(InputError):
        elem_arith(r, "neg", (1,), (2,))
    with pytest.raises(InputError):
        elem_arith(r, "add", (1,), None)
    with pytest.raises(InputError):
        r.element((1, 2))


def test_enumeration_deterministic_and_sorted():
    r = make_mat(2, 3)
    first = enumerate_elements(r)
    assert first == tuple(sorted(first))
    assert first[0] == r.zero
    again = make_mat(2, 3)
    assert enumerate_elements(again) == first


def test_format_element():
    r = make_mat(2, 2)
    assert r.format_element((0, 0, 0, 0)) == "0"
    assert r.format_element((1, 0, 0, 1)) == "e11+e22"
    r3 = make_mat(2, 3)
    assert r3.format_element((0, 2, 0, 1)) == "2e12+e22"
    plain = StructureRing([4], [[[1]]], (1,))
    assert plain.format_element((3,)) == "(3)"


def test_limits_gate_enumeration_not_construction():
    k = 17
    c = np.zeros((k, k, k), dtype=int)
    for i in range(k):
        c[i, i, i] = 1
    r = make_ring([2] * k, c, (1,) * k)  # product of 17 copies of Z2
    assert r.size == 2 ** 17
    with pytest.raises(LimitError) as err:
        r.elements(Limits())
    assert err.value.limit == "max_elements"


# -- random associativity / distributivity spot checks -----------------------

def test_axioms_on_random_triples():
    rng = random.Random(20260814)
    r = make_mat(2, 4)
    elems = r.elements()
    for _ in range(300):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert r.mul(r.mul(a, b), c) == r.mul(a, r.mul(b, c))
        assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
        assert r.mul(r.add(a, b), c) == r.add(r.mul(a, c), r.mul(b, c))
        assert r.add(a, b) == r.add(b, a)
        assert r.mul(r.one, a) == a == r.mul(a, r.one)
        assert r.add(a, r.neg(a)) == r.zero


# -- tables -------------------------------------------------------------------

def test_tables_agree_with_scalar_ops():
    for r in (make_zn(12), make_mat(2, 2), make_mat(2, 3)):
        t = r.tables()
        elems = t.elems
        n = len(elems)
        for i in range(n):
            assert t.neg[i] == t.index[r.neg(elems[i])]
            for j in range(n):
                assert t.add[i, j] == t.index[r.add(elems[i], elems[j])]
                assert t.mul[i, j] == t.index[r.mul(elems[i], elems[j])]
        assert t.zero == t.index[r.zero]
        assert t.one == t.index[r.one]


def test_table_gathers_of_empty_index_lists_are_empty():
    # a bare np.asarray([]) is float64 and cannot index; the gathers must
    # read an empty list as an empty intp array
    t = make_mat(2, 2).tables()
    cols = [t.zero, t.one, 5]
    assert t.sums([], cols).shape == (0, 3)
    assert t.prods(range(3), []).shape == (3, 0)
    assert t.sums(np.array([], dtype=np.int32), []).shape == (0, 0)


def test_products_stay_exact_for_large_moduli():
    # (n - 1)^2 is about 2^54 here, beyond exact float64 integers
    n = 2 ** 27
    rows = np.array([[n - 1], [n - 3]])
    r = make_zn(n)
    assert _outer_codes(r, rows, rows, "mul").tolist() == [[1, 3], [3, 9]]
    assert _outer_codes(r, rows, rows[:1], "mul").tolist() == [[1], [3]]


def test_tables_none_above_limit():
    r = make_zn(9)
    assert r.tables(Limits(max_table=8)) is None or r.size <= 8
    r2 = make_zn(9)
    assert r2.tables(Limits(max_table=8)) is None


# -- subrings -----------------------------------------------------------------

def upper_triangular_subring(mod):
    base = make_mat(2, mod)
    elems = [e for e in base.elements() if e[2] == 0]
    return base, SubRing(base, elems, name="upper triangular")


def test_subring_upper_triangular():
    base, t2 = upper_triangular_subring(2)
    assert t2.size == 8
    assert t2.one == base.one and t2.zero == base.zero
    for a in t2.elements():
        for b in t2.elements():
            assert t2.mul(a, b) in set(t2.elements())
    with pytest.raises(InputError):
        t2.element((0, 0, 1, 0))
    gens = t2.gens()
    assert gens  # generates the subring additively
    closure = {t2.zero}
    frontier = [t2.zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = t2.add(x, g)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    assert closure == set(t2.elements())


def test_subring_rejects_non_closed_subset():
    base = make_mat(2, 2)
    bad = [base.zero, base.one, (0, 1, 0, 0), (0, 0, 1, 0)]  # E12*E21 = E11 missing
    with pytest.raises(ConstructionError):
        SubRing(base, bad)
    z6 = QuotientRing(make_zn(12), [(0,), (6,)])   # gathered from Z12's tables
    with pytest.raises(ConstructionError, match="additively closed") as err:
        SubRing(z6, [(0,), (1,), (2,)])
    assert err.value.witness == ((1,), (2,))


def test_subring_closure_check_is_complete():
    # S2 = {c even} in M2(Z4) has 128 elements; adding any one matrix with
    # c odd breaks additive closure (a sampled check passed half of these)
    base = full_matrix_ring(2, 4)
    s2 = [e for e in base.elements() if e[2] % 2 == 0]
    assert SubRing(base, s2).size == 128
    for x in base.elements():
        if x[2] % 2:
            with pytest.raises(ConstructionError, match="additively closed"):
                SubRing(base, s2 + [x])


def test_subring_corner_identity_is_checked():
    base = make_mat(2, 2)
    e11 = (1, 0, 0, 0)
    corner = SubRing(base, [base.zero, e11], one=e11)
    assert corner.one == e11 and corner.size == 2
    upper = [e for e in base.elements() if e[2] == 0]
    with pytest.raises(ConstructionError, match="identity") as err:
        SubRing(base, upper, one=e11)
    assert err.value.witness == (0, 0, 0, 1)   # e11 * e22 = 0


def test_views_reject_entries_that_are_not_base_elements():
    m2z2 = catalog("m2z2")
    zero, one = m2z2.zero, m2z2.one
    with pytest.raises(InputError, match=r"\(2, 0, 0, 0\)"):
        QuotientRing(m2z2, [zero, (2, 0, 0, 0)])
    with pytest.raises(InputError, match=r"\(2, 0, 0, 0\)"):
        SubRing(m2z2, [zero, one, (2, 0, 0, 0), (3, 0, 0, 1)])
    with pytest.raises(InputError, match=r"\(0, 1\)"):
        QuotientRing(m2z2, [zero, (0, 1)])
    z6 = catalog("z6")
    q = quotient(z6, [(0,), (2,), (4,)])
    with pytest.raises(InputError, match=r"\(3,\)"):
        SubRing(q, [q.zero, (3,)])   # a base element, not a coset's least


def test_views_need_tables_and_no_scalar_paths_remain():
    big = catalog("z3q8")
    with pytest.raises(LimitError) as err:
        QuotientRing(big, [big.zero])
    assert err.value.limit == "max_table"
    ex52 = catalog("ex52")
    q = quotient(ex52, [ex52.zero])
    tight = Limits(max_table=64)
    for call in (lambda: center(q, tight),
                 lambda: additive_closure(q, q.gens()[:1], tight)):
        with pytest.raises(LimitError) as err:
            call()
        assert err.value.limit == "max_table"


def test_subring_tables_match():
    base, t2 = upper_triangular_subring(3)
    t = t2.tables()
    for i, a in enumerate(t.elems):
        for j, b in enumerate(t.elems):
            assert t.elems[t.mul[i, j]] == t2.mul(a, b)
            assert t.elems[t.add[i, j]] == t2.add(a, b)


# -- quotients ----------------------------------------------------------------

def test_quotient_z6_by_3z6():
    r = make_zn(6)
    q = QuotientRing(r, [(0,), (3,)])
    assert q.size == 3
    assert q.elements() == ((0,), (1,), (2,))
    assert q.mul((2,), (2,)) == (1,)  # 4 = 3 + 1
    assert q.one == (1,)
    rep = units_and_regulars(q)
    assert set(rep.units) == {(1,), (2,)}


def test_quotient_rejects_non_ideal():
    base = make_mat(2, 2)
    with pytest.raises(DomainError):
        QuotientRing(base, [base.zero, (1, 0, 0, 0)])  # E11 spans no ideal


def test_quotient_rejects_non_subgroup():
    base = make_mat(2, 2)
    with pytest.raises(DomainError):
        QuotientRing(base, [base.zero, (1, 0, 0, 0), (0, 1, 0, 0)])
    # closed under multiplication by Z6, but 2 + 3 = 5 is missing
    with pytest.raises(DomainError, match="additive subgroup"):
        QuotientRing(make_zn(6), [(0,), (2,), (3,)])


@pytest.mark.parametrize("build, exc, message", [
    (lambda r: SubRing(r, [r.one]), ConstructionError,
     "subring must contain 0"),
    (lambda r: SubRing(r, [r.zero]), ConstructionError,
     "identity (1, 0, 1) not in the subset"),
    (lambda r: QuotientRing(r, [(0, 1, 0)]), DomainError,
     "ideal must contain zero"),
], ids=["subring-without-0", "subring-without-1", "quotient-without-0"])
def test_views_need_zero_and_the_identity(build, exc, message):
    with pytest.raises(exc) as err:
        build(catalog("t2z2"))
    assert str(err.value) == message


def test_quotient_reps_are_least_and_tables_match():
    r = make_zn(12)
    q = QuotientRing(r, [(0,), (4,), (8,)])
    assert q.elements() == ((0,), (1,), (2,), (3,))
    t = q.tables()
    for i, a in enumerate(t.elems):
        for j, b in enumerate(t.elems):
            assert t.elems[t.mul[i, j]] == q.mul(a, b)


# -- center -------------------------------------------------------------------

def test_center_of_matrix_ring_is_scalars():
    r = make_mat(2, 2)
    z = center(r)
    assert set(z.elements()) == {(0, 0, 0, 0), (1, 0, 0, 1)}
    r3 = make_mat(2, 3)
    z3 = center(r3)
    assert set(z3.elements()) == {(0, 0, 0, 0), (1, 0, 0, 1), (2, 0, 0, 2)}


def test_center_of_commutative_ring_is_everything():
    r = make_zn(8)
    assert len(center(r).elements()) == 8


def test_center_of_upper_triangular():
    _, t2 = upper_triangular_subring(2)
    z = center(t2)
    assert set(z.elements()) == {(0, 0, 0, 0), (1, 0, 0, 1)}


def test_center_is_closed_subring():
    r = make_mat(2, 3)
    z = center(r)
    zs = set(z.elements())
    for a in zs:
        for b in zs:
            assert z.add(a, b) in zs
            assert z.mul(a, b) in zs


# -- units and regulars --------------------------------------------------------

def test_units_of_zn():
    r = make_zn(12)
    rep = units_and_regulars(r)
    assert set(rep.units) == {(k,) for k in (1, 5, 7, 11)}
    assert rep.regulars_equal_units
    for u, v in rep.inverses.items():
        assert r.mul(u, v) == r.one and r.mul(v, u) == r.one


def test_units_of_m2_z2_is_gl2():
    r = make_mat(2, 2)
    rep = units_and_regulars(r)
    assert len(rep.units) == 6  # |GL(2, F2)|
    assert rep.regulars_equal_units
    dets = {int(round(np.linalg.det(as_matrix(u, 2)))) % 2 for u in rep.units}
    assert dets == {1}


def test_units_rank_path_matches_table_path():
    # same ring through both code paths: dense tables vs modular solves
    r1 = make_mat(2, 3)
    rep_table = units_and_regulars(r1)
    r2 = make_mat(2, 3)
    rep_rank = units_and_regulars(r2, Limits(max_table=1))
    assert r2.tables(Limits(max_table=1)) is None
    assert set(rep_rank.units) == set(rep_table.units)
    assert set(rep_rank.regulars) == set(rep_table.regulars)
    for u, v in rep_rank.inverses.items():
        assert r2.mul(u, v) == r2.one and r2.mul(v, u) == r2.one


RANK_PATH_RINGS = ("ex52", "z2q8", "z2d4", "m2z2", "t2z2", "ext2(3)",
                   "ext2(5)")


@pytest.mark.parametrize("name", RANK_PATH_RINGS)
def test_rank_path_matches_table_path_on_catalog(name):
    no_tables = Limits(max_table=1)
    table_ring, rank_ring = catalog(name), catalog(name)
    assert table_ring.tables() is not None
    assert rank_ring.tables(no_tables) is None
    a = units_and_regulars(table_ring)
    b = units_and_regulars(rank_ring, no_tables)
    assert a.units == b.units
    assert a.inverses == b.inverses
    assert a.regulars == b.regulars
    assert (a.l_full == b.l_full).all() and (a.r_full == b.r_full).all()
    oa, ob = ore_check(table_ring), ore_check(rank_ring, no_tables)
    assert (oa.right_holds, oa.left_holds) == (ob.right_holds, ob.left_holds)
    assert oa.regular_count == ob.regular_count


@pytest.mark.parametrize("name, max_table", [
    (name, m) for name in RANK_PATH_RINGS for m in (1024, 1)] + [
    ("z3q8", 1024)])
def test_recorded_inverses_are_two_sided(name, max_table):
    # the premise of ore_check, in scalar arithmetic on both paths; z3q8
    # is above max_table, so it takes the rank path
    r = catalog(name)
    limits = Limits(max_table=max_table)
    assert (r.tables(limits) is None) == (r.size > max_table)
    rep = units_and_regulars(r, limits)
    assert sorted(rep.inverses) == sorted(rep.units)
    for b, v in rep.inverses.items():
        assert r.mul(b, v) == r.one == r.mul(v, b)


def test_rank_path_limits_still_skip():
    lines = full_report(catalog("z3q8"), Limits(max_elements=4096)).lines()
    for key in ("units", "ore_right", "ore_left"):
        assert "%s=skipped;limit=max_elements" % key in lines
    # Z_4 coefficients are not a prime field: no rank path
    r = make_mat(2, 4)
    no_tables = Limits(max_table=1)
    with pytest.raises(LimitError) as err:
        units_and_regulars(r, no_tables)
    assert err.value.limit == "max_table"
    lines = full_report(make_mat(2, 4), no_tables).lines()
    for key in ("units", "ore_right", "ore_left"):
        assert "%s=skipped;limit=max_table" % key in lines


# -- units by central blocks ----------------------------------------------------

def _fields(rep):
    return (rep.units, rep.inverses, rep.l_full.tolist(), rep.r_full.tolist())


def _rank_fields(ring, p):
    """_fields of the report that one solve per element gives on ring."""
    units, inverses, l_full, r_full = oracles.units_by_rank(ring, p)
    return units, inverses, l_full.tolist(), r_full.tolist()


def _augmented(A, cols):
    """Whether core._row_reduce_mod_p got a stack of augmented systems
    (system, row, column), as the unit path passes them."""
    return A.ndim == 3 and cols < A.shape[2]


def _count_systems(monkeypatch):
    """The number of augmented systems core._row_reduce_mod_p reduces, from
    now on, as a one-entry list."""
    count, real = [0], core._row_reduce_mod_p

    def counted(A, p, cols):
        if _augmented(A, cols):
            count[0] += len(A)
        return real(A, p, cols)

    monkeypatch.setattr(core, "_row_reduce_mod_p", counted)
    return count


def _block_sizes(ring):
    comp = _OnDemandTables(ring).prods(np.arange(ring.size),
                                       _central_blocks(ring))
    return sorted(len(np.unique(col)) for col in comp.T)


def _radical_block_sizes(ring):
    """The block sizes of R/J, whose elements units solve one system for
    each, on each side (J is pinned by test_radical_basis_is_jacobson)."""
    return _block_sizes(core._radical_quotient(ring, ring.shape.moduli[0])[0])


def c2_cubed():
    return direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))


def truncated_polynomials(k):
    """F_2[x]/(x^k): commutative and local, J = (x) of index k."""
    c = np.zeros((k, k, k), dtype=np.int64)
    for i, j in itertools.product(range(k), repeat=2):
        if i + j < k:
            c[i, j, i + j] = 1
    return make_ring([2] * k, c, (1,) + (0,) * (k - 1))


def split_ring():
    """F_2 x F_2[x]/(x^10): blocks of 2 and 1024 elements."""
    k = 11
    c = np.zeros((k, k, k), dtype=np.int64)
    c[0, 0, 0] = 1
    for i, j in itertools.product(range(k - 1), repeat=2):
        if i + j < k - 1:
            c[1 + i, 1 + j, 1 + i + j] = 1
    return make_ring([2] * k, c, (1, 1) + (0,) * (k - 2))


BLOCK_RINGS = {   # name: (ring constructor, block sizes)
    "z3q8": (lambda: catalog("z3q8"), [3, 3, 3, 3, 81]),
    "z3d4": (lambda: group_algebra(3, dihedral(4)), [3, 3, 3, 3, 81]),
    "z3[c2^3]": (lambda: group_algebra(3, c2_cubed()), [3] * 8),
}


@pytest.mark.parametrize("name", sorted(BLOCK_RINGS))
def test_block_path_matches_rank_path(name, monkeypatch):
    # semisimple: J = 0, so the blocks of R/J are those of R
    build, sizes = BLOCK_RINGS[name]
    r = build()
    assert r.tables() is None and _block_sizes(r) == sizes
    assert len(core._radical_basis(r, 3)) == 0
    systems = _count_systems(monkeypatch)
    rep = units_and_regulars(r)
    assert systems == [2 * sum(sizes)]
    assert _fields(rep) == _rank_fields(build(), 3)


@pytest.mark.parametrize("build, per_side", [
    (lambda: catalog("z3q8"), 93),
    (split_ring, 4),
    (lambda: catalog("ext2(7)"), 7),
], ids=["z3q8", "split", "ext2(7)"])
def test_units_solve_one_system_per_distinct_component(build, per_side,
                                                       monkeypatch):
    # one system per element of each block of R/J: z3q8 is semisimple,
    # with blocks of 81 + 4 * 3 elements; the split ring's R/J is F_2 x F_2
    # and ext2(7)'s is F_7
    r = build()
    assert sum(_radical_block_sizes(r)) == per_side
    systems = _count_systems(monkeypatch)
    units_and_regulars(r)
    assert systems == [2 * per_side]


def test_units_above_max_table_build_no_tables(monkeypatch):
    # ext2(7)'s R/J is F_7, of 7 elements, decided without its tables
    built = []
    real_build, real_init = core.Tables.build, core.SubRing.__init__

    def build(ring, limits=Limits()):
        built.append(ring)
        return real_build(ring, limits)

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(core.Tables, "build", staticmethod(build))
    monkeypatch.setattr(core.SubRing, "__init__", init)
    for name, units in (("z3q8", 768), ("ext2(7)", 2058)):
        assert len(units_and_regulars(catalog(name)).units) == units
    assert built == []


def test_full_report_above_max_table_lists_no_elements(monkeypatch):
    # units, the Ore keys and CE read index arrays and decode only what
    # they print, so no key lists the ring
    rings = {"z3q8": 768, "ext2(7)": 2058}
    built = {name: catalog(name) for name in rings}
    listed, real = [], AdditiveShape.iter_elements

    def counted(shape):
        listed.append(shape)
        return real(shape)

    monkeypatch.setattr(AdditiveShape, "iter_elements", counted)
    for name, units in rings.items():
        lines = full_report(built[name]).lines()
        assert "units=%d" % units in lines and "ore_left=true" in lines
    assert listed == []


def test_unit_report_reads_after_its_limits():
    # ext2(17) has 83521 elements, above the default max_elements; the
    # report decodes on read, which depends on no limit
    r = catalog("ext2(17)")
    rep = units_and_regulars(r, Limits(max_elements=100000))
    with pytest.raises(LimitError):
        units_and_regulars(r)
    assert len(rep.units) == 78608 and rep.regulars_equal_units
    assert rep.regulars == rep.units and len(rep.inverses) == 78608
    for b in random.Random(0).sample(rep.units, 200):
        v = rep.inverses[b]
        assert r.mul(b, v) == r.one == r.mul(v, b)


def test_block_path_matches_table_path_on_samples(monkeypatch):
    # the sampled rings over one prime field with two or more blocks,
    # with a max_table of their largest block, so none has tables
    checked = 0
    systems = _count_systems(monkeypatch)
    for i, ring in enumerate(sample_rings(0, 100, max_size=256)):
        s = as_structure_ring(ring)
        mods = set(s.shape.moduli)
        if mods not in ({2}, {3}) or len(_central_blocks(s)) < 2:
            continue
        limits = Limits(max_table=_block_sizes(s)[-1])
        forced = as_structure_ring(ring)
        assert forced.tables(limits) is None
        before = systems[0]
        assert _fields(units_and_regulars(forced, limits)) == \
            _fields(units_and_regulars(s)), "sample %d" % i
        assert systems[0] - before == 2 * sum(_radical_block_sizes(s)), \
            "sample %d" % i
        checked += 1
    assert checked == 22


def test_central_blocks_match_brute_force_on_samples():
    # the minimal nonzero idempotents of the center, e <= f meaning e*f = e;
    # over F_5 and F_7 too: F_5[C4] is F_5^4, F_5[C3] is F_5 x F_25 and
    # F_7[C3] is F_7^3
    rings = list(sample_rings(0, 100, max_size=256)) + [
        group_algebra(5, cyclic(4)), group_algebra(5, cyclic(3)),
        group_algebra(7, cyclic(3))]
    checked = 0
    for i, ring in enumerate(rings):
        s = as_structure_ring(ring)
        if len(set(s.shape.moduli)) > 1 or s.shape.moduli[0] == 4:
            continue
        t = s.tables()
        z = t.encode(center(s).elements())
        idem = [e for e in z if t.mul[e, e] == e and e != t.zero]
        prim = [e for e in idem
                if all(t.mul[e, f] in (e, t.zero) for f in idem)]
        codes = _OnDemandTables(s).encode([t.elems[e] for e in prim])
        assert _central_blocks(s).tolist() == sorted(codes), \
            "sample %d" % i
        checked += 1
    assert checked == 78


def test_central_blocks_of_z3q8():
    # M2(F3) x F3^4: five orthogonal central idempotents that sum to 1
    r = catalog("z3q8")
    blocks = _central_blocks(r)
    assert blocks.tolist() == [4617, 5738, 5794, 6448, 6560]
    assert _block_sizes(r) == [3, 3, 3, 3, 81]
    idem = _OnDemandTables(r).decode(blocks)
    total = r.zero
    for e in idem:
        assert r.mul(e, e) == e
        assert all(r.mul(e, g) == r.mul(g, e) for g in r.gens())
        assert all(r.mul(e, f) == r.zero for f in idem if f != e)
        total = r.add(total, e)
    assert total == r.one


def test_central_blocks_list_only_the_frobenius_fixed_points(monkeypatch):
    # F_2[x]/(x^11) is commutative and local: its center is all 2048
    # elements, but only 0 and 1 have x^2 = x
    k = 11
    r = truncated_polynomials(k)
    rows, real = [], core._paired_products

    def recorded(ring, A, B):
        rows.append(len(A))
        return real(ring, A, B)

    monkeypatch.setattr(core, "_paired_products", recorded)
    one = _OnDemandTables(r).encode([r.one]).tolist()
    assert _central_blocks(r).tolist() == one
    assert 0 < max(rows) <= k


def test_units_of_one_block_and_large_block_rings():
    ext = catalog("ext2(7)")
    assert _block_sizes(ext) == [ext.size]
    rep = units_and_regulars(ext)
    assert len(rep.units) == 2058
    tabled = catalog("ext2(7)")
    assert _fields(rep) == _fields(units_and_regulars(
        tabled, Limits(max_table=tabled.size)))
    # z3q8's block of 81 elements is above this max_table
    rep = units_and_regulars(catalog("z3q8"), Limits(max_table=80))
    assert _fields(rep) == _fields(units_and_regulars(catalog("z3q8")))
    assert _fields(rep) == _rank_fields(catalog("z3q8"), 3)
    split = split_ring()
    assert _block_sizes(split) == [2, 1024]
    rep = units_and_regulars(split)
    assert len(rep.units) == 512
    assert _fields(rep) == _rank_fields(split_ring(), 2)


def test_blocks_of_a_ring_of_idempotents(monkeypatch):
    # F_2^11, diagonal: all 2048 elements are idempotent, and pairwise
    # products of them would be 2048 x 2048 codes
    k = 11
    c = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        c[i, i, i] = 1
    r, copy = (make_ring([2] * k, c, (1,) * k) for _ in range(2))
    widest, product_bytes = [], []
    matmul = np.matmul

    def recorded(ring, A, B, op):
        widest.append(len(A) * len(B))
        return _outer_codes(ring, A, B, op)

    def sized(*args, **kwargs):
        out = matmul(*args, **kwargs)
        product_bytes.append(out.nbytes)
        return out

    monkeypatch.setattr(core, "_outer_codes", recorded)
    # the squares of all 2048 elements at once would be (2048, k, k)
    # products, about 2 MB; the paired products and the multiplication
    # matrices are np.matmul calls
    monkeypatch.setattr(np, "matmul", sized)
    assert _central_blocks(r).tolist() == [2 ** i for i in range(k)]
    assert max(widest) <= r.size * k
    rep = units_and_regulars(r)
    monkeypatch.setattr(np, "matmul", matmul)
    assert 0 < max(product_bytes) <= core._CHUNK_BYTES
    assert rep.units == (r.one,)
    assert _fields(rep) == _rank_fields(copy, 2)


def test_a_wrong_block_inverse_raises(monkeypatch):
    # drop the projection z*e: the first product after the eliminations
    # returns z itself, which solves c*z = e but is not inside e*R
    solving, mutated = [], []
    real_solve, real_products = core._row_reduce_mod_p, core._paired_products

    def solve(A, p, cols):
        if _augmented(A, cols):
            solving.append(True)
        return real_solve(A, p, cols)

    def products(ring, A, B):
        if solving and not mutated:
            mutated.append(len(A))
            return A
        return real_products(ring, A, B)

    monkeypatch.setattr(core, "_row_reduce_mod_p", solve)
    monkeypatch.setattr(core, "_paired_products", products)
    with pytest.raises(RingError, match="internal"):
        units_and_regulars(catalog("z3q8"))
    assert mutated == [93]


# -- the radical and the lift ------------------------------------------------

# one-prime structure rings up to max_table, 179 in all: RANK_PATH_RINGS
# and three sample streams (seed, count, max_size)
RADICAL_SOURCES = {"catalog": 7, (0, 100, 256): 75, (7919, 100, 256): 67,
                   (11, 40, 512): 30}


@functools.lru_cache(maxsize=None)
def _stream(seed, count, max_size):
    return tuple(sample_rings(seed, count, max_size=max_size))


def _one_prime_rings(key):
    """Fresh structure rings of a RADICAL_SOURCES key, without cached
    reports."""
    if key == "catalog":
        rings = [catalog(name) for name in RANK_PATH_RINGS]
    else:
        rings = [as_structure_ring(r) for r in _stream(*key)]
    rings = [r for r in rings
             if r.size <= Limits().max_table and core._one_prime(r)]
    assert len(rings) == RADICAL_SOURCES[key]
    return rings


def _span_codes(ring, basis):
    span = core._span_mod_p(basis, ring.shape.moduli[0], ring._exact_tensor.dtype)
    return sorted((span @ ring._weights).tolist())


@pytest.mark.parametrize("key", list(RADICAL_SOURCES), ids=str)
def test_radical_basis_is_jacobson(key):
    # units stay right for any nilpotent ideal inside J, so this is the
    # test that pins J itself
    for i, r in enumerate(_one_prime_rings(key)):
        want = _OnDemandTables(r).encode(jacobson_radical(r).elements)
        basis = core._radical_basis(r, r.shape.moduli[0])
        assert _span_codes(r, basis) == sorted(want.tolist()), i


def test_trace_of_l_a_alone_is_not_the_radical(monkeypatch):
    # keep only g_0(a) = Tr(L_a): every later functional reads 0, so the
    # chain stops at I_0, which is larger than J on these rings
    real = core._trace_functional

    def first_only(ring, X, p, q):
        if q == 1:
            return real(ring, X, p, q)
        return np.zeros((len(X), ring.shape.width), dtype=np.int64)

    monkeypatch.setattr(core, "_trace_functional", first_only)
    for name, dim, dim_j in (("m2z2", 4, 0), ("z2q8", 8, 7), ("t2z2", 2, 1)):
        r = catalog(name)
        assert len(core._radical_basis(r, 2)) == dim
        assert jacobson_radical(r).size == 2 ** dim_j


def test_a_short_geometric_lift_raises(monkeypatch):
    # F_2[x]/(x^11): J = (x), of dimension 10 and index 11, so the lift
    # takes 4 rounds (2^4 >= 11); with 3, (1 + x)^-1 misses x^8, x^9, x^10
    r = truncated_polynomials(11)
    rep = units_and_regulars(r)
    assert r.tables() is None and len(rep.units) == 1024
    assert _fields(rep) == _rank_fields(truncated_polynomials(11), 2)
    real, rounds = core._geometric_lift, []

    def short(ring, A, V, n):
        rounds.append(n)
        return real(ring, A, V, n - 1)

    monkeypatch.setattr(core, "_geometric_lift", short)
    with pytest.raises(RingError, match="internal"):
        units_and_regulars(truncated_polynomials(11))
    assert rounds == [4]


@pytest.mark.parametrize("key", list(RADICAL_SOURCES)[1:], ids=str)
def test_radical_units_match_rank_oracle(key):
    no_tables = Limits(max_table=1)
    for i, r in enumerate(_one_prime_rings(key)):
        assert _fields(units_and_regulars(r, no_tables)) == \
            _rank_fields(r, r.shape.moduli[0]), i


def test_units_of_a_large_local_group_algebra():
    # F_2[Q8 x C2], 65536 elements and local: the units are the elements
    # of augmentation 1, their inverses lifted through J of dimension 15
    r = group_algebra(2, direct_product(quaternion8(), cyclic(2)))
    rep = units_and_regulars(r)
    assert len(rep.units) == 32768
    odd = r.elements_array().sum(axis=1) % 2 == 1
    assert rep.units == tuple(e for e, u in zip(r.elements(), odd) if u)


def test_units_of_product_ring():
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[1, 1, 1] = 1
    r = make_ring([2, 3], c, (1, 1))  # Z2 x Z3
    rep = units_and_regulars(r)
    assert set(rep.units) == {(1, 1), (1, 2)}


# -- the Gauss-Jordan kernel mod p -------------------------------------------

def _oracle_ranks(A, p, cols):
    """Ranks of the first cols columns of each matrix of a stack, by the
    rank oracle's own eliminator, on the matrices padded with zeros to
    square systems."""
    *lead, r, c = A.shape
    k, m = max(r, cols), int(np.prod(lead))
    M = np.zeros((k, k + 1, m), dtype=np.int64)
    M[:r, :cols] = A.reshape(m, r, c)[:, :, :cols].transpose(1, 2, 0)
    return oracles._eliminate_mod_p(M, p)[1].reshape(lead)


def _assert_reduced(A, rank, cols):
    """Each matrix of the stack A is in reduced row echelon form on its
    first cols columns, with rank pivot rows."""
    for B, n in zip(A.reshape(rank.size, *A.shape[-2:]), np.ravel(rank)):
        B = B[:, :cols]
        assert not B[n:].any()
        pivots = [np.flatnonzero(row)[0] for row in B[:n]]
        assert pivots == sorted(set(pivots))
        assert (B[np.arange(n), pivots] == 1).all()
        assert (np.count_nonzero(B[:, pivots], axis=0) == 1).all()


def _random_systems(rng, p, m, k):
    """m augmented systems [A | b], (m, k, k + 1) mod p, each A of a random
    rank; b is A @ x for the first half and random for the rest."""
    d = rng.integers(0, k + 1, size=m)
    U = rng.integers(0, p, size=(m, k, k)) * (np.arange(k) < d[:, None, None])
    A = U @ rng.integers(0, p, size=(m, k, k)) % p
    b = rng.integers(0, p, size=(m, k))
    b[:m // 2] = np.einsum("mij,mj->mi", A, b)[:m // 2] % p
    return np.concatenate([A, b[:, :, None]], axis=2)


# per prime: the random systems that are consistent, inconsistent, and of
# a rank below their size
SYSTEM_COUNTS = {2: [121, 59, 173], 3: [123, 57, 158], 5: [110, 70, 147],
                 7: [116, 64, 139]}


@pytest.mark.parametrize("p", sorted(SYSTEM_COUNTS))
def test_row_reduce_mod_p_matches_the_oracle_eliminator(p):
    rng = np.random.default_rng(p)
    stacks = [(rng.integers(0, p, size=(3, 4, 5, 7)), 4),
              (rng.integers(0, p, size=(6, 9)), 5),   # a plain matrix
              (rng.integers(0, p, size=(5, 0, 4)), 4),   # 0-row matrices
              (rng.integers(0, p, size=(0, 3, 4)), 3)]
    stacks += [(_random_systems(rng, p, 60, k), k) for k in (1, 3, 6)]
    counts = [0, 0, 0]
    for A, cols in stacks:
        before = A.copy()
        rank = core._row_reduce_mod_p(A, p, cols)
        assert rank.shape == A.shape[:-2]
        assert (rank == _oracle_ranks(before, p, cols)).all()
        _assert_reduced(A, rank, cols)
        if A.ndim == 3 and A.shape[2] == cols + 1:   # the systems
            x = core._reduced_solutions(A)
            solves = (np.einsum("mij,mj->mi", before[:, :, :cols], x) % p
                      == before[:, :, cols]).all(axis=1)
            systems = before.transpose(1, 2, 0).copy()   # row, column, system
            y, _ = oracles._eliminate_mod_p(systems, p)
            oracle = (np.einsum("mij,mj->mi", before[:, :, :cols], y) % p
                      == before[:, :, cols]).all(axis=1)
            assert (solves == oracle).all()
            counts = np.add(counts, [solves.sum(), (~solves).sum(),
                                     (rank < cols).sum()]).tolist()
    assert counts == SYSTEM_COUNTS[p]


def test_inverse_table_is_built_once_per_prime():
    # the kernel's table of inverses mod p is shared by every call and
    # every ring over p, and no caller can write to it
    core._inverses_mod_p.cache_clear()
    for _ in range(2):
        assert len(units_and_regulars(catalog("z(1031)")).units) == 1030
    info = core._inverses_mod_p.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 0
    inv = core._inverses_mod_p(1031)
    assert not inv.flags.writeable
    assert (inv[1:] * np.arange(1, 1031) % 1031 == 1).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 8191])
def test_inverse_table_matches_pow(p):
    # the vectorised Fermat powers agree with Python's modular inverse
    want = [0] + [pow(v, -1, p) for v in range(1, p)]
    assert core._inverses_mod_p(p).tolist() == want


# -- exact products on the F_p path ------------------------------------------

PRODUCT_GROUPS = {1: lambda: cyclic(1), 2: lambda: cyclic(2), 8: quaternion8}


def _in_random_basis(p, k, rng):
    """F_p[G], |G| = k, in the basis b'_i = sum_a P[i, a] b_a for P random
    in GL_k(F_p), so that its tensor fills [0, p): T' = (P P T) P^-1,
    formed on Python ints."""
    from sympy import Matrix
    s = group_algebra(p, PRODUCT_GROUPS[k]())
    while True:
        P = rng.integers(0, p, size=(k, k)).astype(object)
        if Matrix(P).det() % p:
            break
    P_inv = np.array(Matrix(P).inv_mod(p).tolist(), dtype=object)
    T = np.tensordot(P, np.tensordot(P, s.tensor.astype(object), axes=(1, 1)),
                     axes=(1, 1)) @ P_inv % p
    return make_ring([p] * k, T.astype(np.int64),
                     tuple((np.array(s.one, dtype=object) @ P_inv % p).tolist()))


def test_products_are_exact_on_both_sides_of_the_float64_bound():
    # float64 while k^2 (p - 1)^3 and k (p k - 1)^2 stay below 2^53,
    # Python ints past it; every product equals the Python-int one
    rng = np.random.default_rng(2097169)
    sides = {np.dtype(np.float64): 0, np.dtype(object): 0, "codes": 0}
    for p, k in itertools.product((2, 3, 7, 8191, 2097169), (1, 2, 8)):
        r = _in_random_basis(p, k, rng)
        T = r.tensor.tolist()
        A, B = (rng.integers(0, p, size=(12, k)) for _ in range(2))
        a_T = [[[sum(a[i] * T[i][j][m] for i in range(k)) for m in range(k)]
                for j in range(k)] for a in A.tolist()]
        T_a = [[[sum(a[j] * T[i][j][m] for j in range(k)) for m in range(k)]
                for i in range(k)] for a in A.tolist()]
        want = [[sum(b[j] * L[j][m] for j in range(k)) % p for m in range(k)]
                for b, L in zip(B.tolist(), a_T)]
        left, right = r.mul_matrices(A)
        assert (left.tolist(), right.tolist()) == (a_T, T_a), (p, k)
        assert core._paired_products(r, A, B).tolist() == want, (p, k)
        sides[r._exact_tensor.dtype] += 1
        if r.size >= 2 ** 63:   # element codes are int64
            continue
        codes = np.array([[r.shape.index(r.mul(a, b)) for b in map(tuple, B.tolist())]
                          for a in map(tuple, A.tolist())])
        assert np.array_equal(_outer_codes(r, A, B, "mul"), codes), (p, k)
        assert np.array_equal(_outer_codes(r, A, B[:3], "mul"), codes[:, :3])
        sides["codes"] += 1
    assert sides == {np.dtype(np.float64): 12, np.dtype(object): 3, "codes": 13}


def test_units_past_int64_products():
    # F_p on the basis u = -1, p the first prime past 2^21: u*u = (p-1)*u.
    # k^2 (p - 1)^3 >= 2^63 here, so int64 products would wrap
    p = 2097169
    r = make_ring([p], [[[p - 1]]], (p - 1,))
    assert r._exact_tensor.dtype == object
    rep = units_and_regulars(r, Limits(max_elements=2 ** 22))
    assert len(rep.unit) == p - 1 and rep.unit[0] == 1
    # the element c*u times d*u is c*d*(p-1)*u, so the inverse of c*u is
    # c^-1*u, coded c^-1
    assert (rep.unit * rep.inverse % p == 1).all()


def test_on_demand_products_past_int64():
    # (2^32 + 5)(2^31 + 7) mod 2^33 + 17, a product near 2^64
    r = catalog("z(8589934609)")
    a, b = 2 ** 32 + 5, 2 ** 31 + 7
    assert r.mul((a,), (b,)) == (5368709121,)
    assert _OnDemandTables(r).prods([a], [b]).tolist() == [[5368709121]]


def test_on_demand_sums_past_2_62():
    # (p - 1) + (p - 1) for the first prime past 2^62: a + b wraps int64
    p = 4611686018427388039
    r = catalog("z(%d)" % p)
    assert r.add((p - 1,), (p - 1,)) == (p - 2,)
    assert _OnDemandTables(r).sums([p - 1], [p - 1]).tolist() == [[p - 2]]


def test_prime_test_is_exact():
    # Miller-Rabin on the bases 2 to 37 against trial division, then two
    # moduli whose trial division would take minutes
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
    assert ([n for n in range(10 ** 4) if core._is_prime(n)]
            == [n for n in range(10 ** 4) if trial(n)])
    p = 4611686018427388039
    assert core._one_prime(catalog("z(%d)" % p)) == p
    assert core._one_prime(catalog("z(%d)" % (2147483647 * 2147483629))) is None
