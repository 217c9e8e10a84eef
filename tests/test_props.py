"""Decision procedures on the example rings: frozen verdicts and cross-checks."""

import random

import numpy as np
import pytest

from ringbench.core import (
    LimitError, Limits, _OnDemandTables, _central_mod, center,
    units_and_regulars, validate_ring,
)
from ringbench.construct import (
    Free, MatrixPattern, Tied, catalog, exterior_square_ring, group_algebra,
    matrix_pattern_ring,
)
from ringbench.groups import cyclic, dihedral, direct_product, quaternion8
from ringbench.ideals import (
    all_ideals, jacobson_radical, nilpotency_index, prime_radical, quotient,
)
from ringbench import ideals, props
from ringbench.props import (
    central_series_through_radical, centrally_essential,
    completely_centrally_essential, full_report, is_commutative, is_invariant,
    is_local, is_lie_nilpotent, is_reversible, is_semicommutative,
    is_strongly_bounded, is_strongly_lie_nilpotent, is_uniserial, lie_class,
    lie_series, ore_check, random_quotient, sample_rings,
    verify_ce_counterexample, zero_divisor_symmetry,
)
from tests.test_core import make_mat, make_zn
from tests.test_construct import vec

NO_TABLES = Limits(max_table=1)


# -- commutativity ------------------------------------------------------------

def test_commutative_verdicts():
    assert is_commutative(make_zn(12)).holds
    v = is_commutative(catalog("m2z2"))
    assert not v.holds
    a, b = v.witness
    r = catalog("m2z2")
    assert r.mul(a, b) != r.mul(b, a)


def test_commutative_structure_path_agrees():
    r = catalog("ex52")
    assert not is_commutative(r).holds
    assert not is_commutative(catalog("ex52"), NO_TABLES).holds


# -- centrally essential ------------------------------------------------------

def test_ce_group_algebra_of_quaternions():
    rep = centrally_essential(catalog("z2q8"))
    assert rep.holds
    assert rep.center_size == 32


def test_ce_witness_map_is_sound():
    r = catalog("z2q8")
    rep = centrally_essential(r)
    zelems = set(center(r).elements())
    items = sorted(rep.witness_map.items())[:60]
    assert items
    for a, (x, y) in items:
        assert a != r.zero
        assert x in zelems and x != r.zero
        assert y in zelems and y != r.zero
        assert r.mul(a, x) == y


def test_ce_fails_on_full_and_triangular_matrices():
    for name in ("m2z2", "t2z2"):
        r = catalog(name)
        rep = centrally_essential(r)
        assert not rep.holds
        assert rep.counterexample == vec(r, e22=1)
        assert verify_ce_counterexample(r, rep.counterexample)


def test_ce_paths_agree():
    # the no-tables scan must reproduce the table verdicts exactly
    for name in ("t2z2", "z2q8"):
        a = centrally_essential(catalog(name))
        b = centrally_essential(catalog(name), NO_TABLES)
        assert a.holds == b.holds
        assert a.center_size == b.center_size
        assert a.counterexample == b.counterexample


def test_ce_commutative_fast_path():
    rep = centrally_essential(make_zn(9))
    assert rep.holds and rep.center_size == 9
    assert rep.witness_map[(4,)] == ((1,), (4,))


@pytest.mark.parametrize("build, witness", [
    (lambda: catalog("z3q8"), "ab+2a3b"),
    (lambda: group_algebra(3, dihedral(4)), "ab+2a3b"),
    (lambda: catalog("ext2(7)"), "v"),
], ids=("z3q8", "z3d4", "ext2(7)"))
def test_ce_counterexample_above_max_table(build, witness):
    # the rank test's counterexample is the on-demand scan's, and a scalar
    # re-check confirms it
    ring = build()
    rep = centrally_essential(ring)
    assert ring.tables() is None and not rep.holds
    t = _OnDemandTables(ring)
    every = np.arange(ring.size)
    scan = props._ce_tables(t, every, _central_mod(t, every, every))
    assert rep.counterexample == scan.counterexample
    assert ring.format_element(rep.counterexample) == witness
    assert verify_ce_counterexample(ring, rep.counterexample)


def test_ce_holds_above_max_table_by_rank_alone(monkeypatch):
    # F_2[Q8 x C2]: 65536 elements, center 1024.  The rank test decides it
    # in about 2 s without one on-demand product (the scan of every a
    # against the central x took about 25 s), and the ring is too large
    # for a witness map.
    def refuse(self, rows, cols):
        raise AssertionError("CE scanned the ring")

    monkeypatch.setattr(_OnDemandTables, "prods", refuse)
    ring = group_algebra(2, direct_product(quaternion8(), cyclic(2)))
    rep = centrally_essential(ring)
    assert ring.size > props.WITNESS_MAP_LIMIT
    assert (rep.holds, rep.center_size, rep.witness_map) == (True, 1024, {})


# -- completely centrally essential -------------------------------------------

def test_cce_fails_for_quaternion_group_algebra():
    # the quotient by the one-dimensional ideal spanned by the sum of all
    # group elements is not centrally essential
    r = catalog("z2q8")
    rep = completely_centrally_essential(r)
    assert not rep.holds
    assert rep.checked_ideals == 1
    allsum = tuple(1 for _ in range(8))
    assert sorted(rep.failing_ideal.elements) == [r.zero, allsum]
    assert rep.quotient_counterexample == vec(r, a2=1, a3=1, a2b=1, a3b=1)


def test_cce_counterexample_verifies_in_the_quotient():
    r = catalog("z2q8")
    rep = completely_centrally_essential(r)
    q = quotient(r, rep.failing_ideal)
    assert q.size == 128
    assert not centrally_essential(q).holds
    assert verify_ce_counterexample(q, rep.quotient_counterexample)
    # the counterexample coset also contains e+a+b+ab
    assert q.project(vec(r, e=1, a=1, b=1, ab=1)) == rep.quotient_counterexample


def test_cce_fails_for_nilpotent_jet_ring():
    # the span of the far-corner unit is an ideal whose quotient pairs the
    # residual a22 line with nothing central
    r = catalog("ex52")
    rep = completely_centrally_essential(r)
    assert centrally_essential(r).holds
    assert not rep.holds
    assert rep.checked_ideals == 1
    assert sorted(rep.failing_ideal.elements) == [r.zero, vec(r, b22=1)]
    assert rep.quotient_counterexample == vec(r, a22=1)
    q = quotient(r, rep.failing_ideal)
    assert verify_ce_counterexample(q, rep.quotient_counterexample)


def test_cce_fails_for_congruent_triangular_ring():
    r = catalog("ex51(3)")
    rep = completely_centrally_essential(r)
    assert centrally_essential(r).holds
    assert rep.center_size == 32
    assert not rep.holds
    assert sorted(rep.failing_ideal.elements) == [(0, 0, 0), (0, 0, 2)]
    assert rep.quotient_counterexample == (0, 0, 1)


def test_cce_commutative_shortcut():
    rep = completely_centrally_essential(make_zn(12))
    assert rep.holds and rep.checked_ideals == 0


def test_cce_holds_for_exterior_algebra_mod_4():
    # noncommutative, yet every proper quotient stays centrally essential:
    # all commutators lie in the unique minimal ideal {0, 2uv}
    r = exterior_square_ring(4)
    assert not is_commutative(r).holds
    rep = completely_centrally_essential(r)
    assert rep.holds
    assert rep.center_size == 64
    assert rep.checked_ideals == 45
    minimal = [i for i in all_ideals(r) if i.size == 2]
    assert len(minimal) == 1
    assert sorted(minimal[0].elements) == [r.zero, (0, 0, 0, 2)]


def test_exterior_algebra_mod_3_is_not_ce():
    # -1 is invertible mod 3, so u pairs with no nonzero central partner
    r = exterior_square_ring(3)
    rep = centrally_essential(r)
    assert not rep.holds
    assert rep.counterexample == (0, 0, 1, 0)
    assert verify_ce_counterexample(r, rep.counterexample)


# -- invariant and strongly bounded -------------------------------------------

def test_invariant_verdicts():
    assert is_invariant(catalog("z2q8")).holds
    assert not is_invariant(catalog("z2d4")).holds
    assert is_invariant(exterior_square_ring(4)).holds
    assert is_invariant(make_zn(10)).holds


def test_invariant_fails_on_jet_ring_with_witness():
    r = catalog("ex52")
    v = is_invariant(r)
    assert not v.holds
    a = v.witness
    assert a == vec(r, a22=1)
    left = {r.mul(a, x) for x in r.elements()}
    right = {r.mul(x, a) for x in r.elements()}
    assert left != right


def test_strongly_bounded_verdicts():
    assert is_strongly_bounded(catalog("z2q8")).holds
    assert is_strongly_bounded(catalog("ex52")).holds
    v = is_strongly_bounded(catalog("t2z2"))
    assert not v.holds
    side, a = v.witness
    assert (side, a) == ("right", (0, 0, 1))


def test_strongly_bounded_fails_on_simple_ring():
    v = is_strongly_bounded(catalog("m2z2"))
    assert not v.holds


# -- reversible and semicommutative -------------------------------------------

def test_reversible_verdicts():
    assert is_reversible(catalog("z2q8")).holds
    assert is_reversible(make_zn(12)).holds
    v = is_reversible(catalog("ex52"))
    assert not v.holds
    a, b = v.witness
    r = catalog("ex52")
    assert r.mul(a, b) == r.zero and r.mul(b, a) != r.zero


def test_semicommutative_verdicts():
    assert is_semicommutative(catalog("z2q8")).holds
    assert is_semicommutative(catalog("ex52")).holds
    v = is_semicommutative(catalog("z2d4"))
    assert not v.holds
    a, g, b = v.witness
    r = catalog("z2d4")
    assert r.mul(a, b) == r.zero
    assert r.mul(r.mul(a, g), b) != r.zero


def test_dihedral_group_algebra_annihilator_is_one_sided():
    # (1+b) squares to zero yet fails to absorb middle factors
    r = catalog("z2d4")
    s = vec(r, e=1, b=1)
    a = vec(r, a=1)
    assert r.mul(s, s) == r.zero
    prod = r.mul(r.mul(s, a), s)
    assert prod == vec(r, a=1, ab=1, a3=1, a3b=1)


# -- local and uniserial -------------------------------------------------------

def test_local_verdicts():
    assert is_local(catalog("z2q8")).holds
    assert is_local(catalog("ex52")).holds
    assert is_local(make_zn(8)).holds
    for name in ("m2z2", "t2z2"):
        v = is_local(catalog(name))
        assert not v.holds
        # the witness is a nonunit outside the radical
        r = catalog(name)
        assert v.witness not in units_and_regulars(r).units
        assert v.witness not in jacobson_radical(r).member


def test_local_fails_on_split_modulus():
    assert not is_local(make_zn(6)).holds


def test_uniserial_verdicts():
    assert is_uniserial(make_zn(8)).holds
    assert not is_uniserial(make_zn(6)).holds
    v = is_uniserial(catalog("ex52"))
    assert not v.holds
    side, (i1, i2) = v.witness
    assert side == "right"
    assert i1.size == 2 and i2.size == 2
    assert not (set(i1.elements) <= set(i2.elements))
    assert not (set(i2.elements) <= set(i1.elements))


# -- lie series ----------------------------------------------------------------

def test_lie_series_on_jet_ring():
    r = catalog("ex52")
    s = lie_series(r)
    assert s.sizes == (128, 2, 1)
    assert s.nilpotency_class == 2
    t = lie_series(r, flavor="ideal")
    assert t.sizes == (128, 2, 1)
    assert t.nilpotency_class == 2
    assert is_lie_nilpotent(r)
    assert is_strongly_lie_nilpotent(r)


def test_lie_series_on_group_algebras():
    for name in ("z2q8", "z2d4"):
        r = catalog(name)
        assert lie_series(r).sizes == (256, 8, 1)
        assert lie_series(r, flavor="ideal").sizes == (256, 16, 1)
        assert lie_class(r) == 2


def test_lie_series_stalls_on_matrix_ring():
    r = catalog("m2z2")
    s = lie_series(r)
    assert s.sizes == (16, 8, 8)
    assert s.nilpotency_class is None
    assert not s.terminates
    assert not is_lie_nilpotent(r)
    assert lie_class(r) is None


def test_bracket_terms_sit_inside_ideal_terms():
    for name in ("z2q8", "ex52", "t2z2"):
        r = catalog(name)
        weak = lie_series(r)
        strong = lie_series(r, flavor="ideal")
        for wt, st in zip(weak.terms, strong.terms):
            assert set(wt) <= set(st)


def test_lie_series_rejects_unknown_flavor():
    with pytest.raises(ValueError):
        lie_series(catalog("t2z2"), flavor="nope")


def test_commutative_lie_class_is_one():
    assert lie_class(make_zn(12)) == 1
    assert lie_series(make_zn(12)).sizes == (12, 1)


# -- central series through the radical ----------------------------------------

def test_central_series_climbs_to_the_radical():
    for name in ("ex52", "ex51(3)"):
        r = catalog(name)
        rep = central_series_through_radical(r)
        assert rep.ok
        assert rep.sizes == (1, 8, 64, 128)
        assert prime_radical(r).size == 64


def test_central_series_on_quaternion_group_algebra():
    rep = central_series_through_radical(catalog("z2q8"))
    assert rep.ok
    assert rep.sizes == (1, 2, 8, 32, 128, 256)


def test_central_series_semiprime_is_empty():
    rep = central_series_through_radical(catalog("m2z2"))
    assert rep.ok
    assert rep.sizes == ()
    assert "semiprime" in rep.reason


def test_central_series_stalls_without_central_slice():
    rep = central_series_through_radical(catalog("t2z2"))
    assert not rep.ok
    assert rep.sizes == (1,)
    assert "zero" in rep.reason


def m2_times_dual_numbers():
    """M2(F2) x F2[x]/(x^2): P = 0 x (x), and R/P = M2(F2) x F2."""
    cells = {(i, j): Free(2) for i in range(2) for j in range(2)}
    cells.update({(2, 2): Free(2), (2, 3): Free(2), (3, 3): Tied((2, 2))})
    return matrix_pattern_ring(MatrixPattern(4, cells))


def m2_dual_numbers():
    """{[[A, B], [0, A]] : A, B in M2(F2)}: P is the B block, P^2 = 0, and
    its central part, the scalar B, generates all of P."""
    cells = {}
    for i in range(2):
        for j in range(2):
            cells[(i, j)] = cells[(i, j + 2)] = Free(2)
            cells[(i + 2, j + 2)] = Tied((i, j))
    return matrix_pattern_ring(MatrixPattern(4, cells))


def test_central_series_needs_a_commutative_factor_by_the_radical():
    rep = central_series_through_radical(m2_times_dual_numbers())
    assert (rep.ok, rep.sizes, rep.reason) == (
        False, (1, 2), "factor by the prime radical is not commutative")


def test_central_series_needs_the_central_slice_to_be_an_ideal():
    rep = central_series_through_radical(m2_dual_numbers())
    assert (rep.ok, rep.sizes, rep.reason) == (
        False, (1,), "central slice is not a two-sided ideal")


# -- ore conditions --------------------------------------------------------------

def test_ore_on_catalog_rings():
    for name in ("z2q8", "ex52", "m2z2", "t2z2"):
        r = catalog(name)
        rep = ore_check(r)
        assert rep.right_holds and rep.left_holds
    assert ore_check(catalog("m2z2")).regular_count == 6
    assert ore_check(catalog("t2z2")).regular_count == 2


def test_ore_witness_equations():
    r = catalog("z2q8")
    rep = ore_check(r)
    assert rep.regular_count == 128
    rng = random.Random(3)
    elems = list(r.elements())
    regs = sorted(rep._inverses)
    for _ in range(10):
        a = rng.choice(elems)
        b = rng.choice(regs)
        a1, b1 = rep.witness(a, b)
        assert r.mul(a, b1) == r.mul(b, a1)
        a2, b2 = rep.left_witness(a, b)
        assert r.mul(b2, a) == r.mul(a2, b)
    with pytest.raises(ValueError):
        rep.witness(elems[0], r.zero)


def test_ore_paths_agree():
    a = ore_check(catalog("ex52"))
    b = ore_check(catalog("ex52"), NO_TABLES)
    assert (a.right_holds, a.left_holds) == (b.right_holds, b.left_holds)
    assert a.regular_count == b.regular_count


def test_zero_divisor_symmetry():
    for name in ("z2q8", "ex52", "m2z2", "t2z2"):
        assert zero_divisor_symmetry(catalog(name)).holds


def test_zero_divisor_symmetry_rank_path_agrees():
    for name in ("ex52", "z2q8", "ext2(5)"):
        a = zero_divisor_symmetry(catalog(name))
        b = zero_divisor_symmetry(catalog(name), NO_TABLES)
        assert (a.holds, a.witness) == (b.holds, b.witness) == (True, None)
    z3q8 = catalog("z3q8")
    assert zero_divisor_symmetry(z3q8).holds
    # the verdict reads the per-element flags: flip one and it must fail
    rep = units_and_regulars(z3q8)
    rep.l_full[5] = not rep.l_full[5]
    v = zero_divisor_symmetry(z3q8)
    assert not v.holds and v.witness == z3q8.elements()[5]


# -- aggregate report -------------------------------------------------------------

def test_full_report_lines_are_frozen():
    lines = full_report(catalog("ex52")).lines()
    assert lines == [
        "size=128",
        "center_size=32",
        "jacobson_size=64",
        "jacobson_index=3",
        "prime_radical_size=64",
        "prime_radical_index=3",
        "units=64",
        "commutative=false;witness=a11,a12",
        "centrally_essential=true",
        "completely_centrally_essential=false;witness=ideal_size=2",
        "invariant=false;witness=a22",
        "strongly_bounded=true",
        "reversible=false;witness=a22,a12",
        "semicommutative=true",
        "local=true",
        "uniserial=false;witness=right:2,2",
        "semiprime=false;witness=radical_size=64",
        "lie_nilpotent=true",
        "lie_class=2",
        "strongly_lie_nilpotent=true",
        "strong_lie_class=2",
        "ore_right=true",
        "ore_left=true",
    ]


def test_full_report_is_deterministic():
    a = full_report(catalog("z2d4")).lines()
    b = full_report(catalog("z2d4")).lines()
    assert a == b
    assert "centrally_essential=true" in a
    assert "invariant=false;witness=ab+a3b" in a or any(
        line.startswith("invariant=false") for line in a)


def test_full_report_computes_shared_values_once(monkeypatch):
    # P = J, so both radical indices read one nilpotency index; two keys
    # read each Lie series and the Ore check
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name if name != "lie_series" else args[1])
            return fn(*args, **kwargs)
        return wrapper

    classes = {"bracket": 3, "ideal": 5}
    monkeypatch.setattr(props, "lie_series", counted(
        "lie_series", lambda ring, flavor, limits: props.LieSeries(
            flavor, (), classes[flavor])))
    for name in ("nilpotency_index", "ore_check"):
        monkeypatch.setattr(props, name, counted(name, getattr(props, name)))
    lines = full_report(catalog("ex52")).lines()
    assert sorted(calls) == ["bracket", "ideal", "nilpotency_index",
                             "ore_check"]
    assert {"jacobson_index=3", "prime_radical_index=3", "lie_class=3",
            "strong_lie_class=5", "ore_right=true"} <= set(lines)


def test_full_report_builds_principal_ideals_once_per_side(monkeypatch):
    # strongly bounded and uniserial read the one-sided principal ideals,
    # and the CCE sweep the two-sided ones; each side is built once
    calls = []
    real = ideals._principal_ideals

    def counted(ring, t, side, limits):
        calls.append(side)
        return real(ring, t, side, limits)

    monkeypatch.setattr(ideals, "_principal_ideals", counted)
    ring = catalog("ext2(4)")
    full_report(ring)
    assert sorted(calls) == ["left", "right", "two"]
    # the kept ideals are read only after each caller's gates
    for decider in (is_uniserial, is_strongly_bounded):
        with pytest.raises(LimitError):
            decider(ring, NO_TABLES)
    # a second report on the ring builds none; a fresh ring builds its own
    assert full_report(ring).lines() == full_report(catalog("ext2(4)")).lines()
    assert len(calls) == 6


def test_full_report_skips_every_key_of_a_shared_value():
    # a LimitError is not kept, so each key that reads the value skips
    lines = full_report(catalog("ex52"), limits=NO_TABLES).lines()
    for key in ("jacobson_index", "prime_radical_index", "lie_nilpotent",
                "lie_class", "strongly_lie_nilpotent", "strong_lie_class"):
        assert "%s=skipped;limit=max_table" % key in lines


def test_full_report_marks_skipped_properties():
    # ideal enumeration needs tables, so a tiny table cap knocks out the
    # lattice-driven properties while the scan-based ones still run
    lines = full_report(catalog("t2z2"), limits=Limits(max_table=1)).lines()
    text = "\n".join(lines)
    assert "size=8" in text
    assert "centrally_essential=false" in text
    assert "skipped;limit=max_table" in text


# -- random sampling ----------------------------------------------------------------

def test_sample_rings_is_deterministic():
    a = sample_rings(seed=7, count=6)
    b = sample_rings(seed=7, count=6)
    assert len(a) == len(b) == 6
    for r1, r2 in zip(a, b):
        assert r1.size == r2.size
        assert sorted(r1.elements()) == sorted(r2.elements())


def test_sampled_rings_are_rings():
    for r in sample_rings(seed=11, count=8):
        assert 1 < r.size <= 512
        assert r.one in set(r.elements())
        elems = list(r.elements())
        rng = random.Random(0)
        eset = set(elems)
        for _ in range(40):
            x, y = rng.choice(elems), rng.choice(elems)
            assert r.mul(x, y) in eset
            assert r.add(x, y) in eset


def test_random_quotient_is_a_quotient():
    rng = random.Random(5)
    r = catalog("ex52")
    q = random_quotient(rng, r)
    assert r.size % q.size == 0
    assert q.size < r.size or q.size == r.size


def test_exterior_ring_shape():
    r = exterior_square_ring(4)
    rep = validate_ring([4] * 4, r.tensor, (1, 0, 0, 0))
    assert rep.ok
    u, v = (0, 1, 0, 0), (0, 0, 1, 0)
    w = r.mul(u, v)
    assert w == (0, 0, 0, 1)
    assert r.mul(v, u) == (0, 0, 0, 3)
    assert r.mul(u, u) == r.zero
    assert r.mul(w, u) == r.zero
