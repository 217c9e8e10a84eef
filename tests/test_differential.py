"""Ideal closures, principal-ideal deciders and the cores of the principal
tables, the CCE sweep by size bands, the unit flags, invariance, J and
the joins by coset labels, the
quotient and subring views and their tables, the structure-ring export
and the Lie series against the oracles in tests/oracles.py, plus
regressions for limit-gated caches, the answers under small limits and
the complete ideal check of quotients.  The central series and CE of
every factor ring, both decided on R's own tables, are checked against
built factor rings, and no factor ring is built to decide them.
Whole-ring tables built by additive recurrence are checked against the
tensor contraction, the on-demand tables above max_table against dense
tables of the same rings, the center from its F_p basis against the
table center, and the sample streams against pinned digests and across
the dense and on-demand lookups.  The F_p path is checked to be blind to
a change of basis and, up to the sides of the Ore keys, to passing to the
opposite ring, and the reports to keep the theorem invariants P = J,
CCE => CE and the rest."""

import functools
import hashlib
import itertools
import random
import sys

import numpy as np
import pytest
from sympy import Matrix

from ringbench.cli import least_ideal, serialize_ring
from ringbench.core import (
    DomainError, InputError, LimitError, Limits, QuotientRing, StructureRing,
    SubRing, _OnDemandTables, _central_mod, _coset_labels, _mask_elems,
    _one_prime, _outer_codes, center, make_ring, units_and_regulars,
)
from ringbench.construct import (
    as_structure_ring, augmentation_ideal, catalog, full_matrix_ring,
    group_algebra, group_sum_ideal, relative_augmentation_ideal,
    triangular_matrix_ring,
)
from ringbench.groups import cyclic, dihedral, direct_product, quaternion8
from ringbench.ideals import (
    SIDES, _principal_table, additive_closure, all_ideals,
    ideal_closure, ideal_lattice, ideals_by_size, jacobson_radical,
    prime_radical, quotient,
)
from ringbench import core, ideals, props
from ringbench.props import (
    central_series_through_radical, centrally_essential,
    completely_centrally_essential, full_report, is_commutative,
    is_invariant, is_strongly_bounded, is_uniserial, lie_series, sample_rings,
    zero_divisor_symmetry,
)
from tests import oracles
from tests.test_core import (
    RADICAL_SOURCES, RANK_PATH_RINGS, _one_prime_rings, full_matrix_tensor,
)
from tests.test_props import m2_dual_numbers, m2_times_dual_numbers

CATALOG = ("z2q8", "z2d4", "ex52", "ex51(3)", "ext2(3)", "ext2(4)", "m2z2",
           "t2z2")
SAMPLES = ((5, 60, 256), (11, 40, 512))   # sample_rings(seed, count, max_size)


@functools.lru_cache(maxsize=None)
def _samples(seed, count, max_size):
    return tuple(sample_rings(seed, count, max_size=max_size))


def one_sided_ring():
    """A 32-element subring of M4(Z2) that is strongly bounded on the left
    only (no catalog or sampled ring tells the sides apart)."""
    amb = full_matrix_ring(4, 2, limits=Limits(max_elements=2 ** 16))
    elems = {amb.one, (0,) * 6 + (1, 1, 1) + (0,) * 7,
             (0,) * 11 + (1,) + (0,) * 4}
    while True:
        grown = elems | {op(x, y) for op in (amb.add, amb.mul)
                         for x in elems for y in elems}
        if grown == elems:
            return SubRing(amb, elems)
        elems = grown


def opposite(ring):
    s = as_structure_ring(ring)
    return make_ring(s.shape.moduli, s.tensor.transpose(1, 0, 2), s.one)


def _ring(key):
    if key == "one-sided":
        return one_sided_ring()
    if key == "one-sided-op":
        return opposite(one_sided_ring())
    if isinstance(key, str):
        return catalog(key)
    return _samples(*key[:3])[key[3]]


RING_KEYS = list(CATALOG) + ["one-sided", "one-sided-op"] + [
    (s, c, m, i) for s, c, m in SAMPLES for i in range(c)]


def _key_id(key):
    return key if isinstance(key, str) else "sample%d-%d" % (key[0], key[3])


def _ideal_data(ideals):
    return [(i.elements, i.gens, i.side) for i in ideals]


def _regenerates(ideal):
    """Whether ideal.gens generate ideal.elements under the oracle's
    breadth-first closure."""
    t = ideal.ring.tables()
    mask = oracles._ideal_mask(t, [t.index[g] for g in ideal.gens],
                               ideal.side)
    return _mask_elems(t, mask) == ideal.elements


def _gen_sets(ring, count=4):
    """Seeded generator sets of 1-3 distinct elements of ring."""
    rng = random.Random(0)
    elems = ring.elements()
    return [rng.sample(elems, rng.randint(1, min(3, len(elems))))
            for _ in range(count)]


@pytest.mark.parametrize("key", RING_KEYS, ids=_key_id)
def test_ideal_closure_matches_breadth_first_oracle(key):
    # the span of the products g*s*h, s*h or g*s against the closure loop
    ring = _ring(key)
    t = ring.tables()
    for gens in _gen_sets(ring):
        for side in SIDES:
            mask = oracles._ideal_mask(t, [t.index[g] for g in gens], side)
            assert (ideal_closure(ring, gens, side).elements
                    == _mask_elems(t, mask)), (gens, side)


def test_additive_closure_matches_breadth_first_oracle():
    # one gather per generator against the oracle's breadth-first closure,
    # from random subgroups, with generators repeated, 0 and already inside;
    # structure rings run the same inputs on their on-demand tables too
    rng = np.random.default_rng(23)
    dense = on_demand = 0
    for key in RING_KEYS:
        ring = _ring(key)
        t = ring.tables()
        n = len(t.elems)
        lazy = (_OnDemandTables(ring) if isinstance(ring, StructureRing)
                else None)
        for _ in range(4):
            start = t.mask()
            start[t.zero] = True
            start = oracles._close_additive_mask(
                t, start, rng.choice(n, size=rng.integers(0, 3)))
            inside = np.flatnonzero(start)
            gidx = rng.choice(n, size=rng.integers(1, 4)).tolist()
            gidx += [gidx[0], t.zero, int(rng.choice(inside))]
            rng.shuffle(gidx)
            want = oracles._close_additive_mask(t, start.copy(), gidx)
            got = start.copy()
            used = core._close_additive_mask(t, got, gidx)
            assert np.array_equal(got, want), (key, gidx)
            # the generators used: each, in order, outside the span so far
            have, greedy = start.copy(), []
            for g in gidx:
                if not have[g]:
                    greedy.append(g)
                    have = oracles._close_additive_mask(t, have, [g])
            assert used.tolist() == greedy, (key, gidx)
            # from {0}, over the subgroup itself: the oracle's greedy set
            members = np.flatnonzero(want)
            mask, used_0 = core._span(t, members)
            assert np.array_equal(mask, want), key
            assert (used_0.tolist()
                    == oracles._additive_gens_idx(t, members)), key
            dense += 1
            if lazy is None:
                continue
            mask = lazy.mask()
            mask[lazy.encode(t.decode(inside))] = True
            lazy_gidx = lazy.encode(t.decode(gidx)).tolist()
            lazy_used = core._close_additive_mask(lazy, mask, lazy_gidx)
            assert (sorted(lazy.decode(mask.nonzero()[0]))
                    == sorted(_mask_elems(t, want))), (key, gidx)
            assert lazy.decode(lazy_used) == t.decode(used), (key, gidx)
            on_demand += 1
    # structure rings: the catalog rings and one-sided-op
    assert (dense, on_demand) == (4 * len(RING_KEYS), 4 * 9)


@pytest.mark.parametrize("key", RING_KEYS, ids=_key_id)
def test_principal_deciders_match_lattice_oracles(key):
    ring = _ring(key)
    lattices = {side: oracles.lattice(ring, side)
                for side in ("two", "left", "right")}
    for side, expected in lattices.items():
        got = all_ideals(ring, side=side)
        assert ([(i.elements, i.side) for i in got]
                == [(i.elements, i.side) for i in expected]), side
        # principal ideals keep their least generator; a join records the
        # generators of the pair the sweep joined first, which need only
        # generate it
        for ideal, oracle in zip(got, expected):
            if len(oracle.gens) == 1:
                assert ideal.gens == oracle.gens, side
            else:
                assert _regenerates(ideal), (side, ideal.gens)

    holds, witness = oracles.uniserial(ring, lattices)
    v = is_uniserial(ring)
    assert v.holds == holds
    if not holds:
        assert v.witness[0] == witness[0]
        assert _ideal_data(v.witness[1]) == _ideal_data(witness[1])

    holds, witness = oracles.strongly_bounded(ring)
    v = is_strongly_bounded(ring)
    assert (v.holds, v.witness) == (holds, witness)
    if key in ("one-sided", "one-sided-op"):
        assert witness[0] == ("right" if key == "one-sided" else "left")

    p = prime_radical(ring)
    assert p.elements == oracles.prime_radical(ring, lattices["two"])
    assert p.elements == jacobson_radical(ring).elements


@pytest.mark.parametrize("key", RING_KEYS, ids=_key_id)
def test_cce_by_size_bands_matches_lattice_oracle(key):
    ring = _ring(key)
    two_sided = oracles.lattice(ring, "two")
    sweep = [i.elements for i in ideals_by_size(ring)]
    assert sweep == [i.elements for i in two_sided]
    expected = oracles.cce(ring, two_sided)
    rep = completely_centrally_essential(ring)
    assert ((rep.holds, rep.center_size, rep.checked_ideals,
             rep.quotient_counterexample)
            == (expected.holds, expected.center_size, expected.checked_ideals,
                expected.quotient_counterexample))
    assert ((rep.failing_ideal and rep.failing_ideal.elements)
            == (expected.failing_ideal and expected.failing_ideal.elements))


@pytest.mark.parametrize("key", RING_KEYS, ids=_key_id)
def test_theorem_paths_match_their_oracles(key):
    # unit flags from kernels, invariance from two-sided cores and J from
    # principal left ideals, against the sorts and the n^2 gather
    ring = _ring(key)
    rep = units_and_regulars(ring)
    l_full, r_full = oracles.unit_flags(ring.tables())
    assert np.array_equal(rep.l_full, l_full)
    assert np.array_equal(rep.r_full, r_full)
    v = is_invariant(ring)
    assert (v.holds, v.witness) == oracles.is_invariant(ring)
    assert jacobson_radical(ring).elements == oracles.jacobson_radical(ring)


@pytest.mark.parametrize("key", RING_KEYS, ids=_key_id)
def test_joins_by_coset_labels_match_closure_walks(key):
    # every lattice, elements and the gens each ideal records, against the
    # sweep that closed each pair by a breadth-first walk
    ring = _ring(key)
    for side in SIDES:
        assert (_ideal_data(all_ideals(ring, side=side))
                == _ideal_data(oracles.sweep(ring, side))), side


@pytest.mark.parametrize("name", CATALOG + ("ext2(5)",))
def test_coset_labels_are_least_coset_members(name):
    # the row minimum over I against the walk that labels one coset at a
    # time, on every ideal of each side; ext2(3) and ext2(5) have odd
    # additive orders, ex51(3) elements of order 8
    ring = catalog(name)
    t = ring.tables()
    for side in SIDES:
        for ideal in all_ideals(ring, side, Limits(max_lattice=1024)):
            idx = t.encode(ideal.elements)
            reps, labels = _least_coset_labels(t, idx)
            assert np.array_equal(core._coset_labels(t, idx), reps[labels]), side


@pytest.mark.parametrize("name", ["ext2(4)", "ex52"])
def test_coset_labels_do_not_depend_on_the_chunk(name, monkeypatch):
    # quotient labels and the lattices of all three sides, with I's rows
    # read 1 and 7 at a time, against one chunk; fresh rings each time, so
    # no principal table or lattice is reused
    def labelled():
        ring = catalog(name)
        lattices = [all_ideals(ring, side) for side in SIDES]
        labels = [QuotientRing(ring, ideal.elements).labels
                  for ideal in lattices[0] if not ideal.is_whole()]
        return [_ideal_data(ideals) for ideals in lattices], labels

    row = catalog(name).tables().add[0].nbytes
    want_lattices, want_labels = labelled()
    for rows in (7, 1):
        monkeypatch.setattr(core, "_CHUNK_BYTES", rows * row)
        lattices, labels = labelled()
        assert lattices == want_lattices, rows
        assert len(labels) == len(want_labels) > 1
        assert all(map(np.array_equal, labels, want_labels)), rows


def test_principal_cores_are_the_largest_two_sided_ideals_inside():
    # each core of a one-sided principal table against the largest ideal of
    # the two-sided lattice oracle inside that principal ideal, on the
    # catalog rings up to 512 elements and a handful of sampled rings
    smaller = 0
    samples = _samples(5, 60, 256)[:8]
    for ring in [catalog(name) for name in CATALOG] + list(samples):
        t = ring.tables()
        two = np.array([np.isin(np.arange(ring.size), t.encode(i.elements))
                        for i in oracles.lattice(ring, "two")])
        for side in ("right", "left"):
            table = _principal_table(ring, t, side, Limits())
            for mask, core in zip(table.masks, table.cores):
                inside = two[(two <= mask).all(axis=1)]
                largest = inside[inside.sum(axis=1).argmax()]
                assert (inside <= largest).all(), side
                assert np.array_equal(core, largest), side
                smaller += not np.array_equal(core, mask)
    assert smaller > 0


@pytest.mark.parametrize("key", RING_KEYS + ["z(12)", "z(7)", "ex51(2)"],
                         ids=_key_id)
def test_principal_tables_match_the_per_orbit_oracle(key):
    # masks, least generators and cores against the loop over unit orbits,
    # and a two-sided entry is the ideal its least generator generates
    ring = _ring(key)
    t = ring.tables()
    for side in SIDES:
        table = _principal_table(ring, t, side, Limits())
        masks, least, _, cores = oracles.principal_table(ring, side)
        assert np.array_equal(table.masks, masks), side
        assert np.array_equal(table.least, least), side
        assert np.array_equal(table.cores, cores), side
        if side == "two":
            for mask, i in zip(table.masks, table.least):
                assert (ideal_closure(ring, [t.elems[i]]).elements
                        == _mask_elems(t, mask))


@pytest.mark.parametrize("name, units", [("ext2(5)", 500), ("ex52", 64)])
def test_orbit_minima_do_not_depend_on_the_chunk(name, units, monkeypatch):
    # the row minima of t.mul[:, units] in chunks of 1 and 7 rows against
    # one chunk, on both one-sided tables
    ring = catalog(name)
    t = ring.tables()
    assert len(units_and_regulars(ring).unit) == units
    tables = {}
    for rows in (ring.size, 7, 1):
        monkeypatch.setattr(ideals, "_CHUNK_BYTES", rows * units * t.mul.itemsize)
        tables[rows] = [ideals._principal_ideals(ring, t, side, Limits())
                        for side in ("left", "right")]
    for rows in (7, 1):
        for got, want in zip(tables[rows], tables[ring.size]):
            for a, b in zip(got, want):
                assert len(a) == len(b) and all(map(np.array_equal, a, b))


@pytest.mark.parametrize("key", RING_KEYS + ["z(12)", "z(7)"], ids=_key_id)
def test_least_ideal_is_the_first_minimal_ideal(key):
    ring = _ring(key)
    mins = [i for i in ideal_lattice(ring).minimal_nonzero()
            if not i.is_whole()]
    if not mins:
        with pytest.raises(InputError, match="no proper nonzero ideal"):
            least_ideal(ring)
        return
    first = sorted(mins, key=lambda i: (i.size, i.elements))[0]
    got = least_ideal(ring)
    assert (got.elements, got.gens) == (first.elements, first.gens)


def test_cce_sweep_leaves_the_lattice_cache_alone():
    ring = catalog("ex52")
    rep = completely_centrally_essential(ring)
    assert (rep.holds, rep.checked_ideals) == (False, 1)
    fresh = catalog("ex52")
    for side in SIDES:
        assert (_ideal_data(all_ideals(ring, side=side))
                == _ideal_data(all_ideals(fresh, side=side)))


def test_cce_sweep_counts_joins_against_max_ideals():
    # ext2(4): 24 principal ideals, 47 in all, and CCE holds, so the sweep
    # reaches the last join
    for cap, fits in ((46, False), (47, True)):
        for call in (all_ideals, completely_centrally_essential):
            if fits:
                call(catalog("ext2(4)"), limits=Limits(max_ideals=cap))
                continue
            with pytest.raises(LimitError, match="max_ideals"):
                call(catalog("ext2(4)"), limits=Limits(max_ideals=cap))


def test_ext2_5_lattice_keys_are_answered_above_max_lattice():
    ring = catalog("ext2(5)")
    assert ring.size > Limits().max_lattice
    values = dict(line.split("=", 1) for line in full_report(ring).lines())
    for key in ("prime_radical_size", "prime_radical_index", "uniserial",
                "semiprime"):
        assert "skipped" not in values[key], key
    assert values["prime_radical_size"] == values["jacobson_size"] == "125"
    assert values["prime_radical_index"] == values["jacobson_index"]

    wide = Limits(max_lattice=1024)
    v = is_uniserial(ring)
    for side in ("right", "left"):
        chain, pair = ideal_lattice(ring, side=side, limits=wide).is_chain()
        if not chain:
            break
    assert v.holds == chain
    assert v.witness[0] == side
    assert _ideal_data(v.witness[1]) == _ideal_data(pair)


DENSE = Limits(max_table=4096)


# -- caches and limits ---------------------------------------------------------

# The jacobson_size, invariant, completely_centrally_essential,
# strongly_bounded and uniserial values of full_report under small limits,
# skip reasons included, as the row sorts, the n^2 radical gather, the
# per-pair join walks and the principal entry tuples printed them.
SMALL_LIMIT_VALUES = [
    (Limits(max_ideals=2), {
        "z2q8": ("128", "true", "skipped;limit=max_ideals", "true",
                 "false;witness=right:4,4"),
        "z2d4": ("128", "false;witness=a3+a3b", "skipped;limit=max_ideals",
                 "true", "false;witness=right:4,4"),
        "ex52": ("64", "false;witness=a22", "skipped;limit=max_ideals", "true",
                 "false;witness=right:2,2"),
        "ex51(3)": ("64", "false;witness=t", "skipped;limit=max_ideals",
                    "true", "false;witness=right:2,2"),
        "ext2(3)": ("27", "true", "false;witness=self", "true",
                    "false;witness=right:9,9"),
        "ext2(4)": ("128", "true", "skipped;limit=max_ideals", "true",
                    "false;witness=right:4,4"),
        "m2z2": ("1", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:4,4"),
        "t2z2": ("2", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:2,2"),
    }),
    (Limits(max_ideals=10), {
        "z2q8": ("128", "true", "skipped;limit=max_ideals", "true",
                 "false;witness=right:4,4"),
        "z2d4": ("128", "false;witness=a3+a3b", "skipped;limit=max_ideals",
                 "true", "false;witness=right:4,4"),
        "ex52": ("64", "false;witness=a22", "skipped;limit=max_ideals", "true",
                 "false;witness=right:2,2"),
        "ex51(3)": ("64", "false;witness=t", "skipped;limit=max_ideals",
                    "true", "false;witness=right:2,2"),
        "ext2(3)": ("27", "true", "false;witness=self", "true",
                    "false;witness=right:9,9"),
        "ext2(4)": ("128", "true", "skipped;limit=max_ideals", "true",
                    "false;witness=right:4,4"),
        "m2z2": ("1", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:4,4"),
        "t2z2": ("2", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:2,2"),
    }),
    (Limits(max_lattice=64), {
        "z2q8": ("128", "true", "skipped;limit=max_lattice", "true",
                 "false;witness=right:4,4"),
        "z2d4": ("128", "false;witness=a3+a3b", "skipped;limit=max_lattice",
                 "true", "false;witness=right:4,4"),
        "ex52": ("64", "false;witness=a22", "skipped;limit=max_lattice",
                 "true", "false;witness=right:2,2"),
        "ex51(3)": ("64", "false;witness=t", "skipped;limit=max_lattice",
                    "true", "false;witness=right:2,2"),
        "ext2(3)": ("27", "true", "false;witness=self", "true",
                    "false;witness=right:9,9"),
        "ext2(4)": ("128", "true", "skipped;limit=max_lattice", "true",
                    "false;witness=right:4,4"),
        "m2z2": ("1", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:4,4"),
        "t2z2": ("2", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:2,2"),
    }),
    (Limits(max_elements=100), {
        "z2q8": ("skipped;limit=max_elements",) * 5,
        "z2d4": ("skipped;limit=max_elements",) * 5,
        "ex52": ("skipped;limit=max_elements",) * 5,
        "ex51(3)": ("skipped;limit=max_elements",) * 5,
        "ext2(3)": ("27", "true", "false;witness=self", "true",
                    "false;witness=right:9,9"),
        "ext2(4)": ("skipped;limit=max_elements",) * 5,
        "m2z2": ("1", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:4,4"),
        "t2z2": ("2", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:2,2"),
    }),
    (Limits(max_table=64), {
        "z2q8": ("skipped;limit=max_table",) * 5,
        "z2d4": ("skipped;limit=max_table",) * 5,
        "ex52": ("skipped;limit=max_table",) * 5,
        "ex51(3)": ("skipped;limit=max_table",) * 5,
        "ext2(3)": ("skipped;limit=max_table", "skipped;limit=max_table",
                    "false;witness=self", "skipped;limit=max_table",
                    "skipped;limit=max_table"),
        "ext2(4)": ("skipped;limit=max_table",) * 5,
        "m2z2": ("1", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:4,4"),
        "t2z2": ("2", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:2,2"),
    }),
    (Limits(max_table=200, max_lattice=100), {
        "z2q8": ("skipped;limit=max_table", "skipped;limit=max_table",
                 "skipped;limit=max_lattice", "skipped;limit=max_table",
                 "skipped;limit=max_table"),
        "z2d4": ("skipped;limit=max_table", "skipped;limit=max_table",
                 "skipped;limit=max_lattice", "skipped;limit=max_table",
                 "skipped;limit=max_table"),
        "ex52": ("64", "false;witness=a22", "skipped;limit=max_lattice",
                 "true", "false;witness=right:2,2"),
        "ex51(3)": ("64", "false;witness=t", "skipped;limit=max_lattice",
                    "true", "false;witness=right:2,2"),
        "ext2(3)": ("27", "true", "false;witness=self", "true",
                    "false;witness=right:9,9"),
        "ext2(4)": ("skipped;limit=max_table", "skipped;limit=max_table",
                    "skipped;limit=max_lattice", "skipped;limit=max_table",
                    "skipped;limit=max_table"),
        "m2z2": ("1", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:4,4"),
        "t2z2": ("2", "false;witness=e22", "false;witness=self",
                 "false;witness=right:e22", "false;witness=right:2,2"),
    }),
]


@pytest.mark.parametrize("limits, values", SMALL_LIMIT_VALUES)
def test_theorem_paths_answer_alike_under_small_limits(limits, values):
    keys = ("jacobson_size", "invariant", "completely_centrally_essential",
            "strongly_bounded", "uniserial")
    for name in CATALOG:
        got = dict(line.split("=", 1)
                   for line in full_report(catalog(name), limits).lines())
        assert tuple(got[key] for key in keys) == values[name], name


def test_tables_cache_checks_max_table_on_every_call():
    ring = catalog("ex52")
    assert ring.tables(Limits(max_table=1)) is None
    assert ring.tables() is not None
    assert ring.tables(Limits(max_table=1)) is None


def test_report_does_not_depend_on_earlier_calls():
    tight = Limits(max_elements=4096)
    fresh = full_report(catalog("z3q8"), tight).lines()
    assert "units=skipped;limit=max_elements" in fresh
    assert "center_size=skipped;limit=max_elements" in fresh
    assert "centrally_essential=skipped;limit=max_elements" in fresh
    ring = catalog("z3q8")
    assert "units=768" in full_report(ring).lines()
    assert centrally_essential(ring) is centrally_essential(ring)
    assert full_report(ring, tight).lines() == fresh
    with pytest.raises(LimitError, match="max_elements"):
        centrally_essential(ring, tight)


@pytest.mark.parametrize("call, limits, limit", [
    (center, Limits(max_table=1, max_elements=64), "max_elements"),
    (jacobson_radical, Limits(max_table=1), "max_table"),
    (all_ideals, Limits(max_table=1), "max_table"),
    (all_ideals, Limits(max_ideals=4), "max_ideals"),
    (all_ideals, Limits(max_lattice=64), "max_lattice"),
    (centrally_essential, Limits(max_table=1, max_elements=64),
     "max_elements"),
    (completely_centrally_essential, Limits(max_lattice=64), "max_lattice"),
    (completely_centrally_essential, Limits(max_ideals=4), "max_ideals"),
    (completely_centrally_essential, Limits(max_table=1), "max_table"),
], ids=["center", "jacobson", "lattice-table", "lattice-ideals",
        "lattice-size", "ce", "cce-size", "cce-ideals", "cce-table"])
def test_cached_results_are_gated_by_limits(call, limits, limit):
    ring = catalog("ex52")
    call(ring)
    with pytest.raises(LimitError) as err:
        call(ring, limits=limits)
    assert err.value.limit == limit
    with pytest.raises(LimitError) as err:
        call(catalog("ex52"), limits=limits)
    assert err.value.limit == limit


# -- central series --------------------------------------------------------------

def test_centrality_check_reaches_past_the_first_64_elements():
    # M2(Z2) x Z2^6, the matrix coordinates first: the 64 least elements of
    # {0, e12} x Z2^6 lie in the central factor, e12 itself is not central
    k = 10
    c = np.zeros((k, k, k), dtype=np.int64)
    c[:4, :4, :4] = full_matrix_tensor(2, 2)
    for i in range(4, k):
        c[i, i, i] = 1
    ring = make_ring([2] * k, c, (1, 0, 0, 1) + (1,) * 6)
    e12 = (0, 1, 0, 0) + (0,) * 6
    elems = sorted(x for x in ring.elements() if x[0] == x[2] == x[3] == 0)
    assert len(elems) == 128 and e12 in elems[64:]
    t = ring.tables()
    xs = t.encode(elems)
    zero = _coset_labels(t, t.encode([ring.zero]))
    assert _central_mod(t, zero, xs[:64]).all()
    assert not _central_mod(t, zero, xs).all()
    matrices = [x for x in ring.elements() if x[4:] == (0,) * 6]
    assert _central_mod(t, _coset_labels(t, t.encode(matrices)), xs).all()


def t2_times_square_zero():
    """T2(Z2) (basis e11, e12, e22) x (Z2 + V), V^2 = 0, dim V = 6.  The 64
    least elements of P = J(T2) x V lie in 0 x V, which is central; e12,
    the 65th, is not."""
    k = 10
    c = np.zeros((k, k, k), dtype=np.int64)
    for i, j, r in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        c[i, j, r] = 1
    c[3, 3, 3] = 1
    for v in range(4, k):
        c[3, v, v] = c[v, 3, v] = 1
    return make_ring([2] * k, c, (1, 0, 1, 1) + (0,) * 6)


def test_central_series_checks_past_the_first_64_elements():
    ring = t2_times_square_zero()
    top = prime_radical(ring).elements
    assert len(top) == 128 and top[64] == (0, 1, 0, 0) + (0,) * 6
    rep = central_series_through_radical(ring)
    assert rep.reason == "central slice of the radical power is zero"


CONSTRUCTED = {"m2-times-dual": m2_times_dual_numbers,
               "m2-dual": m2_dual_numbers, "t2-times-v": t2_times_square_zero}


@pytest.mark.parametrize("key", RING_KEYS + list(CONSTRUCTED), ids=_key_id)
def test_central_series_matches_quotient_chain_oracle(key):
    # the chain on R's masks against the chain of built factor rings
    ring = CONSTRUCTED[key]() if key in CONSTRUCTED else _ring(key)
    rep = central_series_through_radical(ring)
    expected = oracles.central_series(ring)
    assert (rep.ok, rep.sizes, rep.reason) == (
        expected.ok, expected.sizes, expected.reason)


@pytest.mark.parametrize("key", [k for k in RING_KEYS if k not in (
    "one-sided", "one-sided-op")], ids=_key_id)
def test_ce_modulo_every_ideal_matches_the_factor_ring(key):
    # the scan of R/I on R's tables against CE of the built R/I, on every
    # proper nonzero ideal, noncommutative factors where CE holds included:
    # the least failing index, the center (the coset representatives
    # central modulo I) and the least partners the scan yields
    ring = _ring(key)
    t = ring.tables()
    every = np.arange(ring.size)
    for ideal in all_ideals(ring)[1:-1]:
        lab = _coset_labels(t, t.encode(ideal.elements))
        central = _central_mod(t, lab, every)
        bad = props._ce_tables(t, lab, central)
        q = quotient(ring, ideal)
        expected = centrally_essential(q)
        assert ((bad is None, int(central[lab == every].sum()),
                 None if bad is None else t.decode([bad])[0])
                == (expected.holds, expected.center_size,
                    expected.counterexample)), ideal.elements
        if not central.all():   # a commutative R/I maps every a to (1, a)
            wm = {}
            for rows, zidx, prod, good in props._ce_partners(t, lab, central):
                x = good.argmax(axis=1)   # the least partner of each a
                wm.update(zip(t.decode(rows), zip(t.decode(zidx[x]), t.decode(
                    prod[np.arange(len(rows)), x]))))
            assert (wm if bad is None else {}) == expected.witness_map, \
                ideal.elements


def test_factor_rings_are_decided_without_building_one(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a factor ring was built")

    monkeypatch.setattr(core.QuotientRing, "__init__", refuse)
    for name, expected in (
            ("ex52", (False, 32, 1, 2, "a22")),
            ("z2q8", (False, 32, 1, 2, "a2+a3+a2b+a3b")),
            ("ext2(4)", (True, 64, 45, None, None))):
        ring = catalog(name)
        rep = completely_centrally_essential(ring)
        assert (rep.holds, rep.center_size, rep.checked_ideals,
                rep.failing_ideal and rep.failing_ideal.size,
                rep.quotient_counterexample
                and ring.format_element(rep.quotient_counterexample)
                ) == expected, name
    for name, sizes in (("ex52", (1, 8, 64, 128)),
                        ("z2q8", (1, 2, 8, 32, 128, 256))):
        rep = central_series_through_radical(catalog(name))
        assert (rep.ok, rep.sizes, rep.reason) == (True, sizes, ""), name


# -- quotients and subrings as index views ------------------------------------

QUOTIENT_KEYS = list(CATALOG) + [(5, 60, 256, i) for i in range(60)]


@pytest.mark.parametrize("key", QUOTIENT_KEYS, ids=_key_id)
def test_quotients_match_dict_oracle(key):
    ring = _ring(key)
    elems = ring.elements()
    for ideal in all_ideals(ring):
        if ideal.is_whole():   # its quotient would be the zero ring
            with pytest.raises(DomainError, match="whole ring"):
                quotient(ring, ideal)
            continue
        q = quotient(ring, ideal)
        old = oracles.DictQuotient(ring, ideal.elements)
        assert q.elements() == old.reps
        assert q.one == old.one
        assert q.gens() == old.gens()
        assert [q.project(x) for x in elems] == [old.proj[x] for x in elems]
        t = q.tables()
        for table, expected in zip((t.add, t.mul, t.neg), old.tables()):
            assert np.array_equal(table, expected)
        for a in q.gens():
            for b in q.elements():
                assert q.mul(a, b) == old.mul(a, b)
                assert q.add(a, b) == old.add(a, b)


@pytest.mark.parametrize("key", RING_KEYS + ["T2(Z6)"], ids=_key_id)
def test_structure_export_matches_scalar_oracle(key):
    # T2(Z6)'s quotients mix additive orders 2, 3 and 6, as no other
    # input's views do
    ring = triangular_matrix_ring(2, 6) if key == "T2(Z6)" else _ring(key)
    views = [quotient(ring, ideal) for ideal in all_ideals(ring)
             if not ideal.is_whole()]
    if isinstance(ring, SubRing):
        views.append(ring)
    if key == "T2(Z6)":
        assert len(views) == 24
    for view in views:
        assert (serialize_ring(view)
                == serialize_ring(oracles.structure_ring(view)))


def test_structure_export_takes_one_span_gather_per_basis_element(
        monkeypatch):
    # the export's greedy pass extends the span once per basis element,
    # not once per candidate
    ring = triangular_matrix_ring(2, 6)
    views = [quotient(ring, ideal) for ideal in all_ideals(ring)
             if not ideal.is_whole()]
    calls = []
    sums = core.Tables.sums
    monkeypatch.setattr(core.Tables, "sums", lambda t, rows, cols: (
        calls.append(len(rows)), sums(t, rows, cols))[1])
    widths = []
    for view in views:
        view.tables()
        calls.clear()
        widths.append(as_structure_ring(view).shape.width)
        assert len(calls) == widths[-1]
    assert len(views) == 24 and max(widths) > 1


def _perturbations(mods, c, one, rng):
    """Seeded broken copies of a ring's (tensor, one): one entry changed,
    one entry left unreduced, a wrong shape, one changed coefficient of
    `one`, `one` of the wrong width and `one` = 0.  Over mixed moduli the
    changed entry is one where n_m does not divide n_i, so that it breaks
    order compatibility too."""
    k = len(mods)
    mixed = [x for x in itertools.product(range(k), repeat=3)
             if mods[x[0]] % mods[x[2]]]
    i, j, m = (mixed[rng.integers(len(mixed))] if mixed
               else (int(x) for x in rng.integers(k, size=3)))
    changed, unreduced, bad_one = c.copy(), c.copy(), list(one)
    changed[i, j, m] = (c[i, j, m] + rng.integers(1, mods[m])) % mods[m]
    unreduced[i, j, m] += mods[m] * rng.choice([-2, -1, 1, 2])
    bad_one[m] = (one[m] + int(rng.integers(1, mods[m]))) % mods[m]
    return [(changed, one), (unreduced, one), (c[:, :, 1:], one),
            (c, tuple(bad_one)), (c, one[1:]), (c, (0,) * k)]


def test_validate_ring_matches_einsum_oracle():
    # the matrix-product check reports exactly what the einsum one did, on
    # every differential ring and on seeded breakages of each
    rng = np.random.default_rng(0)
    cases, kinds = 0, set()
    for key in RING_KEYS:
        s = as_structure_ring(_ring(key))
        mods = s.shape.moduli
        c = np.array(s.tensor)
        for tensor, one in [(c, s.one)] + _perturbations(mods, c, s.one, rng):
            got = core.validate_ring(mods, tensor, one)
            want = oracles.validate_ring(mods, tensor, one)
            assert (got.ok, got.violations) == (want.ok, want.violations)
            kinds.update(" ".join(v.split()[:2]) for v in got.violations)
            cases += 1
    assert cases == 7 * 110
    assert kinds == {
        "tensor shape", "tensor entries", "order incompatibility:",
        "associativity fails", "identity law", "coefficient vector",
        "one equals"}


@pytest.mark.parametrize("key", RING_KEYS, ids=_key_id)
def test_lie_series_matches_scalar_oracle(key):
    ring = _ring(key)
    for flavor in ("bracket", "ideal"):
        assert lie_series(ring, flavor) == oracles.lie_series(ring, flavor)


@pytest.mark.parametrize("view", ["center", "quotient"])
def test_structure_export_needs_tables(view):
    # a check=False subring is built without tables; the export gates on
    # max_table like every other table decider
    ring = catalog("z2q8")
    sub = center(ring) if view == "center" else quotient(
        ring, group_sum_ideal(ring))
    tight = Limits(max_table=sub.size - 1)
    with pytest.raises(LimitError) as err:
        as_structure_ring(sub, limits=tight)
    assert err.value.limit == "max_table"
    assert as_structure_ring(sub).size == sub.size


@pytest.mark.parametrize("seed, count, max_size", SAMPLES)
def test_subring_gens_match_greedy_oracle(seed, count, max_size):
    for ring in _samples(seed, count, max_size):
        assert ring.gens() == oracles.greedy_additive_gens(ring)
        z = center(ring)
        assert z.gens() == oracles.greedy_additive_gens(z)


def _omega(ring):
    """The corner ring of the paper-suite claim quat3-derived-complement:
    the relative augmentation ideal of the derived subgroup of z3q8, with
    identity 2 + a2 (81 elements)."""
    rel = relative_augmentation_ideal(ring, ring.group.derived_subgroup())
    one = [0] * len(ring.basis_names)
    one[ring.basis_names.index("e")] = 2
    one[ring.basis_names.index("a2")] = 1
    return SubRing(ring, rel.elements, name="omega", one=one)


def _subrings(key):
    if key == "one-sided":
        return [one_sided_ring()]
    if key == "above-max-table":
        # subrings of a structure base without tables read it on demand
        ring = catalog("z3q8")
        subs = [center(ring), _omega(ring)]
        assert ring.tables() is None and [r.size for r in subs] == [243, 81]
        return subs
    if key in CATALOG:
        ring = catalog(key)
        # the center of each quotient is a subring of a view
        return [center(ring)] + [center(quotient(ring, ideal))
                                 for ideal in all_ideals(ring)
                                 if not ideal.is_whole()]
    return list(_samples(*key))


@pytest.mark.parametrize("key", list(CATALOG) + ["one-sided", "above-max-table"]
                         + list(SAMPLES), ids=str)
def test_subring_tables_match_oracle(key):
    for sub in _subrings(key):
        t = sub.tables()
        for table, expected in zip((t.add, t.mul, t.neg),
                                   oracles.subring_tables(sub)):
            assert table.dtype == np.int16   # at most 2**15 elements
            assert np.array_equal(table, expected)
        assert (t.add[np.arange(sub.size), t.neg] == t.zero).all()


def test_subring_of_a_view_without_tables_is_skipped():
    # a 512-element subring of a 2048-element quotient: within max_table,
    # but its base has no tables and is no structure ring
    big = Limits(max_table=8192, max_lattice=8192)
    base = catalog("ext2(8)")
    q = quotient(base, ideal_closure(base, [(0, 0, 0, 4)], "two", big),
                 limits=big)
    s = SubRing(q, center(q, big).elements(), check=False)
    assert (q.size, s.size) == (2048, 512)
    with pytest.raises(LimitError) as err:
        s.tables()
    assert (err.value.limit, err.value.value, err.value.needed) == \
        ("max_table", 1024, 2048)
    lines = full_report(s).lines()
    assert lines[0] == "size=512" and len(lines) == 23
    assert all(line.endswith("=skipped;limit=max_table") for line in lines[1:])


def test_quotient_rejects_every_one_sided_ideal_of_the_catalog():
    # the ideal check used to try one shift per element, and accepted 55
    rejected = 0
    for name in CATALOG:
        ring = catalog(name)
        two = {i.elements for i in all_ideals(ring, side="two")}
        one = {i.elements for side in ("left", "right")
               for i in all_ideals(ring, side=side)} - two
        for elems in sorted(one):
            with pytest.raises(DomainError, match="two-sided ideal"):
                QuotientRing(ring, elems)
            rejected += 1
    assert rejected == 106


def _least_coset_labels(bt, ideal):
    """Least coset representatives of the ideal with indices `ideal`, read
    off the base tables one coset at a time: the least unlabelled index x
    is the least member of x + I.  Returns (reps, label of each index)."""
    labels, reps = np.full(len(bt.elems), -1), []
    for x in range(len(bt.elems)):
        if labels[x] < 0:
            labels[bt.add[x, ideal]] = len(reps)
            reps.append(x)
    return np.array(reps), labels


@pytest.mark.parametrize("name", ["ex52", "ext2(4)"])
def test_quotient_tables_are_least_coset_labels_in_the_index_dtype(name):
    ring = catalog(name)
    bt = ring.tables()
    for ideal in all_ideals(ring):
        if ideal.is_whole():
            continue
        q = quotient(ring, ideal)
        reps, labels = _least_coset_labels(bt, bt.encode(ideal.elements))
        assert q.elements() == bt.decode(reps)
        assert q.labels.dtype == np.int16   # at most 2**15 elements
        assert np.array_equal(q.labels, labels)
        t = q.tables()
        block = np.ix_(reps, reps)
        for table, expected in ((t.add, labels[bt.add[block]]),
                                (t.mul, labels[bt.mul[block]]),
                                (t.neg, labels[bt.neg[reps]])):
            assert table.dtype == np.int16
            assert ((0 <= table) & (table < q.size)).all()
            assert np.array_equal(table, expected)


# -- on-demand tables above max_table ----------------------------------------------

SAMPLE_DIGESTS = {
    (5, 60, 256):
        "b531f43af09b8d0f4f0837646b3f22ea33592aa08da6d040a7e6879d6fe8815a",
    (11, 40, 512):
        "85c67b791485e6a3dc8f5d9f3c3460b5fbd6ec911d292d051c7ef4f5653ff8fc",
}


def _z2_z1_z3():
    """Z2 x Z1 x Z3, a ring with a modulus-1 coordinate."""
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 0, 0] = c[2, 2, 2] = 1
    return make_ring([2, 1, 3], c, (1, 0, 1))


TABLE_RINGS = {name: functools.partial(catalog, name) for name in (
    "z2q8", "z2d4", "ex52", "m2z2", "t2z2", "ex51(2)", "ex51(3)", "ex51(4)",
    "ext2(2)", "ext2(3)", "ext2(4)", "ext2(5)", "z(12)", "ext2(6)",
    "ex51(5)")}
TABLE_RINGS["z2"] = functools.partial(catalog, "z(2)")
TABLE_RINGS["z2xz1xz3"] = _z2_z1_z3


@pytest.mark.parametrize("name", TABLE_RINGS)
def test_recurrence_tables_match_tensor_contraction(name):
    # ext2(6) and ex51(5) are above max_table: composite and mixed moduli.
    # A one-element ring is the zero ring, which no constructor admits.
    ring = TABLE_RINGS[name]()
    t = ring.tables(DENSE)
    assert len(t.elems) == ring.size <= DENSE.max_table
    X = ring.elements_array()
    for table, op in ((t.add, "add"), (t.mul, "mul")):
        assert table.dtype == np.int16   # at most 2**15 elements
        assert np.array_equal(table, _outer_codes(ring, X, X, op))
    assert t.neg.dtype == np.int16
    assert np.array_equal(t.neg, (-X) % ring._mods @ ring._weights)


@pytest.mark.parametrize("n, expected", [
    (2 ** 15 - 1, np.int16), (2 ** 15, np.int16), (2 ** 15 + 1, np.int32)])
def test_index_dtype_is_the_narrowest_that_holds_every_index(n, expected):
    # the rule alone, at the int16 boundary; no table is built
    ends = np.array([-1, n - 1])   # the sentinel and the largest index
    assert core._index_dtype(n) is expected
    assert np.array_equal(ends.astype(expected), ends)
    assert expected is np.int16 or not np.array_equal(ends.astype(np.int16),
                                                      ends)


@pytest.mark.parametrize("name", TABLE_RINGS)
def test_elements_array_decodes_the_element_list(name):
    ring = TABLE_RINGS[name]()
    X = ring.elements_array()
    assert X.dtype == np.int64 and not X.flags.writeable
    assert np.array_equal(X, np.array(ring.elements()))


@pytest.mark.parametrize("name", ("ext2(6)", "ex51(5)"))
def test_on_demand_tables_match_dense_tables(name):
    # composite moduli: 6 = 2 * 3, and 32, 4, 16
    lazy, dense = catalog(name), catalog(name)
    assert lazy.tables() is None and dense.tables(DENSE) is not None
    assert center(lazy).elements() == center(dense, DENSE).elements()
    ce, ce_dense = centrally_essential(lazy), centrally_essential(dense, DENSE)
    assert ((ce.holds, ce.counterexample, ce.witness_map)
            == (ce_dense.holds, ce_dense.counterexample, ce_dense.witness_map))
    elems = lazy.elements()
    picks = [elems[i] for i in (1, 7, len(elems) // 3, len(elems) // 2, -1)]
    for gens in [[g] for g in picks] + [picks[1:4]] + _gen_sets(lazy):
        assert additive_closure(lazy, gens) == additive_closure(dense, gens, DENSE)
        for side in SIDES:
            assert (ideal_closure(lazy, gens, side).elements
                    == ideal_closure(dense, gens, side, DENSE).elements)


def _no_on_demand_products(monkeypatch):
    def prods(self, rows, cols):
        raise AssertionError("the center scanned the ring")

    monkeypatch.setattr(_OnDemandTables, "prods", prods)


@pytest.mark.parametrize("key", list(RANK_PATH_RINGS) + list(SAMPLES),
                         ids=lambda key: "sample%d" % key[0]
                         if isinstance(key, tuple) else key)
def test_basis_center_matches_table_center(key, monkeypatch):
    # every catalog ring up to max_table over one prime, and every ring of
    # the sample streams over one prime, without tables: from its basis
    if isinstance(key, str):
        pairs = [(catalog(key), catalog(key))]
    else:
        pairs = [(as_structure_ring(r), as_structure_ring(r))
                 for r in _samples(*key)]
    pairs = [(a, b) for a, b in pairs if _one_prime(a) is not None]
    assert len(pairs) == {(5, 60, 256): 46, (11, 40, 512): 30}.get(key, 1)
    dense = [center(a).elements() for a, _ in pairs]
    _no_on_demand_products(monkeypatch)
    for (_, b), want in zip(pairs, dense):
        assert b.tables(Limits(max_table=1)) is None
        assert center(b, Limits(max_table=1)).elements() == want


def test_basis_center_scans_nothing(monkeypatch):
    ring = catalog("z3q8")
    _no_on_demand_products(monkeypatch)
    z = center(ring)
    # F_3[Q8] has a center of dimension 5, one class sum per conjugacy
    # class, so 243 central elements are all of it
    assert z.size == 243
    assert all(ring.mul(x, g) == ring.mul(g, x)
               for x in z.elements() for g in ring.gens())


def test_center_over_composite_moduli_still_scans(monkeypatch):
    # ext2(6) has modulus 6, which is no prime: no F_p basis
    lazy, dense = catalog("ext2(6)"), catalog("ext2(6)")
    scanned, real = [], _OnDemandTables.prods

    def prods(self, rows, cols):
        scanned.append(len(rows) * len(cols))
        return real(self, rows, cols)

    monkeypatch.setattr(_OnDemandTables, "prods", prods)
    z = center(lazy)
    assert sum(scanned) == 2 * lazy.size * len(lazy.gens())
    assert z.size == 144 and z.elements() == center(dense, DENSE).elements()


def test_center_above_max_elements_is_skipped():
    # the basis would give Z5[Q8]'s center, but the max_elements gate
    # comes first: a skip stays a skip
    with pytest.raises(LimitError, match="max_elements"):
        center(group_algebra(5, quaternion8()))


def test_ce_rank_path_matches_table_path(monkeypatch):
    # the noncommutative one-prime catalog rings up to max_table and the
    # one-prime rings of three seeded sample streams: the rank test under
    # max_table=1, with the map filled by the scan when it is read, against
    # the dense tables.  Commutative rings answer before either path.
    ranked, real = [], props._ce_rank_mod_p

    def rank(ring, p):
        ranked.append(real(ring, p))
        return ranked[-1]

    monkeypatch.setattr(props, "_ce_rank_mod_p", rank)
    no_tables = Limits(max_table=1)
    tried = holds = 0
    for key in RADICAL_SOURCES:
        for a, b in zip(_one_prime_rings(key), _one_prime_rings(key)):
            want = centrally_essential(a)
            got = centrally_essential(b, no_tables)
            assert b.tables(no_tables) is None
            assert ((got.holds, got.center_size, got.counterexample,
                     got.witness_map)
                    == (want.holds, want.center_size, want.counterexample,
                        want.witness_map)), (key, tried)
            tried, holds = tried + 1, holds + got.holds
    # 104 of them are noncommutative and take the rank test; it says
    # "holds" on 3, whose maps the scan fills when the assert reads them
    assert (tried, holds) == (179, 78)
    assert (len(ranked), ranked.count(None)) == (104, 3)


LARGE_CARRIER = {   # the rings above max_table of the large-carrier benchmark
    "z3q8": lambda: catalog("z3q8"),
    "Z3[D4]": lambda: group_algebra(3, dihedral(4)),
    "ext2(7)": lambda: catalog("ext2(7)"),
}


@pytest.mark.parametrize("name", LARGE_CARRIER)
def test_center_basis_is_computed_once_per_ring(name, monkeypatch):
    # the center, the rank test of CE and the central blocks of the units
    # (on R/J, which is R itself when J = 0, as for z3q8 and Z3[D4]) all
    # read R's basis, the left null space of its k x k^2 matrix T - T^t
    ring = LARGE_CARRIER[name]()
    k = len(ring.shape.moduli)
    computed, real = [], core._left_null_mod_p

    def counted(M, p):
        computed.append(M.shape == (k, k * k))
        return real(M, p)

    monkeypatch.setattr(core, "_left_null_mod_p", counted)
    lines = full_report(ring).lines()
    assert ring.tables() is None
    assert not [line for line in lines if line.split("=")[0] in
                ("center_size", "centrally_essential", "units")
                and "skipped" in line]
    assert sum(computed) == 1


@pytest.mark.parametrize("name", LARGE_CARRIER)
def test_on_demand_tables_come_only_from_the_kernel_lookup(name,
                                                          monkeypatch):
    built, real = [], _OnDemandTables.__init__

    def init(self, *args):
        built.append(sys._getframe(1).f_code.co_name)
        real(self, *args)

    monkeypatch.setattr(_OnDemandTables, "__init__", init)
    ring = LARGE_CARRIER[name]()
    center(ring)
    centrally_essential(ring)
    units_and_regulars(ring)
    assert built and set(built) == {"_kernel_tables"}


def test_z3q8_ideals_on_demand_are_the_augmentation_kernels():
    ring = catalog("z3q8")
    assert ring.tables() is None
    elems = ring.elements()
    coeffs = np.array(elems)

    def where(keep):
        return tuple(elems[i] for i in np.nonzero(keep)[0])

    assert group_sum_ideal(ring).elements == (ring.zero, (1,) * 8, (2,) * 8)
    assert augmentation_ideal(ring).elements == where(coeffs.sum(axis=1) % 3 == 0)
    # for a normal subgroup H the ideal of all h - e is the kernel of
    # Z3[G] -> Z3[G/H]: coefficient sums vanish on every coset of H
    group, h = ring.group, ring.group.derived_subgroup()
    cosets = {tuple(sorted(group.mul(g, x) for x in h)) for g in range(8)}
    keep = np.ones(len(elems), dtype=bool)
    for coset in cosets:
        keep &= coeffs[:, list(coset)].sum(axis=1) % 3 == 0
    assert relative_augmentation_ideal(ring, h).elements == where(keep)


def test_closures_above_max_elements_are_bounded_by_the_closure():
    # Z5[Q8] has 390625 elements: a closure is limited by its own size
    ring = group_algebra(5, quaternion8())
    assert ring.size > Limits().max_elements
    assert group_sum_ideal(ring).elements == tuple((c,) * 8 for c in range(5))
    h = sorted(ring.group.derived_subgroup())   # {e, -1}
    rel = relative_augmentation_ideal(ring, h).elements
    coeffs = np.array(rel)
    cosets = {tuple(sorted(ring.group.mul(g, x) for x in h)) for g in range(8)}
    assert len(rel) == 5 ** 4 and list(rel) == sorted(rel)
    for coset in cosets:
        assert not (coeffs[:, list(coset)].sum(axis=1) % 5).any()
    with pytest.raises(LimitError, match="max_elements"):
        augmentation_ideal(ring)   # 5^7 = 78125 elements


def test_ring_beyond_int64_codes_builds_and_reports():
    # 2^64 elements: mixed-radix codes overflow int64, scalar arithmetic not
    ring = group_algebra(2, direct_product(cyclic(32), cyclic(2)))
    assert ring.size == 2 ** 64
    assert ring.mul(ring.one, ring.one) == ring.one
    lines = full_report(ring).lines()
    assert "center_size=skipped;limit=max_elements" in lines
    assert "commutative=true" in lines


def test_closures_beyond_int64_codes_raise_max_table():
    # no codes, so no on-demand tables: the closures skip instead
    ring = group_algebra(2, direct_product(cyclic(32), cyclic(2)))
    for closure in (additive_closure, ideal_closure):
        with pytest.raises(LimitError) as err:
            closure(ring, [ring.one])
        assert ((err.value.limit, err.value.value, err.value.needed)
                == ("max_table", Limits().max_table, 2 ** 64))


@pytest.mark.parametrize("seed, count, max_size", SAMPLES)
def test_sample_stream_is_pinned(seed, count, max_size):
    blob = repr([(ring.base.shape.moduli, ring.elements())
                 for ring in _samples(seed, count, max_size)])
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == SAMPLE_DIGESTS[(seed, count, max_size)]


# every catalog ring within the default max_table
TABLE_CATALOG = ("z2q8", "z2d4", "ex52", "m2z2", "t2z2", "z(12)", "ex51(2)",
                 "ex51(3)", "ex51(4)", "ext2(2)", "ext2(3)", "ext2(4)",
                 "ext2(5)")


def test_no_on_demand_lookup_within_max_table(monkeypatch):
    # a subring's base, or the sampler's ambient, within max_table is read
    # through its dense tables, whatever kind of ring it is
    def refuse(self, rows, cols):
        raise AssertionError("on-demand lookup within max_table")

    monkeypatch.setattr(_OnDemandTables, "sums", refuse)
    monkeypatch.setattr(_OnDemandTables, "prods", refuse)
    built = 0
    for ring in sample_rings(5, 60, max_size=256):
        fresh = SubRing(ring.base, ring.elements(), check=False)
        assert len(fresh.tables().elems) == ring.size
        built += 1
    for name in TABLE_CATALOG:
        ring = catalog(name)
        assert ring.size <= Limits().max_table
        assert center(ring).tables() is not None
        built += 1
    assert built == 60 + 13


@pytest.mark.parametrize("seed, count, max_size", SAMPLES)
def test_sample_stream_does_not_depend_on_the_lookup(seed, count, max_size,
                                                     monkeypatch):
    # max_table=1 closes the draws on on-demand tables and _IndexSets, the
    # default limits on the ambients' dense tables and boolean masks
    calls, real = [], _OnDemandTables.prods

    def prods(self, rows, cols):
        calls.append(1)
        return real(self, rows, cols)

    monkeypatch.setattr(_OnDemandTables, "prods", prods)
    dense = sample_rings(seed, count, max_size=max_size)
    assert calls == []
    lazy = sample_rings(seed, count, max_size=max_size,
                        limits=Limits(max_table=1))
    assert calls
    assert [(r.base, r.name, r.elements()) for r in lazy] == \
        [(r.base, r.name, r.elements()) for r in dense]


# -- metamorphic checks on the F_p path ---------------------------------------

def change_of_basis(ring, rng):
    """ring over one prime p in the basis b'_i = sum_a P[i, a] b_a, for P
    random in GL_k(F_p): T'[i, j] = (sum_ab P[i, a] P[j, b] T[a, b]) P^-1
    and 1' = 1 P^-1, coordinates being rows."""
    s = as_structure_ring(ring)
    p, k = s.shape.moduli[0], len(s.shape.moduli)
    while True:
        P = rng.integers(0, p, size=(k, k))
        if Matrix(P).det() % p:
            break
    P_inv = np.array(Matrix(P).inv_mod(p).tolist(), dtype=np.int64)
    T = np.einsum("ia,jb,abm->ijm", P, P, s.tensor) @ P_inv % p
    return make_ring(s.shape.moduli, T,
                     tuple((np.array(s.one) @ P_inv % p).tolist()))


FP_RINGS = {   # name: (ring constructor, limits), all over one prime
    "z3q8": (lambda: catalog("z3q8"), Limits()),
    "z3d4": (lambda: group_algebra(3, dihedral(4)), Limits()),
    "ext2(7)": (lambda: catalog("ext2(7)"), Limits()),
}
FP_RINGS.update(   # the one-prime catalog rings up to 1024 elements
    (name, (functools.partial(catalog, name), Limits(max_table=1)))
    for name in RANK_PATH_RINGS + ("ext2(2)", "z(2)", "z(3)", "z(5)", "z(7)"))


def _report_values(ring, limits):
    """full_report's values, without the witnesses, and its skips."""
    rep = full_report(as_structure_ring(ring), limits)
    return {key: val for key, (val, _) in rep.values.items()}, rep.skipped


@pytest.mark.parametrize("transform", ["basis", "opposite"])
def test_fp_path_values_survive_basis_change_and_opposite(transform):
    # z2q8, z2d4 and ex52 skip the CCE sweep and answer 7 keys, the other
    # twelve rings 8
    rng = np.random.default_rng(17)
    compared = 0
    for name, (build, limits) in FP_RINGS.items():
        values, skipped = _report_values(build(), limits)
        if transform == "basis":
            moved = _report_values(change_of_basis(build(), rng), limits)
        else:
            moved = _report_values(opposite(build()), limits)
            values["ore_left"], values["ore_right"] = \
                values["ore_right"], values["ore_left"]
        assert moved == (values, skipped), name
        compared += len(values)
    assert (len(FP_RINGS), compared) == (15, 117)


def test_theorem_invariants_hold_wherever_answered():
    # P = J, regulars = units, CCE => CE, CE => zero-divisor symmetry,
    # local <=> |J| + |units| = |R| and a semiprime CE ring is commutative
    # (Markov and Tuganbaev), on the catalog, the seeded sample
    # streams and two rings above max_table, which skip the radical keys
    # and local.  24 of the 54 semiprime rings are CE, all commutative.
    # A CE ring with tables is Abelian, its idempotents central, and R/J
    # is commutative: a noncentral idempotent of R/J would lift to R.
    rings = [catalog(name) for name in CATALOG + ("z3q8", "ext2(7)")]
    rings += [ring for sample in SAMPLES for ring in _samples(*sample)]
    cases = dict.fromkeys(("P=J", "units", "CCE", "CE", "Abelian", "local",
                           "not local", "semiprime"), 0)
    for ring in rings:
        v = {key: val for key, (val, _) in full_report(ring).values.items()}
        if {"jacobson_size", "prime_radical_size"} <= v.keys():
            assert v["prime_radical_size"] == v["jacobson_size"]
            assert v["prime_radical_index"] == v["jacobson_index"]
            assert v["semiprime"] == (v["jacobson_size"] == 1)
            cases["P=J"] += 1
        assert units_and_regulars(ring).regulars_equal_units
        cases["units"] += 1
        if v.get("completely_centrally_essential"):
            assert v["centrally_essential"]
            cases["CCE"] += 1
        if v.get("centrally_essential"):
            assert zero_divisor_symmetry(ring).holds
            cases["CE"] += 1
            t = ring.tables()
            if t is not None:
                ar = np.arange(len(t.elems))
                idem = ar[t.mul[ar, ar] == ar]
                assert (t.prods(idem, t.gen_idx)
                        == t.prods(t.gen_idx, idem).T).all()
                assert is_commutative(quotient(ring, jacobson_radical(ring)))
                cases["Abelian"] += 1
        if {"local", "jacobson_size", "units"} <= v.keys():
            assert v["local"] == (v["jacobson_size"] + v["units"] == v["size"])
            cases["local" if v["local"] else "not local"] += 1
        if v.get("semiprime") and "centrally_essential" in v:
            assert v["commutative"] or not v["centrally_essential"]
            cases["semiprime"] += 1
    assert cases == {"P=J": 108, "units": 110, "CCE": 43, "CE": 47,
                     "Abelian": 47, "local": 26, "not local": 82,
                     "semiprime": 54}


def product_ring(r, s):
    """R x S on the block-diagonal tensor: R's basis, then S's, with no
    product across the blocks, and 1 = (1_R, 1_S)."""
    k, l = r.shape.width, s.shape.width
    c = np.zeros((k + l,) * 3, dtype=np.int64)
    c[:k, :k, :k], c[k:, k:, k:] = r.tensor, s.tensor
    return make_ring(r.shape.moduli + s.shape.moduli, c, r.one + s.one)


def _larger_index(a, b):   # a nilpotency index or Lie class; none wins
    return None if None in (a, b) else max(a, b)


PRODUCT_RULES = {   # key -> R x S's value from R's and S's
    **dict.fromkeys(("size", "center_size", "jacobson_size",
                     "prime_radical_size", "units"), lambda a, b: a * b),
    **dict.fromkeys(("jacobson_index", "prime_radical_index", "lie_class",
                     "strong_lie_class"), _larger_index),
    # (1, 0) and (0, 1) are non-units adding to 1, and R x 0 and 0 x S are
    # incomparable ideals
    **dict.fromkeys(("local", "uniserial"), lambda a, b: False),
}


@pytest.mark.parametrize("left, right, limits, answered", [
    ("ext2(4)", "z(2)", Limits(), 23),   # noncommutative CCE, 512 elements
    ("ex52", "z(2)", Limits(), 23),
    ("z2q8", "z(2)", Limits(), 23),
    ("m2z2", "t2z2", Limits(), 23),
    ("ext2(2)", "z(3)", Limits(), 23),   # moduli 2 and 3
    ("z2q8", "z(2)", Limits(max_table=1), 7),
    ("ext2(3)", "z(3)", Limits(max_table=1), 8),
], ids=("ext2(4)xz(2)", "ex52xz(2)", "z2q8xz(2)", "m2z2xt2z2", "ext2(2)xz(3)",
        "z2q8xz(2)-fp", "ext2(3)xz(3)-fp"))
def test_product_values_follow_the_product_rules(left, right, limits,
                                                 answered):
    # every other key, CE and CCE among them, holds on R x S exactly when
    # it holds on both: ideals and one-sided ideals of R x S are products,
    # and so are its center, radical and factor rings
    r, s = catalog(left), catalog(right)
    vr, vs, vp = ({key: val for key, (val, _) in full_report(x, limits)
                   .values.items()} for x in (r, s, product_ring(r, s)))
    assert vp.keys() <= vr.keys() & vs.keys() and len(vp) == answered
    assert vp == {key: PRODUCT_RULES.get(key, lambda a, b: a and b)(
        vr[key], vs[key]) for key in vp}
