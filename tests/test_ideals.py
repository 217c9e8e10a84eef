"""Ideal closures, lattices, radicals, quotients."""

import time

import numpy as np
import pytest

from ringbench import core
from ringbench.core import (
    DomainError, LimitError, Limits, SubRing, _span, make_ring,
)
from ringbench.construct import catalog, integers_mod
from ringbench.ideals import (
    Ideal, additive_closure, all_ideals, ideal_closure, ideals_by_size,
    ideal_lattice, ideal_power, ideal_product, is_semiprime,
    jacobson_radical, nilpotency_index, prime_radical, principal_ideal,
    quotient,
)
from tests.oracles import largest_inner_ideal
from tests.test_core import full_matrix_tensor, make_mat, make_zn, upper_triangular_subring


def idx_set(ideal):
    return {e[0] for e in ideal.elements}


# -- closures -----------------------------------------------------------------

def test_additive_closure_in_zn():
    r = make_zn(12)
    assert additive_closure(r, [(4,)]) == ((0,), (4,), (8,))
    assert additive_closure(r, [(4,), (6,)]) == tuple((k,) for k in range(0, 12, 2))
    assert additive_closure(r, []) == ((0,),)


def test_additive_closure_structure_path_matches_tables():
    r1 = make_mat(2, 3)
    r2 = make_mat(2, 3)
    gens = [(1, 2, 0, 0), (0, 0, 1, 1)]
    via_tables = additive_closure(r1, gens)
    via_rows = additive_closure(r2, gens, Limits(max_table=1))
    assert r2.tables(Limits(max_table=1)) is None  # forced the on-demand path
    assert via_tables == via_rows


def test_ideal_closure_both_paths_agree():
    r1 = make_mat(2, 2)
    r2 = make_mat(2, 2)
    for g in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0)]:
        a = ideal_closure(r1, [g])
        b = ideal_closure(r2, [g], limits=Limits(max_table=1))
        assert a.elements == b.elements


def test_principal_ideal_sides():
    base, t2 = upper_triangular_subring(2)
    e22 = (0, 0, 0, 1)
    right = principal_ideal(t2, e22, side="right")
    left = principal_ideal(t2, e22, side="left")
    two = principal_ideal(t2, e22, side="two")
    assert right.elements == ((0, 0, 0, 0), e22)
    assert left.elements == ((0, 0, 0, 0), e22, (0, 1, 0, 0), (0, 1, 0, 1))
    assert two.elements == left.elements
    assert e22 in right and (0, 1, 0, 0) not in right


def test_additive_gens_regenerate():
    r = make_zn(12)
    ideal = ideal_closure(r, [(2,)])
    t = r.tables()
    gens = t.decode(_span(t, t.encode(ideal.elements))[1])
    assert gens == ((2,),)
    assert additive_closure(r, gens) == ideal.elements


# -- lattices -------------------------------------------------------------------

def test_ideals_of_z12():
    r = make_zn(12)
    ideals = all_ideals(r)
    assert [i.size for i in ideals] == [1, 2, 3, 4, 6, 12]
    assert idx_set(ideals[1]) == {0, 6}
    assert idx_set(ideals[2]) == {0, 4, 8}
    lat = ideal_lattice(r)
    chain, witness = lat.is_chain()
    assert not chain
    assert {witness[0].size, witness[1].size} == {2, 3}


def test_ideals_of_z8_form_chain():
    r = make_zn(8)
    lat = ideal_lattice(r)
    assert [i.size for i in lat.ideals] == [1, 2, 4, 8]
    chain, witness = lat.is_chain()
    assert chain and witness is None
    assert len(lat.covers()) == 3


def test_matrix_ring_is_simple():
    r = make_mat(2, 2)
    ideals = all_ideals(r)
    assert [i.size for i in ideals] == [1, 16]
    rights = all_ideals(r, side="right")
    assert [i.size for i in rights] == [1, 4, 4, 4, 16]
    lefts = all_ideals(r, side="left")
    assert [i.size for i in lefts] == [1, 4, 4, 4, 16]


def test_upper_triangular_lattice():
    _, t2 = upper_triangular_subring(2)
    ideals = all_ideals(t2)
    assert [i.size for i in ideals] == [1, 2, 4, 4, 8]
    sets = [set(i.elements) for i in ideals]
    strict_upper = {(0, 0, 0, 0), (0, 1, 0, 0)}
    assert strict_upper in sets
    row = {(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)}
    col = {(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)}
    assert row in sets and col in sets


def test_minimal_and_maximal_members():
    _, t2 = upper_triangular_subring(2)
    lat = ideal_lattice(t2)
    mins = lat.minimal_nonzero()
    assert len(mins) == 1 and mins[0].size == 2
    maxes = lat.maximal_proper()
    assert sorted(m.size for m in maxes) == [4, 4]


def test_lattice_limit_is_named():
    r = make_zn(1024)
    with pytest.raises(LimitError) as err:
        all_ideals(r)
    assert err.value.limit == "max_lattice"


def test_dot_export_is_deterministic():
    r = make_zn(8)
    lat = ideal_lattice(r)
    dot = lat.to_dot()
    assert dot == ideal_lattice(make_zn(8)).to_dot()
    assert "rankdir=BT" in dot
    assert dot.count("->") == 3
    assert 'label="size 8"' in dot


# -- products, powers, nilpotency ---------------------------------------------

def test_ideal_product_and_power():
    r = make_zn(8)
    i2 = ideal_closure(r, [(2,)])
    sq = ideal_product(r, i2, i2)
    assert sq.elements == ((0,), (4,))
    cube = ideal_power(r, i2, 3)
    assert cube.elements == ((0,),)
    assert nilpotency_index(r, i2) == 3


@pytest.mark.parametrize("name, make", [
    ("ex52", lambda r: jacobson_radical(r)),
    ("z(8)", lambda r: ideal_closure(r, [(2,)])),
    ("ex52", lambda r: ideal_closure(r, [r.one])),   # idempotent: R^2 = R
])
def test_ideal_power_stops_once_the_powers_stop_changing(name, make):
    # every power past the first repeat equals it, gens included, so a
    # huge exponent costs no more than reaching that power
    ring = catalog(name)
    ideal = make(ring)
    power, nxt = ideal, ideal_product(ring, ideal, ideal)
    while nxt.elements != power.elements:
        power, nxt = nxt, ideal_product(ring, nxt, ideal)
    start = time.perf_counter()
    got = ideal_power(ring, ideal, 10 ** 9)
    assert time.perf_counter() - start < 1
    assert (got.elements, got.gens) == (nxt.elements, nxt.gens)


def test_product_with_the_zero_ideal_is_zero():
    # the zero ideal has no additive generators: an empty gather
    r = catalog("ex52")
    zero = Ideal(ring=r, elements=(r.zero,))
    J = jacobson_radical(r)
    assert len(J.elements) > 1
    for a, b in ((zero, J), (J, zero), (zero, zero)):
        assert ideal_product(r, a, b).elements == (r.zero,)


@pytest.mark.parametrize("closure", [additive_closure, ideal_closure])
def test_closure_above_max_table_stops_at_max_elements(closure):
    # z(2^40) is read on demand: the walk over the multiples of a generator
    # must stop once its cosets outgrow max_elements, not run through 2^40
    r = integers_mod(2 ** 40)
    limits = Limits(max_elements=2 ** 12)
    with pytest.raises(LimitError, match=r"max_elements=4096 exceeded "
                                         r"\(needed 4097\)"):
        closure(r, [(1,)], limits=limits)
    # from the 2^10 multiples of 2^30, the fifth coset of -1 overflows
    with pytest.raises(LimitError, match=r"max_elements=4096 exceeded "
                                         r"\(needed 5120\)"):
        closure(r, [(2 ** 30,), (2 ** 40 - 1,)], limits=limits)


@pytest.mark.parametrize("closure", [additive_closure, ideal_closure])
def test_closure_walk_doubles_over_the_multiples(closure, monkeypatch):
    # reaching max_elements=2^16 over z(2^40) takes log2(2^16) on-demand
    # sums, as the multiples found grow 1, 2, 4, ..., 2^16: not one per
    # multiple
    calls = []
    outer = core._outer_codes
    monkeypatch.setattr(core, "_outer_codes", lambda *args: (
        calls.append(args[3]), outer(*args))[1])
    with pytest.raises(LimitError, match=r"max_elements=65536 exceeded "
                                         r"\(needed 65537\)"):
        closure(integers_mod(2 ** 40), [(1,)])
    assert calls.count("add") == 16, calls
    # the error names the first coset count past the limit, as a walk of
    # one multiple at a time meets it, not the end of a doubling step
    r, limits = integers_mod(2 ** 40), Limits(max_elements=3000)
    for gens, needed in (([(1,)], 3001), ([(2 ** 30,), (2 ** 40 - 1,)], 3072)):
        with pytest.raises(LimitError, match=r"max_elements=3000 exceeded "
                                             r"\(needed %d\)" % needed):
            closure(r, gens, limits=limits)


def test_nilpotency_none_for_idempotent_ideal():
    r = make_zn(12)
    i4 = ideal_closure(r, [(4,)])  # 4*4 = 4 mod 12
    assert nilpotency_index(r, i4) is None
    assert nilpotency_index(r, ideal_closure(r, [(0,)])) == 1


# -- radicals --------------------------------------------------------------------

def test_jacobson_radical_of_zn():
    assert idx_set(jacobson_radical(make_zn(12))) == {0, 6}
    assert idx_set(jacobson_radical(make_zn(8))) == {0, 2, 4, 6}
    assert idx_set(jacobson_radical(make_zn(6))) == {0}


def test_jacobson_radical_of_triangular():
    _, t2 = upper_triangular_subring(2)
    j = jacobson_radical(t2)
    assert set(j.elements) == {(0, 0, 0, 0), (0, 1, 0, 0)}
    assert nilpotency_index(t2, j) == 2


def test_jacobson_equals_intersection_of_maximal_right_ideals():
    for r in (make_zn(12), make_mat(2, 2), upper_triangular_subring(2)[1]):
        j = set(jacobson_radical(r).elements)
        rights = ideal_lattice(r, side="right")
        inter = set(r.elements())
        for m in rights.maximal_proper():
            inter &= m.member
        assert inter == j


def test_prime_radical_matches_jacobson_on_finite_rings():
    for r in (make_zn(12), make_zn(8), make_mat(2, 2),
              upper_triangular_subring(2)[1]):
        p = prime_radical(r)
        j = jacobson_radical(r)
        assert p.elements == j.elements
        if not p.is_zero():
            assert nilpotency_index(r, p) is not None


def test_semiprime():
    assert is_semiprime(make_zn(6))
    assert not is_semiprime(make_zn(12))
    assert is_semiprime(make_mat(2, 2))
    assert not is_semiprime(upper_triangular_subring(2)[1])


# -- largest two-sided ideal inside a one-sided ideal -----------------------------

def test_largest_inner_ideal_in_matrix_ring():
    r = make_mat(2, 2)
    row = principal_ideal(r, (1, 0, 0, 0), side="right")
    assert row.size == 4
    inner = largest_inner_ideal(r, row.elements, side="right")
    assert inner == ((0, 0, 0, 0),)


def test_largest_inner_ideal_in_triangular():
    _, t2 = upper_triangular_subring(2)
    row = principal_ideal(t2, (1, 0, 0, 0), side="right")  # e11 row
    inner = largest_inner_ideal(t2, row.elements, side="right")
    assert set(inner) == set(row.elements)  # already two-sided
    corner = principal_ideal(t2, (0, 0, 0, 1), side="right")
    assert corner.size == 2
    assert largest_inner_ideal(t2, corner.elements, side="right") == ((0, 0, 0, 0),)


# -- quotients ---------------------------------------------------------------------

def test_quotient_of_triangular_by_radical():
    _, t2 = upper_triangular_subring(2)
    j = jacobson_radical(t2)
    q = quotient(t2, j)
    assert q.size == 4
    assert idx_set(jacobson_radical(q)) == {0} or \
        jacobson_radical(q).elements == (q.zero,)
    elems = q.elements()
    assert all(q.mul(a, b) == q.mul(b, a) for a in elems for b in elems)


SIDE_MESSAGE = "side must be one of ('two', 'left', 'right')"


@pytest.mark.parametrize("call, message", [
    (lambda r: ideal_closure(r, [r.one], side="up"), SIDE_MESSAGE),
    (lambda r: next(ideals_by_size(r, side="up")), SIDE_MESSAGE),
    (lambda r: quotient(r, ideal_closure(r, [(0, 1, 0)], side="left")),
     "quotients need a two-sided ideal"),
    (lambda r: ideal_power(r, jacobson_radical(r), 0),
     "ideal powers start at 1"),
], ids=["closure-side", "by-size-side", "one-sided-quotient", "power-0"])
def test_ideal_operations_reject_bad_arguments(call, message):
    with pytest.raises(DomainError) as err:
        call(catalog("t2z2"))
    assert str(err.value) == message


def test_quotient_accepts_only_matching_ring():
    r1, r2 = make_zn(12), make_zn(12)
    ideal = jacobson_radical(r1)
    with pytest.raises(Exception):
        quotient(r2, ideal)


def test_ideal_value_semantics():
    r = make_zn(12)
    a = ideal_closure(r, [(6,)])
    b = ideal_closure(r, [(6,), (0,)])
    assert a == b  # same elements, same side
    assert a in {b}
