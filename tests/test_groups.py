"""Group tables: constructors, subgroup search, normality, conjugacy."""

import pytest

from ringbench.core import InputError, LimitError, Limits
from ringbench.groups import (
    GroupTable, cyclic, dihedral, direct_product, quaternion8,
)


def by_name(g):
    return {n: i for i, n in enumerate(g.names)}


def test_cyclic_basics():
    c6 = cyclic(6)
    assert c6.order == 6
    assert c6.names[0] == "e"
    assert c6.is_abelian()
    assert c6.element_order(1) == 6
    assert c6.inverses[1] == 5
    assert len(c6.subgroups()) == 4  # divisors of 6


def test_quaternion8_relations():
    q = quaternion8()
    ix = by_name(q)
    e, a, b = ix["e"], ix["a"], ix["b"]
    assert q.names == ("e", "a", "a2", "b", "ab", "a3", "a2b", "a3b")
    a2 = q.mul(a, a)
    assert q.names[a2] == "a2"
    assert q.mul(a2, a2) == e                      # a^4 = e
    assert q.mul(b, b) == a2                       # b^2 = a^2
    assert q.mul(b, a) == q.mul(ix["a3"], b)       # b a = a^3 b
    assert q.element_order(a) == 4
    assert q.element_order(b) == 4
    assert q.element_order(a2) == 2
    assert not q.is_abelian()
    assert set(q.center()) == {e, a2}


def test_quaternion8_subgroups_all_normal():
    q = quaternion8()
    subs = q.subgroups()
    assert len(subs) == 6
    assert sorted(len(s) for s in subs) == [1, 2, 4, 4, 4, 8]
    assert all(q.is_normal(s) for s in subs)
    assert q.is_hamiltonian()
    ix = by_name(q)
    assert q.derived_subgroup() == frozenset({ix["e"], ix["a2"]})


def test_quaternion8_conjugacy_classes():
    q = quaternion8()
    ix = by_name(q)
    classes = {frozenset(c) for c in q.conjugacy_classes()}
    want = {
        frozenset({ix["e"]}),
        frozenset({ix["a2"]}),
        frozenset({ix["a"], ix["a3"]}),
        frozenset({ix["b"], ix["a2b"]}),
        frozenset({ix["ab"], ix["a3b"]}),
    }
    assert classes == want


def test_dihedral4_structure():
    d = dihedral(4)
    ix = by_name(d)
    assert d.names == ("e", "a", "a2", "a3", "b", "ab", "a2b", "a3b")
    assert d.mul(ix["b"], ix["b"]) == ix["e"]                 # b^2 = e
    ab = d.mul(ix["a"], ix["b"])
    assert d.mul(ab, ab) == ix["e"]                           # (ab)^2 = e
    assert d.mul(ix["b"], ix["a"]) == d.mul(ix["a3"], ix["b"])
    assert set(d.center()) == {ix["e"], ix["a2"]}
    assert d.derived_subgroup() == frozenset({ix["e"], ix["a2"]})
    subs = d.subgroups()
    assert len(subs) == 10
    assert not d.is_normal({ix["e"], ix["b"]})  # reflections are not normal
    assert not d.is_hamiltonian()


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert g.is_abelian()
    assert any(g.element_order(x) == 6 for x in range(6))  # C2 x C3 = C6
    q2 = direct_product(quaternion8(), cyclic(2))
    assert q2.order == 16
    assert not q2.is_abelian()
    assert q2.is_hamiltonian()  # Q8 x C2 keeps every subgroup normal


# the smallest loop that is no group: identity 0, every x its own inverse
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("build, exc, message", [
    (lambda: GroupTable([], []), InputError, "empty group"),
    (lambda: GroupTable("eg", [[0, 1], [1, 0]], limits=Limits(max_group=1)),
     LimitError, "limit max_group=1 exceeded (needed 2)"),
    (lambda: GroupTable("eg", [[0, 1], [1, 2]]), InputError,
     "table entries out of range"),
    (lambda: GroupTable("abcde", LOOP5), InputError,
     "table not associative at (b, b, c)"),
    (lambda: cyclic(0), InputError, "cyclic group order must be positive"),
    (lambda: dihedral(0), InputError, "dihedral parameter must be positive"),
    (lambda: direct_product(quaternion8(), quaternion8(),
                            limits=Limits(max_group=32)),
     LimitError, "limit max_group=32 exceeded (needed 64)"),
], ids=["empty", "max-group", "out-of-range", "non-associative", "cyclic-0",
        "dihedral-0", "product-max-group"])
def test_group_constructors_reject_bad_input(build, exc, message):
    with pytest.raises(exc) as err:
        build()
    assert str(err.value) == message


def test_table_validation():
    with pytest.raises(InputError):
        GroupTable(["e", "x"], [[0, 1], [1, 1]])  # x has no inverse
    with pytest.raises(InputError):
        GroupTable(["e", "x"], [[0, 1]])  # ragged
    # associativity violation: a "subtraction table" is not a group
    n = 3
    bad = [[(i - j) % n for j in range(n)] for i in range(n)]
    with pytest.raises(InputError):
        GroupTable(["e", "x", "y"], bad)
