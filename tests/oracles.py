"""Slow reference deciders that enumerate whole ideal lattices.

These are the lattice-based procedures the package used before it decided
uniserial, strongly bounded and the prime radical from principal ideals and
the units.  They stay here as independent oracles for differential tests.
"""

import numpy as np

from ringbench.ideals import (
    Ideal, _additive_gens_idx, _close_additive_mask, _ideal_mask, _mask_elems,
    nilpotency_index,
)


def lattice(ring, side="two"):
    """Every ideal, sorted by (size, elements): one closure per element,
    then every pair of known ideals joined until nothing new appears."""
    t = ring.tables()
    by_key = {}   # mask bytes -> (mask, principal gen indices, additive gens)
    for i in range(len(t.elems)):
        mask = _ideal_mask(t, [i], side)
        key = mask.tobytes()
        if key not in by_key:
            addg = _additive_gens_idx(t, list(np.nonzero(mask)[0]))
            by_key[key] = (mask, (i,), addg)
    worklist = known = sorted(by_key)
    while worklist:
        fresh = []
        for a in worklist:
            for b in known:
                if a == b:
                    continue
                jm = _close_additive_mask(t, by_key[a][0].copy(), by_key[b][2])
                key = jm.tobytes()
                if key not in by_key:
                    gens = tuple(sorted(set(by_key[a][1]) | set(by_key[b][1])))
                    addg = sorted(set(by_key[a][2]) | set(by_key[b][2]))
                    by_key[key] = (jm, gens, addg)
                    fresh.append(key)
        known = sorted(by_key)
        worklist = sorted(fresh)
    out = [Ideal(ring=ring, elements=_mask_elems(t, mask),
                 gens=tuple(t.elems[g] for g in gens), side=side)
           for mask, gens, _ in by_key.values()]
    return sorted(out, key=lambda ideal: (ideal.size, ideal.elements))


def uniserial(ring, lattices=None):
    """(holds, witness) by the chain test on both one-sided lattices, right
    first; the witness is (side, (I, K)), the first incomparable
    consecutive pair.  `lattices` maps a side to its lattice, if known."""
    for side in ("right", "left"):
        seq = (lattices or {}).get(side) or lattice(ring, side)
        for prev, cur in zip(seq, seq[1:]):
            if not prev.member <= cur.member:
                return False, (side, (prev, cur))
    return True, None


def largest_inner_ideal(ring, elems, side="right"):
    """Largest two-sided ideal inside a one-sided ideal.

    For a right ideal I the set {x in I : R*x <= I} is already two-sided
    and contains every two-sided ideal inside I; one filtering pass over
    the additive generators of R therefore suffices (mirrored for left).
    """
    t = ring.tables()
    member = np.zeros(len(t.elems), dtype=bool)
    member[[t.index[e] for e in elems]] = True
    keep = member.copy()
    for g in t.gen_idx:
        if side == "right":
            keep &= member[t.mul[g]]       # g*x stays inside
        else:
            keep &= member[t.mul[:, g]]    # x*g stays inside
    return _mask_elems(t, keep)


def strongly_bounded(ring):
    """(holds, witness): the largest two-sided ideal inside aR, then Ra,
    element by element; the witness is (side, a) for the first a != 0
    where it is zero."""
    t = ring.tables()
    for side, table in (("right", t.mul), ("left", t.mul.T)):
        for a in range(len(t.elems)):
            if a == t.zero:
                continue
            elems = [t.elems[i] for i in np.unique(table[a])]
            if len(largest_inner_ideal(ring, elems, side=side)) == 1:
                return False, (side, t.elems[a])
    return True, None


def prime_radical(ring, two_sided=None):
    """Elements of the join of every nilpotent two-sided ideal."""
    t = ring.tables()
    acc = np.zeros(len(t.elems), dtype=bool)
    acc[t.zero] = True
    for ideal in two_sided or lattice(ring, "two"):
        if nilpotency_index(ring, ideal) is None:
            continue
        idx = np.array([t.index[e] for e in ideal.elements])
        acc[t.add[np.ix_(np.nonzero(acc)[0], idx)].ravel()] = True
    return _mask_elems(t, acc)
