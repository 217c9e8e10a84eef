"""Ideal arithmetic for finite rings: closures, lattices, quotients, radicals.

All set-level work runs on dense index tables where the ring admits them
(see core.Tables); structure rings above the table limit get a vectorized
coefficient-array path, which is enough to build ideals like augmentation
kernels in group algebras of a few thousand elements.  Results come back
as Ideal values holding sorted element tuples, so every downstream
consumer sees one deterministic order.

Whole lattices (all_ideals) are enumerated only where a property quantifies
over every ideal: complete central essentiality, the least ideal and the
lattice command.  The radicals need none: J(R) is read off the units, and
in a finite ring the prime radical equals J(R).
"""

from dataclasses import dataclass, field

import numpy as np

from ringbench.core import (
    DEFAULT_LIMITS, DomainError, LimitError, QuotientRing, StructureRing,
    _additive_gens_idx, _close_additive_mask, _tables_or_raise,
    units_and_regulars,
)

SIDES = ("two", "left", "right")


@dataclass(frozen=True)
class Ideal:
    """A one- or two-sided ideal: sorted elements plus the generators used."""

    ring: object = field(compare=False)
    elements: tuple
    gens: tuple = field(compare=False, default=())
    side: str = field(compare=False, default="two")

    def __post_init__(self):
        object.__setattr__(self, "member", frozenset(self.elements))

    @property
    def size(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, elem):
        return elem in self.member

    def is_zero(self):
        return len(self.elements) == 1

    def is_whole(self):
        return len(self.elements) == self.ring.size

    def describe(self):
        g = ",".join(self.ring.format_element(x) for x in self.gens[:4])
        return "%s-sided ideal, size %d, gens [%s]" % (self.side, self.size, g)


# -- index-mask machinery (table-backed rings) --------------------------------

def _additive_mask(t, gidx):
    mask = np.zeros(len(t.elems), dtype=bool)
    mask[t.zero] = True
    mask[list(gidx)] = True
    return _close_additive_mask(t, mask, gidx)

def _ideal_mask(t, gidx, side):
    """Close under addition and one/two-sided multiplication by ring gens."""
    rg = t.gen_idx
    mask = _additive_mask(t, gidx)
    while True:
        cur = np.nonzero(mask)[0]
        prods = []
        if side in ("two", "right"):
            prods.append(t.mul[np.ix_(cur, rg)].ravel())
        if side in ("two", "left"):
            prods.append(t.mul[np.ix_(rg, cur)].ravel())
        new = np.unique(np.concatenate(prods))
        fresh = new[~mask[new]]
        if not fresh.size:
            return mask
        mask[fresh] = True
        mask = _close_additive_mask(t, mask, fresh)

def _mask_elems(t, mask):
    return tuple(t.elems[i] for i in np.nonzero(mask)[0])


# -- structure-ring fallback (no tables) ---------------------------------------

class _SubgroupRows:
    """A subgroup of a structure ring's additive group, as coefficient rows.

    Grows by whole cosets: joining a new element x appends the disjoint
    cosets S, S+x, S+2x, ... until a multiple of x lands back in S.
    """

    def __init__(self, ring, limits):
        self.mods = np.array(ring.shape.moduli, dtype=np.int64)
        self.w = np.array(ring.shape.weights, dtype=np.int64)
        self.limits = limits
        self.rows = np.zeros((1, ring.shape.width), dtype=np.int64)
        self.codes = {0}

    def __contains__(self, row):
        return int(row @ self.w) in self.codes

    def add_gen(self, row):
        x = np.asarray(row, dtype=np.int64) % self.mods
        y = x
        blocks = []
        while int(y @ self.w) not in self.codes:
            shifted = (self.rows + y) % self.mods
            blocks.append(shifted)
            self.codes.update(int(c) for c in shifted @ self.w)
            if len(self.codes) > self.limits.max_elements:
                raise LimitError("max_elements", self.limits.max_elements)
            y = (y + x) % self.mods
        if blocks:
            self.rows = np.concatenate([self.rows] + blocks)

    def sorted_rows(self):
        return self.rows[np.argsort(self.rows @ self.w)]


def _structure_additive(ring, rows, limits=DEFAULT_LIMITS):
    sg = _SubgroupRows(ring, limits)
    for row in np.asarray(rows, dtype=np.int64):
        sg.add_gen(row)
    return sg

def _structure_ideal(ring, gen_rows, side, limits):
    """Ideal closure in a structure ring via coefficient arrays."""
    mods = np.array(ring.shape.moduli, dtype=np.int64)
    sg = _structure_additive(ring, gen_rows, limits)
    basis = [tuple(g) for g in ring.gens()]
    while True:
        prods = []
        for g in basis:
            if side in ("two", "right"):
                prods.append((sg.rows @ ring.right_mul_matrix(g)) % mods)
            if side in ("two", "left"):
                prods.append((sg.rows @ ring.left_mul_matrix(g)) % mods)
        allp = np.concatenate(prods)
        fresh = [row for row in allp if row not in sg]
        if not fresh:
            rows = sg.sorted_rows()
            return tuple(tuple(int(v) for v in row) for row in rows)
        for row in fresh:
            sg.add_gen(row)


# -- public closure operations ---------------------------------------------------

def additive_closure(ring, gens, limits=DEFAULT_LIMITS):
    """Smallest additive subgroup containing gens, as sorted elements."""
    gens = [ring.element(g) for g in gens]
    t = ring.tables(limits)
    if t is not None:
        gidx = sorted({t.index[g] for g in gens})
        return _mask_elems(t, _additive_mask(t, gidx))
    if isinstance(ring, StructureRing):
        rows = np.array(gens or [ring.zero], dtype=np.int64)
        out = _structure_additive(ring, rows, limits).sorted_rows()
        return tuple(tuple(int(v) for v in row) for row in out)
    raise LimitError("max_table", limits.max_table, ring.size)


def ideal_closure(ring, gens, side="two", limits=DEFAULT_LIMITS):
    """The one- or two-sided ideal generated by gens."""
    if side not in SIDES:
        raise DomainError("side must be one of %r" % (SIDES,))
    gens = tuple(ring.element(g) for g in gens)
    t = ring.tables(limits)
    if t is not None:
        gidx = sorted({t.index[g] for g in gens})
        elems = _mask_elems(t, _ideal_mask(t, gidx, side))
    elif isinstance(ring, StructureRing):
        rows = np.array(gens or [ring.zero], dtype=np.int64)
        elems = _structure_ideal(ring, rows, side, limits)
    else:
        raise LimitError("max_table", limits.max_table, ring.size)
    return Ideal(ring=ring, elements=elems, gens=gens, side=side)


def principal_ideal(ring, a, side="two", limits=DEFAULT_LIMITS):
    return ideal_closure(ring, [a], side=side, limits=limits)


def additive_gens(ring, elems, limits=DEFAULT_LIMITS):
    """Small additive generating set for a subgroup given by its elements."""
    t = _tables_or_raise(ring, limits)
    idx = sorted(t.index[e] for e in elems)
    return tuple(t.elems[i] for i in _additive_gens_idx(t, idx))


# -- the full lattice -------------------------------------------------------------

def all_ideals(ring, side="two", limits=DEFAULT_LIMITS):
    """Every ideal of the given sidedness, sorted by (size, elements).

    Principal ideals seed the set; pairwise joins close it.  Complete
    because every ideal is the join of the principal ideals of its members.
    Elements in one unit orbit (u*a*v for two-sided, u*a for left, a*v for
    right ideals) generate the same ideal, so one closure per orbit seeds
    it, under the orbit's first index.  Comparable pairs are not joined:
    their join is the larger of the two, already known.
    """
    if side not in SIDES:
        raise DomainError("side must be one of %r" % (SIDES,))
    if ring.size > limits.max_lattice:
        raise LimitError("max_lattice", limits.max_lattice, ring.size)
    t = _tables_or_raise(ring, limits)
    cache = getattr(ring, "_all_ideals_cache", None)
    if cache is None:
        cache = ring._all_ideals_cache = {}
    if side in cache:
        return _check_ideal_count(cache[side], limits)
    n = len(t.elems)
    units = np.array([t.index[u] for u in units_and_regulars(ring, limits).units])

    by_key = {}   # mask bytes -> (mask, principal gen indices, additive gens)
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if seen[i]:
            continue
        orbit = np.array([i])
        if side != "left":
            orbit = t.mul[i, units]
        if side != "right":
            orbit = t.mul[np.ix_(units, orbit)]
        seen[orbit.ravel()] = True
        mask = _ideal_mask(t, [i], side)
        key = mask.tobytes()
        if key not in by_key:
            addg = _additive_gens_idx(t, list(np.nonzero(mask)[0]))
            by_key[key] = (mask, (i,), addg)
    _check_ideal_count(by_key, limits)

    worklist = known = sorted(by_key)
    while worklist:
        masks = np.array([by_key[b][0] for b in known])
        fresh = []
        for a in worklist:
            ma = by_key[a][0]
            apart = (ma & ~masks).any(axis=1) & (masks & ~ma).any(axis=1)
            for j in np.nonzero(apart)[0]:
                b = known[j]
                jm = _close_additive_mask(t, ma.copy(), by_key[b][2])
                key = jm.tobytes()
                if key not in by_key:
                    gens = tuple(sorted(set(by_key[a][1]) | set(by_key[b][1])))
                    addg = sorted(set(by_key[a][2]) | set(by_key[b][2]))
                    by_key[key] = (jm, gens, addg)
                    fresh.append(key)
                    _check_ideal_count(by_key, limits)
        known = sorted(by_key)
        worklist = sorted(fresh)

    out = []
    for mask, gen_idx, _ in by_key.values():
        elems = _mask_elems(t, mask)
        gens = tuple(t.elems[g] for g in gen_idx)
        out.append(Ideal(ring=ring, elements=elems, gens=gens, side=side))
    out.sort(key=lambda ideal: (ideal.size, ideal.elements))
    cache[side] = tuple(out)
    return cache[side]


def _check_ideal_count(ideals, limits):
    if len(ideals) > limits.max_ideals:
        raise LimitError("max_ideals", limits.max_ideals)
    return ideals


@dataclass
class LatticeReport:
    """An ideal lattice with its order structure."""

    ring: object
    side: str
    ideals: tuple

    @property
    def size(self):
        return len(self.ideals)

    def is_chain(self):
        """(True, None) when totally ordered, else (False, (I, K)) witness."""
        seq = self.ideals  # already sorted by (size, elements)
        for prev, cur in zip(seq, seq[1:]):
            if not prev.member <= cur.member:
                return False, (prev, cur)
        return True, None

    def minimal_nonzero(self):
        """Ideals covering 0: nonzero, containing no other nonzero ideal."""
        nz = [i for i in self.ideals if not i.is_zero()]
        out = []
        for i in nz:
            if not any(j.member < i.member for j in nz if j is not i):
                out.append(i)
        return tuple(out)

    def maximal_proper(self):
        prop = [i for i in self.ideals if not i.is_whole()]
        out = []
        for i in prop:
            if not any(i.member < j.member for j in prop if j is not i):
                out.append(i)
        return tuple(out)

    def covers(self):
        """Hasse diagram edges (lower, upper), deterministic order."""
        seq = self.ideals
        edges = []
        for i, low in enumerate(seq):
            for j, high in enumerate(seq):
                if low is high or not low.member < high.member:
                    continue
                if any(low.member < mid.member < high.member for mid in seq):
                    continue
                edges.append((i, j))
        return tuple(edges)

    def to_dot(self):
        lines = ["digraph ideal_lattice {", "  rankdir=BT;"]
        for k, ideal in enumerate(self.ideals):
            lines.append('  n%d [label="size %d"];' % (k, ideal.size))
        for a, b in self.covers():
            lines.append("  n%d -> n%d;" % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


def ideal_lattice(ring, side="two", limits=DEFAULT_LIMITS):
    return LatticeReport(ring=ring, side=side,
                         ideals=all_ideals(ring, side=side, limits=limits))


# -- quotients ---------------------------------------------------------------------

def quotient(ring, ideal, name=None, limits=DEFAULT_LIMITS):
    """R/I on least coset representatives.  Accepts an Ideal or elements.

    The ideal is checked in full (see QuotientRing): DomainError when it is
    not a two-sided ideal, InputError on an entry that is not an element of
    the ring, LimitError(max_table) when the ring has no tables.
    """
    if isinstance(ideal, Ideal):
        if ideal.ring is not ring:
            raise DomainError("ideal belongs to a different ring")
        if ideal.side != "two":
            raise DomainError("quotients need a two-sided ideal")
        elems = ideal.elements
    else:
        elems = tuple(ideal)
    return QuotientRing(ring, elems, name=name, limits=limits)


# -- products, powers, radicals ------------------------------------------------------

def ideal_product(ring, a, b, limits=DEFAULT_LIMITS):
    """I*K: additive span of pairwise products (via additive generators)."""
    t = _tables_or_raise(ring, limits)
    ga = _additive_gens_idx(t, sorted(t.index[e] for e in a.elements))
    gb = _additive_gens_idx(t, sorted(t.index[e] for e in b.elements))
    prods = [int(t.mul[i, j]) for i in ga for j in gb]
    mask = _additive_mask(t, sorted(set(prods)))
    return Ideal(ring=ring, elements=_mask_elems(t, mask),
                 gens=tuple(t.elems[p] for p in sorted(set(prods))), side="two")


def nilpotency_index(ring, ideal, limits=DEFAULT_LIMITS):
    """Least n with I^n = 0, or None if the powers stabilize above 0."""
    if ideal.is_zero():
        return 1
    power = ideal
    n = 1
    while True:
        nxt = ideal_product(ring, power, ideal, limits)
        n += 1
        if nxt.is_zero():
            return n
        if nxt.member == power.member:
            return None
        power = nxt


def ideal_power(ring, ideal, n, limits=DEFAULT_LIMITS):
    if n < 1:
        raise DomainError("ideal powers start at 1")
    power = ideal
    for _ in range(n - 1):
        power = ideal_product(ring, power, ideal, limits)
    return power


def jacobson_radical(ring, limits=DEFAULT_LIMITS):
    """J(R) = {x : 1 - a*x is a unit for every a}, via dense tables."""
    t = _tables_or_raise(ring, limits)
    cached = getattr(ring, "_jacobson_cache", None)
    if cached is not None:
        return cached
    rep = units_and_regulars(ring, limits)
    is_unit = np.zeros(len(t.elems), dtype=bool)
    is_unit[[t.index[u] for u in rep.units]] = True
    one_minus = t.add[t.one][t.neg]          # y -> 1 - y
    jmask = is_unit[one_minus[t.mul]].all(axis=0)
    elems = _mask_elems(t, jmask)
    gens = tuple(t.elems[i] for i in _additive_gens_idx(
        t, list(np.nonzero(jmask)[0])))
    ring._jacobson_cache = Ideal(ring=ring, elements=elems, gens=gens,
                                 side="two")
    return ring._jacobson_cache


def prime_radical(ring, limits=DEFAULT_LIMITS):
    """P(R), the join of all nilpotent two-sided ideals: here J(R).

    In a finite (Artinian) ring J(R) is nilpotent, so J <= P, and P <= J
    always (Lam, A First Course in Noncommutative Rings, 4.19 and 10.30).
    So no lattice is enumerated.
    """
    return jacobson_radical(ring, limits)


def is_semiprime(ring, limits=DEFAULT_LIMITS):
    """No nonzero nilpotent ideal, i.e. the prime radical vanishes."""
    return prime_radical(ring, limits).is_zero()

