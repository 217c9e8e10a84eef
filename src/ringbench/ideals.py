"""Ideal arithmetic for finite rings: closures, lattices, quotients, radicals.

Closures run as index-mask kernels on one kind of lookup: the dense index
tables up to max_table (core.Tables), and above it the sums and products of
a whole structure ring computed on demand (core._OnDemandTables).  There a
closure is bounded by its own size, not the ring's, so small ideals of
large group algebras are built as well.  The ideal generated by S is one
additive span of products, g*s*h (s*h right, g*s left) over s in S and
the additive generators g, h of R, with no closure loop; principal ideals
are rows (aR) or columns (Ra) of the table, or such spans (RaR).  A span
(core._span) returns the generators it used, and products, each power of
an ideal and the joins of the sweep start from those.  Results come back
as Ideal values holding sorted element tuples, so every downstream
consumer sees one deterministic order.

One enumerator lists ideals: ideals_by_size, a lazy sweep by size band
that joins each ideal it hands out with principal ideals only, all of
them at once through the coset labels of the ideal.  Complete central
essentiality and the least ideal stop it early; whole lattices
(all_ideals) run it to the end, for the lattice command and random
quotients.  The radicals need none: J(R) is the union of the principal
left ideals inside {y : 1 - y is a unit}, and in a finite ring the prime
radical equals J(R).
"""

from dataclasses import dataclass, field

import numpy as np

from ringbench.core import (
    DEFAULT_LIMITS, DomainError, LimitError, QuotientRing, _kernel_tables,
    _mask_elems, _span, _tables_or_raise, units_and_regulars,
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


# -- index-mask kernels ----------------------------------------------------------

def _ideal_gens(t, gidx, side):
    """The products g*s*h (side "two"), s*h ("right") or g*s ("left") for s
    in gidx and g, h additive generators of R, unique.  R has a 1, a sum of
    those generators, and products are bilinear, so their additive span is
    the ideal generated by gidx.  Reads only t.prods."""
    gidx = np.asarray(gidx, dtype=np.int64)
    if side != "left":
        gidx = np.unique(t.prods(gidx, t.gen_idx))
    if side != "right":
        gidx = np.unique(t.prods(t.gen_idx, gidx))
    return gidx


# -- public closure operations ---------------------------------------------------

def additive_closure(ring, gens, limits=DEFAULT_LIMITS):
    """Smallest additive subgroup containing gens, as sorted elements."""
    gens = [ring.element(g) for g in gens]
    t = _kernel_tables(ring, limits)
    return _mask_elems(t, _span(t, t.encode(gens))[0])


def ideal_closure(ring, gens, side="two", limits=DEFAULT_LIMITS):
    """The one- or two-sided ideal generated by gens."""
    if side not in SIDES:
        raise DomainError("side must be one of %r" % (SIDES,))
    gens = tuple(ring.element(g) for g in gens)
    t = _kernel_tables(ring, limits)
    elems = _mask_elems(t, _span(t, _ideal_gens(t, t.encode(gens), side))[0])
    return Ideal(ring=ring, elements=elems, gens=gens, side=side)


def principal_ideal(ring, a, side="two", limits=DEFAULT_LIMITS):
    return ideal_closure(ring, [a], side=side, limits=limits)


# -- the full lattice -------------------------------------------------------------

def _principal_ideals(ring, t, side, limits):
    """The principal ideals of one sidedness, each once, as (mask, (least
    generator index,), additive generator indices), in (size, elements)
    order.  Elements ascend with indices, so at one size the first index
    where two masks differ decides: inverted mask bytes sort like elements.

    A right ideal aR is row a of the table and a left one Ra column a, and
    that row or column at the additive generators of R generates it; a
    two-sided RaR is the span of _ideal_gens.  Elements in one unit orbit
    (u*a*v for two-sided, u*a for left, a*v for right ideals) generate the
    same ideal, so one is built per orbit, under the orbit's first index."""
    n = len(t.elems)
    units = units_and_regulars(ring, limits).unit
    by_key = {}
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if seen[i]:
            continue
        orbit = np.array([i])
        if side != "left":
            orbit = np.unique(t.mul[i, units])
        if side != "right":
            orbit = t.prods(units, orbit)
        seen[orbit.ravel()] = True
        if side == "two":
            mask, gens = _span(t, _ideal_gens(t, [i], side))
        else:
            row = t.mul[i] if side == "right" else t.mul[:, i]
            mask = t.mask()
            mask[row] = True
            gens = row[t.gen_idx]
        by_key.setdefault(mask.tobytes(), (mask, (i,), gens))
    return sorted(by_key.values(), key=lambda e: (e[0].sum(), (~e[0]).tobytes()))


def _principal_entries(ring, t, side, limits):
    """_principal_ideals of one side, kept on the ring; callers gate first."""
    cached = getattr(ring, "_principal", None)
    if cached is None:
        cached = ring._principal = {}
    if side not in cached:
        cached[side] = _principal_ideals(ring, t, side, limits)
    return cached[side]


def _coset_labels(t, gens):
    """The least index of each coset x + K, K the additive span of the
    indices gens (index order is element order).  Per generator g the
    running minimum takes in x + g, x + 2g, x + 4g, ... and stops at the
    first doubling that changes nothing: then lab[x] <= lab[x + 2^r g]
    for every x, so no further multiple of g lowers it, odd orders too."""
    lab = np.arange(len(t.elems))
    for g in gens:
        while True:   # g runs through the generator's doublings
            low = np.minimum(lab, lab[t.add[g]])
            if (low == lab).all():
                break
            lab, g = low, t.add[g, g]
    return lab


def _as_ideal(ring, t, entry, side):
    return Ideal(ring=ring, elements=_mask_elems(t, entry[0]),
                 gens=tuple(t.elems[g] for g in entry[1]), side=side)


def all_ideals(ring, side="two", limits=DEFAULT_LIMITS):
    """Every ideal of the given sidedness, sorted by (size, elements): the
    sweep of ideals_by_size run to the end."""
    return tuple(ideals_by_size(ring, side, limits))


def ideals_by_size(ring, side="two", limits=DEFAULT_LIMITS):
    """The ideals of one sidedness in (size, elements) order, lazily.

    Built one size band at a time, so a caller that stops early (the CCE
    sweep, the least ideal) does not pay for the rest of the lattice.
    Principal ideals seed the bands (_principal_entries).  Once a band is
    handed out, each of its ideals K is joined with every principal ideal
    handed out before it that K is incomparable with; the join holds K
    strictly, so it falls in a later band.  Complete: let I = P_1 + ... +
    P_m, m >= 2 least.  If m = 2, the later of P_1, P_2 meets the earlier.
    If m >= 3, a least P_j precedes the sum of the others, which holds
    each other P_i strictly, and meets it.

    All joins of K are read off one labelling of its cosets
    (_coset_labels): x lies in K + P exactly when the coset x + K meets
    P, so one scatter of each P's labels and one gather through K's give
    every join at once.  An entry carries the additive generators it is
    labelled by, a principal ideal its own and a join the pair's.

    A principal ideal records its least generator as gens; a join records
    the sorted union of the gens of the pair first joined into it.
    The gates run on every call: max_lattice, then max_table, then
    max_ideals after the principal pass and on each new join.
    """
    if side not in SIDES:
        raise DomainError("side must be one of %r" % (SIDES,))
    if ring.size > limits.max_lattice:
        raise LimitError("max_lattice", limits.max_lattice, ring.size)
    t = _tables_or_raise(ring, limits)
    parts = _principal_entries(ring, t, side, limits)
    masks = np.array([entry[0] for entry in parts])
    pending = {entry[0].tobytes(): entry for entry in parts}
    _check_ideal_count(len(pending), limits)
    handed = seen = 0   # parts[:seen] are handed out
    while pending:
        size = min(entry[0].sum() for entry in pending.values())
        band = sorted(((_as_ideal(ring, t, entry, side), key)
                       for key, entry in pending.items()
                       if entry[0].sum() == size),
                      key=lambda pair: pair[0].elements)
        for ideal, _ in band:
            yield ideal
        for _, key in band:
            entry = pending.pop(key)
            handed += 1
            seen += seen < len(parts) and entry is parts[seen]
            old = masks[:seen]
            apart = np.nonzero((entry[0] & ~old).any(1)
                               & (old & ~entry[0]).any(1))[0]
            if not apart.size:
                continue
            lab = _coset_labels(t, entry[2])
            hit = np.zeros((len(apart), len(t.elems)), dtype=bool)
            rows, cols = np.nonzero(masks[apart])
            hit[rows, lab[cols]] = True
            for i, mask in zip(apart, hit[:, lab]):
                if mask.tobytes() not in pending:
                    pending[mask.tobytes()] = (
                        mask, tuple(sorted(set(entry[1]) | set(parts[i][1]))),
                        np.concatenate([entry[2], parts[i][2]]))
                    _check_ideal_count(handed + len(pending), limits)


def _check_ideal_count(count, limits):
    if count > limits.max_ideals:
        raise LimitError("max_ideals", limits.max_ideals)


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
    prods = np.unique(t.prods(_span(t, t.encode(a.elements))[1],
                              _span(t, t.encode(b.elements))[1]))
    return Ideal(ring=ring, elements=_mask_elems(t, _span(t, prods)[0]),
                 gens=t.decode(prods), side="two")


def _power_masks(t, idx):
    """The masks of I, I^2, I^3, ... for the ideal I spanned by the indices
    idx, up to the first that equals the one before it.  I^(n+1) is the
    span of the products of the generators I^n's span used with I's."""
    mask, gens = _span(t, idx)
    masks, used = [mask], gens
    while True:
        mask, used = _span(t, t.prods(used, gens).ravel())
        if (mask == masks[-1]).all():
            return masks
        masks.append(mask)


def nilpotency_index(ring, ideal, limits=DEFAULT_LIMITS):
    """Least n with I^n = 0, or None if the powers stabilize above 0."""
    if ideal.is_zero():
        return 1
    t = _tables_or_raise(ring, limits)
    masks = _power_masks(t, t.encode(ideal.elements))
    return len(masks) if masks[-1].sum() == 1 else None


def ideal_power(ring, ideal, n, limits=DEFAULT_LIMITS):
    if n < 1:
        raise DomainError("ideal powers start at 1")
    power = ideal
    for _ in range(n - 1):
        power = ideal_product(ring, power, ideal, limits)
    return power


def jacobson_radical(ring, limits=DEFAULT_LIMITS):
    """J(R) = {x : 1 - a*x is a unit for every a}, that is {x : Rx <= Q}
    for Q = {y : 1 - y is a unit} (Lam, A First Course in Noncommutative
    Rings, 4.1; in a finite ring a left inverse is two-sided).  So J(R)
    is the union of the principal left ideals inside Q: one mask test
    over the left principal entries, on dense tables."""
    t = _tables_or_raise(ring, limits)
    cached = getattr(ring, "_jacobson_cache", None)
    if cached is not None:
        return cached
    quasi = t.mask()
    quasi[units_and_regulars(ring, limits).unit] = True
    quasi = quasi[t.add[t.one][t.neg]]       # y -> whether 1 - y is a unit
    masks = np.array([e[0] for e in _principal_entries(ring, t, "left", limits)])
    jmask = masks[(masks <= quasi).all(axis=1)].any(axis=0)
    ring._jacobson_cache = Ideal(
        ring=ring, elements=_mask_elems(t, jmask),
        gens=t.decode(_span(t, np.nonzero(jmask)[0])[1]), side="two")
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

