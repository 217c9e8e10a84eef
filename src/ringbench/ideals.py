"""Ideal arithmetic for finite rings: closures, lattices, quotients, radicals.

Closures run as index-mask kernels on one kind of lookup: the dense index
tables up to max_table (core.Tables), and above it the sums and products of
a whole structure ring computed on demand (core._OnDemandTables).  There a
closure is bounded by its own size, not the ring's, so small ideals of
large group algebras are built as well.  The ideal generated by S is one
additive span of products, g*s*h (s*h right, g*s left) over s in S and
the additive generators g, h of R, with no closure loop; principal ideals
are rows (aR) or columns (Ra) of the table, and RaR = R(aR).  A span
(core._span) returns the generators it used, and products and each power
of an ideal start from those.  Results come back as Ideal values holding
sorted element tuples, so every downstream consumer sees one
deterministic order.

One enumerator lists ideals: ideals_by_size, a lazy sweep by size band
seeded by the principal table of each side (_principal_table: masks,
least generators and one-sided cores, in _mask_order) that joins each
ideal it hands out with principal ideals only, all at once through its
coset labels (core._coset_labels).  Complete central essentiality and
the least ideal stop it early; all_ideals runs it to the end, and a
LatticeReport reads its order off one strict-containment matrix.  The
radicals need no lattice: J(R) is the union of the principal left ideals
inside {y : 1 - y is a unit}, and in a finite ring P(R) = J(R).
"""

import functools
from collections import namedtuple
from itertools import compress
from dataclasses import dataclass, field

import numpy as np

from ringbench.core import (
    _CHUNK_BYTES, DEFAULT_LIMITS, DomainError, LimitError, QuotientRing,
    _close_additive_mask, _coset_labels, _kernel_tables, _mask_elems, _span,
    _tables_or_raise, units_and_regulars,
)

SIDES = ("two", "left", "right")
_PrincipalTable = namedtuple("_PrincipalTable", "masks least cores")


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

def _mask_order(mask):
    """The (size, elements) order of ideals on their masks: elements ascend
    with indices, so inverted mask bytes sort like elements at one size."""
    return np.count_nonzero(mask), (~mask).tobytes()


def _principal_ideals(ring, t, side, limits):
    """The principal ideals of one sidedness, each once, in _mask_order:
    masks (m, n), least generating indices and cores, the largest
    two-sided ideal inside each.  For aR that is {x in aR : g*x in aR for
    every additive generator g}: two-sided, it holds every two-sided
    ideal inside aR (mirrored for Ra).

    aR is row a of the table, spanned by its entries at the additive
    generators of R, and (a*u)R = aR for units u: one row is read per orbit
    a*U, under its least index, a row minimum of t.mul[:, units] (chunked
    by _CHUNK_BYTES; columns and U*a for Ra).  RaR = R(aR) is P = aR when P
    is its own core, else P closed under g*a*h for g, h additive generators
    of R.  Each x has a right entry e with least[e] <= x and RxR = R P_e,
    so walking them by ascending least keeps least generators."""
    mul = t.mul.T if side == "left" else t.mul   # row a is aR, or Ra if left
    by_key = {}   # _mask_order -> (mask, least index)
    if side == "two":
        right = _principal_table(ring, t, "right", limits)
        for e in np.argsort(right.least):
            mask, a = right.masks[e].copy(), right.least[e]
            if (mask != right.cores[e]).any():
                _close_additive_mask(t, mask, np.unique(
                    t.prods(t.gen_idx, t.mul[a, t.gen_idx])))
            by_key.setdefault(_mask_order(mask), (mask, a))
    else:
        units = units_and_regulars(ring, limits).unit
        step = max(1, _CHUNK_BYTES // (mul.itemsize * len(units)))
        least = np.unique(np.concatenate([mul[lo:lo + step, units].min(1)
                                          for lo in range(0, len(mul), step)]))
        masks = np.zeros((len(least), len(mul)), dtype=bool)
        masks[np.arange(len(least))[:, None], mul[least]] = True
        for entry in zip(masks, least):
            by_key.setdefault(_mask_order(entry[0]), entry)
    masks, least = zip(*(by_key[key] for key in sorted(by_key)))
    cores = masks = np.array(masks)   # a two-sided ideal is its own core
    for g in t.gen_idx if side != "two" else ():
        cores = cores & masks[:, mul[g]]
    return _PrincipalTable(masks, np.array(least), cores)


def _principal_table(ring, t, side, limits):
    """_principal_ideals of one side, kept on the ring; callers gate first."""
    cached = vars(ring).setdefault("_principal", {})
    if side not in cached:
        cached[side] = _principal_ideals(ring, t, side, limits)
    return cached[side]


def _as_ideal(ring, t, mask, gens, side):
    return Ideal(ring=ring, elements=_mask_elems(t, mask), gens=t.decode(gens),
                 side=side)


def all_ideals(ring, side="two", limits=DEFAULT_LIMITS):
    """Every ideal of the given sidedness, sorted by (size, elements): the
    sweep of ideals_by_size run to the end."""
    return tuple(ideals_by_size(ring, side, limits))


def ideals_by_size(ring, side="two", limits=DEFAULT_LIMITS):
    """The ideals of one sidedness in (size, elements) order, lazily.

    Built one size band at a time, so a caller that stops early (the CCE
    sweep, the least ideal) does not pay for the rest of the lattice.
    Principal ideals (_principal_table) seed the bands, sorted by
    _mask_order, and an ideal is decoded only when it is handed out.
    Then each ideal K of the band is joined with every principal ideal
    handed out before it that K is incomparable with; the join holds K
    strictly, so it falls in a later band.  Complete: let I = P_1 + ...
    + P_m, m >= 2 least.  If m = 2, the later of P_1, P_2 meets the
    earlier.  If m >= 3, a least P_j precedes the sum of the others,
    which holds each other P_i strictly, and meets it.

    All joins of K are read off one labelling of its cosets by their
    least members (core._coset_labels, on K's elements): x lies in K + P
    exactly when the coset x + K meets P, so one scatter of each P's
    labels and one gather through K's give every join at once.

    A principal ideal records its least generator as gens; a join records
    the sorted union of the gens of the pair first joined into it.
    The gates run on every call: max_lattice, then max_table, then
    max_ideals on the ideals handed out and pending, before each band.
    """
    if side not in SIDES:
        raise DomainError("side must be one of %r" % (SIDES,))
    if ring.size > limits.max_lattice:
        raise LimitError("max_lattice", limits.max_lattice, ring.size)
    t = _tables_or_raise(ring, limits)
    table = _principal_table(ring, t, side, limits)
    keys = [_mask_order(mask) for mask in table.masks]
    pending = {key: (mask, (least,))
               for key, mask, least in zip(keys, table.masks, table.least)}
    handed = seen = 0   # the first seen principal ideals are handed out
    while pending:
        if handed + len(pending) > limits.max_ideals:
            raise LimitError("max_ideals", limits.max_ideals)
        size = min(key[0] for key in pending)
        band = sorted(key for key in pending if key[0] == size)
        for key in band:
            mask, gens = pending[key]
            yield _as_ideal(ring, t, mask, gens, side)
        for key in band:
            mask, gens = pending.pop(key)
            handed += 1
            seen += seen < len(keys) and key == keys[seen]
            old = table.masks[:seen]
            apart = np.nonzero((mask & ~old).any(1) & (old & ~mask).any(1))[0]
            if not apart.size:
                continue
            lab = _coset_labels(t, np.flatnonzero(mask))
            hit = np.zeros((len(apart), len(t.elems)), dtype=bool)
            rows, cols = np.nonzero(table.masks[apart])
            hit[rows, lab[cols]] = True
            for i, joined in zip(apart, hit[:, lab]):
                new = _mask_order(joined)
                if new not in pending:
                    pending[new] = (joined, tuple(sorted({*gens, table.least[i]})))


@dataclass
class LatticeReport:
    """An ideal lattice with its order structure."""

    ring: object
    side: str
    ideals: tuple

    @property
    def size(self):
        return len(self.ideals)

    @functools.cached_property
    def below(self):
        """below[i, j] when ideal i lies strictly inside ideal j, from the
        count of i's elements outside j."""
        index = {}
        masks = np.zeros((len(self.ideals), self.ring.size), dtype=np.float32)
        for k, ideal in enumerate(self.ideals):
            masks[k, [index.setdefault(e, len(index)) for e in ideal.elements]] = 1
        inside = masks @ (1 - masks).T == 0
        return inside & ~inside.T

    def is_chain(self):
        """(True, None) when totally ordered, else (False, (I, K)) witness:
        the first consecutive pair, in (size, elements) order, that is not
        nested."""
        apart = ~self.below.diagonal(1)
        if not apart.any():
            return True, None
        k = apart.argmax()
        return False, self.ideals[k:k + 2]

    def minimal_nonzero(self):
        """Ideals covering 0: nonzero, containing no other nonzero ideal."""
        nonzero = np.array([not i.is_zero() for i in self.ideals])
        return tuple(compress(self.ideals,
                              nonzero & ~self.below[nonzero].any(axis=0)))

    def maximal_proper(self):
        proper = np.array([not i.is_whole() for i in self.ideals])
        return tuple(compress(self.ideals,
                              proper & ~self.below[:, proper].any(axis=1)))

    def covers(self):
        """Hasse diagram edges (lower, upper), in that order: no ideal lies
        between; a float32 count of 0/1 terms is 0 exactly when none does."""
        below = self.below.astype(np.float32)
        edges = np.argwhere(self.below & (below @ below == 0))
        return tuple(map(tuple, edges.tolist()))

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
        power, last = ideal_product(ring, power, ideal, limits), power
        if power.elements == last.elements:
            break   # a product's gens depend on its operands' elements only,
            # so every later power is this one, gens included
    return power


def jacobson_radical(ring, limits=DEFAULT_LIMITS):
    """J(R) = {x : 1 - a*x is a unit for every a}, that is {x : Rx <= Q}
    for Q = {y : 1 - y is a unit} (Lam, A First Course in Noncommutative
    Rings, 4.1; in a finite ring a left inverse is two-sided).  So J(R)
    is the union of the principal left ideals inside Q: one mask test
    over the masks of the left principal table, on dense tables."""
    t = _tables_or_raise(ring, limits)
    cached = getattr(ring, "_jacobson_cache", None)
    if cached is not None:
        return cached
    quasi = t.mask()
    quasi[units_and_regulars(ring, limits).unit] = True
    quasi = quasi[t.add[t.one][t.neg]]       # y -> whether 1 - y is a unit
    masks = _principal_table(ring, t, "left", limits).masks
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

