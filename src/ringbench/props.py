"""Property deciders for finite rings, with witnesses.

Every decider returns a Verdict (or a small report dataclass) carrying a
machine-checkable witness: a counterexample pair when the property fails,
or a witness map when it holds and the ring is small enough to store one.
The center and CE read the ring through core._kernel_tables, as the
closures do: dense tables up to max_table, above it a structure ring's
sums and products on demand, whose prime p, if any, names the F_p path.
There no verdict scans: the center is the span of its F_p basis, CE is
one batched rank test mod p per chunk of elements (core._ce_rank_mod_p),
the units are decided on the blocks of R/J and lifted to R, and the Ore
check follows; most other deciders skip on max_table.  The Lie series
gathers its brackets from the dense tables, and no decider loops over
elements in Python.
One-sided questions (invariant, strongly bounded, uniserial) are array
reductions over the principal table of each side (ideals._principal_table):
rows and columns of the multiplication table, one per ideal, with their
two-sided cores.  Every other ideal, a Lie term included, is one additive
span of products (ideals._ideal_gens).  Factor rings R/I are read off R's
own tables through I's coset labels, never built: one scan (_ce_tables)
decides CE of R and of R/I, and the CCE sweep runs it on noncommutative
factors only, up to the first failing one.  A CE witness map is built
only when it is read (CEReport.witness_map).
"""

import functools
import random
from dataclasses import dataclass, field

import numpy as np

from ringbench.core import (
    _CHUNK_BYTES, DEFAULT_LIMITS, LimitError, RingError, SubRing,
    _ce_rank_mod_p, _central_mod, _close_additive_mask, _coset_labels,
    _kernel_tables, _mask_elems, _span, _tables_or_raise, center,
    units_and_regulars,
)
from ringbench.ideals import (
    _as_ideal, _ideal_gens, _power_masks, _principal_table, all_ideals,
    ideals_by_size, jacobson_radical, nilpotency_index, prime_radical,
    quotient,
)

WITNESS_MAP_LIMIT = 8192


@dataclass
class Verdict:
    holds: bool
    witness: object = None
    detail: str = ""

    def __bool__(self):
        return self.holds


# -- commutativity ------------------------------------------------------------

def is_commutative(ring, limits=DEFAULT_LIMITS):
    """Commutativity; witness is the first non-commuting generator pair."""
    gens = ring.gens()
    for i, a in enumerate(gens):
        for b in gens[:i]:
            if ring.mul(a, b) != ring.mul(b, a):
                return Verdict(False, witness=(b, a))
    return Verdict(True)


# -- centrally essential ----------------------------------------------------------

@dataclass
class CEReport:
    """CE's verdict, the center's size and the least a with no partner.
    witness_map, a -> (x, a*x) with x and a*x central and nonzero for each
    a != 0, is built on first read: x = 1 on a commutative ring, else a's
    least partner (_ce_partners).  It is empty where CE fails or past
    WITNESS_MAP_LIMIT elements.  A partnerless a there raises RingError."""
    holds: bool
    center_size: int
    counterexample: object = None        # a with no central multiplier
    ring: object = field(repr=False, default=None)
    limits: object = field(repr=False, default=DEFAULT_LIMITS)

    def __bool__(self):
        return self.holds

    @functools.cached_property
    def witness_map(self):
        ring, wm = self.ring, {}
        if not self.holds or ring.size > WITNESS_MAP_LIMIT:
            return wm
        if self.center_size == ring.size:
            return {a: (ring.one, a) for a in ring.elements(self.limits)[1:]}
        t, every = _kernel_tables(ring, self.limits), np.arange(ring.size)
        for rows, zidx, prod, good in _ce_partners(
                t, every, _central_mod(t, None, every)):
            if not good.any(axis=1).all():
                raise RingError("internal: an element has no partner, yet CE holds")
            x = np.argmax(good, axis=1)   # the least partner of each a
            wm.update(zip(t.decode(rows), zip(t.decode(zidx[x]), t.decode(
                prod[np.arange(len(rows)), x]))))
        return wm


def centrally_essential(ring, limits=DEFAULT_LIMITS):
    """For every a != 0 there must be central x != 0 with a*x central != 0.

    Commutative rings hold (x = 1).  Where the kernel tables carry a prime
    p (a structure ring over one prime, above max_table), the rank test
    core._ce_rank_mod_p alone decides, else the scan _ce_tables alone;
    each returns the least failing index.  No witness map is built here.
    The report is cached on the ring; center's gates run on every call
    first, so a cached report is never returned past a limit."""
    z = center(ring, limits)
    cached = getattr(ring, "_ce", None)
    if cached is not None:
        return cached
    bad = None
    if z.size < ring.size:
        t = _kernel_tables(ring, limits)
        if t.p is not None:
            bad = _ce_rank_mod_p(ring, t.p)
        else:   # the mask of the center's indices
            bad = _ce_tables(t, np.arange(ring.size), np.bincount(
                t.encode(z.elements()), minlength=ring.size).astype(bool))
    ring._ce = CEReport(bad is None, z.size, None if bad is None
                        else t.decode([bad])[0], ring, limits)
    return ring._ce


def _ce_partners(t, lab, central):
    """CE's scan of R/I on R's kernel tables t (R itself on identity labels):
    lab labels I's cosets by their least members (core._coset_labels), R/I's
    elements in order, and central masks the x central modulo I
    (core._central_mod).  A partner of a != 0 is a central x != 0 with a*x
    central and nonzero.  Yields chunks of rows a with the central x != 0,
    the products a*x by their cosets and the mask of the partners."""
    zero = lab[t.zero]
    reps = np.flatnonzero((lab == np.arange(len(lab))) & (lab != zero))
    zidx = reps[central[reps]]
    # on demand, a product costs about one coefficient row of 8 int64
    step = max(1, _CHUNK_BYTES // (64 * len(zidx)))
    for s in range(0, len(reps), step):
        rows = reps[s:s + step]
        prod = lab[t.prods(rows, zidx)]             # a * x, by its coset
        yield rows, zidx, prod, central[prod] & (prod != zero)


def _ce_tables(t, lab, central):
    """The least index of R/I with no partner (_ce_partners), or None when
    R/I is centrally essential; the first chunk holding one ends the walk."""
    for rows, _, _, good in _ce_partners(t, lab, central):
        ok = good.any(axis=1)
        if not ok.all():
            return int(rows[np.argmin(ok)])
    return None


def verify_ce_counterexample(ring, a, limits=DEFAULT_LIMITS):
    """Re-check by direct arithmetic that a has no nonzero central partner.

    True when a != 0 and a*x fails to be central-and-nonzero for every
    nonzero central x; used to confirm reported witnesses independently of
    the vectorized decider.
    """
    a = ring.element(a)
    if a == ring.zero:
        return False
    zelems = center(ring, limits).elements()
    zset = set(zelems)
    for x in zelems:
        if x == ring.zero:
            continue
        y = ring.mul(a, x)
        if y != ring.zero and y in zset:
            return False
    return True


def zero_divisor_symmetry(ring, limits=DEFAULT_LIMITS):
    """Left zero-divisors coincide with right zero-divisors.

    Holds in every finite ring: L_a is injective exactly when a is a
    unit, exactly when R_a is injective.  The witness would be an element
    whose annihilators are nontrivial on one side only.  Read off the flags
    l_full (a not a right zero-divisor) and r_full of units_and_regulars.
    """
    rep = units_and_regulars(ring, limits)
    mismatch = rep.l_full != rep.r_full
    if mismatch.any():
        a = int(np.nonzero(mismatch)[0][0])
        return Verdict(False, witness=rep.decode([a])[0],
                       detail="zero-divisor on one side only")
    return Verdict(True)


# -- completely centrally essential -----------------------------------------------

@dataclass
class CCEReport:
    holds: bool
    center_size: int
    checked_ideals: int = 0
    failing_ideal: object = None
    quotient_counterexample: object = None

    def __bool__(self):
        return self.holds


def completely_centrally_essential(ring, limits=DEFAULT_LIMITS):
    """Centrally essential together with every proper factor ring.

    Ideals are swept smallest first (ideals_by_size), so the failing ideal
    reported is the first one in (size, elements) order whose quotient is
    not centrally essential, and the sweep builds no larger ideal than
    that one's band needs.  Commutative rings pass outright (every factor
    ring is commutative).  R/I is commutative exactly when I holds every
    bracket g*h - h*g of additive generators, since the bracket is
    bilinear and I additive; those brackets are found once, and CE of R/I
    is decided by _ce_tables on R's tables, with no factor ring built,
    only for an ideal that misses one.  checked_ideals counts every
    proper nonzero ideal swept.
    """
    if is_commutative(ring, limits):
        return CCEReport(True, ring.size)
    base = centrally_essential(ring, limits)
    if not base:
        return CCEReport(False, base.center_size,
                         quotient_counterexample=base.counterexample)
    checked = 0
    sweep = ideals_by_size(ring, limits=limits)
    next(sweep)   # the zero ideal comes first, once the sweep's gates ran
    t = ring.tables(limits)
    brackets = set(t.decode(np.unique(_brackets(t, t.gen_idx, t.gen_idx))))
    for ideal in sweep:
        if ideal.is_whole():
            continue
        checked += 1
        if brackets <= ideal.member:   # R/I is commutative
            continue
        lab = _coset_labels(t, t.encode(ideal.elements))
        bad = _ce_tables(t, lab, _central_mod(t, lab, np.arange(ring.size)))
        if bad is not None:
            return CCEReport(False, base.center_size, checked_ideals=checked,
                             failing_ideal=ideal,
                             quotient_counterexample=t.decode([bad])[0])
    return CCEReport(True, base.center_size, checked_ideals=checked)


# -- one-sided ideal symmetry: invariant, strongly bounded --------------------------

def is_invariant(ring, limits=DEFAULT_LIMITS):
    """All one-sided ideals two-sided, i.e. aR = Ra for every a.

    aR = Ra for every a exactly when every principal right and left ideal
    is two-sided: a two-sided aR holds Ra, and the mirror image.  So a
    principal ideal fails when its two-sided core is smaller than itself
    (ideals._principal_table).  Each records the least index generating
    it, so the witness, the least such index over the failing ideals of
    both sides, is the least a with aR != Ra."""
    t = _tables_or_raise(ring, limits)
    bad = []
    for side in ("right", "left"):
        table = _principal_table(ring, t, side, limits)
        bad.extend(table.least[(table.masks != table.cores).any(axis=1)])
    if not bad:
        return Verdict(True)
    return Verdict(False, witness=t.elems[min(bad)],
                   detail="aR and Ra differ as sets")


def is_strongly_bounded(ring, limits=DEFAULT_LIMITS):
    """Every nonzero one-sided ideal contains a nonzero two-sided ideal.

    Checking principal one-sided ideals suffices: any nonzero one-sided
    ideal contains a principal one.  The largest two-sided ideal inside
    each principal ideal is its core (ideals._principal_table); the
    witness is the least a != 0 where it is zero, right ideals first
    (mirrored for Ra).
    """
    t = _tables_or_raise(ring, limits)
    for side in ("right", "left"):
        table = _principal_table(ring, t, side, limits)
        only_zero = (table.cores.sum(1) == 1) & (table.masks.sum(1) > 1)
        if only_zero.any():
            a = t.elems[table.least[only_zero].min()]
            return Verdict(False, witness=(side, a),
                           detail="principal %s ideal of %s holds no "
                                  "nonzero two-sided ideal"
                                  % (side, ring.format_element(a)))
    return Verdict(True)


# -- zero-product symmetry: reversible, semicommutative -----------------------------

def is_reversible(ring, limits=DEFAULT_LIMITS):
    """ab = 0 must force ba = 0; witness is the first ordered pair violating."""
    t = _tables_or_raise(ring, limits)
    zero = t.mul == t.zero
    bad = zero & ~zero.T
    if not bad.any():
        return Verdict(True)
    a, b = (int(x) for x in np.argwhere(bad)[0])
    return Verdict(False, witness=(t.elems[a], t.elems[b]),
                   detail="product vanishes one way only")


def is_semicommutative(ring, limits=DEFAULT_LIMITS):
    """ab = 0 must force aRb = 0; middles run over additive generators."""
    t = _tables_or_raise(ring, limits)
    zero = t.mul == t.zero
    for g in t.gen_idx:
        # (a*g)*b for all pairs: rows re-indexed through a*g
        agb_zero = zero[t.mul[:, g], :]
        bad = zero & ~agb_zero
        if bad.any():
            a, b = (int(x) for x in np.argwhere(bad)[0])
            return Verdict(False, witness=(t.elems[a], t.elems[int(g)],
                                           t.elems[b]),
                           detail="ab = 0 but a*g*b != 0")
    return Verdict(True)


# -- local, uniserial, semiprime ------------------------------------------------------

def is_local(ring, limits=DEFAULT_LIMITS):
    """Non-units form an ideal, i.e. |J| + |units| = |R|."""
    rep = units_and_regulars(ring, limits)
    j = jacobson_radical(ring, limits)
    holds = j.size + len(rep.unit) == ring.size
    if holds:
        return Verdict(True, detail="residue ring is a division ring")
    t = _tables_or_raise(ring, limits)
    stray = np.ones(ring.size, dtype=bool)
    stray[rep.unit] = stray[t.encode(j.elements)] = False
    return Verdict(False, witness=t.elems[stray.argmax()],
                   detail="non-unit outside the radical")


def is_uniserial(ring, limits=DEFAULT_LIMITS):
    """One-sided ideals form a chain (checked on both sides).

    Only principal ideals aR (row a of the table) and Ra (column a) are
    compared, sorted by (size, elements) like a lattice; a chain of them is
    every ideal, since each ideal is the join of its principal ones.  The
    witness is the first consecutive incomparable pair, the same pair the
    whole lattice gives: every ideal up to it is the join of a chain of
    smaller principal ideals, that is the largest of them, so principal.
    """
    t = _tables_or_raise(ring, limits)
    for side in ("right", "left"):
        table = _principal_table(ring, t, side, limits)
        apart = (table.masks[:-1] & ~table.masks[1:]).any(axis=1)
        if apart.any():
            k = int(apart.argmax())
            pair = tuple(_as_ideal(ring, t, table.masks[j], table.least[j:j + 1],
                                   side) for j in (k, k + 1))
            return Verdict(False, witness=(side, pair),
                           detail="%s ideals of sizes %d and %d are "
                                  "incomparable" % (side, pair[0].size,
                                                    pair[1].size))
    return Verdict(True)


# -- Lie series ------------------------------------------------------------------------

@dataclass
class LieSeries:
    flavor: str            # "bracket" or "ideal"
    sizes: tuple           # additive sizes of the terms, starting at |R|
    nilpotency_class: object  # int or None when the series stabilizes above 0
    terms: tuple = ()      # element tuples of the terms past the first

    @property
    def terminates(self):
        return self.nilpotency_class is not None


def lie_series(ring, flavor="bracket", limits=DEFAULT_LIMITS):
    """Iterated commutator series, on the dense tables.

    bracket: next term is the additive span of [x, y], x in the current
    term, y in R.  ideal: next term is the two-sided ideal generated by
    those brackets (the stronger chain), the span of the products g*b*h
    of ideals._ideal_gens.  Both start at R itself.  The bracket is
    bilinear, so x runs over the generators of the last span and y over
    those of R, and all brackets of a step are one gather.
    """
    if flavor not in ("bracket", "ideal"):
        raise ValueError("flavor must be 'bracket' or 'ideal'")
    t = _tables_or_raise(ring, limits)
    cur = t.gen_idx
    sizes = [ring.size]
    terms = []
    while True:
        brackets = np.unique(_brackets(t, cur, t.gen_idx))
        brackets = brackets[brackets != t.zero]
        if not brackets.size:
            sizes.append(1)
            terms.append((ring.zero,))
            return LieSeries(flavor, tuple(sizes), len(terms), tuple(terms))
        if flavor == "ideal":
            brackets = _ideal_gens(t, brackets, "two")
        mask, cur = _span(t, brackets)
        terms.append(_mask_elems(t, mask))
        sizes.append(len(terms[-1]))
        if sizes[-1] == sizes[-2]:
            return LieSeries(flavor, tuple(sizes), None, tuple(terms))


def _brackets(t, xs, ys):
    """Indices of x*y - y*x for x in xs and y in ys, (len(xs), len(ys))."""
    return t.add[t.prods(xs, ys), t.neg[t.prods(ys, xs).T]]


def lie_class(ring, limits=DEFAULT_LIMITS):
    """Least c with the bracket series vanishing at step c+1, else None."""
    return lie_series(ring, "bracket", limits).nilpotency_class


def is_lie_nilpotent(ring, limits=DEFAULT_LIMITS):
    c = lie_class(ring, limits)
    return Verdict(c is not None, witness=c,
                   detail="bracket series stabilizes above zero"
                   if c is None else "class %d" % c)


def is_strongly_lie_nilpotent(ring, limits=DEFAULT_LIMITS):
    s = lie_series(ring, "ideal", limits)
    return Verdict(s.terminates, witness=s.nilpotency_class,
                   detail="ideal series stabilizes above zero"
                   if not s.terminates else "class %d" % s.nilpotency_class)


# -- central series through the prime radical -------------------------------------------

@dataclass
class CentralSeriesReport:
    ok: bool
    sizes: tuple = ()          # sizes of the chain ideals inside the ring
    reason: str = ""

    def __bool__(self):
        return self.ok


def central_series_through_radical(ring, limits=DEFAULT_LIMITS):
    """Build the ascending central chain seeded by slices of the prime radical.

    Stage i takes the factor ring R/acc (R/0 at the first stage),
    intersects the last nonzero power of its prime radical with its
    center, and pulls the result back to R.  Each stage must produce a
    nonzero ideal.  The loop runs until the factor ring is semiprime,
    i.e. until the chain has absorbed the whole prime radical P; it then
    closes with R itself once the factor by P is commutative.  Semiprime
    input yields the empty chain.  Returns a failure report when a stage
    yields zero or a non-ideal (which happens off the intended class of
    rings).  No factor ring is built: acc lies in P = J, so R/acc's
    radical is J/acc, whose last nonzero power is (J^m + acc)/acc for the
    largest m with J^m not inside acc.  That is J^m itself, pulled back:
    each slice lies in its own power, and the powers above it in acc, so
    m never grows and acc lies in J^m.  The center pulls back to the x
    central modulo acc (core._central_mod on acc's coset labels), so the
    slice, which holds acc, is an ideal once it holds every x*g.

    Two failures cannot occur.  The radical's powers reach 0: P = J, and
    J of a finite ring is nilpotent (Lam, A First Course in Noncommutative
    Rings, 4.12).  The chain never stalls: a nonzero ideal of R/acc pulls
    back to an ideal of R strictly above acc.
    """
    radical = prime_radical(ring, limits)
    if radical.is_zero():
        return CentralSeriesReport(True, (), reason="semiprime: empty chain")
    t = ring.tables(limits)
    powers = _power_masks(t, t.encode(radical.elements))
    acc, sizes, every = powers[-1], [1], np.arange(ring.size)   # J^k = 0

    def failed(reason):
        return CentralSeriesReport(False, tuple(sizes), reason=reason)

    while True:   # acc strictly grows, so at most log2 |R| stages run
        lab = _coset_labels(t, np.flatnonzero(acc))
        if sizes[-1] == radical.size:   # acc = P: R/P must be commutative
            if _central_mod(t, lab, t.gen_idx).all():
                return CentralSeriesReport(True, (*sizes, ring.size))
            return failed("factor by the prime radical is not commutative")
        power = next(m for m in reversed(powers) if (m & ~acc).any())
        acc = power & _central_mod(t, lab, every)
        idx = np.flatnonzero(acc)
        if len(idx) == sizes[-1]:
            return failed("central slice of the radical power is zero")
        if not acc[t.prods(idx, t.gen_idx)].all():   # g*x = x*g mod acc
            return failed("central slice is not a two-sided ideal")
        sizes.append(len(idx))


# -- Ore conditions and the classical ring of fractions -----------------------------------

@dataclass
class OreReport:
    right_holds: bool
    left_holds: bool
    regular_count: int
    ring: object = field(repr=False, default=None)
    unit_report: object = field(repr=False, default=None)

    def __bool__(self):
        return self.right_holds and self.left_holds

    @property
    def _inverses(self):   # b -> its two-sided inverse, for regular b
        return self.unit_report.inverses

    def witness(self, a, b):
        """(a1, b1) with a*b1 = b*a1 and b1 regular, for regular b."""
        if b not in self._inverses:
            raise ValueError("b must be regular")
        binv = self._inverses[b]
        return (self.ring.mul(binv, a), self.ring.one)

    def left_witness(self, a, b):
        """(a1, b1) with b1*a = a1*b and b1 regular, for regular b."""
        if b not in self._inverses:
            raise ValueError("b must be regular")
        binv = self._inverses[b]
        return (self.ring.mul(a, binv), self.ring.one)


def ore_check(ring, limits=DEFAULT_LIMITS):
    """Both Ore conditions, from the unit report.

    In a finite ring the regular elements are the units, and
    units_and_regulars records for each an inverse v with b*v = 1 and
    some y with y*b = 1, so y = y*b*v = v is two-sided.  For every a,
    b*(v*a) = (b*v)*a = a and (a*v)*b = a by associativity, which the
    ring axioms checked at construction: b1 = 1 with a1 = v*a (right)
    or a*v (left) witnesses each condition, so both hold.  Skips are
    those of units_and_regulars.
    """
    rep = units_and_regulars(ring, limits)
    regular = int(np.count_nonzero(rep.l_full & rep.r_full))
    return OreReport(True, True, regular, ring, rep)


# -- aggregate report ---------------------------------------------------------------------

REPORT_KEYS = (
    "size", "center_size", "jacobson_size", "jacobson_index",
    "prime_radical_size", "prime_radical_index", "units", "commutative",
    "centrally_essential", "completely_centrally_essential", "invariant",
    "strongly_bounded", "reversible", "semicommutative", "local",
    "uniserial", "semiprime", "lie_nilpotent", "lie_class",
    "strongly_lie_nilpotent", "strong_lie_class", "ore_right", "ore_left",
)


def _render_value(val):
    if val is True:
        return "true"
    if val is False:
        return "false"
    if val is None:
        return "none"
    return str(val)


@dataclass
class PropertyReport:
    ring: object
    values: dict
    skipped: dict   # key -> limit name that stopped it

    def rows(self):
        """(key, value, note) for each key answered or skipped, in
        REPORT_KEYS order: the rendered value and its witness, or
        "skipped" and the limit that stopped it."""
        return [(key, _render_value(self.values[key][0]), self.values[key][1])
                if key in self.values else (key, "skipped", self.skipped[key])
                for key in REPORT_KEYS if key in self.values or key in self.skipped]

    def lines(self):
        """key=value, with ;witness=note or ;limit=name when there is one."""
        return ["%s=%s%s" % (key, value, note and (
            ";limit=" if key in self.skipped else ";witness=") + note)
                for key, value, note in self.rows()]


def _fmt(ring, elem):
    return ring.format_element(elem)


def full_report(ring, limits=DEFAULT_LIMITS):
    """Run every decider, recording named-limit skips instead of failing."""
    values = {}
    skipped = {}

    def run(key, fn, render=lambda v: (v, "")):
        try:
            values[key] = render(fn())
        except LimitError as err:
            skipped[key] = err.limit

    memo = {}

    def once(name, fn):
        """fn() computed once per report.  A LimitError is not kept, so
        every key that reads the value skips alike."""
        if name not in memo:
            memo[name] = fn()
        return memo[name]

    def radical_index():    # P = J, so both radical indices read this one
        return once("radical_index", lambda: nilpotency_index(
            ring, jacobson_radical(ring, limits), limits))

    def series(flavor):
        return once(flavor, lambda: lie_series(ring, flavor, limits))

    def ore():
        return once("ore", lambda: ore_check(ring, limits))

    values["size"] = (ring.size, "")
    run("center_size", lambda: center(ring, limits).size)
    run("jacobson_size", lambda: jacobson_radical(ring, limits).size)
    run("jacobson_index", radical_index)
    run("prime_radical_size", lambda: prime_radical(ring, limits).size)
    run("prime_radical_index", radical_index)
    run("units", lambda: len(units_and_regulars(ring, limits).unit))
    run("commutative", lambda: is_commutative(ring, limits),
        lambda v: (v.holds, "" if v.holds else "%s,%s"
                   % (_fmt(ring, v.witness[0]), _fmt(ring, v.witness[1]))))
    run("centrally_essential", lambda: centrally_essential(ring, limits),
        lambda v: (v.holds, "" if v.holds
                   else _fmt(ring, v.counterexample)))
    run("completely_centrally_essential",
        lambda: completely_centrally_essential(ring, limits),
        lambda v: (v.holds, "" if v.holds
                   else ("ideal_size=%d" % v.failing_ideal.size
                         if v.failing_ideal else "self")))
    run("invariant", lambda: is_invariant(ring, limits),
        lambda v: (v.holds, "" if v.holds else _fmt(ring, v.witness)))
    run("strongly_bounded", lambda: is_strongly_bounded(ring, limits),
        lambda v: (v.holds, "" if v.holds
                   else "%s:%s" % (v.witness[0], _fmt(ring, v.witness[1]))))
    run("reversible", lambda: is_reversible(ring, limits),
        lambda v: (v.holds, "" if v.holds else "%s,%s"
                   % (_fmt(ring, v.witness[0]), _fmt(ring, v.witness[1]))))
    run("semicommutative", lambda: is_semicommutative(ring, limits),
        lambda v: (v.holds, "" if v.holds else "%s,%s,%s"
                   % tuple(_fmt(ring, w) for w in v.witness)))
    run("local", lambda: is_local(ring, limits),
        lambda v: (v.holds, "" if v.holds else _fmt(ring, v.witness)))
    run("uniserial", lambda: is_uniserial(ring, limits),
        lambda v: (v.holds, "" if v.holds else "%s:%d,%d"
                   % (v.witness[0], v.witness[1][0].size, v.witness[1][1].size)))
    run("semiprime", lambda: prime_radical(ring, limits),
        lambda p: (p.is_zero(), "" if p.is_zero()
                   else "radical_size=%d" % p.size))
    run("lie_nilpotent", lambda: series("bracket").terminates)
    run("lie_class", lambda: series("bracket").nilpotency_class)
    run("strongly_lie_nilpotent", lambda: series("ideal").terminates)
    run("strong_lie_class", lambda: series("ideal").nilpotency_class)
    run("ore_right", lambda: ore().right_holds)
    run("ore_left", lambda: ore().left_holds)
    return PropertyReport(ring=ring, values=values, skipped=skipped)


# -- random instances -------------------------------------------------------------------

@functools.cache
def _ambient(n, mod):
    """The n x n matrix ring mod `mod`, built once."""
    from ringbench.construct import full_matrix_ring
    return full_matrix_ring(n, mod)


def random_subring(rng, max_size=512, limits=DEFAULT_LIMITS):
    """Unital subring of a small matrix ring generated by random matrices.

    Returns None when the closure overflows max_size (callers resample).
    Closing the additive generators under pairwise products suffices: any
    two subgroup elements are integer combinations of the generators, so
    their product is an integer combination of generator products.  The
    closure reads the ambient through _kernel_tables: dense tables and
    masks up to limits.max_table, on-demand tables above it.  The draws
    do not depend on which.
    """
    n, mod = rng.choice(((2, 2), (2, 3), (2, 4), (3, 2)))
    t = _kernel_tables(_ambient(n, mod), limits)
    k = n * n
    gens = [t.ring.one]
    for _ in range(rng.randint(1, 3)):
        gens.append(tuple(rng.randrange(mod) for _ in range(k)))
    mask, have = _span(t, t.encode(gens))
    new = have
    while new.size and mask.sum() <= max_size:
        new = _close_additive_mask(t, mask, np.concatenate(
            [t.prods(new, have).ravel(), t.prods(have, new).ravel()]))
        have = np.concatenate([have, new])
    if mask.sum() > max_size:
        return None
    return SubRing(t.ring, _mask_elems(t, mask),
                   name="sampled %dx%d mod %d" % (n, n, mod), check=False)


def sample_rings(seed, count, max_size=512, limits=DEFAULT_LIMITS):
    """Deterministic stream of `count` random subrings."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ring = random_subring(rng, max_size=max_size, limits=limits)
        if ring is not None:
            out.append(ring)
    return out


def random_quotient(rng, ring, limits=DEFAULT_LIMITS):
    """A quotient of the ring by a random proper ideal (maybe the zero one)."""
    ideals = [i for i in all_ideals(ring, limits=limits) if not i.is_whole()]
    ideal = ideals[rng.randrange(len(ideals))]
    if ideal.is_zero():
        return ring
    return quotient(ring, ideal, limits=limits)
