"""Slow reference deciders and constructors kept as independent oracles.

These are the procedures the package used before: the lattice-based
deciders it replaced with principal ideals and the units, the CCE sweep
over the whole two-sided lattice it replaced with a sweep by size bands,
and the dictionary-backed quotient and element-by-element additive
generators it replaced with index views on tables.  The lattice oracle
is the worklist enumerator, which now lives only here: one closure per
element, then every pair of known ideals joined until nothing new
appears.  It closes sets by breadth-first search on the dense tables,
not by the package's coset growth.  Its ideal closure (_ideal_mask),
which multiplies until nothing new appears, is the worklist closure the
package replaced with one span of products; it too lives only here.
The structure-ring export and the Lie series are the element-by-element
versions the package replaced with gathers on tables: set-based span growth and coefficients by
repeated addition, and one ring.mul per bracket.  The ring check
validate_ring is the einsum and tensordot version the package replaced
with matrix products whose difference is reduced once.  The subring tables
are the two sources the package replaced with reading the base's sums
and products: the tensor contraction on a structure base and the gather
from any other base's tables.  The rank units solve a*z = 1 and y*a = 1
for every element, the path the package replaced above max_table with
one solve per element of each block of R/J.  They run their own
eliminator, _eliminate_mod_p, the batched Gauss-Jordan the package
replaced with its kernel _row_reduce_mod_p, so the rank oracle shares no
elimination code with the path it checks.  The
fraction field is sympy's FracField, which the symbolic verifiers used
before they kept unreduced fraction pairs: it reduces every result by a
multivariate gcd.  The random fraction and its printed form are the
sympy-ring draw and rendering the verifiers used before their fraction
pairs held plain-int polynomials.  The unit flags and the invariance
test sort every row and column of the table, and the Jacobson radical
gathers 1 - a*x for every pair: the paths the package replaced with
kernels, the two-sided cores of principal ideals and the principal left
ideals inside {y : 1 - y is a unit}.  The sweep joins each ideal with a
principal one by one closure walk per pair, as the size-band sweep did
before it read all joins off coset labels.  The principal table loops
over the elements, one ideal per unit orbit and two-sided one span of
products each, as the package did before it read its two-sided table
off the right one and its one-sided tables off the orbit minima.  The
central series builds each factor ring R/acc of its chain and reads its
radical, center and ideal closure there, as the package did before it
ran the chain on R's own masks and coset labels.
Differential tests compare against them.
"""

import itertools

import numpy as np
from sympy import GF
from sympy.polys.fields import field as _fraction_field
from sympy.printing.precedence import PRECEDENCE
from sympy.printing.str import StrPrinter

from ringbench.core import (
    DEFAULT_LIMITS, AdditiveShape, ConstructionError, InputError,
    StructureRing, ValidationReport, _outer_codes, _span, center,
    units_and_regulars,
)
from ringbench.ideals import (
    Ideal, _ideal_gens, _mask_elems, _mask_order, _power_masks,
    _principal_table, ideal_closure, nilpotency_index, quotient,
)
from ringbench.ideals import prime_radical as package_prime_radical
from ringbench.props import (
    CCEReport, CentralSeriesReport, LieSeries, centrally_essential,
    is_commutative,
)


def _close_additive_mask(t, mask, gidx):
    """Close mask under x -> x + g for the generator indices gidx."""
    if not len(gidx):
        return mask
    gidx = np.asarray(sorted(gidx), dtype=np.int64)
    frontier = np.nonzero(mask)[0]
    while frontier.size:
        new = t.add[np.ix_(frontier, gidx)].ravel()
        new = np.unique(new)
        fresh = new[~mask[new]]
        mask[fresh] = True
        frontier = fresh
    return mask


def _additive_gens_idx(t, idx_sorted):
    """Greedy small additive generating set for a subgroup of indices:
    each index, in order, that the earlier ones do not generate."""
    member = np.zeros(len(t.elems), dtype=bool)
    member[list(idx_sorted)] = True
    have = np.zeros(len(t.elems), dtype=bool)
    have[t.zero] = True
    gens = []
    for i in idx_sorted:
        if have[i]:
            continue
        gens.append(i)
        have = _close_additive_mask(t, have, [i] + gens[:-1])
        if have.sum() == member.sum():
            break
    return gens


def _ideal_mask(t, gidx, side):
    """Close under addition and one/two-sided multiplication by ring gens,
    multiplying every element of the current set each round."""
    rg = t.gen_idx
    mask = np.zeros(len(t.elems), dtype=bool)
    mask[t.zero] = True
    mask[list(gidx)] = True
    mask = _close_additive_mask(t, mask, gidx)
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


def cce(ring, two_sided):
    """Complete central essentiality over the whole two-sided lattice
    `two_sided` (as `lattice` gives it), smallest ideal first."""
    if is_commutative(ring):
        return CCEReport(True, ring.size)
    base = centrally_essential(ring)
    if not base:
        return CCEReport(False, base.center_size,
                         quotient_counterexample=base.counterexample)
    checked = 0
    for ideal in two_sided:
        if ideal.is_zero() or ideal.is_whole():
            continue
        q = quotient(ring, ideal)
        checked += 1
        if is_commutative(q):
            continue
        rep = centrally_essential(q)
        if not rep:
            return CCEReport(False, base.center_size, checked_ideals=checked,
                             failing_ideal=ideal,
                             quotient_counterexample=rep.counterexample)
    return CCEReport(True, base.center_size, checked_ideals=checked)


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


def unit_flags(t):
    """(l_full, r_full) of the unit report by sorting: x -> a*x is
    bijective when row a of the table, sorted, is every index once, and
    x -> x*a when column a is."""
    every = np.arange(len(t.elems))
    return ((np.sort(t.mul, axis=1) == every).all(axis=1),
            (np.sort(t.mul.T, axis=1) == every).all(axis=1))


def is_invariant(ring):
    """(holds, witness): aR = Ra compared as sorted rows and columns of
    the table; the witness is the least a where they differ."""
    t = ring.tables()
    agree = (np.sort(t.mul, axis=1) == np.sort(t.mul.T, axis=1)).all(axis=1)
    if agree.all():
        return True, None
    return False, t.elems[int(np.argmin(agree))]


def jacobson_radical(ring):
    """Elements of {x : 1 - a*x is a unit for every a}, one unit lookup
    per pair (a, x): the whole table gathered through y -> 1 - y."""
    t = ring.tables()
    hit = t.mul == t.one
    is_unit = (hit & hit.T).any(axis=1)
    one_minus = t.add[t.one][t.neg]
    return _mask_elems(t, is_unit[one_minus[t.mul]].all(axis=0))


def sweep(ring, side="two"):
    """ideals_by_size run to the end with its joins as they were made
    before coset labels: each ideal handed out is closed under the
    elements of every earlier principal ideal it is incomparable with,
    one breadth-first walk per pair."""
    t = ring.tables()
    table = _principal_table(ring, t, side, DEFAULT_LIMITS)
    pending = {mask.tobytes(): (mask, (least,))
               for mask, least in zip(table.masks, table.least)}
    out, seen = [], 0
    while pending:
        size = min(mask.sum() for mask, _ in pending.values())
        band = sorted(((_mask_elems(t, mask), key)
                       for key, (mask, _) in pending.items()
                       if mask.sum() == size))
        for elems, key in band:
            mask, gens = pending.pop(key)
            out.append(Ideal(ring=ring, elements=elems, side=side,
                             gens=tuple(t.elems[g] for g in gens)))
            seen += seen < len(table.masks) and key == table.masks[seen].tobytes()
            for part, least in zip(table.masks[:seen], table.least):
                if (mask & ~part).any() and (part & ~mask).any():
                    joined = _close_additive_mask(t, mask.copy(),
                                                  np.flatnonzero(part))
                    pending.setdefault(joined.tobytes(), (
                        joined, tuple(sorted(set(gens) | {least}))))
    return out


def principal_table(ring, side):
    """(masks, least, gens, cores) of the principal table as it was built
    before the two-sided table was read off the right one: a Python loop
    over the elements that skips each unit orbit (u*a*v two-sided, u*a
    left, a*v right) after its least member.  That member's ideal is row
    or column a of the table, or two-sided the span of _ideal_gens, and
    the first of each ideal, in _mask_order, is kept."""
    t = ring.tables()
    units = units_and_regulars(ring).unit
    by_key = {}
    seen = np.zeros(len(t.elems), dtype=bool)
    for i in range(len(t.elems)):
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
        by_key.setdefault(_mask_order(mask), (mask, i, gens))
    masks, least, gens = zip(*(by_key[key] for key in sorted(by_key)))
    masks = np.array(masks)
    cores = masks
    for g in t.gen_idx if side != "two" else ():
        cores = cores & masks[:, t.mul[g] if side == "right" else t.mul[:, g]]
    return masks, np.array(least), gens, cores


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


class DictQuotient:
    """R/I as it was built before label arrays: walk the base in element
    order, take the first unseen element of each coset as its
    representative, project through a dict and compute in the base."""

    def __init__(self, base, ideal_elems):
        ideal = sorted(set(ideal_elems))
        reps, proj = [], {}
        for x in base.elements():
            if x in proj:
                continue
            reps.append(x)
            for i in ideal:
                proj.setdefault(base.add(x, i), x)
        self.base, self.reps, self.proj = base, tuple(reps), proj
        self.zero, self.one = base.zero, proj[base.one]

    def add(self, a, b):
        return self.proj[self.base.add(a, b)]

    def neg(self, a):
        return self.proj[self.base.neg(a)]

    def mul(self, a, b):
        return self.proj[self.base.mul(a, b)]

    def gens(self):
        out, seen = [], set()
        for g in self.base.gens():
            h = self.proj[g]
            if h != self.zero and h not in seen:
                seen.add(h)
                out.append(h)
        return tuple(out)

    def tables(self):
        """(add, mul, neg) index arrays, projected from the base's tables."""
        bt = self.base.tables()
        pos = {x: i for i, x in enumerate(self.reps)}
        rid = np.array([bt.index[x] for x in self.reps])
        proj = np.empty(len(bt.elems), dtype=np.int64)
        for x, i in bt.index.items():
            proj[i] = pos[self.proj[x]]
        return (proj[bt.add[np.ix_(rid, rid)]], proj[bt.mul[np.ix_(rid, rid)]],
                proj[bt.neg[rid]])


def subring_tables(sub):
    """(add, mul, neg) of a subring as they were built before subrings
    read their base's sums and products: a structure base contracts the
    subset's coefficient rows with the tensor and looks the codes up, any
    other base is gathered from its dense tables through a label array.
    -1 where a result leaves the subset."""
    base = sub.base
    if isinstance(base, StructureRing):
        X = np.array(sub.elements(), dtype=np.int64)
        codes = X @ base._weights

        def lookup(c):
            pos = np.minimum(np.searchsorted(codes, c), len(X) - 1)
            return np.where(codes[pos] == c, pos, -1).astype(np.int32)

        return (lookup(_outer_codes(base, X, X, "add")),
                lookup(_outer_codes(base, X, X, "mul")),
                lookup((-X) % base._mods @ base._weights))
    bt = base.tables()
    idx = np.array([bt.index[e] for e in sub.elements()], dtype=np.int64)
    labels = np.full(len(bt.elems), -1, dtype=np.int32)
    labels[idx] = np.arange(len(idx))
    sub_ix = np.ix_(idx, idx)
    return labels[bt.add[sub_ix]], labels[bt.mul[sub_ix]], labels[bt.neg[idx]]


def _eliminate_mod_p(M, p):
    """Gauss-Jordan elimination mod p, in place, on a batch of systems.

    M is (k, k + 1, m): row, column, system, augmented, entries in [0, p).
    Returns a candidate solution (m, k) per system, free variables at 0,
    to be checked by the caller, and the rank of its matrix.
    """
    k, _, m = M.shape
    inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    used = np.zeros((k, m), dtype=bool)      # rows holding a pivot
    pivot = np.full((k, m), -1)              # pivot row of each column
    systems = np.arange(m)
    for col in range(k):
        cand = (M[:, col] != 0) & ~used
        has = cand.any(axis=0)
        sel = cand.argmax(axis=0)
        # a row that holds no pivot yet is zero left of col
        row = M[sel, col:, systems].T * inv[M[sel, col, systems]] % p
        # clears column col in every row, the pivot row too; it is put back
        M[:, col:] -= np.where(has, M[:, col], 0)[:, None] * row
        M[:, col:] %= p
        M[sel[has], col:, systems[has]] = row[:, has].T
        used[sel[has], systems[has]] = True
        pivot[col, has] = sel[has]
    x = np.where(pivot >= 0, M[pivot, k, systems], 0).T
    return x, used.sum(axis=0)


def units_by_rank(ring, p):
    """(units, inverses, l_full, r_full) of a structure ring over the prime
    p, as the unit report gives them: a*z = 1 and y*a = 1 solved mod p for
    every element a, one system per element and side."""
    elems, X = ring.elements(), ring.elements_array()
    n, k = X.shape
    LR = np.stack(ring.mul_matrices(X))   # (2, n, k, k)
    M = np.empty((k, k + 1, 2 * n), dtype=np.int64)
    M[:, :k] = LR.reshape(-1, k, k).transpose(2, 1, 0) % p
    M[:, k] = np.array(ring.one)[:, None]
    x, rank = _eliminate_mod_p(M, p)
    x = x.reshape(2, n, k)
    check = np.einsum("snj,snjm->snm", x, LR) % p
    unit = np.nonzero((check == ring.one).all(axis=2).all(axis=0))[0]
    full = rank.reshape(2, n) == k
    return (tuple(elems[i] for i in unit),
            {elems[i]: tuple(x[0, i].tolist()) for i in unit},
            full[0], full[1])


def greedy_additive_gens(ring):
    """Small additive generating set, chosen greedily in element order:
    each element that the earlier choices do not generate."""
    closure = {ring.zero}
    gens = []
    for e in ring.elements():
        if e in closure:
            continue
        gens.append(e)
        new = [e]
        while new:
            x = new.pop()
            if x in closure and x != e:
                continue
            closure.add(x)
            for s in gens:
                y = ring.add(x, s)
                if y not in closure:
                    new.append(y)
        # re-close under all gens to keep the invariant simple
        changed = True
        while changed:
            changed = False
            for x in list(closure):
                for s in gens:
                    y = ring.add(x, s)
                    if y not in closure:
                        closure.add(y)
                        changed = True
        if len(closure) == ring.size:
            break
    return tuple(gens)


def _additive_order(ring, x):
    k, y = 1, x
    while y != ring.zero:
        y = ring.add(y, x)
        k += 1
    return k


def structure_ring(ring):
    """Isomorphic copy of a finite ring as a StructureRing: an additive
    basis by depth-first search with backtracking over elements ordered by
    decreasing additive order, then element, with set-based span growth;
    each element's coefficients by repeated addition of the basis.  This
    search is the reference for as_structure_ring's single pass, which
    relies on the search never backtracking."""
    if isinstance(ring, StructureRing):
        return ring
    elems = sorted(ring.elements())
    total = len(elems)
    orders = {x: _additive_order(ring, x) for x in elems}
    candidates = sorted((x for x in elems if x != ring.zero),
                        key=lambda x: (-orders[x], x))

    def extend(span, basis):
        if len(span) == total:
            return basis
        for x in candidates:
            if x in span:
                continue
            cycle = [ring.zero]
            for _ in range(orders[x] - 1):
                cycle.append(ring.add(cycle[-1], x))
            grown = {ring.add(s, c) for s in span for c in cycle}
            if len(grown) != len(span) * orders[x]:
                continue  # not independent of the span
            found = extend(grown, basis + [x])
            if found is not None:
                return found
        return None

    basis = extend({ring.zero}, [])
    if basis is None:
        raise ConstructionError("no additive basis found")
    moduli = [orders[b] for b in basis]
    coeff_of = {}
    for coeffs in itertools.product(*(range(m) for m in moduli)):
        total_elem = ring.zero
        for c, b in zip(coeffs, basis):
            for _ in range(c):
                total_elem = ring.add(total_elem, b)
        coeff_of[total_elem] = coeffs
    k = len(basis)
    tensor = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            tensor[i, j] = coeff_of[ring.mul(basis[i], basis[j])]
    names = tuple(ring.format_element(b) for b in basis)
    return StructureRing(moduli, tensor, one=coeff_of[ring.one],
                         basis_names=names, name=getattr(ring, "name", None))


def validate_ring(shape, tensor, one):
    """core.validate_ring as it was before its matrix products: each side
    of associativity an einsum reduced on its own, and the identity laws
    by tensordot.  Returns the same ValidationReport."""
    violations = []
    shape = shape if isinstance(shape, AdditiveShape) else AdditiveShape(tuple(shape))
    k = shape.width
    mods = np.array(shape.moduli, dtype=np.int64)
    c = np.asarray(tensor, dtype=np.int64)
    if c.shape != (k, k, k):
        return ValidationReport(False, ["tensor shape %r, expected %r"
                                        % (c.shape, (k, k, k))])
    if ((c < 0) | (c >= mods[None, None, :])).any():
        violations.append("tensor entries not reduced mod the target modulus")
        c = c % mods[None, None, :]
    left = (mods[:, None, None] * c) % mods[None, None, :]
    right = (mods[None, :, None] * c) % mods[None, None, :]
    if left.any():
        i, j, m = [int(x[0]) for x in left.nonzero()]
        violations.append(
            "order incompatibility: n_%d * c[%d][%d][%d] != 0 mod n_%d"
            % (i, i, j, m, m))
    if right.any():
        i, j, m = [int(x[0]) for x in right.nonzero()]
        violations.append(
            "order incompatibility: n_%d * c[%d][%d][%d] != 0 mod n_%d"
            % (j, i, j, m, m))
    step = max(1, (1 << 22) // max(1, k ** 3))
    for s in range(0, k, step):
        e = s + step
        lhs = np.einsum("ijw,wlm->ijlm", c[s:e], c) % mods
        rhs = np.einsum("jlw,iwm->ijlm", c, c[s:e]) % mods
        if (lhs != rhs).any():
            i, j, l = (int(x[0]) for x in (lhs != rhs).any(axis=3).nonzero())
            violations.append("associativity fails on generators (%d, %d, %d)"
                              % (i + s, j, l))
            break
    try:
        e = shape.reduce(one)
    except InputError as exc:
        violations.append(str(exc))
        return ValidationReport(False, violations)
    ev = np.array(e, dtype=np.int64)
    left_id = np.tensordot(ev, c, axes=(0, 0)) % mods
    right_id = np.tensordot(ev, c, axes=(0, 1)) % mods
    basis = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        if shape.moduli[i] > 1:
            basis[i, i] = 1
    live = np.array([n > 1 for n in shape.moduli])
    if (left_id[live] != basis[live]).any() or (right_id[live] != basis[live]).any():
        violations.append("identity law fails for one=%r" % (e,))
    if not any(e):
        violations.append("one equals zero (zero rings are excluded)")
    return ValidationReport(not violations, violations)


def lie_series(ring, flavor="bracket"):
    """The bracket or ideal Lie series, one ring.mul per bracket of an
    additive generator of the current term with one of R, closed by
    breadth-first search."""
    t = ring.tables()
    ring_gens = ring.gens()
    cur_gens = list(ring_gens)
    sizes = [ring.size]
    terms = []
    while True:
        brackets = []
        for x in cur_gens:
            for y in ring_gens:
                c = ring.sub(ring.mul(x, y), ring.mul(y, x))
                if c != ring.zero:
                    brackets.append(c)
        if not brackets:
            sizes.append(1)
            terms.append((ring.zero,))
            return LieSeries(flavor, tuple(sizes), len(terms), tuple(terms))
        gidx = sorted({t.index[c] for c in brackets})
        if flavor == "bracket":
            mask = np.zeros(len(t.elems), dtype=bool)
            mask[t.zero] = True
            mask = _close_additive_mask(t, mask, gidx)
        else:
            mask = _ideal_mask(t, gidx, "two")
        elems = _mask_elems(t, mask)
        sizes.append(len(elems))
        terms.append(elems)
        if sizes[-1] == sizes[-2]:
            return LieSeries(flavor, tuple(sizes), None, tuple(terms))
        cur_gens = [t.elems[i]
                    for i in _additive_gens_idx(t, np.nonzero(mask)[0])]


def central_series(ring):
    """The central chain through the prime radical on factor rings: at
    each stage the quotient R/acc is built, and the slice of the last
    nonzero power of its radical inside its center, checked to be an
    ideal by ideal_closure, is pulled back through the quotient's labels.
    The radicals are the package's.  Each new term is checked to be
    central modulo acc, one bracket per element and additive generator
    of R."""
    if package_prime_radical(ring).is_zero():
        return CentralSeriesReport(True, (), reason="semiprime: empty chain")
    rt = ring.tables()
    acc = [ring.zero]
    sizes = [1]
    while True:
        q = quotient(ring, acc)
        p = package_prime_radical(q)
        if p.is_zero():
            if is_commutative(q):
                sizes.append(ring.size)
                return CentralSeriesReport(True, tuple(sizes))
            return CentralSeriesReport(
                False, tuple(sizes),
                reason="factor by the prime radical is not commutative")
        t = q.tables()
        sliced = t.mask()
        sliced[t.encode(center(q).elements())] = True
        sliced &= _power_masks(t, t.encode(p.elements))[-2]
        slice_elems = _mask_elems(t, sliced)
        if len(slice_elems) == 1:
            return CentralSeriesReport(
                False, tuple(sizes),
                reason="central slice of the radical power is zero")
        if len(ideal_closure(q, slice_elems)) != len(slice_elems):
            return CentralSeriesReport(
                False, tuple(sizes),
                reason="central slice is not a two-sided ideal")
        nxt = _mask_elems(rt, sliced[q.labels])
        inside = set(acc)
        if any(ring.sub(ring.mul(x, g), ring.mul(g, x)) not in inside
               for x in nxt for g in ring.gens()):
            return CentralSeriesReport(False, tuple(sizes),
                                       reason="factor is not central")
        acc = nxt
        sizes.append(len(acc))


def frac_field(p, names):
    """Rational function field over F_p as sympy's FracField.  Returns
    (field, generator list)."""
    made = _fraction_field(names, GF(p))
    return made[0], list(made[1:])


def normalized(f):
    """Rescale so the denominator is monic; the fraction is unchanged."""
    dom = f.field.domain
    lc = f.denom.LC
    if lc == dom.one:
        return f
    inv = dom.quo(dom.one, lc)
    return f.field.raw_new(f.numer.mul_ground(inv), f.denom.mul_ground(inv))


def rf_eq(f, g):
    """Equality of FracField elements regardless of representation."""
    return (f - g) == 0


def as_frac(field_, r):
    """The FracField element of a symbolic.RationalFunction pair."""
    ring = field_.ring
    return field_(ring.from_dict(r.num)) / field_(ring.from_dict(r.den))


def random_rational_pair(rng, ring, degree=2, terms=2):
    """The (numerator, denominator) of symbolic.random_rational, drawn in
    sympy's PolyRing by the same rng calls in the same order."""
    p = ring.domain.characteristic()

    def poly():
        total = ring.zero
        for _ in range(terms):
            term = ring(rng.randrange(1, p))
            for _ in range(rng.randint(0, degree)):
                term *= rng.choice(ring.gens)
            total += term
        return total

    num = poly()
    if rng.random() < 0.5:
        return num, ring.one
    den = poly()
    while not den:
        den = poly()
    return num, den


def fraction_str(num, den):
    """num/den in lowest terms, as sympy's StrPrinter writes the pair of
    PolyElements."""
    num, den = num.cancel(den)
    printer = StrPrinter()
    if den == 1:
        return printer._print(num)
    return "%s/%s" % (
        printer.parenthesize(num, PRECEDENCE["Mul"], strict=True),
        printer.parenthesize(den, PRECEDENCE["Atom"], strict=True))
