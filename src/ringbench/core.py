"""Finite associative rings presented by structure constants.

A ring is carried by a finite abelian group Z_{n1} x ... x Z_{nk} together
with a multiplication tensor c[i][j][m]: the product of the i-th and j-th
additive generators is sum_m c[i][j][m] * b_m.  Elements are coefficient
tuples reduced mod the shape moduli, ordered lexicographically.

Three realizations share one element-arithmetic surface (a "ring handle"):
structure rings, quotient rings, and subrings.  Deciders elsewhere in the
package only use that surface, so they never care how a ring was produced.
All realizations are immutable after construction; caches are write-once,
and every cached call checks its limit gates before it reuses cached work,
so a verdict or a skip never depends on earlier calls.

Deciders read dense index tables (Tables) up to max_table elements; above
it, structure rings over one prime p are worked on as F_p algebras.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np


class RingError(Exception):
    """Base class for errors raised by this package."""


class InputError(RingError):
    """Malformed data fed to a constructor or parser."""


class DomainError(RingError):
    """Operation applied to an object of the wrong kind."""


class ConstructionError(RingError):
    """Input data fails to define a ring; carries a witness when known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class LimitError(RingError):
    """A configured resource limit was exceeded.  Names the limit."""

    def __init__(self, limit, value, needed=None):
        self.limit = limit
        self.value = value
        self.needed = needed
        msg = "limit %s=%d exceeded" % (limit, value)
        if needed is not None:
            msg += " (needed %d)" % needed
        super().__init__(msg)


@dataclass(frozen=True)
class Limits:
    """Runtime resource limits.  Overrun raises LimitError, never degrades."""

    max_elements: int = 2 ** 16   # element enumeration and whole-ring scans
    max_lattice: int = 2 ** 9     # ring size admitted to full ideal lattices
    max_ideals: int = 2 ** 14     # ideal count during lattice closure
    max_group: int = 64           # group order for table constructors
    max_table: int = 2 ** 10      # ring size for dense index tables


DEFAULT_LIMITS = Limits()
_CHUNK_BYTES = 1 << 20   # working set of one batched F_p linear-algebra step


@dataclass(frozen=True)
class AdditiveShape:
    """Moduli of the underlying abelian group Z_{n1} x ... x Z_{nk}."""

    moduli: tuple

    def __post_init__(self):
        mods = tuple(int(n) for n in self.moduli)
        if not mods or any(n < 1 for n in mods):
            raise InputError("shape moduli must be integers >= 1: %r" % (self.moduli,))
        object.__setattr__(self, "moduli", mods)

    @property
    def width(self):
        return len(self.moduli)

    @property
    def cardinality(self):
        out = 1
        for n in self.moduli:
            out *= n
        return out

    @property
    def weights(self):
        """Mixed-radix place values; index(elem) = dot(elem, weights)."""
        w = [1] * len(self.moduli)
        for i in range(len(self.moduli) - 2, -1, -1):
            w[i] = w[i + 1] * self.moduli[i + 1]
        return tuple(w)

    def reduce(self, coeffs):
        if len(coeffs) != len(self.moduli):
            raise InputError(
                "coefficient vector of width %d does not match shape width %d"
                % (len(coeffs), len(self.moduli)))
        return tuple(int(c) % n for c, n in zip(coeffs, self.moduli))

    def index(self, elem):
        return sum(c * w for c, w in zip(elem, self.weights))

    def element(self, i):
        out = []
        for w, n in zip(self.weights, self.moduli):
            out.append((i // w) % n)
        return tuple(out)

    def iter_elements(self):
        """All coefficient tuples in lexicographic order, starting at 0."""
        return itertools.product(*(range(n) for n in self.moduli))


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate_ring(shape, tensor, one):
    """Check that (shape, tensor, one) defines an associative ring with 1 != 0.

    Verifies order-compatibility of the structure constants on both sides,
    associativity on all generator triples (enough, by bilinearity), the
    identity law for `one`, and that the ring is not the zero ring.
    Returns a ValidationReport listing every violation found.
    """
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

    # n_i * c[i][j][m] and n_j * c[i][j][m] must vanish mod n_m, otherwise
    # the bilinear extension of the tensor is not well defined.
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

    # associativity on generator triples: (b_i b_j) b_l == b_i (b_j b_l);
    # chunked over i so wide tensors stay inside a few MB
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
    # e * b_j = sum_i e_i c[i][j][:]; b_i * e = sum_j e_j c[i][j][:]
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


class Ring:
    """Abstract element-arithmetic surface; see subclasses for realizations."""

    size = None
    zero = None
    one = None

    # -- raw arithmetic (inputs assumed canonical) ------------------------
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def element(self, coeffs):
        """Canonicalize and validate a coefficient sequence."""
        raise NotImplementedError

    def elements(self, limits=DEFAULT_LIMITS):
        """All elements, lexicographic, starting at zero.  Deterministic."""
        raise NotImplementedError

    def gens(self):
        """An additive generating set (small, deterministic)."""
        raise NotImplementedError

    # -- indexing ----------------------------------------------------------
    def index_map(self, limits=DEFAULT_LIMITS):
        cached = getattr(self, "_index_map", None)
        if cached is None:
            cached = {e: i for i, e in enumerate(self.elements(limits))}
            self._index_map = cached
        return cached

    def index(self, elem, limits=DEFAULT_LIMITS):
        return self.index_map(limits)[elem]

    def tables(self, limits=DEFAULT_LIMITS):
        """Dense index tables (see Tables) or None above limits.max_table."""
        if self.size > limits.max_table:
            return None
        self.elements(limits)   # the max_elements gate of Tables.build
        cached = getattr(self, "_tables", None)
        if cached is None:
            cached = self._tables = Tables.build(self, limits)
        return cached

    def format_element(self, elem):
        names = getattr(self, "basis_names", None)
        if names:
            terms = []
            for c, name in zip(elem, names):
                if c == 0:
                    continue
                terms.append(name if c == 1 else "%d%s" % (c, name))
            return "+".join(terms) if terms else "0"
        return "(" + ",".join(str(c) for c in elem) + ")"

    def describe(self):
        return "%s of size %d" % (type(self).__name__, self.size)


class StructureRing(Ring):
    """Ring given by shape moduli, structure-constant tensor, and identity.

    basis_names, if provided, label the additive generators in reports.
    Rejects tensors that fail validate_ring.
    """

    def __init__(self, shape, tensor, one, basis_names=None, name=None):
        self.shape = shape if isinstance(shape, AdditiveShape) else AdditiveShape(tuple(shape))
        mods = np.array(self.shape.moduli, dtype=np.int64)
        self.tensor = np.asarray(tensor, dtype=np.int64) % mods[None, None, :]
        self.tensor.setflags(write=False)
        report = validate_ring(self.shape, self.tensor, one)
        if not report:
            raise InputError("not a ring: " + "; ".join(report.violations))
        self.one = self.shape.reduce(one)
        self.zero = (0,) * self.shape.width
        self.size = self.shape.cardinality
        self.basis_names = tuple(basis_names) if basis_names else None
        self.name = name
        self._mods = mods
        # sparse view of the tensor for the scalar product loop
        nz = []
        k = self.shape.width
        for i in range(k):
            row = []
            for j in range(k):
                row.append(tuple((int(m), int(c)) for m, c in
                                 enumerate(self.tensor[i, j]) if c))
            nz.append(tuple(row))
        self._nz = tuple(nz)

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.shape.moduli))

    def neg(self, a):
        return tuple((-x) % n for x, n in zip(a, self.shape.moduli))

    def mul(self, a, b):
        acc = [0] * self.shape.width
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self._nz[i]
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for m, cm in row[j]:
                    acc[m] += ai * bj * cm
        return tuple(x % n for x, n in zip(acc, self.shape.moduli))

    def element(self, coeffs):
        return self.shape.reduce(coeffs)

    def elements(self, limits=DEFAULT_LIMITS):
        if self.size > limits.max_elements:
            raise LimitError("max_elements", limits.max_elements, self.size)
        cached = getattr(self, "_elements", None)
        if cached is None:
            cached = tuple(self.shape.iter_elements())
            self._elements = cached
        return cached

    def elements_array(self, limits=DEFAULT_LIMITS):
        elems = self.elements(limits)
        cached = getattr(self, "_elements_array", None)
        if cached is None:
            cached = np.array(elems, dtype=np.int64)
            cached.setflags(write=False)
            self._elements_array = cached
        return cached

    def index(self, elem, limits=DEFAULT_LIMITS):
        return self.shape.index(elem)

    def gens(self):
        out = []
        for i, n in enumerate(self.shape.moduli):
            if n > 1:
                e = [0] * self.shape.width
                e[i] = 1
                out.append(tuple(e))
        return tuple(out)

    def left_mul_matrix(self, a):
        """M with (a*x) = x @ M for row vectors x."""
        return np.tensordot(np.array(a, dtype=np.int64), self.tensor, axes=(0, 0))

    def right_mul_matrix(self, a):
        """M with (x*a) = x @ M for row vectors x."""
        return np.tensordot(np.array(a, dtype=np.int64), self.tensor, axes=(0, 1))

    def mul_matrices(self, rows):
        """Left and right multiplication matrices of each row, (n, k, k) each."""
        return (np.einsum("ni,ijm->njm", rows, self.tensor),
                np.einsum("nj,ijm->nim", rows, self.tensor))

    def describe(self):
        label = self.name or "structure ring"
        return "%s: shape %r, %d elements" % (label, list(self.shape.moduli), self.size)


class SubRing(Ring):
    """Multiplicatively closed additive subgroup of a parent ring, with 1.

    `one` defaults to the parent identity; passing a different element makes
    a corner ring (for an ideal that is unital under a central idempotent).
    """

    def __init__(self, base, elems, name=None, check=True, one=None):
        self.base = base
        elems = sorted(set(elems))
        self.size = len(elems)
        self._elements = tuple(elems)
        self._member = frozenset(elems)
        if base.zero not in self._member:
            raise ConstructionError("subring must contain 0")
        self.zero = base.zero
        self.one = base.one if one is None else base.element(one)
        if self.one not in self._member:
            raise ConstructionError("identity %r not in the subset" % (self.one,))
        if one is not None:
            for x in self._elements:
                if base.mul(self.one, x) != x or base.mul(x, self.one) != x:
                    raise ConstructionError("%r does not act as identity"
                                            % (self.one,), witness=x)
        self.name = name
        self.basis_names = getattr(base, "basis_names", None)
        if check:
            self._spot_check()

    def _spot_check(self):
        # closure probe on a deterministic sample; full closure is the
        # builder's job (see ideals.closure / props.sample_rings)
        sample = self._elements[:: max(1, self.size // 16)]
        for a in sample:
            for b in sample:
                if self.base.add(a, b) not in self._member:
                    raise ConstructionError("subset not additively closed",
                                            witness=(a, b))
                if self.base.mul(a, b) not in self._member:
                    raise ConstructionError("subset not multiplicatively closed",
                                            witness=(a, b))

    def add(self, a, b):
        return self.base.add(a, b)

    def neg(self, a):
        return self.base.neg(a)

    def mul(self, a, b):
        return self.base.mul(a, b)

    def element(self, coeffs):
        e = self.base.element(coeffs)
        if e not in self._member:
            raise InputError("%r is not an element of this subring" % (e,))
        return e

    def elements(self, limits=DEFAULT_LIMITS):
        return self._elements

    def gens(self):
        cached = getattr(self, "_gens", None)
        if cached is None:
            cached = _greedy_additive_gens(self)
            self._gens = cached
        return cached

    def describe(self):
        label = self.name or "subring"
        return "%s: %d elements inside %s" % (label, self.size, self.base.describe())


class QuotientRing(Ring):
    """Quotient of a ring by a two-sided ideal, on least coset representatives.

    Elements are the lexicographically least member of each coset, expressed
    in the base ring's coordinates.  Operations compute in the base and
    project.  The ideal is assumed validated (see ideals.quotient).
    """

    def __init__(self, base, ideal_elems, name=None, limits=DEFAULT_LIMITS):
        self.base = base
        ideal = sorted(set(ideal_elems))
        if not ideal or ideal[0] != base.zero:
            raise DomainError("ideal must contain zero")
        self._ideal = tuple(ideal)
        if base.size % len(ideal):
            raise DomainError("ideal size %d does not divide ring size %d"
                              % (len(ideal), base.size))
        reps = []
        proj = {}
        for x in base.elements(limits):
            if x in proj:
                continue
            reps.append(x)
            for i in self._ideal:
                y = base.add(x, i)
                if proj.setdefault(y, x) != x:
                    raise DomainError("cosets overlap; subset is not an "
                                      "additive subgroup")
        if len(proj) != base.size:
            raise DomainError("ideal cosets do not partition the ring "
                              "(subset is not an additive subgroup)")
        self._reps = tuple(reps)
        self._proj = proj
        self.size = len(reps)
        self.zero = base.zero
        self.one = proj[base.one]
        self.name = name
        self.basis_names = getattr(base, "basis_names", None)
        if self.size <= 512 and base.size <= 4096:
            self._well_defined_check()

    def _well_defined_check(self):
        # induced operations must not depend on the representative
        base = self.base
        proj = self._proj
        for x in base.elements():
            rx = proj[x]
            for i in self._ideal[1:2]:  # one non-trivial shift is enough per x
                y = base.add(x, i)
                if proj[base.mul(y, rx)] != proj[base.mul(x, rx)] or \
                        proj[base.mul(rx, y)] != proj[base.mul(rx, x)]:
                    raise DomainError("operations not well defined on cosets; "
                                      "subset is not a two-sided ideal")

    @property
    def ideal_elements(self):
        return self._ideal

    def project(self, elem):
        return self._proj[elem]

    def add(self, a, b):
        return self._proj[self.base.add(a, b)]

    def neg(self, a):
        return self._proj[self.base.neg(a)]

    def mul(self, a, b):
        return self._proj[self.base.mul(a, b)]

    def element(self, coeffs):
        return self._proj[self.base.element(coeffs)]

    def elements(self, limits=DEFAULT_LIMITS):
        return self._reps

    def gens(self):
        out = []
        seen = set()
        for g in self.base.gens():
            h = self._proj[g]
            if h != self.zero and h not in seen:
                seen.add(h)
                out.append(h)
        return tuple(out)

    def format_element(self, elem):
        return self.base.format_element(elem)

    def describe(self):
        label = self.name or "quotient ring"
        return "%s: %d cosets of %s" % (label, self.size, self.base.describe())


def _greedy_additive_gens(ring):
    """Small additive generating set, chosen greedily in element order."""
    closure = {ring.zero}
    gens = []
    for e in ring.elements():
        if e in closure:
            continue
        gens.append(e)
        frontier = list(closure)
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


class Tables:
    """Dense index tables: add/mul as (N, N) arrays of element indices.

    Element order matches ring.elements().  Built vectorized where the
    realization allows it, by a plain double loop for small rings, and not
    at all above limits.max_table (callers fall back to scalar arithmetic).
    """

    __slots__ = ("ring", "elems", "index", "add", "mul", "neg",
                 "zero", "one", "gen_idx")

    @staticmethod
    def build(ring, limits=DEFAULT_LIMITS):
        if ring.size > limits.max_table:
            return None
        t = Tables()
        t.ring = ring
        t.elems = ring.elements(limits)
        t.index = {e: i for i, e in enumerate(t.elems)}
        t.zero = t.index[ring.zero]
        t.one = t.index[ring.one]
        t.gen_idx = np.array(sorted(t.index[g] for g in ring.gens()),
                             dtype=np.int64)
        built = t._build_vectorized(limits)
        if not built:
            t._build_scalar()
        return t

    def _structure_parent(self):
        r = self.ring
        if isinstance(r, StructureRing):
            return r
        if isinstance(r, SubRing) and isinstance(r.base, StructureRing):
            return r.base
        return None

    def _build_vectorized(self, limits):
        parent = self._structure_parent()
        r = self.ring
        if parent is not None:
            X = np.array(self.elems, dtype=np.int64)
            mods = np.array(parent.shape.moduli, dtype=np.int64)
            w = np.array(parent.shape.weights, dtype=np.int64)
            codes = X @ w
            order = np.argsort(codes)
            sorted_codes = codes[order]

            def lookup(arr):
                c = arr @ w
                pos = np.searchsorted(sorted_codes, c)
                if (pos >= len(sorted_codes)).any() or \
                        (sorted_codes[np.minimum(pos, len(sorted_codes) - 1)] != c).any():
                    raise ConstructionError("products escape the subring")
                return order[pos].astype(np.int32)

            n = len(X)
            self.add = np.empty((n, n), dtype=np.int32)
            self.mul = np.empty((n, n), dtype=np.int32)
            chunk = max(1, (1 << 22) // max(1, n * parent.shape.width))
            L = np.tensordot(X, parent.tensor, axes=(1, 0))  # (n, j, m)
            for s in range(0, n, chunk):
                e = min(n, s + chunk)
                block = (X[s:e, None, :] + X[None, :, :]) % mods
                self.add[s:e] = lookup(block.reshape(-1, X.shape[1])).reshape(e - s, n)
                prod = np.einsum("ajm,bj->abm", L[s:e], X) % mods
                self.mul[s:e] = lookup(prod.reshape(-1, X.shape[1])).reshape(e - s, n)
            self.neg = lookup((-X) % mods)
            return True
        if isinstance(r, QuotientRing):
            bt = r.base.tables(limits)
            if bt is None:
                return False
            rid = np.array([bt.index[x] for x in self.elems], dtype=np.int64)
            projB = np.empty(r.base.size, dtype=np.int32)
            for x, i in bt.index.items():
                projB[i] = self.index[r.project(x)]
            self.add = projB[bt.add[np.ix_(rid, rid)]]
            self.mul = projB[bt.mul[np.ix_(rid, rid)]]
            self.neg = projB[bt.neg[rid]]
            return True
        return False

    def _build_scalar(self):
        r = self.ring
        n = len(self.elems)
        self.add = np.empty((n, n), dtype=np.int32)
        self.mul = np.empty((n, n), dtype=np.int32)
        self.neg = np.empty(n, dtype=np.int32)
        idx = self.index
        for i, a in enumerate(self.elems):
            self.neg[i] = idx[r.neg(a)]
            for j, b in enumerate(self.elems):
                self.add[i, j] = idx[r.add(a, b)]
                self.mul[i, j] = idx[r.mul(a, b)]


def make_ring(shape, tensor, one, basis_names=None, name=None):
    """Build and validate a StructureRing.  Raises InputError when invalid."""
    return StructureRing(shape, tensor, one, basis_names=basis_names, name=name)


_OPS = ("add", "sub", "mul", "neg")


def elem_arith(ring, op, a, b=None):
    """Validated element arithmetic: op in {'add','sub','mul','neg'}."""
    if op not in _OPS:
        raise InputError("unknown op %r; expected one of %r" % (op, _OPS))
    a = ring.element(a)
    if op == "neg":
        if b is not None:
            raise InputError("neg takes a single operand")
        return ring.neg(a)
    if b is None:
        raise InputError("%s takes two operands" % op)
    b = ring.element(b)
    return getattr(ring, op)(a, b)


def enumerate_elements(ring, limits=DEFAULT_LIMITS):
    """All elements in lexicographic coefficient order, starting with 0."""
    return ring.elements(limits)


def center(ring, limits=DEFAULT_LIMITS):
    """The center Z(R) as a SubRing (commutative, contains 0 and 1)."""
    t = ring.tables(limits)
    if t is None:
        ring.elements(limits)   # the max_elements gate of the scans below
    cached = getattr(ring, "_center", None)
    if cached is not None:
        return cached
    if t is not None:
        mask = np.ones(len(t.elems), dtype=bool)
        for g in t.gen_idx:
            mask &= t.mul[:, g] == t.mul[g, :]
        elems = [t.elems[i] for i in np.nonzero(mask)[0]]
    elif isinstance(ring, StructureRing):
        X = ring.elements_array(limits)
        mods = np.array(ring.shape.moduli, dtype=np.int64)
        mask = np.ones(len(X), dtype=bool)
        for g in ring.gens():
            right = (X @ ring.right_mul_matrix(g)) % mods
            left = (X @ ring.left_mul_matrix(g)) % mods
            mask &= (right == left).all(axis=1)
        elems = [tuple(int(v) for v in row) for row in X[mask]]
    else:
        gens = ring.gens()
        elems = [x for x in ring.elements(limits)
                 if all(ring.mul(x, g) == ring.mul(g, x) for g in gens)]
    sub = SubRing(ring, elems, name="center", check=False)
    ring._center = sub
    return sub


@dataclass
class UnitReport:
    """Units with recorded two-sided inverses, and the regular elements."""

    units: tuple
    inverses: dict
    regulars: tuple
    # per element of ring.elements(): x -> a*x (l_full), x -> x*a bijective
    l_full: np.ndarray = field(repr=False)
    r_full: np.ndarray = field(repr=False)

    @property
    def regulars_equal_units(self):
        return set(self.units) == set(self.regulars)


def units_and_regulars(ring, limits=DEFAULT_LIMITS):
    """Classify elements into units (inverse recorded) and regulars.

    In a finite ring an element is regular (no one-sided zero divisor) iff
    it is a unit; the report exposes that comparison.  Above max_table only
    structure rings over one prime modulus are decided (_units_by_rank).
    """
    t = ring.tables(limits)
    if t is None:
        if not isinstance(ring, StructureRing):
            raise LimitError("max_table", limits.max_table, ring.size)
        p = _rank_prime(ring, limits)
    elems = ring.elements(limits)   # the max_elements gate of the rank path
    cached = getattr(ring, "_units", None)
    if cached is not None:
        return cached
    if t is not None:
        hit = t.mul == t.one
        two_sided = hit & hit.T
        unit = np.nonzero(two_sided.any(axis=1))[0]
        inverses = {t.elems[i]: t.elems[two_sided[i].argmax()] for i in unit}
        ar = np.arange(len(t.elems), dtype=np.int32)
        l_full = (np.sort(t.mul, axis=1) == ar).all(axis=1)
        r_full = (np.sort(t.mul.T, axis=1) == ar).all(axis=1)
    else:
        unit, inverses, l_full, r_full = _units_by_rank(ring, p, limits)
    rep = UnitReport(tuple(elems[i] for i in unit), inverses,
                     tuple(elems[i] for i in np.nonzero(l_full & r_full)[0]),
                     l_full, r_full)
    if not rep.regulars_equal_units:
        raise RingError("internal: regulars differ from units in a finite ring")
    ring._units = rep
    return rep


def _rank_prime(ring, limits):
    """The one prime p of a structure ring's moduli; the rank path's gate."""
    mods = set(ring.shape.moduli)
    p = mods.pop()
    if mods or p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise LimitError("max_table", limits.max_table, ring.size)
    return p


def _units_by_rank(ring, p, limits):
    """Solve a*z = 1 and y*a = 1 mod p for every element a, in chunks.

    p is the ring's one prime modulus (_rank_prime).  Returns the indices
    of the units (both solved, solutions checked), their inverses, and
    whether L_a and R_a have full rank, per element.
    """
    elems, X = ring.elements(limits), ring.elements_array(limits)
    n, k = X.shape
    one = np.array(ring.one, dtype=np.int64)
    Z = np.zeros((n, k), dtype=np.int64)   # z with a*z = 1
    solved = np.zeros((2, n), dtype=bool)  # a*z = 1, y*a = 1 solved
    full = np.zeros((2, n), dtype=bool)    # L_a, R_a nonsingular
    # the systems of a chunk and one temporary of the same size
    chunk = max(1, _CHUNK_BYTES // (32 * k * (k + 1)))
    for s in range(0, n, chunk):
        LR = np.stack(ring.mul_matrices(X[s:s + chunk]))   # (2, m, k, k)
        m = LR.shape[1]
        # a*z = z @ L_a and y*a = y @ R_a: augmented [L_a^T | 1] and
        # [R_a^T | 1], stored as (row, column, system)
        M = np.empty((k, k + 1, 2 * m), dtype=np.int64)
        M[:, :k] = LR.reshape(-1, k, k).transpose(2, 1, 0) % p
        M[:, k] = one[:, None]
        x, nonsingular = _eliminate_mod_p(M, p)
        x = x.reshape(2, m, k)
        Z[s:s + m] = x[0]
        # a solution stands only if it checks out: z @ L_a = 1, y @ R_a = 1
        check = np.einsum("snj,snjm->snm", x, LR) % p
        solved[:, s:s + m] = (check == one).all(axis=2)
        full[:, s:s + m] = nonsingular.reshape(2, m)
    unit = np.nonzero(solved.all(axis=0))[0]
    inverses = {elems[i]: tuple(Z[i].tolist()) for i in unit}
    return unit, inverses, full[0], full[1]


def _eliminate_mod_p(M, p):
    """Gauss-Jordan elimination mod p, in place, on a batch of systems.

    M is (k, k + 1, m): row, column, system, augmented, entries in [0, p).
    Returns a candidate solution (m, k) per system, free variables at 0,
    to be checked by the caller, and whether its matrix is nonsingular.
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
    return x, used.all(axis=0)
