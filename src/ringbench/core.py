"""Finite associative rings presented by structure constants.

A ring is carried by a finite abelian group Z_{n1} x ... x Z_{nk} together
with a multiplication tensor c[i][j][m]: the product of the i-th and j-th
additive generators is sum_m c[i][j][m] * b_m.  Elements are coefficient
tuples reduced mod the shape moduli, ordered lexicographically.

Structure rings carry the arithmetic.  Quotient rings and subrings are
index views on their base.  A quotient gathers its tables from the
base's tables through a label array; a subring reads the sums and
products of its elements from its base and maps them to its own indices.
Each view checks the caller's set in full when it is built.  Deciders
elsewhere in the package only use the element surface of Ring, so they
never care how a ring was produced.  All realizations are immutable after construction;
caches are write-once, and every cached call checks its limit gates before
it reuses cached work, so a verdict or a skip never depends on earlier
calls.

_kernel_tables alone decides how a ring is read: through its dense index
tables (Tables, in the index dtype of _index_dtype: int16 up to 2**15
elements, int32 above) up to max_table elements, and above it, for a whole
structure ring of fewer than 2**63 elements only, through sums and
products computed on demand (_OnDemandTables), whose prime p, if any,
names the F_p path.  The set kernels, subring tables, the sampler and the
units all read that one lookup.  Mod p, linear algebra gives the center
as the span of its basis (kept on the ring), CE as a rank test per
element, the Jacobson radical J by trace functionals, and the units on
R/J: one system per element of each block e*(R/J), in the block's own
coordinates, one block per primitive central idempotent e, with the
inverses lifted to R by a geometric series in J.  Each elimination mod p
is one _row_reduce_mod_p, which steps by pivot on one matrix and by
column on a stack.  Each product is exact: float64 on BLAS while that is
exact, else Python ints, by one rule per ring (_exact_tensor).  The unit
report keeps element indices and decodes only what is read.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class RingError(Exception):
    """Base class for errors raised by this package."""


class InputError(RingError):
    """Malformed data fed to a constructor or parser; failed ring axioms
    carry their ValidationReport."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


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
        if any(n >= 2 ** 63 for n in mods):   # the tensor and codes are int64
            raise InputError("shape moduli must be below 2**63: %r" % (mods,))
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
    pairs: list = field(default_factory=list)   # per violation, its (i, j)

    def __bool__(self):
        return self.ok


def validate_ring(shape, tensor, one):
    """Check that (shape, tensor, one) defines an associative ring with 1 != 0.

    Verifies order-compatibility of the structure constants on both sides,
    associativity on all generator triples (enough, by bilinearity), the
    identity law for `one`, and that the ring is not the zero ring.
    Returns a ValidationReport listing every violation found, each with
    the generator pairs whose products it involves.  Order compatibility
    is a divisibility test, so it forms no product.  Both sides of
    associativity are matrix products over a chunk of rows i, exact at
    every modulus (float64 while that is exact, else Python ints), their
    difference is reduced once, and the first failing triple (i, j, l) in
    lexicographic order is reported.
    """
    violations, pairs = [], []

    def flag(message, *involved):
        violations.append(message)
        pairs.append(tuple(dict.fromkeys(involved)))

    shape = shape if isinstance(shape, AdditiveShape) else AdditiveShape(tuple(shape))
    k = shape.width
    mods = np.array(shape.moduli, dtype=np.int64)
    c = np.asarray(tensor, dtype=np.int64)
    if c.shape != (k, k, k):
        flag("tensor shape %r, expected %r" % (c.shape, (k, k, k)))
        return ValidationReport(False, violations, pairs)
    if ((c < 0) | (c >= mods[None, None, :])).any():
        flag("tensor entries not reduced mod the target modulus")
        c = c % mods[None, None, :]

    # n_i * c[i][j][m] and n_j * c[i][j][m] must vanish mod n_m, otherwise
    # the bilinear extension of the tensor is not well defined; n_i * c
    # vanishes mod n_m exactly when n_m / gcd(n_i, n_m) divides c
    d = mods // np.gcd(mods[:, None], mods)   # [i, m]
    left = c % d[:, None, :]
    right = c % d[None, :, :]
    if left.any():
        i, j, m = [int(x[0]) for x in left.nonzero()]
        flag("order incompatibility: n_%d * c[%d][%d][%d] != 0 mod n_%d"
             % (i, i, j, m, m), (i, j))
    if right.any():
        i, j, m = [int(x[0]) for x in right.nonzero()]
        flag("order incompatibility: n_%d * c[%d][%d][%d] != 0 mod n_%d"
             % (j, i, j, m, m), (i, j))

    # Each product below sums k products of reduced entries, so it is
    # exact in float64 while k * (max n - 1)**2 < 2**53; past that the
    # products run on Python ints.
    num = object if k * (max(shape.moduli) - 1) ** 2 >= 1 << 53 else np.float64
    c, mods = c.astype(num), mods.astype(num)

    # associativity on generator triples: (b_i b_j) b_l == b_i (b_j b_l);
    # chunked over i so wide tensors stay inside a few MB
    step = max(1, (1 << 22) // max(1, k ** 3))
    for s in range(0, k, step):
        ci = c[s:s + step]
        lhs = ci.reshape(-1, k) @ c.reshape(k, k * k)   # [(i, j), (l, m)]
        rhs = c.reshape(k * k, k) @ ci                  # [i, (j, l), m]
        bad = ((lhs.reshape(-1, k, k, k) - rhs.reshape(-1, k, k, k))
               % mods).any(axis=3)
        if bad.any():
            i, j, l = (int(x[0]) for x in bad.nonzero())
            flag("associativity fails on generators (%d, %d, %d)"
                 % (i + s, j, l), (i + s, j), (j, l))
            break

    try:
        e = shape.reduce(one)
    except InputError as exc:
        flag(str(exc))
        return ValidationReport(False, violations, pairs)
    ev = np.array(e, dtype=num)
    # e * b_j = sum_i e_i c[i][j][:]; b_i * e = sum_j e_j c[i][j][:]
    left_id = (ev @ c.reshape(k, k * k)).reshape(k, k) % mods
    right_id = (ev @ c) % mods
    live = mods > 1
    basis = np.diag(live).astype(np.int64)
    if ((left_id != basis) | (right_id != basis))[live].any():
        flag("identity law fails for one=%r" % (e,))
    if not any(e):
        flag("one equals zero (zero rings are excluded)")
    return ValidationReport(not violations, violations, pairs)


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

    def _size_gate(self, limits):
        """The limit check of elements(limits), without listing them.  A
        view lists the elements it holds, so it has none."""

    def gens(self):
        """An additive generating set (small, deterministic)."""
        raise NotImplementedError

    def tables(self, limits=DEFAULT_LIMITS):
        """Dense index tables (see Tables) or None above limits.max_table.
        A subring whose base is above max_table and is no structure ring
        raises LimitError(max_table), naming the base's size."""
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
    Rejects tensors that fail validate_ring.  The sparse view _nz that the
    scalar mul reads is built on its first use, so a ring read only
    through its tables never builds it.
    """

    def __init__(self, shape, tensor, one, basis_names=None, name=None):
        self.shape = shape if isinstance(shape, AdditiveShape) else AdditiveShape(tuple(shape))
        mods = np.array(self.shape.moduli, dtype=np.int64)
        self.tensor = np.asarray(tensor, dtype=np.int64) % mods[None, None, :]
        self.tensor.setflags(write=False)
        report = validate_ring(self.shape, self.tensor, one)
        if not report:
            raise InputError("ring axioms fail: " + "; ".join(report.violations),
                             report)
        self.one = self.shape.reduce(one)
        self.zero = (0,) * self.shape.width
        self.size = self.shape.cardinality
        self.basis_names = tuple(basis_names) if basis_names else None
        self.name = name
        self._mods = mods

    @functools.cached_property
    def _nz(self):
        """Sparse view of the tensor for the scalar product loop: _nz[i][j]
        lists the (m, c[i][j][m]) with a nonzero coefficient."""
        return tuple(tuple(tuple((m, c) for m, c in enumerate(row) if c)
                           for row in rows)
                     for rows in self.tensor.tolist())

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

    def _size_gate(self, limits):
        if self.size > limits.max_elements:
            raise LimitError("max_elements", limits.max_elements, self.size)

    def elements(self, limits=DEFAULT_LIMITS):
        self._size_gate(limits)
        cached = getattr(self, "_elements", None)
        if cached is None:
            cached = tuple(self.shape.iter_elements())
            self._elements = cached
        return cached

    def elements_array(self, limits=DEFAULT_LIMITS):
        self._size_gate(limits)
        cached = getattr(self, "_elements_array", None)
        if cached is None:
            k = self.shape.width
            cached = np.indices(self.shape.moduli).reshape(k, -1).T
            cached.setflags(write=False)
            self._elements_array = cached
        return cached

    def gens(self):
        out = []
        for i, n in enumerate(self.shape.moduli):
            if n > 1:
                e = [0] * self.shape.width
                e[i] = 1
                out.append(tuple(e))
        return tuple(out)

    @functools.cached_property
    def _weights(self):
        """Place values as int64, so a coefficient row's code is
        row @ _weights; OverflowError from 2**63 elements on."""
        return np.array(self.shape.weights, dtype=np.int64)

    @functools.cached_property
    def _exact_tensor(self):
        """The tensor in the one dtype that keeps every product of the F_p
        path and of _outer_codes exact: float64, so that they run on BLAS,
        while the widest sum they form stays below 2**53, else Python ints
        (object).  With k the width and n the largest modulus, every
        operand entry is below n.  The widest sums are the unreduced
        two-stage paired product a*b and the check of the unit solutions,
        k**2 terms below (n - 1)**3 in all, and the trace powers taken mod
        n*q, q <= k, k terms below (n*k - 1)**2 in all.  Every other
        product sums at most k terms below (n - 1)**2.  Results are reduced
        in int64 (_reduced)."""
        k, n = self.shape.width, max(self.shape.moduli)
        widest = max(k * k * (n - 1) ** 3, k * (n * k - 1) ** 2)
        return self.tensor.astype(np.float64 if widest < 1 << 53 else object)

    def code_rows(self, codes):
        """The coefficient rows of the elements with these codes."""
        codes = np.asarray(codes, dtype=np.int64)
        return codes[:, None] // self._weights % self._mods

    def mul_matrices(self, rows):
        """Left and right multiplication matrices of each row, (n, k, k)
        each, unreduced, in the dtype of _exact_tensor."""
        T, k = self._exact_tensor, self.shape.width
        return (np.matmul(rows, T.reshape(k, -1)).reshape(-1, k, k),
                np.matmul(rows, T.transpose(1, 0, 2).reshape(k, -1)).reshape(-1, k, k))

    def _table_ops(self, limits):
        return _recurrence_ops(self, self.elements_array(limits))

    def describe(self):
        label = self.name or "structure ring"
        return "%s: shape %r, %d elements" % (label, list(self.shape.moduli), self.size)


class SubRing(Ring):
    """Multiplicatively closed additive subgroup of a base ring, with 1.

    Its elements are base elements, in base order.  Its tables are its
    base's sums and products of its elements, mapped to its own indices;
    the base is read through _kernel_tables, so a base above max_table
    that is no structure ring raises LimitError(max_table).  A sum or a
    product that leaves the subset raises ConstructionError.
    With check (the default) every entry must be an element of the base
    and the tables are built at once, so closure is checked in full.
    check=False is for subsets the caller has closed (centers, samples).

    `one` defaults to the base identity; passing a different element makes
    a corner ring (for an ideal that is unital under a central idempotent).
    It is checked on the tables, with or without check.
    """

    def __init__(self, base, elems, name=None, check=True, one=None):
        self.base = base
        elems = list(elems)
        if check:
            for e in elems:
                if not _is_element(base, e):
                    raise InputError("%r is not an element of %s"
                                     % (e, base.describe()))
        self._elements = tuple(sorted(set(elems)))
        self.size = len(self._elements)
        self._member = frozenset(self._elements)
        if base.zero not in self._member:
            raise ConstructionError("subring must contain 0")
        self.zero = base.zero
        self.one = base.one if one is None else base.element(one)
        if self.one not in self._member:
            raise ConstructionError("identity %r not in the subset" % (self.one,))
        self.name = name
        self.basis_names = getattr(base, "basis_names", None)
        if check or one is not None:
            t = _tables_or_raise(self, DEFAULT_LIMITS)
            ar = np.arange(self.size)
            fails = (t.mul[t.one] != ar) | (t.mul[:, t.one] != ar)
            if fails.any():
                raise ConstructionError("%r does not act as identity" % (self.one,),
                                        witness=t.elems[int(np.argmax(fails))])

    def _table_ops(self, limits):
        bt = _kernel_tables(self.base, limits)
        idx = bt.encode(self._elements)   # ascending: base order

        def lookup(c):
            pos = np.minimum(np.searchsorted(idx, c), len(idx) - 1)
            return np.where(idx[pos] == c, pos, -1).astype(_index_dtype(len(idx)))

        return lookup(bt.sums(idx, idx)), lookup(bt.prods(idx, idx))

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
        """The greedy additive generators of the tables (_span)."""
        t = _tables_or_raise(self, DEFAULT_LIMITS)
        return tuple(t.elems[i] for i in t.gen_idx)

    def describe(self):
        label = self.name or "subring"
        return "%s: %d elements inside %s" % (label, self.size, self.base.describe())


class QuotientRing(Ring):
    """Quotient of a ring by a two-sided ideal, on least coset representatives.

    An index view on the base's tables: labels[i] is the coset of the i-th
    base element, and each coset is represented by its least member, in
    the base's coordinates.  The constructor checks the ideal in full:
    every entry is a base element, 0 is in I, I + I lies in I, and so do
    I*g and g*I for every additive generator g of the base, which covers
    all of R since products are bilinear.  I must be proper: the zero ring
    is no ring here (validate_ring).  Then _coset_labels labels the
    cosets.  A base without tables raises LimitError(max_table).
    """

    def __init__(self, base, ideal_elems, name=None, limits=DEFAULT_LIMITS):
        bt = _tables_or_raise(base, limits)
        ideal = _base_indices(bt, ideal_elems)
        inside = np.zeros(len(bt.elems), dtype=bool)
        inside[ideal] = True
        if not inside[bt.zero]:
            raise DomainError("ideal must contain zero")
        if not inside[bt.sums(ideal, ideal)].all():
            raise DomainError("subset is not an additive subgroup")
        if not (inside[bt.prods(ideal, bt.gen_idx)].all()
                and inside[bt.prods(bt.gen_idx, ideal)].all()):
            raise DomainError("subset is not a two-sided ideal")
        if inside.all():
            raise DomainError("the ideal is the whole ring; the quotient "
                              "would be the zero ring")
        least = _coset_labels(bt, ideal)
        self._reps = np.unique(least)
        self.labels = np.searchsorted(self._reps, least).astype(
            _index_dtype(len(self._reps)))
        self.labels.setflags(write=False)
        self.base = base
        self._bt = bt
        self._elements = tuple(bt.elems[i] for i in self._reps)
        self.size = len(self._elements)
        self.zero = base.zero
        self.one = self.project(base.one)
        self.name = name
        self.basis_names = getattr(base, "basis_names", None)

    def _table_ops(self, limits):
        reps, bt = self._reps, self._bt
        return (self.labels[bt.sums(reps, reps)],
                self.labels[bt.prods(reps, reps)])

    def project(self, elem):
        return self._elements[self.labels[self._bt.index[elem]]]

    def add(self, a, b):
        return self.project(self.base.add(a, b))

    def neg(self, a):
        return self.project(self.base.neg(a))

    def mul(self, a, b):
        return self.project(self.base.mul(a, b))

    def element(self, coeffs):
        return self.project(self.base.element(coeffs))

    def elements(self, limits=DEFAULT_LIMITS):
        return self._elements

    def gens(self):
        out = []
        seen = set()
        for g in self.base.gens():
            h = self.project(g)
            if h != self.zero and h not in seen:
                seen.add(h)
                out.append(h)
        return tuple(out)

    def format_element(self, elem):
        return self.base.format_element(elem)

    def describe(self):
        label = self.name or "quotient ring"
        return "%s: %d cosets of %s" % (label, self.size, self.base.describe())


def _tables_or_raise(ring, limits):
    t = ring.tables(limits)
    if t is None:
        raise LimitError("max_table", limits.max_table, ring.size)
    return t


def _is_element(ring, e):
    """Whether e is an element of ring exactly as the ring writes it."""
    try:
        return ring.element(e) == e
    except (InputError, TypeError, ValueError):
        return False


def _base_indices(bt, elems):
    """Sorted distinct table indices of elems; InputError names an entry
    that is not an element of the tables' ring."""
    idx = []
    for e in elems:
        i = bt.index.get(e)
        if i is None:
            raise InputError("%r is not an element of %s"
                             % (e, bt.ring.describe()))
        idx.append(i)
    return np.unique(np.array(idx, dtype=np.int64))


def _index_dtype(n):
    """The dtype of every dense index table over n elements: the narrowest
    signed one that holds the indices 0 .. n - 1 and the sentinel -1 of a
    sum or product that leaves a subring.  int16 up to 2**15 elements,
    int32 above; tables stop at max_table far below 2**31."""
    return np.int16 if n <= 2 ** 15 else np.int32


class Tables:
    """Dense index tables: add/mul as (N, N) arrays of element indices, in
    _index_dtype(N), so a table of up to 2**15 elements takes 2 bytes per
    entry.  Arithmetic on entries that can pass N widens them first, as
    _recurrence_ops forms its flat index in intp.

    Element order matches ring.elements().  ring._table_ops gives add and
    mul: a whole structure ring sums per-coordinate tables for add and
    builds each row of mul from a lower one (_recurrence_ops), a quotient
    gathers them from the base's tables through its labels, and a subring
    reads its base's sums and products.  neg is derived from add once
    they are checked closed.  Built through Ring.tables, which gates on
    max_table.
    """

    __slots__ = ("ring", "elems", "index", "add", "mul", "neg",
                 "zero", "one", "gen_idx")
    p = None   # dense tables are read by lookup, never mod p

    @staticmethod
    def build(ring, limits=DEFAULT_LIMITS):
        ops = ring._table_ops(limits)
        t = Tables()
        t.ring = ring
        t.elems = ring.elements(limits)
        t.index = {e: i for i, e in enumerate(t.elems)}
        t.zero = t.index[ring.zero]
        t.one = t.index[ring.one]
        t.add, t.mul = ops
        for what, table in (("additively", t.add), ("multiplicatively", t.mul)):
            if (table < 0).any():
                a, b = np.argwhere(table < 0)[0]
                raise ConstructionError("subset not %s closed" % what,
                                        witness=(t.elems[a], t.elems[b]))
        # -a is where row a of add meets zero
        t.neg = (t.add == t.zero).argmax(axis=1).astype(_index_dtype(len(t.elems)))
        t.gen_idx = (_span(t, np.arange(len(t.elems)))[1] if isinstance(ring, SubRing)
                     else np.sort(t.encode(ring.gens())))
        return t

    def sums(self, rows, cols):
        """Indices of a + b for a in rows and b in cols, (len(rows), len(cols)),
        by _gather: empty rows or cols, read as intp, give an empty result."""
        return _gather(self.add, rows, cols)

    def prods(self, rows, cols):
        """Indices of a * b for a in rows and b in cols, (len(rows), len(cols)),
        by _gather: empty rows or cols, read as intp, give an empty result."""
        return _gather(self.mul, rows, cols)

    def mask(self):
        """An empty set of element indices, as a boolean mask."""
        return np.zeros(len(self.elems), dtype=bool)

    def encode(self, elems):
        """The indices of elems, as an array."""
        return np.array([self.index[e] for e in elems], dtype=np.int64)

    def decode(self, idx):
        """The elements at the indices idx, as a tuple."""
        return tuple(map(self.elems.__getitem__, np.asarray(idx).tolist()))


def _gather(table, rows, cols):
    """table[a, b] for a in rows and b in cols, (len(rows), len(cols)), as one
    broadcast gather.  rows and cols are read as intp arrays: a bare
    np.asarray([]) is float64, which cannot index, and an empty list must
    give an empty (0, len(cols)) or (len(rows), 0) result."""
    r = np.asarray(rows, dtype=np.intp)
    return table[r[:, None], np.asarray(cols, dtype=np.intp)]


class _OnDemandTables:
    """The sums and products of a whole structure ring, computed on demand.

    It has the surface of Tables that the set kernels read (zero, gen_idx,
    sums, prods, mask, encode, decode) without enumerating the ring: index
    i is the element whose mixed-radix code is i, and a lookup contracts
    the coefficient rows of its indices with the tensor (_outer_codes).
    Its sets are _IndexSets, so a closure is bounded by max_elements and
    the ring is not.  p is the one prime of the moduli, or None: the
    deciders read a ring with p mod p.
    """

    def __init__(self, ring, limits=DEFAULT_LIMITS):
        self.ring = ring
        self.limits = limits
        self.zero = 0
        self.p = _one_prime(ring)
        self.gen_idx = np.sort(self.encode(ring.gens()))

    def sums(self, rows, cols):
        rows, cols = self.ring.code_rows(rows), self.ring.code_rows(cols)
        return _outer_codes(self.ring, rows, cols, "add")

    def prods(self, rows, cols):
        rows, cols = self.ring.code_rows(rows), self.ring.code_rows(cols)
        return _outer_codes(self.ring, rows, cols, "mul")

    def mask(self):
        return _IndexSet(self.limits.max_elements)

    def encode(self, elems):
        k = self.ring.shape.width
        return np.array(elems, dtype=np.int64).reshape(-1, k) @ self.ring._weights

    def decode(self, idx):
        return tuple(map(tuple, self.ring.code_rows(idx).tolist()))


class _IndexSet:
    """A set of element indices with the part of a boolean mask's interface
    the set kernels use: s[idx] for an array of indices, s[i] = True for an
    index or such an array, s.nonzero(), s.sum() and s.size.  size, the
    most indices a mask can hold, is max_elements here: holding more
    raises LimitError(max_elements)."""

    def __init__(self, limit):
        self.members = set()
        self.size = limit

    def __getitem__(self, idx):
        return np.array([x in self.members for x in idx.tolist()], dtype=bool)

    def __setitem__(self, i, value):   # value is True: sets only grow
        self.members.update(np.ravel(i).tolist())
        if len(self.members) > self.size:
            raise LimitError("max_elements", self.size, len(self.members))

    def nonzero(self):
        return (np.array(sorted(self.members), dtype=np.int64),)

    def sum(self):
        return len(self.members)


def _kernel_tables(ring, limits):
    """How a ring is read by the set kernels, subring tables, the sampler
    and the units: its dense tables up to max_table, else the on-demand
    tables of a structure ring of under 2**63 elements, whose p names the
    F_p path.  Other rings raise LimitError(max_table)."""
    t = ring.tables(limits)
    if t is not None:
        return t
    if not isinstance(ring, StructureRing) or ring.size >= 2 ** 63:
        raise LimitError("max_table", limits.max_table, ring.size)
    return _OnDemandTables(ring, limits)


def _outer_codes(ring, A, B, op):
    """Codes of a + b (op "add") or a * b (op "mul") for every coefficient
    row a of A and b of B of a structure ring, (len(A), len(B)).  Rows of A
    are taken in chunks of about _CHUNK_BYTES of work.  Sums are a - (n - b),
    in (-n, n) at every modulus n.  Products contract the shorter of A and
    B with the tensor first, once, and reduce it; both contractions are
    exact at every modulus (_exact_tensor)."""
    mods, w, T = ring._mods, ring._weights, ring._exact_tensor
    k = len(mods)
    if op == "add":
        B = mods - B
    elif len(A) > len(B):
        # a @ right: column block j is a * (j-th row of B)
        right = _reduced(np.tensordot(B, T, axes=(1, 1)), mods).astype(T.dtype)
        right = right.transpose(1, 0, 2).reshape(k, -1)
    elif op == "mul":
        # row j of B @ left[a] is a * b_j
        left = _reduced(np.tensordot(A, T, axes=(1, 0)), mods).astype(T.dtype)
    out = np.empty((len(A), len(B)), dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * k * (len(B) + k)))
    for s in range(0, len(A), step):
        a = A[s:s + step]
        if op == "add":
            rows = a[:, None, :] - B
        elif len(A) > len(B):
            rows = (a @ right).reshape(len(a), len(B), k)
        else:
            rows = np.matmul(B, left[s:s + step])
        out[s:s + step] = _reduced(rows, mods) @ w
    return out


def _reduced(x, m):
    """An exact product x, float64 or Python ints (_exact_tensor), reduced
    mod m in int64, where numpy's % is several times faster than on
    float64.  Python ints are reduced first, so that they fit."""
    return (x % m if x.dtype == object else x).astype(np.int64, copy=False) % m


def _recurrence_ops(ring, X):
    """add and mul tables of a whole structure ring, whose rows X are all
    its elements in order, in _index_dtype(n).

    add is the Kronecker sum of the per-coordinate tables
    ((a + b) mod n_i) * w_i, one broadcast per coordinate from the last
    (w_i = 1) to the first.  mul builds each row from a lower one: let b_i
    be the basis vector of the first nonzero coordinate of a, so a - b_i
    is a lower index, and

        mul[a] = add[mul[a - b_i], mul[b_i]],

    The k seed rows mul[b_i] come by the same recurrence on the other
    side, b_i * a = b_i * (a - b_l) + b_i * b_l, from the k x k codes of
    b_i * b_l (tensor @ weights).  The rows (columns, for the seeds)
    whose first nonzero coordinate is i, with digit d there, are the
    block [d w_i, (d + 1) w_i) of place value w_i, and their a - b_i are
    the block before it, so each block is one take on add.ravel().  Its
    flat index is formed in intp, where it stays below n**2 <= 2**62 for
    every ring with an index dtype, so it cannot wrap as it would in the
    table's own dtype."""
    mods, w = ring._mods, ring._weights
    n, k = X.shape
    dtype = _index_dtype(n)
    add = np.zeros((1, 1), dtype=dtype)
    for n_i, w_i in zip(mods[::-1], w[::-1]):
        d = np.arange(n_i)
        a_i = ((d[:, None] + d) % n_i * w_i).astype(dtype)
        add = (a_i[:, None, :, None] + add[None, :, None, :]).reshape(n_i * w_i, -1)
    blocks = [(i, lo, int(w[i])) for i in range(k - 1, -1, -1)
              for lo in range(int(w[i]), int(mods[i] * w[i]), int(w[i]))]
    flat, codes = add.ravel(), ring.tensor @ w   # codes[i, l]: b_i * b_l
    gen_mul = np.zeros((k, n), dtype=np.intp)   # b_i * 0 = 0
    for i, lo, wi in blocks:
        gen_mul[:, lo:lo + wi] = flat.take(gen_mul[:, lo - wi:lo] * n
                                           + codes[:, i, None])
    mul = np.zeros((n, n), dtype=dtype)   # mul[0] = 0
    for i, lo, wi in blocks:
        mul[lo:lo + wi] = flat.take(mul[lo - wi:lo].astype(np.intp) * n
                                    + gen_mul[i])
    return add, mul


def _close_additive_mask(t, mask, gidx):
    """Grow the additive subgroup S held by mask, which must hold at least
    {0}, in place by the indices gidx in order, and return those that grew
    it, as an array; after each, one vector step drops the candidates
    already in S.  S + j*g lies in S exactly when j*g does, so the index
    m = [S + <g> : S] is the least j > 0 with j*g in S, and S + <g> is the
    m cosets S + j*g for j < m: one t.sums(S, [0, g, ..., (m-1)g]), after
    a walk over the multiples of g alone.  The walk doubles: from the
    multiples up to b*g, one t.sums([b*g], [g, ..., b*g]) gives the next
    b, so it takes about log2(m) lookups.  It stops with
    LimitError(max_elements) once the cosets found so far hold more than
    mask.size indices, so neither it nor the gather outgrows an _IndexSet;
    the error names the first coset count that overflows."""
    cur, gidx, used = mask.nonzero()[0], np.asarray(gidx, dtype=np.int64), []
    while (gidx := gidx[~mask[gidx]]).size:
        g, gidx = gidx[0], gidx[1:]
        used.append(g)
        steps = [t.zero, g]
        while len(cur) * len(steps) <= mask.size:
            new = t.sums(steps[-1:], steps[1:])[0]
            hit = mask[new].tolist()
            if True in hit:
                steps += new[:hit.index(True)].tolist()
                break
            steps += new.tolist()
        if len(cur) * len(steps) > mask.size:
            raise LimitError("max_elements", mask.size,
                             len(cur) * (mask.size // len(cur) + 1))
        cur = t.sums(cur, steps).ravel()
        mask[cur] = True
    return np.array(used, dtype=np.int64)


def _span(t, gidx):
    """The additive span of the indices gidx from {0}, as (mask, those of
    gidx that the earlier ones do not generate) (_close_additive_mask)."""
    mask = t.mask()
    mask[t.zero] = True
    return mask, _close_additive_mask(t, mask, gidx)


def _coset_labels(t, idx):
    """The least index of each coset x + I, for quotients, joins and tests
    modulo I; I is the additive subgroup at the indices idx, and index
    order is element order.  Addition commutes, so row i of add is column
    i, and x + I's least member is the least x + i: a running minimum
    over I's rows, read in chunks of about _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // t.add[0].nbytes)
    lab = t.add[idx[:step]].min(axis=0)
    for lo in range(step, len(idx), step):
        np.minimum(lab, t.add[idx[lo:lo + step]].min(axis=0), out=lab)
    return lab


def _central_mod(t, lab, xs):
    """Whether each index in xs is central modulo the ideal I whose cosets
    lab labels (_coset_labels), or, with lab None, central: x*g and g*x in
    one coset (equal, for I = 0) for every additive generator g, which
    suffices since products are bilinear.  A boolean array."""
    left, right = t.prods(xs, t.gen_idx), t.prods(t.gen_idx, xs).T
    if lab is not None:
        left, right = lab[left], lab[right]
    return (left == right).all(axis=1)


def _mask_elems(t, mask):
    return t.decode(mask.nonzero()[0])


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
    """The center Z(R) as a SubRing (commutative, contains 0 and 1): the
    elements that commute with every additive generator.  Where the
    kernel tables carry a prime p, the center is the span of its F_p
    basis (_center_basis); every other ring scans (_central_mod)."""
    ring._size_gate(limits)
    t = _kernel_tables(ring, limits)
    cached = getattr(ring, "_center", None)
    if cached is not None:
        return cached
    if t.p is None:
        idx = np.flatnonzero(_central_mod(t, None, np.arange(ring.size)))
    else:
        basis = _center_basis(ring, t.p)
        idx = np.sort(_span_mod_p(basis, t.p, ring._exact_tensor.dtype) @ ring._weights)
    sub = SubRing(ring, t.decode(idx), name="center", check=False)
    ring._center = sub
    return sub


@dataclass
class UnitReport:
    """Units with two-sided inverses, and the regular elements, as element
    indices: index i is ring.elements()[i], or above max_table the element
    whose mixed-radix code is i.  units, inverses and regulars decode on
    first read only the indices they name, through decode, which reads no
    limit; the consistency checks ran on the indices when it was built."""

    unit: np.ndarray      # indices of the units, ascending
    inverse: np.ndarray   # the index of each unit's inverse
    # per element index: x -> a*x (l_full), x -> x*a bijective
    l_full: np.ndarray = field(repr=False)
    r_full: np.ndarray = field(repr=False)
    decode: object = field(repr=False)   # indices -> tuple of elements

    @functools.cached_property
    def units(self):
        return self.decode(self.unit)

    @functools.cached_property
    def inverses(self):
        return dict(zip(self.units, self.decode(self.inverse)))

    @functools.cached_property
    def regulars(self):
        return self.decode(np.nonzero(self.l_full & self.r_full)[0])

    @property
    def regulars_equal_units(self):
        return np.array_equal(self.unit, np.nonzero(self.l_full & self.r_full)[0])


def units_and_regulars(ring, limits=DEFAULT_LIMITS):
    """Classify elements into units (inverse recorded) and regulars, as an
    index report (UnitReport).

    In a finite ring an element is regular (no one-sided zero divisor) iff
    it is a unit; every call checks that on the indices.  On dense tables
    the units are the two-sided solutions of a*b = 1, and the flags come
    from kernels: x -> a*x is an endomorphism of the finite additive
    group, so it is bijective iff its kernel, the zeros of row a, is {0};
    column a gives x -> x*a.  Above max_table
    only the rings that _kernel_tables reads mod p are decided, by linear
    algebra mod p: on the blocks of R/J, J the radical from trace
    functionals, with inverses lifted to R by a geometric series and
    checked there (_units_through_radical).  Gates: max_table for other
    rings, then max_elements (first past int64 codes, as in center)."""
    try:
        t = _kernel_tables(ring, limits)
    except LimitError:
        ring._size_gate(limits)
        raise
    if t.p is None and ring.size > limits.max_table:
        raise LimitError("max_table", limits.max_table, ring.size)
    ring._size_gate(limits)   # the max_elements gate of the rank path
    cached = getattr(ring, "_units", None)
    if cached is not None:
        return cached
    if t.p is None:
        hit = t.mul == t.one
        two_sided = hit & hit.T
        unit = np.nonzero(two_sided.any(axis=1))[0]
        inverse = two_sided[unit].argmax(axis=1)
        kernel = t.mul == t.zero
        l_full = np.count_nonzero(kernel, axis=1) == 1
        r_full = np.count_nonzero(kernel, axis=0) == 1
    else:
        unit, inverse, l_full, r_full = _units_through_radical(ring, t.p, limits)
    rep = UnitReport(unit, inverse, l_full, r_full, t.decode)
    if not rep.regulars_equal_units:
        raise RingError("internal: regulars differ from units in a finite ring")
    ring._units = rep
    return rep


def _paired_products(ring, A, B):
    """Coefficient rows of a_i * b_i for the paired rows of A and B of a
    structure ring, in chunks of about _CHUNK_BYTES of work: L_a = a @ T,
    then b @ L_a, unreduced in between and exact (_exact_tensor)."""
    T, k = ring._exact_tensor, len(ring._mods)
    out = np.empty((len(A), k), dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * k * k))
    for s in range(0, len(A), step):
        L = np.matmul(A[s:s + step], T.reshape(k, -1)).reshape(-1, k, k)
        out[s:s + step] = _reduced(np.matmul(B[s:s + step, None], L)[:, 0], ring._mods)
    return out


def _left_null_mod_p(M, p):
    """A basis of {x : x @ M = 0 mod p}, as rows: Gauss-Jordan on [M | 1],
    whose rows stay (x @ M, x)."""
    r, c = M.shape
    A = np.concatenate([M % p, np.eye(r, dtype=np.int64)], axis=1)
    return A[_row_reduce_mod_p(A, p, c):, c:]


def _row_reduce_mod_p(A, p, cols):
    """Gauss-Jordan mod p, in place, on the first cols columns of each
    matrix of a C-contiguous stack A, (..., r, c), entries in [0, p).
    Returns the ranks, shaped A.shape[:-2]: rows [0, rank) hold the
    pivots, each 1 with zeros above and below, and the later rows are zero
    there.  Rows from the rank on are zero left of the current column.

    One matrix steps by pivot (_pivot_reduce_mod_p).  A stack steps by
    column: each step takes the next column with a nonzero entry in any
    matrix, and pivots every matrix that has one there.  Both take the
    first such row from the rank on as the pivot row and apply the same
    row operations, so a matrix reduces alike alone or in a stack."""
    *lead, r, c = A.shape
    S = A.reshape(math.prod(lead), r, c)   # a view, also when r*c = 0
    if len(S) == 1:
        return np.full(lead, _pivot_reduce_mod_p(S[0], p, cols))
    inv = _inverses_mod_p(p)
    rank, col = np.zeros(len(S), dtype=np.int64), 0
    free = np.ones((len(S), r), dtype=bool)   # the rows from the rank on
    while True:   # to the next column with a nonzero entry in a free row
        ahead = ((S[:, :, col:cols] != 0) & free[:, :, None]).any(axis=(0, 1))
        if not ahead.any():
            return rank.reshape(lead)
        col += ahead.argmax()
        live = (S[:, :, col] != 0) & free
        has = live.any(axis=1)
        s = np.nonzero(has)[0]
        row, sel = rank[s], live[s].argmax(axis=1)   # the first live row
        pivot, P = np.zeros((len(S), c), dtype=np.int64), S[s, sel]
        pivot[s] = P = P * inv[P[:, col]][:, None] % p
        S[s, sel] = S[s, row]
        S[:] = (S - S[:, :, col, None] * pivot[:, None]) % p   # whole rows
        S[s, row], free[s, row] = P, False
        rank += has


def _pivot_reduce_mod_p(S, p, cols):
    """_row_reduce_mod_p on one matrix S, (r, c), in place; returns its
    rank.  The first nonzero of the unreduced block S[rank:, col:cols],
    read in column order, is the next pivot: its column and its row in
    one read.  The pivot's inverse is one Python pow, so no table of
    inverses mod p is built."""
    r, rank, col = len(S), 0, 0
    while rank < r and col < cols:
        live = (S[rank:, col:cols] != 0).T.ravel()
        at = live.argmax()
        if not live[at]:
            break
        step, row = divmod(int(at), r - rank)
        col, row = col + step, rank + row
        P = S[row] * pow(int(S[row, col]), p - 2, p) % p
        S[row] = S[rank]
        S -= S[:, col, None] * P
        S %= p
        S[rank] = P
        rank, col = rank + 1, col + 1
    return rank


@functools.cache
def _inverses_mod_p(p):
    """The inverses mod p of 0, 1, ..., p - 1, with 0 at 0, as a read-only
    array built once per prime: v**(p - 2) by square and multiply on all v
    at once, exact while (p - 1)**2 < 2**63, as _row_reduce_mod_p needs."""
    inv, sq = np.ones(p, dtype=np.int64), np.arange(p, dtype=np.int64)
    for bit in bin(p - 2)[:1:-1]:   # the bits of p - 2, lowest first
        if bit == "1":
            inv = inv * sq % p
        sq = sq * sq % p
    inv[0] = 0
    inv.flags.writeable = False
    return inv


def _reduced_solutions(M):
    """A solution of each system [A | b] of a stack (m, r, c + 1) reduced on
    its first c columns: b at the pivot rows, the free variables 0.  Only a
    consistent system is solved."""
    s, i = np.nonzero(M[:, :, :-1].any(axis=2))   # the pivot rows
    x = np.zeros((len(M), M.shape[2] - 1), dtype=np.int64)
    x[s, (M[s, i, :-1] != 0).argmax(axis=1)] = M[s, i, -1]
    return x


def _span_mod_p(B, p, num):
    """All p^d F_p-combinations of the d rows of B, as rows mod p, formed
    in num, the dtype of the ring's _exact_tensor."""
    combos = np.indices((p,) * len(B)).reshape(len(B), p ** len(B)).T
    return _reduced(combos @ B.astype(num), p)


def _center_basis(ring, p):
    """The center's basis over one prime p, as rows: x*g = g*x for every
    basis element g is x @ (T - T^t) = 0, T the k x k^2 tensor mod p.
    It reads only the tensor, so it is kept on the ring, with no gate."""
    if getattr(ring, "_zbasis", None) is None:
        T = ring.tensor % p
        C = (T - T.transpose(1, 0, 2)).reshape(len(T), -1)
        ring._zbasis = _left_null_mod_p(C, p)
    return ring._zbasis


def _ce_rank_mod_p(ring, p):
    """The least index a != 0 of a noncommutative structure ring over one
    prime p with no central x making a*x central and nonzero, or None
    when the ring is centrally essential.

    With Z the center's basis (z x k) and N (k x (k - z)) a basis of
    {y : Z @ y = 0}, x is central exactly when x @ N = 0.  The multiples
    c @ Z of the basis have a*(c @ Z) = c @ M_a, M_a = a*Z, so CE holds
    at a exactly when some c with c @ M_a @ N = 0 has c @ M_a != 0.
    Reducing [M_a @ N | M_a] on its first k - z columns leaves in the
    rows past the rank the multiples c @ M_a of exactly those c, so CE
    fails at a when they are zero.  The stacks of a chunk of indices are
    one contraction with the tensor and one _row_reduce_mod_p; chunks
    grow from 16 rows, so a ring that fails early stops early."""
    Z, k, T = _center_basis(ring, p), len(ring._mods), ring._exact_tensor
    z, n = len(Z), ring.size
    N = _left_null_mod_p(Z.T, p).T
    W = _reduced(Z @ T, p).astype(T.dtype)   # b_i * Z, (k, z, k)
    W = np.concatenate([_reduced(W @ N, p), W], axis=2)   # in T's dtype
    # a chunk's stack and three temporaries of its size in the kernel
    cap = max(1, _CHUNK_BYTES // (32 * z * (2 * k - z)))
    s, step = 0, 16
    while s < n:
        idx = np.arange(s, min(n, s + step))
        S = _reduced(np.tensordot(ring.code_rows(idx), W, axes=(1, 0)), p)
        past = np.arange(z) >= _row_reduce_mod_p(S, p, k - z)[:, None]
        ok = (S.any(axis=2) & past).any(axis=1) | (idx == 0)
        if not ok.all():
            return s + int(np.argmin(ok))
        s, step = s + len(idx), min(4 * step, cap)
    return None


def _central_blocks(ring):
    """The primitive central idempotents of a structure ring over one prime
    p, as sorted codes.

    The center Z is the F_p-space of x with x*g = g*x for every basis
    element g (_center_basis).  On the commutative Z, x -> x^p is
    F_p-linear; its fixed points S form a subring with x^p = x, so S is
    F_p^b, spanned by the b primitive central idempotents, and it holds
    every central idempotent.
    Both are found by linear algebra on k x k matrices; only S, p^b of
    the at most |Z| elements, is listed and squared.  The primitive
    idempotents refine the partition {1}: each round multiplies the blocks
    by every idempotent of S and splits each block e at its least product
    g not in {0, e}, into g and e - g, until none splits; the blocks never
    number more than b.  Idempotents are never multiplied pairwise: on
    F_2^k every element is one.
    """
    p, num = _one_prime(ring), ring._exact_tensor.dtype
    Z = _center_basis(ring, p)
    F, base, power = np.tile(np.array(ring.one), (len(Z), 1)), Z, p
    while power:   # F = Z^p, row by row, by repeated squaring
        if power & 1:
            F = _paired_products(ring, F, base)
        base, power = _paired_products(ring, base, base), power >> 1
    S = _reduced(_left_null_mod_p(F - Z, p).astype(num) @ Z, p)
    X = _span_mod_p(S, p, num)
    idem = X[(_paired_products(ring, X, X) == X).all(axis=1)]
    blocks = np.array([ring.one]) @ ring._weights
    while True:
        prods = _outer_codes(ring, ring.code_rows(blocks), idem, "mul")
        split = (prods != 0) & (prods != blocks[:, None])
        has = split.any(axis=1)
        if not has.any():
            return np.sort(blocks)
        g = np.where(split, prods, prods.max() + 1).min(axis=1)[has]
        rest = (ring.code_rows(blocks[has]) - ring.code_rows(g)) % p @ ring._weights
        blocks = np.concatenate([blocks[~has], g, rest])
        if len(blocks) > len(S):   # so the refinement ends, and stays small
            raise RingError("internal: more blocks than primitive central "
                            "idempotents")


def _one_prime(ring):
    """The one prime p of a structure ring's moduli, or None."""
    mods = set(ring.shape.moduli)
    p = mods.pop()
    return None if mods or not _is_prime(p) else p


def _is_prime(n):
    """Miller-Rabin on the prime bases 2 to 37, which is deterministic below
    3.3 * 10**24, past every modulus of a ring under 2**63 elements."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n in bases:
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1
                                        for r in range(s)) for a in bases)


def _units_through_radical(ring, p, limits):
    """Units of a structure ring over one prime p, decided on R/J and lifted.

    a is a unit exactly when its image in R/J is (J the Jacobson radical,
    _radical_quotient), and x -> a*x is bijective exactly when a is a unit,
    R being finite.  R/J is the product of its blocks e*(R/J), one per
    primitive central idempotent e (_central_blocks; Lam, A First Course
    in Noncommutative Rings, 22), and an image is a unit exactly when each
    of its block components is a unit of its block.  Each block gets a
    reduced echelon basis B_j; the stacked bases are one change of basis
    of R/J, whose inverse restricted to block j is G_j, so each element
    of R reads its flags at the block codes of its image.  c*z = e and
    y*c = e are solved once for every element c of every block, in the
    block's coordinates: z = zeta @ B_j with zeta @ (B_j @ L_c @ G_j) = e
    @ G_j, and likewise on R_c.  Every block is padded to the largest
    dimension D by the identity on its unused coordinates, so all systems
    form one stack, and L_c (R_c) is bijective on the block when the rank
    is D.  Each solution is checked in R/J; it lies in e*(R/J), so the
    inverse v of the image is the sum of the block solutions.  v lifts
    to R (_geometric_lift) and is checked there.  Returns the indices of
    the units and of their inverses, and whether L_a and R_a are
    bijective, per element.
    """
    X, num = ring.elements_array(limits), ring._exact_tensor.dtype
    Q, to_q, free = _radical_quotient(ring, p)
    k, num_q = len(Q._mods), Q._exact_tensor.dtype
    E = Q.code_rows(_central_blocks(Q))
    L = _reduced(Q.mul_matrices(E)[0], p)
    dims = _row_reduce_mod_p(L, p, k)
    D = dims.max()
    B = L[:, :D]   # block j's basis, with zero rows from dims[j] to D
    rows = np.arange(D) < dims[:, None]
    # block coordinates: y = c @ B[rows], so c = y @ the inverse, whose
    # columns of block j, padded with zero columns to D, are G[j]; block
    # j's part of c has its index in _span_mod_p as its code
    inv = np.concatenate([B[rows], np.eye(k, dtype=np.int64)], axis=1)
    _row_reduce_mod_p(inv, p, k)
    block, pos = np.nonzero(rows)
    G = np.zeros((len(dims), k, D), dtype=num_q)
    G[block, :, pos] = inv[:, k:].T
    place = np.zeros((k, len(dims)), dtype=np.int64)
    place[np.arange(k), block] = p ** (dims[block] - 1 - pos)
    sizes = p ** dims
    to_block = _reduced(to_q.astype(num) @ inv[:, k:], p)
    loc = _reduced(X.astype(num) @ to_block, p) @ place + np.cumsum(sizes) - sizes
    C = np.concatenate([_span_mod_p(b[:d], p, num) for b, d in zip(B, dims)])
    of = np.repeat(np.arange(len(dims)), sizes)   # the block of each row of C
    B_q = B.astype(num_q)
    eps = _reduced(np.matmul(E[:, None], G)[:, 0], p)   # e_j @ G_j
    pad = np.eye(D, dtype=np.int64) * ~rows[:, None]   # 1 off the block
    m = len(C)
    Z = np.zeros((m, k), dtype=np.int64)   # z in e*(R/J) with c*z = e
    # bits: L_c, R_c of full rank on the block; c*z = e, y*c = e solved
    flags = np.zeros(m, dtype=np.uint8)
    # the systems of a chunk and one temporary of the same size
    chunk = max(1, _CHUNK_BYTES // (32 * k * (k + 1)))
    for s in range(0, m, chunk):
        LR = _reduced(np.stack(Q.mul_matrices(C[s:s + chunk])), p).astype(num_q)
        h, j = LR.shape[1], of[s:s + chunk]   # LR: (2, h, k, k)
        # c*z = z @ L_c is zeta @ (B_j @ L_c @ G_j) on the block, for
        # z = zeta @ B_j, and y*c likewise: the augmented systems
        # [(B_j L_c G_j)^T | e_j] and [(B_j R_c G_j)^T | e_j], padded
        M = np.empty((2, h, D, D + 1), dtype=np.int64)
        M[..., :D] = _reduced(B_q[j] @ LR @ G[j], p).swapaxes(2, 3) + pad[j]
        M[..., D] = eps[j]
        M = M.reshape(2 * h, D, D + 1)   # (system, row, column)
        full = _row_reduce_mod_p(M, p, D).reshape(2, h) == D
        x = np.matmul(_reduced_solutions(M).reshape(2, h, 1, D), B_q[j])
        x = _reduced(x[:, :, 0], p)
        Z[s:s + h] = x[0]
        # a solution stands only if it checks out: z @ L_c = e, y @ R_c = e
        check = _reduced(np.matmul(x[:, :, None], LR)[:, :, 0], p)
        ok = (check == E[j]).all(axis=2)
        flags[s:s + h] = full[0] | full[1] << 1 | ok[0] << 2 | ok[1] << 3
    f = np.bitwise_and.reduce(flags[loc], axis=1)   # over a's components
    l_full, r_full = f & 1 != 0, f & 2 != 0
    unit = np.nonzero(f & 12 == 12)[0]
    A, V = X[unit], np.zeros((len(unit), len(ring._mods)), dtype=np.int64)
    V[:, free] = Z[loc[unit]].sum(axis=1) % p
    V = _geometric_lift(ring, A, V, (len(ring._mods) - k).bit_length())
    if not ((_paired_products(ring, A, V) == ring.one).all()
            and (_paired_products(ring, V, A) == ring.one).all()):
        raise RingError("internal: a lifted inverse fails in the ring")
    return unit, V @ ring._weights, l_full, r_full


def _geometric_lift(ring, A, V, rounds):
    """Inverses in R of the units A, from the rows V whose images are the
    inverses in R/J: j = 1 - a*v lies in J, so a^-1 = v*(1 - j)^-1 =
    v*(1 + j)(1 + j^2)(1 + j^4)..., exact once 2^rounds reaches J's
    nilpotency index, or once j^(2^i) = 0 for every row.  rounds = the
    bit length of dim J suffices, as J^(dim J + 1) = 0."""
    if not rounds:   # J = 0
        return V
    S = (np.array(ring.one) - _paired_products(ring, A, V)) % ring._mods
    for i in range(rounds):
        if i:
            S = _paired_products(ring, S, S)
        if not S.any():
            break
        V = (V + _paired_products(ring, V, S)) % ring._mods
    return V


def _radical_basis(ring, p):
    """The Jacobson radical J of a structure ring over one prime p, as the
    rows of its reduced echelon basis.

    Rónyai, Computing the structure of finite algebras (J. Symb. Comput. 9,
    1990), and Cohen, Ivanyos and Wales (JPAA 117-118, 1997): set I_-1 = R
    and, for q = p^i <= k, I_i = {x in I_(i-1) : g_i(x*b) = 0 for every
    basis element b}, with g_i(a) = (Tr(L^q) mod p*q) / q for L the left
    multiplication matrix of a, lifted to the integers.  g_i is F_p-linear
    on the ideal I_(i-1), so each step is one left null space, and the
    last I_i is J.
    """
    k, num = len(ring._mods), ring._exact_tensor.dtype
    X, q = np.eye(k, dtype=np.int64), 1
    while q <= k and len(X):
        N = _left_null_mod_p(_trace_functional(ring, X, p, q), p)
        X = _reduced(N.astype(num) @ X, p)
        q *= p
    return X[:_row_reduce_mod_p(X, p, k)]


def _trace_functional(ring, X, p, q):
    """g(x*b) = (Tr(L^q) mod p*q) / q for every row x of X and basis
    element b, (len(X), k), with L the left multiplication matrix of x*b
    over the ring's one prime p.  The powers are exact (_exact_tensor)."""
    T, k, m = ring._exact_tensor, len(ring._mods), p * q
    prods = _reduced(np.tensordot(X, T, axes=(1, 0)), p).reshape(-1, k)   # x*b
    base = _reduced(np.tensordot(prods, T, axes=(1, 0)), p).astype(T.dtype)
    power, e = np.broadcast_to(np.eye(k, dtype=T.dtype), base.shape), q
    while e:   # L^q mod p*q by repeated squaring
        if e & 1:
            power = _reduced(power @ base, m).astype(T.dtype)
        base, e = _reduced(base @ base, m).astype(T.dtype), e >> 1
    tr = _reduced(np.trace(power, axis1=1, axis2=2), m)
    if (tr % q).any():
        raise RingError("internal: a trace on I_(i-1) is not divisible by p^i")
    return (tr // q).reshape(len(X), k)


def _radical_quotient(ring, p):
    """R/J for a structure ring over one prime p (_radical_basis).

    Its coordinates are those that are not pivots of J's reduced echelon
    basis, and the image of x is x - x[pivots] @ J, zero at the pivots,
    read at the others.  Returns R/J as a structure ring, the k x k' matrix
    of the image, and the free coordinates.  When J = 0 that is R itself.
    """
    J, k = _radical_basis(ring, p), len(ring._mods)
    if not len(J):
        return ring, np.eye(k, dtype=np.int64), np.arange(k)
    pivots = (J != 0).argmax(axis=1)
    free = np.delete(np.arange(k), pivots)
    image = np.eye(k, dtype=np.int64)
    image[pivots] -= J
    to_q, T = image[:, free] % p, ring._exact_tensor
    T_q = _reduced(T[np.ix_(free, free)] @ to_q, p)
    one = _reduced(np.array(ring.one, dtype=T.dtype) @ to_q, p)
    return StructureRing([p] * len(free), T_q, one), to_q, free

