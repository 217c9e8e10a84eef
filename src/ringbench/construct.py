"""Ring constructors: group algebras, matrix pattern rings, and a catalog.

A matrix pattern describes a set of square matrices by giving each cell a
role: always zero, a free value mod q, tied to an earlier free cell, or
congruent to an earlier free cell modulo d.  Such a set is an additive
product of cyclic groups indexed by the free parameters; multiplication
closes iff products of the parameter generators stay inside the pattern,
which the builder checks cell by cell and reports with witnesses.
"""

import re

import numpy as np

from ringbench.core import (
    DEFAULT_LIMITS, AdditiveShape, ConstructionError, DomainError, InputError,
    LimitError, StructureRing, _tables_or_raise,
)
from ringbench.groups import dihedral, quaternion8
from ringbench.ideals import Ideal, ideal_closure, principal_ideal


# -- group algebras -----------------------------------------------------------

class GroupAlgebra(StructureRing):
    """Group algebra: coefficients mod n, one basis vector per group element."""

    def __init__(self, mod, group, name=None):
        if mod < 2:
            raise InputError("coefficient modulus must be at least 2")
        self.group = group
        k = group.order
        tensor = np.zeros((k, k, k), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                tensor[i, j, group.mul(i, j)] = 1 % mod
        one = [0] * k
        one[group.identity] = 1
        super().__init__([mod] * k, tensor, one, basis_names=group.names,
                         name=name or "Z%d[%s]" % (mod, group.name or "G"))
        self.coeff_mod = mod


def group_algebra(mod, group, name=None):
    return GroupAlgebra(mod, group, name=name)


def _require_group_algebra(ring):
    if not isinstance(ring, GroupAlgebra):
        raise DomainError("this operation needs a group algebra")
    return ring


def augmentation(ring, elem):
    """Coefficient sum mod n: the ring map onto the coefficient ring."""
    r = _require_group_algebra(ring)
    return sum(r.element(elem)) % r.coeff_mod


def augmentation_ideal(ring, limits=DEFAULT_LIMITS):
    """Kernel of the augmentation: the ideal generated by all g - e."""
    r = _require_group_algebra(ring)
    ideal = relative_augmentation_ideal(r, range(r.group.order), limits)
    expect = r.coeff_mod ** (r.group.order - 1)
    if ideal.size != expect:
        raise ConstructionError("augmentation kernel has size %d, expected %d"
                                % (ideal.size, expect))
    return ideal


def group_sum_element(ring):
    """The sum of all group basis vectors."""
    r = _require_group_algebra(ring)
    return r.element((1,) * r.group.order)


def group_sum_ideal(ring, limits=DEFAULT_LIMITS):
    """Principal ideal of the all-ones element (coefficient multiples of it)."""
    r = _require_group_algebra(ring)
    return principal_ideal(r, group_sum_element(r), limits=limits)


def relative_augmentation_ideal(ring, subgroup, limits=DEFAULT_LIMITS):
    """Ideal generated by h - e for h in a subgroup (given as indices)."""
    r = _require_group_algebra(ring)
    e = r.group.identity
    sub = sorted(set(subgroup))
    if e not in sub:
        raise DomainError("subgroup must contain the identity")
    gens = []
    for h in sub:
        if h == e:
            continue
        v = [0] * r.group.order
        v[h] = 1
        v[e] = -1
        gens.append(r.element(v))
    return ideal_closure(r, gens, limits=limits)


# -- matrix patterns -----------------------------------------------------------

def Zero():
    return ("zero",)

def Free(mod):
    if mod < 2:
        raise InputError("free cells need modulus >= 2")
    return ("free", int(mod))

def Tied(ref):
    return ("tied", tuple(ref))

def Congruent(ref, d):
    if d < 1:
        raise InputError("congruence step must be positive")
    return ("congruent", tuple(ref), int(d))


class MatrixPattern:
    """A declarative cell grid; see matrix_pattern_ring."""

    def __init__(self, size, cells, name=None):
        self.size = int(size)
        self.name = name
        self.cells = {}
        for (i, j), spec in cells.items():
            if not (0 <= i < self.size and 0 <= j < self.size):
                raise InputError("cell (%d, %d) outside a %d x %d grid"
                                 % (i, j, self.size, self.size))
            self.cells[(i, j)] = spec
        self._index_params()

    def _index_params(self):
        """Free parameters in row-major cell order; congruences get q/d slots."""
        self.params = []      # (cell, modulus, kind)
        self.free_mod = {}    # cell -> modulus of the free cell
        for i in range(self.size):
            for j in range(self.size):
                spec = self.cells.get((i, j), ("zero",))
                kind = spec[0]
                if kind == "zero":
                    continue
                if kind == "free":
                    self.free_mod[(i, j)] = spec[1]
                    self.params.append(((i, j), spec[1], "free"))
                elif kind == "tied":
                    ref = spec[1]
                    if ref not in self.free_mod:
                        raise InputError("cell (%d, %d) is tied to %r, which is "
                                         "not an earlier free cell" % (i, j, ref))
                elif kind == "congruent":
                    ref, d = spec[1], spec[2]
                    if ref not in self.free_mod:
                        raise InputError("cell (%d, %d) references %r, which is "
                                         "not an earlier free cell" % (i, j, ref))
                    q = self.free_mod[ref]
                    if q % d:
                        raise InputError("congruence step %d does not divide "
                                         "modulus %d" % (d, q))
                    self.params.append(((i, j), q // d, "congruent"))
                else:
                    raise InputError("unknown cell spec %r" % (spec,))
        if not self.params:
            raise InputError("pattern has no free parameters")

    def cell_mod(self, cell):
        """Modulus in which the cell's value is read (1 for zero cells)."""
        spec = self.cells.get(cell, ("zero",))
        if spec[0] == "zero":
            return 1
        if spec[0] == "free":
            return spec[1]
        return self.free_mod[spec[1]]

    def to_matrix(self, coeffs):
        """Canonical integer matrix for a parameter tuple."""
        vals = {}
        for (cell, q, kind), c in zip(self.params, coeffs):
            vals[cell] = int(c)
        m = np.zeros((self.size, self.size), dtype=np.int64)
        for i in range(self.size):
            for j in range(self.size):
                spec = self.cells.get((i, j), ("zero",))
                if spec[0] == "free":
                    m[i, j] = vals[(i, j)] % spec[1]
                elif spec[0] == "tied":
                    m[i, j] = m[spec[1]]
                elif spec[0] == "congruent":
                    ref, d = spec[1], spec[2]
                    q = self.free_mod[ref]
                    m[i, j] = (m[ref] + d * vals[(i, j)]) % q
        return m

    def from_matrix(self, m, context=""):
        """Parameter tuple of an integer matrix, or ConstructionError."""
        m = np.asarray(m, dtype=np.int64)
        out = []
        for i in range(self.size):
            for j in range(self.size):
                spec = self.cells.get((i, j), ("zero",))
                v = int(m[i, j])
                if spec[0] == "zero":
                    if v != 0:
                        raise ConstructionError(
                            "%sentry (%d, %d) = %d lands on a zero cell"
                            % (context, i, j, v), witness=(i, j))
                elif spec[0] == "free":
                    out.append(v % spec[1])
                elif spec[0] == "tied":
                    ref = spec[1]
                    q = self.free_mod[ref]
                    if v % q != int(m[ref]) % q:
                        raise ConstructionError(
                            "%sentry (%d, %d) = %d breaks the tie to %r"
                            % (context, i, j, v, ref), witness=(i, j))
                else:
                    ref, d = spec[1], spec[2]
                    q = self.free_mod[ref]
                    diff = (v - int(m[ref])) % q
                    if diff % d:
                        raise ConstructionError(
                            "%sentry (%d, %d) = %d is not congruent to %r "
                            "mod %d" % (context, i, j, v, ref, d),
                            witness=(i, j))
                    out.append((diff // d) % (q // d))
        return tuple(out)

    def check_well_defined(self):
        """Parameter wraparound must vanish in every product cell.

        Changing the (i, l) entry by its modulus changes the (i, j) product
        entry by q_il * b_lj, so q_ij must divide q_il (and symmetrically
        q_lj) whenever all three cells can be non-zero.
        """
        for i in range(self.size):
            for l in range(self.size):
                q_il = self.cell_mod((i, l))
                if q_il == 1:
                    continue
                for j in range(self.size):
                    q_lj = self.cell_mod((l, j))
                    if q_lj == 1:
                        continue
                    q_ij = self.cell_mod((i, j))
                    if q_il % q_ij or q_lj % q_ij:
                        raise ConstructionError(
                            "product cell (%d, %d) mod %d cannot absorb "
                            "wraparound from (%d, %d) mod %d times (%d, %d) "
                            "mod %d" % (i, j, q_ij, i, l, q_il, l, j, q_lj),
                            witness=(i, l, j))


class PatternRing(StructureRing):
    """Structure ring presented by a matrix pattern; keeps the pattern."""

    def __init__(self, pattern, shape, tensor, one, basis_names, name):
        super().__init__(shape, tensor, one, basis_names=basis_names, name=name)
        self.pattern = pattern

    def to_matrix(self, elem):
        return self.pattern.to_matrix(self.element(elem))


def matrix_pattern_ring(pattern, basis_names=None, name=None,
                        limits=DEFAULT_LIMITS):
    """Build the ring of all matrices fitting a pattern.

    The parameter tuple is the element; generators are the matrices with a
    single parameter set to 1.  Products of generators must stay inside the
    pattern (ConstructionError with the offending cell otherwise), and the
    identity matrix must be representable.
    """
    pattern.check_well_defined()
    k = len(pattern.params)
    shape = [q for (_, q, _) in pattern.params]
    size = 1
    for q in shape:
        size *= q
    if size > limits.max_elements:
        raise LimitError("max_elements", limits.max_elements, size)
    shape = AdditiveShape(shape)   # its moduli fit the int64 matrices below

    gens = []
    for m in range(k):
        coeffs = [0] * k
        coeffs[m] = 1
        gens.append(pattern.to_matrix(coeffs))

    # per-cell reduction of an integer product matrix
    mods = np.ones((pattern.size, pattern.size), dtype=np.int64)
    for i in range(pattern.size):
        for j in range(pattern.size):
            mods[i, j] = max(1, pattern.cell_mod((i, j)))
    zero_cell = np.array([[pattern.cells.get((i, j), ("zero",))[0] == "zero"
                           for j in range(pattern.size)]
                          for i in range(pattern.size)])

    def reduce_product(m):
        out = m % mods
        out[zero_cell] = m[zero_cell]  # zero cells must vanish exactly
        return out

    tensor = np.zeros((k, k, k), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            prod = reduce_product(gens[a] @ gens[b])
            ctx = "generator %d * generator %d: " % (a, b)
            tensor[a, b] = pattern.from_matrix(prod, context=ctx)

    try:
        one = pattern.from_matrix(np.eye(pattern.size, dtype=np.int64),
                                  context="identity: ")
    except ConstructionError as exc:
        raise ConstructionError("identity matrix does not fit the pattern: %s"
                                % exc, witness=exc.witness)
    return PatternRing(pattern, shape, tensor, one, basis_names, name)


# -- the example catalog ----------------------------------------------------------

def _ex52_pattern():
    """6x6 upper block pattern: scalar diagonal, a repeated on two
    superdiagonal blocks, b in the corner; all entries mod 2."""
    cells = {(0, 0): Free(2)}
    for i in range(1, 6):
        cells[(i, i)] = Tied((0, 0))
    cells[(0, 2)] = Free(2)
    cells[(2, 4)] = Tied((0, 2))
    cells[(0, 3)] = Free(2)
    cells[(2, 5)] = Tied((0, 3))
    cells[(1, 3)] = Free(2)
    cells[(3, 5)] = Tied((1, 3))
    cells[(0, 4)] = Free(2)
    cells[(0, 5)] = Free(2)
    cells[(1, 5)] = Free(2)
    return MatrixPattern(6, cells, name="nilpotent jet over triangular 2x2")


def ex52_ring(limits=DEFAULT_LIMITS):
    # row-major parameter order: k, a11, a12, b11, b12, a22, b22
    return matrix_pattern_ring(
        _ex52_pattern(),
        basis_names=("k", "a11", "a12", "b11", "b12", "a22", "b22"),
        name="ex52", limits=limits)


def ex51_ring(m=3, limits=DEFAULT_LIMITS):
    """Upper triangular 2x2: a mod 2^m free, far corner congruent to a mod 2,
    off-diagonal mod 4.  Needs m >= 2 so the corner reduction is well defined."""
    if m < 2:
        raise InputError("parameter m must be at least 2")
    pattern = MatrixPattern(2, {
        (0, 0): Free(2 ** m),
        (0, 1): Free(4),
        (1, 1): Congruent((0, 0), 2),
    }, name="triangular with congruent diagonal")
    return matrix_pattern_ring(pattern, basis_names=("a", "b", "t"),
                               name="ex51(%d)" % m, limits=limits)


def full_matrix_ring(n, mod, limits=DEFAULT_LIMITS):
    cells = {(i, j): Free(mod) for i in range(n) for j in range(n)}
    names = tuple("e%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n))
    return matrix_pattern_ring(MatrixPattern(n, cells), basis_names=names,
                               name="M%d(Z%d)" % (n, mod), limits=limits)


def triangular_matrix_ring(n, mod, limits=DEFAULT_LIMITS):
    cells = {(i, j): Free(mod) for i in range(n) for j in range(i, n)}
    names = tuple("e%d%d" % (i + 1, j + 1)
                  for i in range(n) for j in range(i, n))
    return matrix_pattern_ring(MatrixPattern(n, cells), basis_names=names,
                               name="T%d(Z%d)" % (n, mod), limits=limits)


def integers_mod(n):
    """The ring of integers modulo n."""
    if n < 2:
        raise InputError("modulus must be at least 2")
    return StructureRing([n], np.ones((1, 1, 1), dtype=np.int64), one=(1,),
                         basis_names=("1",), name="Z%d" % n)


def as_structure_ring(ring, limits=DEFAULT_LIMITS, name=None):
    """Isomorphic copy of any finite ring as an explicit StructureRing.

    Runs on the ring's dense tables (LimitError(max_table) without them),
    where index order is element order.  One pass over the nonzero
    elements, ordered by decreasing additive order, then element, builds
    an additive basis: x joins unless a nonzero multiple j*x already lies
    in the span of the earlier basis.  A skipped x stays skipped, as the
    span only grows, so the pass goes by basis rounds: one gather of the
    remaining candidates' multiples finds the first that joins, and the
    candidates before it drop out.  That is one gather per basis element,
    and one t.sums extending the span.  The pass never needs to undo a
    choice, because a cyclic subgroup of largest order in a finite abelian
    group is a direct summand.  If (R, +) = S + H, a direct sum, and x has
    the largest order among the elements whose cyclic group meets S only
    in 0, then x's image has the largest order in R/S, which is H, so
    S + <x> is again a direct summand.  Each x that joins extends the
    table of elements by mixed-radix coefficient code, the first basis
    element most significant, which gives the structure constants and
    `one`; the result is revalidated.  Quotient and subring objects come
    out as plain coefficient rings suitable for serialization.
    """
    if isinstance(ring, StructureRing):
        return ring
    t = _tables_or_raise(ring, limits)
    n = len(t.elems)
    # mult[x, j] = j*x for j up to the exponent of (R, +)
    mult = [np.full(n, t.zero), np.arange(n)]
    while (mult[-1] != t.zero).any():
        mult.append(t.add[mult[-1], mult[1]])
    mult = np.stack(mult, axis=1)
    order = (mult[:, 1:] == t.zero).argmax(axis=1) + 1
    # at[c] is the element with coefficient code c, and code[at[c]] = c
    at, code, basis = np.array([t.zero]), np.full(n, -1), []
    code[t.zero] = 0
    cand = np.argsort(-order, kind="stable")[:-1]   # 0, of order 1, last
    below = np.arange(1, mult.shape[1]) < order[cand, None]   # j < order
    while len(at) < n:
        free = ((code[mult[cand, 1:]] < 0) | ~below).all(axis=1)
        first = np.flatnonzero(free)[0]
        x, cand, below = cand[first], cand[first + 1:], below[first + 1:]
        basis.append(x)
        at = t.sums(at, mult[x, :order[x]]).ravel()
        code[at] = np.arange(len(at))
    moduli = order[basis].tolist()

    def coeffs(idx):
        return np.stack(np.unravel_index(code[idx], moduli), axis=-1)

    tensor = coeffs(t.prods(basis, basis))
    names = tuple(ring.format_element(t.elems[b]) for b in basis)
    return StructureRing(moduli, tensor, one=coeffs(t.one),
                         basis_names=names,
                         name=name or getattr(ring, "name", None))


def exterior_square_ring(mod, limits=DEFAULT_LIMITS):
    """Exterior algebra on two generators over Z_mod: basis 1, u, v, uv with
    u^2 = v^2 = 0, vu = -uv, and uv annihilating u and v."""
    if mod < 2:
        raise InputError("modulus must be at least 2")
    tensor = np.zeros((4, 4, 4), dtype=np.int64)
    tensor[0, 0, 0] = 1
    for i in (1, 2, 3):
        tensor[0, i, i] = 1
        tensor[i, 0, i] = 1
    tensor[1, 2, 3] = 1
    tensor[2, 1, 3] = (mod - 1) % mod
    return StructureRing([mod] * 4, tensor, one=(1, 0, 0, 0),
                         basis_names=("1", "u", "v", "uv"),
                         name="ext2(%d)" % mod)


_CATALOG = {
    "z2q8": lambda limits: group_algebra(2, quaternion8(), name="z2q8"),
    "z3q8": lambda limits: group_algebra(3, quaternion8(), name="z3q8"),
    "z2d4": lambda limits: group_algebra(2, dihedral(4), name="z2d4"),
    "ex52": lambda limits: ex52_ring(limits),
    "ex51": lambda limits: ex51_ring(3, limits),
    "m2z2": lambda limits: full_matrix_ring(2, 2, limits),
    "t2z2": lambda limits: triangular_matrix_ring(2, 2, limits),
}

_EX51 = re.compile(r"^ex51\((\d+)\)$")
_EXT2 = re.compile(r"^ext2\((\d+)\)$")
_ZN = re.compile(r"^z(?:(\d+)|\((\d+)\))$")


def catalog_names():
    return ("z2q8", "z3q8", "z2d4", "ex52", "ex51(m)", "ext2(n)",
            "m2z2", "t2z2", "z(n)")


def catalog(name, limits=DEFAULT_LIMITS):
    """Build a named example ring.  Parametrized entries take an argument,
    e.g. ex51(3) or ext2(4)."""
    key = name.strip().lower()
    m = _EX51.match(key)
    if m:
        return ex51_ring(int(m.group(1)), limits)
    m = _EXT2.match(key)
    if m:
        return exterior_square_ring(int(m.group(1)), limits)
    if key in _CATALOG:
        return _CATALOG[key](limits)
    m = _ZN.match(key)
    if m:
        return integers_mod(int(m.group(1) or m.group(2)))
    raise InputError("unknown ring %r; available: %s"
                     % (name, ", ".join(catalog_names())))
