"""The four benchmark workloads: their inputs, their ops and their checks.

Each workload generates its inputs from a seed in `setup`, hands out one
pass of items at a time, runs one item per op, and checks the op's result
outside the timed region.  Ops reach ringbench only through attributes of
its public modules (`rb.full_report`, `rbcli.serialize_ring`, ...), looked
up at call time, so the tracer in spans.py sees every call it wraps.

Each op builds its ring fresh, so caches kept on a ring object start cold,
as they do in one CLI run.  The quotient sweep is the exception by design:
its base rings and their ideal lattices are built once in set-up, and each
op builds a fresh factor ring of a shared base.
"""

import hashlib
import random

import ringbench as rb
import ringbench.cli as rbcli

# every catalog ring with at most 1024 elements
CATALOG_RINGS = ("z2q8", "z2d4", "ex52", "ex51(3)", "ext2(3)", "ext2(4)",
                 "ext2(5)", "m2z2", "t2z2")
# the report pass takes the first distinct sampled rings of one size (that
# of ex52 and ex51(3)), so the seed changes which rings run but not how
# heavy they are; mixed sizes would move op_ms_p50 and ops_per_s with
# how many tiny rings a seed happens to draw
SAMPLED_REPORT_RINGS = 2
SAMPLED_REPORT_SIZE = 128
SAMPLE_MAX_SIZE = 256
MAX_SAMPLE_DRAWS = 4096

QUOTIENT_BASES = ("ext2(4)", "ex52", "z2q8", "z2d4")
# the seed picks 8 ideals from the lattices of the first distinct sampled
# rings that hold at least 16 proper nonzero ideals between them
SAMPLED_QUOTIENT_IDEALS = 8
SAMPLED_QUOTIENT_POOL = 16
QUOTIENT_SAMPLE_DRAWS = 64

SYMBOLIC_PRIMES = (5, 7)
# a verifier's cost depends on its random draws and is heavy-tailed
# (triangle_verify at 10 samples ranges from 0.15 to 2.7 s by seed), so
# calls are kept short and many: a run then covers hundreds of draws and
# the medians over it hardly depend on the workload seed
TRIANGLE_SAMPLES = 1
JET_SAMPLES = 20
SEED_STRIDE = 100003


def ring_key(ring):
    """Stable name of a ring: its catalog name, or a digest of a sample."""
    if isinstance(ring, rb.SubRing):
        blob = repr((ring.base.shape.moduli, ring.elements())).encode()
        return "sampled%d-%s" % (ring.size, hashlib.sha1(blob).hexdigest()[:12])
    return ring.name


def _fresh_builder(ring):
    """A fresh ring equal to `ring`, built again from its generated data."""
    if isinstance(ring, rb.SubRing):
        base, elems, name = ring.base, ring.elements(), ring.name
        return lambda: rb.SubRing(base, elems, name=name, check=False)
    moduli, tensor, one = ring.shape.moduli, ring.tensor, ring.one
    names, name = ring.basis_names, ring.name
    return lambda: rb.make_ring(moduli, tensor, one, basis_names=names,
                                name=name)


# -- report lines ----------------------------------------------------------------

SKIPPED = "skipped;limit="


def parse_lines(lines):
    """key -> the rest of its report line ("value" or "value;witness=...")."""
    out = {}
    for line in lines:
        key, _, rest = line.partition("=")
        out[key] = rest
    return out


def answered_keys(lines):
    return sum(1 for rest in parse_lines(lines).values()
               if not rest.startswith(SKIPPED))


def compare_lines(expected, got):
    """Problems with `got` against stored lines.

    A key answered in `expected` must read the same; a key skipped in
    `expected` may stay skipped or become answered.
    """
    exp, now = parse_lines(expected), parse_lines(got)
    problems = []
    for key, rest in exp.items():
        if rest.startswith(SKIPPED):
            continue
        if now.get(key) != rest:
            problems.append("%s: expected %r, got %r" % (key, rest, now.get(key)))
    return problems


def _ce_witness_ok(ring, witness):
    """Some element printing as `witness` is a verified CE counterexample."""
    return any(rb.verify_ce_counterexample(ring, a)
               for a in ring.elements() if ring.format_element(a) == witness)


def report_invariants(ring, lines):
    """Checks every report must pass, stored or not."""
    got = parse_lines(lines)
    problems = []
    if len(lines) != len(rb.props.REPORT_KEYS):
        problems.append("report has %d lines" % len(lines))
    jac, prime = got.get("jacobson_size", ""), got.get("prime_radical_size", "")
    if not jac.startswith(SKIPPED) and not prime.startswith(SKIPPED) \
            and jac != prime:
        problems.append("prime radical %s differs from Jacobson radical %s"
                        % (prime, jac))
    if got.get("completely_centrally_essential") == "true" \
            and got.get("centrally_essential") != "true":
        problems.append("completely CE but not CE")
    ce = got.get("centrally_essential", "")
    if ce.startswith("false;witness="):
        witness = ce.partition(";witness=")[2]
        if not _ce_witness_ok(ring, witness):
            problems.append("CE witness %s does not verify" % witness)
    return problems


# -- workloads -----------------------------------------------------------------

class Workload:
    """Inputs, ops and checks of one workload.

    `items(k)` is the k-th pass; an item's first field is its key in
    expected.json.  `op(item)` is the timed call; `output` turns its
    result into the stored form; `check` returns (problems, verdicts
    answered) for one op against the stored form, if any.
    """

    name = None

    def setup(self, seed):
        raise NotImplementedError

    def items(self, k):
        return self._items

    def op(self, item):
        raise NotImplementedError

    def output(self, item, result):
        raise NotImplementedError

    def check(self, item, result, expected):
        raise NotImplementedError


class _ReportWorkload(Workload):
    """One op is `full_report` on one freshly built ring."""

    def _add(self, ring):
        self._items.append((ring_key(ring), _fresh_builder(ring)))

    def op(self, item):
        ring = item[1]()
        return ring, rb.full_report(ring)

    def output(self, item, result):
        return result[1].lines()

    def check(self, item, result, expected):
        ring, report = result
        lines = report.lines()
        problems = report_invariants(ring, lines)
        if expected is not None:
            problems += compare_lines(expected, lines)
        return problems, answered_keys(lines)

    @staticmethod
    def skipped_by_limit(result):
        counts = {}
        for limit in result[1].skipped.values():
            counts[limit] = counts.get(limit, 0) + 1
        return counts


class CatalogReport(_ReportWorkload):
    """The dense-table path: all_ideals on each side, the radicals, CCE and
    Tables.build.  Bypasses the rank path and the symbolic layer."""

    name = "catalog-report"

    def setup(self, seed):
        self._items = []
        for name in CATALOG_RINGS:
            self._add(rb.catalog(name))
        count = 32
        while True:
            chosen = {}
            for ring in rb.sample_rings(seed, count, max_size=SAMPLE_MAX_SIZE):
                if ring.size == SAMPLED_REPORT_SIZE:
                    chosen.setdefault(ring_key(ring), ring)
            if len(chosen) >= SAMPLED_REPORT_RINGS:
                break
            if count >= MAX_SAMPLE_DRAWS:
                raise RuntimeError("seed %d draws too few %d-element rings"
                                   % (seed, SAMPLED_REPORT_SIZE))
            count *= 2
        for ring in list(chosen.values())[:SAMPLED_REPORT_RINGS]:
            self._add(ring)
        random.Random(seed).shuffle(self._items)


class LargeCarrier(_ReportWorkload):
    """The structure/rank path above max_table: units_and_regulars, ore_check
    and center.  Lattices are skipped; basis width and prime both vary."""

    name = "large-carrier"

    def setup(self, seed):
        self._items = []
        self._add(rb.catalog("z3q8"))
        self._add(rb.group_algebra(3, rb.dihedral(4), name="z3d4"))
        self._add(rb.catalog("ext2(7)"))
        random.Random(seed).shuffle(self._items)


class QuotientSweep(Workload):
    """One op factors a shared base ring by one of its proper nonzero ideals,
    builds its tables, decides CE and round-trips it through spec text.

    It builds rings rather than deciding them.  The lattices are enumerated
    in set-up, so a gain in one of the two that costs the other shows in
    setup_s or in the op metrics.
    """

    name = "quotient-sweep"

    def setup(self, seed):
        self._items = []
        for name in QUOTIENT_BASES:
            self._items += self._proper_ideals(rb.catalog(name), name)
        pool = {}
        for ring in rb.sample_rings(seed, QUOTIENT_SAMPLE_DRAWS,
                                    max_size=SAMPLE_MAX_SIZE):
            for item in self._proper_ideals(ring, ring_key(ring)):
                pool.setdefault(item[0], item)
            if len(pool) >= SAMPLED_QUOTIENT_POOL:
                break
        rng = random.Random(seed)
        self._items += rng.sample(list(pool.values()), SAMPLED_QUOTIENT_IDEALS)
        rng.shuffle(self._items)

    @staticmethod
    def _proper_ideals(ring, key):
        return [("%s#%d" % (key, i), ring, ideal)
                for i, ideal in enumerate(rb.all_ideals(ring, side="two"))
                if not ideal.is_zero() and not ideal.is_whole()]

    def op(self, item):
        _, base, ideal = item
        factor = rb.quotient(base, ideal)
        factor.tables()
        ce = rb.centrally_essential(factor)
        text = rbcli.serialize_ring(factor)
        parsed = rbcli.parse_ring_text(text)
        return factor, ce, text, parsed

    def output(self, item, result):
        factor, ce, text, _ = result
        return {
            "size": factor.size,
            "center_size": ce.center_size,
            "ce": ce.holds,
            "witness": "" if ce.holds else factor.format_element(ce.counterexample),
            "spec_sha1": hashlib.sha1(text.encode()).hexdigest(),
        }

    def check(self, item, result, expected):
        factor, ce, text, parsed = result
        problems = []
        if not ce.holds and not rb.verify_ce_counterexample(
                factor, ce.counterexample):
            problems.append("CE witness does not verify")
        if parsed.size != factor.size:
            problems.append("spec round trip has %d elements, factor has %d"
                            % (parsed.size, factor.size))
        if rbcli.serialize_ring(parsed) != text:
            problems.append("spec text does not round-trip")
        if expected is not None:
            got = self.output(item, result)
            for field, value in expected.items():
                if got.get(field) != value:
                    problems.append("%s: expected %r, got %r"
                                    % (field, value, got.get(field)))
        return problems, 1


class SymbolicVerify(Workload):
    """One op is one exact symbolic verifier call.  Only the symbolic layer
    runs, so a finite-ring change must leave this workload unchanged."""

    name = "symbolic-verify"

    CALLS = (("triangle", "triangle_verify", TRIANGLE_SAMPLES),
             ("jet", "jet_verify", JET_SAMPLES))

    def setup(self, seed):
        self._seed = seed

    def items(self, k):
        vseed = self._seed * SEED_STRIDE + k
        return [("%s/%d/%d" % (kind, p, vseed), fn, samples, p, vseed)
                for kind, fn, samples in self.CALLS for p in SYMBOLIC_PRIMES]

    def op(self, item):
        _, fn, samples, p, vseed = item
        return getattr(rb, fn)(p=p, samples=samples, seed=vseed)

    def output(self, item, result):
        return {"ok": result.ok, "checked": result.checked}

    def check(self, item, result, expected):
        problems = []
        # every call must verify, and a verifier's check count does not
        # depend on the seed: samples plus its fixed checks
        fixed = {"triangle": 22, "jet": 13}[item[0].split("/")[0]]
        if not result.ok:
            problems.append("verifier failed: %s" % result.failure)
        if result.checked != item[2] + fixed:
            problems.append("checked %d, expected %d"
                            % (result.checked, item[2] + fixed))
        if expected is not None and self.output(item, result) != expected:
            problems.append("expected %r, got %r"
                            % (expected, self.output(item, result)))
        return problems, 1


WORKLOADS = {w.name: w for w in (CatalogReport, LargeCarrier, QuotientSweep,
                                 SymbolicVerify)}


def get(name):
    return WORKLOADS[name]()
