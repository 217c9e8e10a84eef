"""Benchmark runner for ringbench: one process, one thread, one client.

    python3 bench/run.py --workload catalog-report --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20      # every workload, one table

A run sets up the workload's inputs from the seed, then runs whole passes
over them in a closed loop, stopping at the pass end nearest to --seconds.
Every op is checked outside its timed region against the outputs stored in
expected.json (where the input is stored) and against invariants that hold
for any input.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  A run record with the
environment and the extra figures is written to bench/results/.

    python3 bench/run.py --record    # rewrite expected.json from this tree

Times are CPU time of the runner's one thread (`time.thread_time`; the
process clock goes coarse while a CPU-time timer is armed), scaled to the
host's current speed.  A fixed calibration loop that never calls ringbench
is timed before and after every op and every set-up, and every TICK_S of
CPU time during them.  A time is reported as what it would be where one
calibration round takes CALIBRATION_MS.  On a shared host the speed of a
vCPU drifts by tens of percent over seconds to minutes; the scaling takes
most of that drift out and leaves ringbench's own cost.  The unscaled
figures are kept in the run record.
"""

import os

# BLAS/OpenMP pools pinned to one thread, in this process and its children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
EXPECTED = BENCH_DIR / "expected.json"

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
RECORD_PASSES = {"symbolic-verify": 64}
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

# name -> unit; the end-to-end metrics every --trace 0 run prints
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "keys_answered": "count",
}
LAYER_MS = (
    "core.Tables.build", "core.units_and_regulars", "core.center",
    "core.QuotientRing", "ideals.all_ideals", "ideals.jacobson_radical",
    "ideals.prime_radical", "ideals.nilpotency_index", "ideals.ideal_closure",
    "props.full_report", "props.ore_check", "props.centrally_essential",
    "props.completely_centrally_essential", "props.is_uniserial",
    "props.is_strongly_bounded", "props.lie_series", "construct.catalog",
    "props.sample_rings", "construct.as_structure_ring", "cli.serialize_ring",
    "cli.parse_ring_text", "symbolic.triangle_verify", "symbolic.jet_verify",
)
# (span, measure, unit) beyond .ms and .self_ms
LAYER_COUNTS = (
    ("core.Tables.build", "calls", "count"),
    ("core.Tables.build", "bytes", "bytes"),
    ("core.Ring.tables", "calls", "count"),
    ("core.units_and_regulars", "calls", "count"),
    ("core.QuotientRing", "calls", "count"),
    ("ideals.all_ideals", "calls", "count"),
    ("ideals.all_ideals", "ideals", "count"),
    ("props.completely_centrally_essential", "quotients", "count"),
    ("props.full_report", "skipped.max_table", "count"),
    ("props.full_report", "skipped.max_lattice", "count"),
    ("symbolic.triangle_verify", "checked", "count"),
    ("symbolic.jet_verify", "checked", "count"),
)
TRACE_METRICS = {
    "core.Ring.tables.hit_ratio": "ratio",
    "import.ringbench.ms": "ms",
    "import.sympy.ms": "ms",
    "trace.spans": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def per_layer_units():
    units = {}
    for span in LAYER_MS:
        units[span + ".ms"] = "ms"
        units[span + ".self_ms"] = "ms"
    for span, measure, unit in LAYER_COUNTS:
        units["%s.%s" % (span, measure)] = unit
    units.update(TRACE_METRICS)
    return units


# -- host-speed calibration ---------------------------------------------------------

# CPU ms of one calibration round at the reference speed; scaled times are
# given at this speed
CALIBRATION_MS = 0.7
CALIBRATION_ROUNDS = 3
# CPU seconds between calibration rounds inside a timed stretch
TICK_S = 0.05
_CAL_ARRAYS = None


def calibration_round():
    """CPU ms of one round of fixed work, about 0.7 ms.

    About two thirds of it is dict, list and str churn in the interpreter,
    the rest a random gather from a 4 MB numpy array, which reaches past
    the core's own caches.  When the host is busy, interpreter-bound code
    slows more than memory-bound code.  The ops mix the two, so the round
    mixes them too, in a share that tracks the report, quotient and
    symbolic ops about equally well.  The collector is off during the round, so
    its cost does not depend on how much the op under way has allocated.
    """
    global _CAL_ARRAYS
    if _CAL_ARRAYS is None:
        import numpy
        big = numpy.arange(1 << 20, dtype=numpy.int32)
        picks = numpy.random.default_rng(0).integers(0, big.size, 3 << 13)
        _CAL_ARRAYS = big, picks
    big, picks = _CAL_ARRAYS
    collecting = gc.isenabled()
    gc.disable()
    c0 = time.thread_time()
    table = {}
    for i in range(1500):
        table[(i * 7) % 509] = [i, str(i)]
    total = 0
    for key, value in table.items():
        total += key + len(value[1])
    total += int(big[picks].sum()) + int(big[::96].sum())
    ms = (time.thread_time() - c0) * 1e3
    if collecting:
        gc.enable()
    return ms


class Calibration:
    """Calibration readings around and inside one timed stretch of code.

    Entering takes a reading (the median of CALIBRATION_ROUNDS rounds) and
    starts a CPU-time timer whose handler takes one round every TICK_S;
    leaving stops the timer and takes a closing reading.  `spent` is the
    CPU time the handler used, which `scaled` takes out of the stretch.
    """

    def __init__(self):
        self.readings = []
        self.spent = 0.0

    @staticmethod
    def _reading():
        return statistics.median(calibration_round()
                                 for _ in range(CALIBRATION_ROUNDS))

    def _tick(self, signum, frame):
        c0 = time.thread_time()
        self.readings.append(calibration_round())
        self.spent += time.thread_time() - c0

    def __enter__(self):
        self.readings.append(self._reading())
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.readings.append(self._reading())
        return False

    def speed(self):
        """Mean CPU ms of a calibration round over the stretch."""
        return statistics.fmean(self.readings)

    def scaled(self, cpu_s):
        """CPU seconds measured across the stretch, without the handler's,
        at the reference speed."""
        return (cpu_s - self.spent) * CALIBRATION_MS / self.speed()


# -- running passes ---------------------------------------------------------------

class Stats:
    """Op times of a run and its checks.

    `op_s` and `pass_s` are scaled CPU seconds (`Calibration.scaled`).
    Ops are single-threaded and never wait, so CPU time leaves out only
    time taken by others on a shared host.  The unscaled CPU times, the
    wall times and the calibration readings are kept for the run record.
    """

    def __init__(self):
        self.op_s = []
        self.op_cpu_s = []
        self.op_wall_s = []
        self.cal_ms = []
        self.pass_s = []
        self.pass_cpu_s = []
        self.attempted = 0
        self.failed = 0
        self.answered = 0
        self.problems = []
        self.skipped = {}    # ring key -> {limit: keys skipped}
        self.by_key = {}     # input key -> op seconds

    @property
    def passes(self):
        return len(self.pass_s)

    def ops_per_s(self, pass_s=None):
        """Ops of a pass over the median (scaled) time of a pass."""
        pass_s = self.pass_s if pass_s is None else pass_s
        return len(self.op_s) / self.passes / statistics.median(pass_s)


def run_passes(wl, seconds, store, tracer=None):
    """Whole passes, stopping at the pass end nearest to `seconds` (at least
    one pass); the next pass is assumed to take as long as the last."""
    stats = Stats()
    expected = store.get(wl.name, {})
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pass_scaled = pass_cpu = 0.0
        for item in wl.items(stats.passes):
            key = item[0]
            if tracer is not None:
                tracer.op = stats.attempted
            stats.attempted += 1
            try:
                with Calibration() as cal:
                    w0, c0 = time.perf_counter(), time.thread_time()
                    result = wl.op(item)
                    cpu = time.thread_time() - c0
                    wall = time.perf_counter() - w0
                op = cal.scaled(cpu)
                cpu -= cal.spent
                stats.op_wall_s.append(wall - cal.spent)
                stats.op_cpu_s.append(cpu)
                stats.cal_ms.append(cal.speed())
                stats.op_s.append(op)
                stats.by_key.setdefault(key, []).append(op)
                pass_scaled += op
                pass_cpu += cpu
                problems, answered = wl.check(item, result, expected.get(key))
            except Exception as exc:  # an op that raises counts as failed
                problems, answered = ["%s: %r" % (type(exc).__name__, exc)], 0
                result = None
            stats.answered += answered
            if problems:
                stats.failed += 1
                stats.problems.append("%s: %s" % (key, "; ".join(problems)))
            if result is not None and hasattr(wl, "skipped_by_limit"):
                stats.skipped[key] = wl.skipped_by_limit(result)
            del result
        stats.pass_s.append(pass_scaled)
        stats.pass_cpu_s.append(pass_cpu)
        gc.collect()
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > seconds:
            return stats


# -- set-up time -----------------------------------------------------------------

def setup_probe(args):
    """Child mode: CPU time of a fresh import of ringbench plus input
    generation, unscaled and scaled.  numpy, which the calibration loop
    needs, is imported first and its import time counted in."""
    c0 = time.thread_time()
    import numpy  # noqa: F401
    numpy_s = time.thread_time() - c0
    with Calibration() as cal:
        c1 = time.thread_time()
        import workloads
        workloads.get(args.workload).setup(args.seed)
        cpu = numpy_s + time.thread_time() - c1
    print(json.dumps({"setup_s": cal.scaled(cpu),
                      "cpu_setup_s": cpu - cal.spent}))
    return 0


def _probe_cmd(args, *flags):
    return [sys.executable, *flags, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe"]


def probe_setup_s(args):
    """Set-up of one fresh interpreter: {"setup_s", "cpu_setup_s"}."""
    out = subprocess.run(_probe_cmd(args), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


def probe_import_ms(args):
    """Cumulative import times of ringbench and sympy in a fresh process."""
    out = subprocess.run(_probe_cmd(args, "-X", "importtime"),
                         capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT)
    found = {"ringbench": 0.0, "sympy": 0.0, "numpy": 0.0}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in found:
            found[parts[2].strip()] = int(parts[1]) / 1e3
    # the probe imports numpy before ringbench, for its calibration loop
    found["ringbench"] += found.pop("numpy")
    return found


# -- run record ------------------------------------------------------------------

def src_identity():
    lines = 0
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def run_record(args, stats):
    import numpy
    import sympy
    lines, sha = src_identity()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": sha,
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "passes": stats.passes,
        "skipped_keys_by_limit": stats.skipped,
        "op_ms_median_by_input": {key: statistics.median(times) * 1e3
                                  for key, times in stats.by_key.items()},
        "problems": stats.problems[:50],
    }


def write_results(name, payload):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


# -- modes -------------------------------------------------------------------------

def load_store():
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def end_to_end_run(args):
    import workloads
    probes = [probe_setup_s(args) for _ in range(SETUP_SAMPLES)]
    wl = workloads.get(args.workload)
    wl.setup(args.seed)

    stats = run_passes(wl, args.seconds, load_store())
    ms = sorted(s * 1e3 for s in stats.op_s)
    metrics = {
        "ops_per_s": stats.ops_per_s(),
        "op_ms_p50": statistics.median(ms),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "keys_answered": stats.answered / stats.passes,
    }
    extra = {
        "op_failure_ratio": stats.failed / stats.attempted,
        "ops": len(ms),
        "setup_s_samples": [p["setup_s"] for p in probes],
        "cpu_setup_s": statistics.median(p["cpu_setup_s"] for p in probes),
        "cpu_ops_per_s": stats.ops_per_s(stats.pass_cpu_s),
        "cpu_op_ms_p50": statistics.median(stats.op_cpu_s) * 1e3,
        "wall_ops_per_s": len(ms) / sum(stats.op_wall_s),
        "wall_op_ms_p50": statistics.median(stats.op_wall_s) * 1e3,
        "calibration_ms_p50": statistics.median(stats.cal_ms),
    }
    if len(ms) >= 100:
        extra["op_ms_p90"] = statistics.quantiles(ms, n=10)[8]
    units = dict(END_TO_END, op_failure_ratio="ratio", op_ms_p90="ms",
                 ops="count", setup_s_samples="s", cpu_setup_s="s",
                 cpu_ops_per_s="1/s", cpu_op_ms_p50="ms",
                 wall_ops_per_s="1/s", wall_op_ms_p50="ms",
                 calibration_ms_p50="ms")
    return stats, metrics, extra, units


def traced_run(args):
    import spans
    import workloads
    imports = probe_import_ms(args)
    wl = workloads.get(args.workload)
    tracer = spans.Tracer()
    tracer.op = "setup"
    tracer.install()
    try:
        wl.setup(args.seed)
    finally:
        tracer.uninstall()
    store = load_store()
    # untraced then traced passes over the same inputs, half the time each;
    # the difference in ops_per_s between them is the tracing overhead
    plain = run_passes(wl, args.seconds / 2, store)
    tracer.install()
    try:
        traced = run_passes(wl, args.seconds / 2, store, tracer=tracer)
    finally:
        tracer.uninstall()

    setup = spans.layer_totals(tracer.spans, lambda op: op == "setup")
    ops = spans.layer_totals(tracer.spans, lambda op: op != "setup")

    def value(span, measure):
        # one set-up plus one pass of ops
        return (setup.get(span, {}).get(measure, 0)
                + ops.get(span, {}).get(measure, 0) / traced.passes)

    metrics = {}
    for span in LAYER_MS:
        metrics[span + ".ms"] = value(span, "ms")
        metrics[span + ".self_ms"] = value(span, "self_ms")
    for span, measure, _ in LAYER_COUNTS:
        metrics["%s.%s" % (span, measure)] = value(span, measure)
    calls = value("core.Ring.tables", "calls")
    metrics["core.Ring.tables.hit_ratio"] = (
        value("core.Ring.tables", "hits") / calls if calls else 0.0)
    metrics["import.ringbench.ms"] = imports["ringbench"]
    metrics["import.sympy.ms"] = imports["sympy"]
    metrics["trace.spans"] = len(tracer.spans) / traced.passes
    metrics["trace.untraced_ops_per_s"] = plain.ops_per_s()
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
    metrics["trace.overhead_pct"] = 100 * (1 - traced.ops_per_s()
                                           / plain.ops_per_s())
    write_results("%s-seed%d-spans.json" % (args.workload, args.seed),
                  [rec[:5] for rec in tracer.spans])

    both = Stats()
    for part in (plain, traced):
        both.attempted += part.attempted
        both.failed += part.failed
        both.pass_s += part.pass_s
        both.problems += part.problems
        both.skipped.update(part.skipped)
    extra = {"op_failure_ratio": both.failed / both.attempted}
    units = dict(per_layer_units(), op_failure_ratio="ratio")
    return both, metrics, extra, units


def record(args):
    """Store every op's output for the default and held-out seeds."""
    import workloads
    store = {}
    for name in workloads.WORKLOADS:
        outputs = store.setdefault(name, {})
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            wl = workloads.get(name)
            wl.setup(seed)
            for k in range(RECORD_PASSES.get(name, 1)):
                for item in wl.items(k):
                    result = wl.op(item)
                    problems, _ = wl.check(item, result, None)
                    if problems:
                        raise SystemExit("%s %s fails its invariants: %s"
                                         % (name, item[0], problems))
                    outputs[item[0]] = wl.output(item, result)
        print("%s: %d outputs" % (name, len(outputs)), file=sys.stderr)
    EXPECTED.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return 0


def summary(args):
    """Every workload once, untraced; prints each metric with its unit."""
    import workloads
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=CHILD_TIMEOUT_S + 4 * args.seconds)
        if out.returncode != 0:
            print("%s: exit %d\n%s" % (name, out.returncode, out.stderr))
            ok = False
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        rec = json.loads((RESULTS / ("%s-seed%d-trace0.json"
                                     % (name, args.seed))).read_text())
        ok &= result["correct"]
        print("%s: correct=%s attempted=%d failed=%d"
              % (name, str(result["correct"]).lower(), result["attempted"],
                 result["failed"]))
        for metric, entry in sorted(rec["metrics"].items()):
            if isinstance(entry["value"], list):
                continue
            print("  %-20s %14.4f %s" % (metric, entry["value"], entry["unit"]))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from this tree")
    args = parser.parse_args(argv)

    if not (SRC / "ringbench" / "__init__.py").is_file():
        print("run.py: no ringbench sources at %s; run from a full checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    if args.record:
        return record(args)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return summary(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))

    mode = traced_run if args.trace else end_to_end_run
    stats, metrics, extra, units = mode(args)
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    rec = run_record(args, stats)
    rec["correct"] = result["correct"]
    rec["metrics"] = {k: {"value": v, "unit": units[k]}
                      for k, v in {**metrics, **extra}.items()}
    path = write_results("%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace), rec)
    for problem in stats.problems[:10]:
        print("FAILED %s" % problem, file=sys.stderr)
    print("%s seed %d: %d ops in %d passes, %d failed; record %s"
          % (args.workload, args.seed, stats.attempted, stats.passes,
             stats.failed, path), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
