"""Tests of the benchmark itself.  Run with: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ringbench as rb  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _one_report_item(name="t2z2"):
    wl = workloads.CatalogReport()
    wl._items = []
    wl._add(rb.catalog(name))
    return wl, wl.items(0)[0]


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# -- the correctness check -------------------------------------------------------------

def test_stored_report_passes_and_corrupted_one_fails():
    wl, item = _one_report_item()
    result = wl.op(item)
    good = wl.output(item, result)
    assert wl.check(item, result, good)[0] == []
    bad = [line.replace("reversible=false", "reversible=true")
           for line in good]
    assert bad != good
    assert wl.check(item, result, bad)[0]


def test_runner_counts_a_corrupted_expectation_as_failed():
    wl, item = _one_report_item()
    good = wl.output(item, wl.op(item))
    key = item[0]
    clean = run.run_passes(wl, 0, {wl.name: {key: good}})
    assert (clean.attempted, clean.failed) == (1, 0)
    corrupt = [line.replace("units=", "units=9") for line in good]
    stats = run.run_passes(wl, 0, {wl.name: {key: corrupt}})
    assert (stats.attempted, stats.failed) == (1, 1)
    assert "units" in stats.problems[0]


def test_newly_answered_key_is_not_a_failure_but_a_lost_one_is():
    wl, item = _one_report_item()
    result = wl.op(item)
    good = wl.output(item, result)
    was_skipped = ["uniserial=skipped;limit=max_lattice"
                   if line.startswith("uniserial=") else line for line in good]
    assert wl.check(item, result, was_skipped)[0] == []
    assert workloads.compare_lines(good, was_skipped)


def test_corrupted_quotient_and_symbolic_outputs_fail():
    wl = workloads.QuotientSweep()
    item = wl._proper_ideals(rb.catalog("t2z2"), "t2z2")[0]
    result = wl.op(item)
    stored = wl.output(item, result)
    assert wl.check(item, result, stored)[0] == []
    assert wl.check(item, result, dict(stored, ce=not stored["ce"]))[0]

    wl = workloads.SymbolicVerify()
    wl.setup(0)
    item = [i for i in wl.items(0) if i[0].startswith("jet/")][0]
    result = wl.op(item)
    stored = wl.output(item, result)
    assert wl.check(item, result, stored)[0] == []
    assert wl.check(item, result, dict(stored, checked=0))[0]


def test_stored_outputs_cover_both_recorded_seeds():
    store = json.loads(run.EXPECTED.read_text())
    assert set(store) == set(workloads.WORKLOADS)
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        wl = workloads.get("catalog-report")
        wl.setup(seed)
        keys = {item[0] for item in wl.items(0)}
        assert keys <= set(store["catalog-report"])


# -- the tracer ------------------------------------------------------------------------

def _bindings():
    out = {}
    for mod in spans.ringbench_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    for cls in (rb.core.Ring, rb.core.Tables, rb.core.QuotientRing):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = value
    return out


def test_tracer_restores_every_wrapped_function():
    before = _bindings()
    original = rb.full_report
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rb.full_report is not original
        assert rb.props.full_report is rb.full_report
        tracer.op = 0
        rb.full_report(rb.catalog("t2z2"))
        rb.triangle_verify(p=5, samples=1, seed=0)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = {rec[0] for rec in tracer.spans}
    assert {"props.full_report", "core.Tables.build", "core.Ring.tables",
            "ideals.all_ideals", "symbolic.triangle_verify"} <= names
    totals = spans.layer_totals(tracer.spans, lambda op: True)
    assert totals["symbolic.triangle_verify"]["checked"] == 23
    assert totals["core.Tables.build"]["bytes"] > 0


def test_layer_totals_self_time_and_nesting():
    recs = [
        ["a", 0.0, 10.0, None, 0, None],
        ["b", 2.0, 5.0, 0, 0, {"n": 2}],
        ["a", 6.0, 8.0, 0, 0, None],     # nested call of the same function
    ]
    totals = spans.layer_totals(recs, lambda op: True)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["ms"] == 10.0 * 1e3        # outermost span only
    assert totals["a"]["self_ms"] == (5.0 + 2.0) * 1e3
    assert totals["b"] == {"ms": 3.0e3, "self_ms": 3.0e3, "calls": 1, "n": 2}


# -- the contract --------------------------------------------------------------------

def test_benchmark_json_names_these_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_prints_every_metric_of_its_mode(tmp_path):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
           "symbolic-verify", "--seed", "3", "--seconds", "0"]
    for trace, names in (("0", run.END_TO_END), ("1", run.per_layer_units())):
        out = subprocess.run(cmd + ["--trace", trace], capture_output=True,
                             text=True, timeout=300, cwd=ROOT, check=True)
        result = _last_json(out.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "catalog-report", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         timeout=180, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


# -- the calibration -------------------------------------------------------------------

def test_calibration_scales_by_its_readings_and_disarms_its_timer():
    with run.Calibration() as cal:
        c0 = run.time.thread_time()
        while run.time.thread_time() - c0 < 4 * run.TICK_S:
            pass
        cpu = run.time.thread_time() - c0
    assert len(cal.readings) >= 4          # two brackets and the ticks
    assert 0 < cal.spent < cpu
    assert cal.scaled(cpu) == pytest.approx(
        (cpu - cal.spent) * run.CALIBRATION_MS
        / (sum(cal.readings) / len(cal.readings)))
    assert run.signal.getitimer(run.signal.ITIMER_PROF) == (0.0, 0.0)
    assert run.signal.getsignal(run.signal.SIGPROF) == run.signal.SIG_DFL
