"""Self-tests of the benchmark: its output checks can fail, its exact counts
repeat, and every workload and the traced mode run end to end.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import triplate.assembly  # noqa: E402
import triplate.bench  # noqa: E402

import speed  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (PROBE_CASE, PlateM48, ProbeGrid, RefCases,  # noqa: E402
                       probe_point, probe_pool, solve_case)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def failed_ops(rec: worker.PassRecord) -> float:
    return sum(r.failure is not None for r in rec.ops) / len(rec.ops)


def tiny_refcases(seed=0) -> RefCases:
    rows = triplate.bench.run_case("square-ss", ms=(2,))
    return RefCases(seed, pairs=[("square-ss", 2)], refs={"square-ss:2": rows})


def tiny_plate() -> PlateM48:
    refs = {}
    for name in ("square-ss", "skew-60"):
        sol = solve_case(name, 4)
        probes = triplate.bench.benchmark_case(name).probes
        refs[name] = {"dofs": sol.system.n_dofs, "free_dofs": sol.system.n_free,
                      "probes": [p.evaluate(sol) for p in probes]}
    return PlateM48(0, m=4, refs=refs)


def tiny_probe_grid() -> ProbeGrid:
    sol = solve_case(PROBE_CASE, 4)
    pool = [xy for pts in probe_pool().values() for xy in pts]
    placeholder = {"points": pool, "values": [[1.0] * 6] * len(pool),
                   "dofs": sol.system.n_dofs, "free_dofs": sol.system.n_free}
    wl = ProbeGrid(3, m=4, draw={"node": 3, "edge": 2, "interior": 4},
                   refs=placeholder)
    wl.values = {xy: probe_point(sol, xy) for xy in wl.points}
    return wl


# -- the output checks can fail ------------------------------------------------

def test_refcases_reference_value_perturbed_fails():
    wl = tiny_refcases()
    assert failed_ops(worker.Runner(wl).one_pass()) == 0
    row = next(r for r in wl.refs["square-ss:2"] if r["quantity"].startswith("deflection"))
    row["value"] *= 1.0 + 1e-9
    assert failed_ops(worker.Runner(wl).one_pass()) > 0


def test_refcases_status_change_fails():
    wl = tiny_refcases()
    row = wl.refs["square-ss:2"][0]
    row["status"] = "ok" if row["status"] == "mismatch" else "mismatch"
    assert failed_ops(worker.Runner(wl).one_pass()) > 0


def test_plate_perturbed_stiffness_fails(monkeypatch):
    wl = tiny_plate()
    assert failed_ops(worker.Runner(wl).one_pass()) == 0
    original = triplate.assembly.element_stiffness
    monkeypatch.setattr(triplate.assembly, "element_stiffness",
                        lambda elem, degree=None: original(elem, degree) * (1.0 + 1e-6))
    assert failed_ops(worker.Runner(wl).one_pass()) > 0


def test_probe_value_perturbed_fails():
    wl = tiny_probe_grid()
    assert failed_ops(worker.Runner(wl).one_pass()) == 0
    xy = wl.points[0]
    wl.values[xy] = [v + 1e-9 for v in wl.values[xy]]   # scale is 1 here
    rec = worker.Runner(wl).one_pass()
    assert [r.label for r in rec.ops if r.failure] == [f"point {xy}"]


# -- exact counts repeat -------------------------------------------------------

def test_traced_counts_repeat_between_runs():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            rec = worker.Runner(tiny_refcases()).one_pass(tracer)
        assert not any(r.failure for r in rec.ops)
        counts.append([r.trace_counts for r in rec.ops])
    assert counts[0] == counts[1]
    assert counts[0][0]["oracle.mono_elements"] == 2 * 2 * 2
    assert counts[0][0]["solve.lu_fill"] > 0


def test_count_difference_is_reported():
    a = worker.OpRecord("x", 1.0, None, True, {"dofs": 27}, {"calls.a": 3})
    b = worker.OpRecord("x", 1.0, None, True, {"dofs": 27}, {"calls.a": 4})
    same = worker.PassRecord(1.0, [a, a])
    assert worker.count_mismatches([same]) == []
    assert len(worker.count_mismatches([worker.PassRecord(1.0, [a, b])])) == 1


# -- the speed gauge -----------------------------------------------------------

def test_gauge_samples_on_its_timer_and_stops():
    gauge = speed.Gauge().start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        gauge.stop()
    n = len(gauge.walks)
    assert n >= 3 and gauge.spent > 0 and min(gauge.walks) > 0
    time.sleep(3 * speed.PERIOD_S)
    assert len(gauge.walks) == n


def test_gauge_slowdown_is_the_trimmed_mean_in_the_stretch():
    assert speed.trimmed_mean([100.0] + [1.0] * 8 + [-100.0]) == 1.0
    assert speed.burst(0.01) > 0
    gauge = speed.Gauge()
    gauge.times = [0.1 * i for i in range(100)]          # 0 .. 9.9 s
    gauge.walks = [speed.REFERENCE_S] * 60 + [2 * speed.REFERENCE_S] * 40
    power = speed.SENSITIVITY
    assert gauge.slowdown(0.0, 10.0) == pytest.approx(((50 + 2 * 30) / 80) ** power)
    assert gauge.slowdown(7.0, 8.0) == pytest.approx(2.0 ** power)
    with pytest.raises(RuntimeError):
        gauge.slowdown(20.0, 21.0)


def test_latencies_sum_passes_and_take_each_operations_median():
    def one_pass(b, c):
        return worker.PassRecord(9.0, [worker.OpRecord("a", 1.0, None, False),
                                       worker.OpRecord("b", b, None, True),
                                       worker.OpRecord("c", c, None, True)])
    passes = [one_pass(2.0, 4.0), one_pass(2.0, 40.0), one_pass(2.0, 4.0)]
    figures = worker.latencies(passes, lambda r: r.seconds / 2)
    assert figures["wall_s"] == 3.5
    assert figures["op_p50_ms"] == 1500.0          # between b's 1 s and c's 2 s
    assert figures["ops_per_s"] == 2 / 3.5
    assert figures["op_samples"] == 6


# -- the tracer ----------------------------------------------------------------

def test_tracer_spans_layers_and_restores_names():
    original = triplate.bench.assemble
    tracer = Tracer()
    runner = worker.Runner(tiny_refcases())
    with tracer.installed():
        rec = runner.one_pass(tracer)
        tracer.memory = True
        memory = runner.one_pass(tracer)
    assert triplate.bench.assemble is original
    names = {sp.name for sp in tracer.spans}
    for name in ("assembly.assemble", "bench.twin_recount", "oracle.equivalence",
                 "oracle.build_mono", "element.stiffness", "element.load",
                 "geometry.partition", "shapefn.basis", "solve.factor",
                 "solve.field", "solve.moment", "element.locate"):
        assert name in names
    layers = worker.per_layer(tracer, rec, memory)
    assert {m["name"] for m in SPEC["per_layer"]} - {
        "trace.untraced_wall_s", "trace.overhead_s"} == set(layers)
    assert 0 < layers["assembly.self_s"] < layers["assembly.assemble_s"]
    assert layers["oracle.max_diff"] < 1e-9
    peaks = [sp.peak_mb for sp in tracer.spans
             if sp.name == "assembly.assemble" and sp.op == memory.ops[0].op_id]
    assert peaks[0] > 0 and peaks[-1] is None   # the oracle's are not traced
    assert layers["assembly.peak_mb"] == peaks[0]
    assert all(sp.peak_mb is None for sp in tracer.spans if sp.op == rec.ops[0].op_id)


# -- end to end ----------------------------------------------------------------

def run_bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload,trace", [
    ("plate-m48", 0), ("probe-grid", 0), ("refcases", 0), ("probe-grid", 1)])
def test_smoke(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert "failed_ops = 0" in proc.stdout


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench("refcases", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
