"""One workload run in its own process.

``run.py`` starts this file with the checkout's ``src`` on ``PYTHONPATH`` and
the thread pools capped.  It prints one JSON object as its last line.

An untraced run repeats whole passes of the workload until ``--seconds``
would be exceeded (at least one pass).  A traced run makes two untraced
passes, a warm-up and the baseline of the tracing overhead, then traced
passes within the same time budget, then one more traced pass with
``tracemalloc`` on, which gives the memory peaks and nothing else.  Exact counts (dofs, nnz, LU fill,
call counts, conventional element counts) must repeat between all passes of
a run, or the run is not correct.

An untraced run reports its times in reference seconds (see ``speed.py``):
set-up is scaled by a burst of the gauge's walk right after it, and the
passes by the gauge's samples all through them.  Traced runs report
measured seconds and run no gauge.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import triplate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if Path(triplate.__file__).resolve().parent != ROOT / "src" / "triplate":
    raise SystemExit(f"imported triplate from {triplate.__file__}, "
                     f"not from {ROOT / 'src'}")

from speed import REFERENCE_S, Gauge, burst  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: at most this many per-operation stage lines in a traced run's report
STAGE_LINES = 16
#: seconds of back-to-back gauge walks that scale set-up time
SETUP_BURST_S = 0.2

#: samples the host's speed during untraced passes (see ``speed.py``)
GAUGE = Gauge()


@dataclass
class OpRecord:
    label: str
    seconds: float | None          # measured, less the speed gauge's own time
    failure: str | None
    measured: bool
    counts: dict = field(default_factory=dict)
    trace_counts: dict | None = None
    op_id: int = -1
    start: float = 0.0             # perf_counter() when the operation began


@dataclass
class PassRecord:
    wall: float
    ops: list[OpRecord]


def run_op(op, tracer: Tracer | None, op_id: int) -> OpRecord:
    seconds = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            spent = GAUGE.spent
            t0 = time.perf_counter()
            out = op.run()
            seconds = time.perf_counter() - t0 - (GAUGE.spent - spent)
        else:
            with tracer.op(op_id, f"op.{op.label}"):
                t0 = time.perf_counter()
                out = op.run()
                seconds = time.perf_counter() - t0
        failure = op.check(out)
        counts = op.counts(out)
    except Exception as exc:  # one failed operation must not end the run
        traceback.print_exc()
        failure, counts = f"{type(exc).__name__}: {exc}", {}
    if failure:
        print(f"FAILED {op.label}: {failure}", file=sys.stderr)
    trace_counts = dict(tracer.op_counts[op_id]) if tracer else None
    return OpRecord(op.label, seconds, failure, op.measured, counts,
                    trace_counts, op_id, t0)


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.next_op = 0

    def one_pass(self, tracer=None) -> PassRecord:
        ops = self.workload.ops()
        t0 = time.perf_counter()
        records = []
        for op in ops:
            records.append(run_op(op, tracer, self.next_op))
            self.next_op += 1
        return PassRecord(time.perf_counter() - t0, records)

    def passes_until(self, deadline: float, tracer=None) -> list[PassRecord]:
        """Whole passes while the next one is predicted to end by the deadline."""
        out = [self.one_pass(tracer)]
        while time.perf_counter() + out[-1].wall <= deadline:
            out.append(self.one_pass(tracer))
        return out


def count_mismatches(passes: list[PassRecord]) -> list[str]:
    """Labels whose exact counts differ between two runs of the operation."""
    seen: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    bad = []
    for rec in (r for p in passes for r in p.ops if r.failure is None):
        if seen.setdefault(rec.label, rec.counts) != rec.counts:
            bad.append(f"{rec.label}: {rec.counts} != {seen[rec.label]}")
        if rec.trace_counts is not None and \
                traced.setdefault(rec.label, rec.trace_counts) != rec.trace_counts:
            bad.append(f"{rec.label}: {rec.trace_counts} != {traced[rec.label]}")
    return bad


def latencies(passes: list[PassRecord], seconds) -> dict:
    """Pass and operation figures, each operation's time given by ``seconds``.

    A pass's time is the sum of its operations' times, checks left out.  The
    latency percentiles are taken over the distinct operations, each at its
    median over the passes; ``ops_per_s`` is a pass's measured operations
    over the median pass time.
    """
    ok = [[r for r in p.ops if r.seconds is not None] for p in passes]
    walls = [sum(seconds(r) for r in ops) for ops in ok]
    by_label: dict[str, list[float]] = {}
    for r in (r for ops in ok for r in ops if r.measured and r.failure is None):
        by_label.setdefault(r.label, []).append(seconds(r))
    lat = [statistics.median(v) for v in by_label.values()]
    per_pass = sum(r.measured for r in passes[0].ops)
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50)) if lat else float("nan"),
        "op_p95_ms": 1e3 * float(np.percentile(lat, 95)) if lat else float("nan"),
        "ops_per_s": per_pass / statistics.median(walls),
        "op_samples": sum(len(v) for v in by_label.values()),
    }


def end_to_end(passes: list[PassRecord], gauge: Gauge) -> tuple[dict, dict]:
    """The figures in reference seconds, and as measured.

    The first pass fills caches and finishes lazy set-up; it is checked
    like the others but timed only when it is the run's one pass.
    """
    passes = passes[1:] or passes
    ops = [r for p in passes for r in p.ops]
    slowdown = gauge.slowdown(ops[0].start, ops[-1].start + (ops[-1].seconds or 0.0))
    return (latencies(passes, lambda r: r.seconds / slowdown),
            latencies(passes, lambda r: r.seconds))


def _sums(tracer: Tracer, op_ids: set[int]):
    dur, own, calls, peak = Counter(), Counter(), Counter(), {}
    self_times = tracer.self_times()
    for sp, self_t in zip(tracer.spans, self_times):
        if sp.op in op_ids:
            dur[sp.name] += sp.duration
            own[sp.name] += self_t
            calls[sp.name] += 1
            if sp.peak_mb is not None:
                peak[sp.name] = max(peak.get(sp.name, 0.0), sp.peak_mb)
    counts = Counter()
    max_diff = 0.0
    for op_id in op_ids:
        counts.update(tracer.op_counts[op_id])
        max_diff = max(max_diff, tracer.op_max[op_id].get("oracle.max_diff", 0.0))
    return dur, own, calls, peak, counts, max_diff


def per_layer(tracer: Tracer, rec: PassRecord, memory: PassRecord) -> dict:
    """Per-layer figures of one traced pass; memory peaks from the memory pass."""
    dur, own, calls, _, counts, max_diff = _sums(tracer, {r.op_id for r in rec.ops})
    peak = _sums(tracer, {r.op_id for r in memory.ops})[3]
    stored, true = counts["assembly.nnz_stored"], counts["assembly.nnz_true"]
    return {
        "assembly.assemble_s": dur["assembly.assemble"],
        "assembly.self_s": own["assembly.assemble"],
        "element.stiffness_s": dur["element.stiffness"],
        "element.load_s": dur["element.load"],
        "assembly.peak_mb": peak.get("assembly.assemble", 0.0),
        "assembly.nnz_stored": stored,
        "assembly.nnz_true": true,
        "assembly.stored_per_true": stored / true if true else 0.0,
        "assembly.bc_s": dur["assembly.bc"],
        "assembly.bc_peak_mb": peak.get("assembly.bc", 0.0),
        "assembly.dofs": counts["assembly.dofs"],
        "assembly.free_dofs": counts["assembly.free_dofs"],
        "assembly.nnz_red": counts["assembly.nnz_red"],
        "solve.solve_s": dur["solve.solve"],
        "solve.factor_s": dur["solve.factor"],
        "solve.lu_fill": counts["solve.lu_fill"],
        "solve.field_s": dur["solve.field"],
        "solve.moment_s": dur["solve.moment"],
        "element.locate_calls": calls["element.locate"],
        "element.locate_s": dur["element.locate"],
        "shapefn.basis_calls": calls["shapefn.basis"],
        "shapefn.basis_s": dur["shapefn.basis"],
        "geometry.partition_s": dur["geometry.partition"],
        "oracle.build_mono_s": dur["oracle.build_mono"],
        "oracle.equivalence_s": dur["oracle.equivalence"],
        "oracle.mono_elements": counts["oracle.mono_elements"],
        "oracle.max_diff": max_diff,
        "bench.twin_recount_s": dur["bench.twin_recount"],
        "bench.ref_mismatch_rows": sum(r.counts.get("mismatch_rows", 0) for r in rec.ops),
        "trace.spans": sum(calls.values()),
        "trace.wall_s": rec.wall,
    }


STAGES = ("assembly.assemble", "element.stiffness", "element.load",
          "assembly.bc", "solve.solve", "solve.factor", "solve.field",
          "solve.moment", "oracle.equivalence", "bench.twin_recount")
STAGE_COUNTS = ("assembly.dofs", "assembly.free_dofs", "assembly.nnz_stored",
                "assembly.nnz_true", "assembly.nnz_red", "solve.lu_fill")


def stage_lines(tracer: Tracer, rec: PassRecord, memory: PassRecord) -> list[str]:
    """Per-operation stage figures of one traced pass (zero stages left out)."""
    lines = []
    for r, m in list(zip(rec.ops, memory.ops))[:STAGE_LINES]:
        dur, _, _, _, counts, _ = _sums(tracer, {r.op_id})
        peak = _sums(tracer, {m.op_id})[3]
        parts = [f"op {r.seconds or 0.0:.3f} s"]
        for name in STAGES:
            if dur[name]:
                mem = f" (peak {peak[name]:.0f} MB)" if name in peak else ""
                parts.append(f"{name} {dur[name]:.3f} s{mem}")
        parts += [f"{name} {counts[name]}" for name in STAGE_COUNTS if counts[name]]
        lines.append(f"stage {r.label}: " + ", ".join(parts))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started us")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    setup_raw = time.monotonic() - args.spawned_at
    setup_s = setup_raw / burst(SETUP_BURST_S)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    runner = Runner(workload)
    if not args.trace:
        GAUGE.start()
    deadline = time.perf_counter() + args.seconds
    lines: list[str] = []
    if args.trace:
        warm = runner.one_pass()
        base = runner.one_pass()
        tracer = Tracer()
        with tracer.installed():
            traced = runner.passes_until(deadline, tracer)
            tracer.memory = True
            memory = runner.one_pass(tracer)
        passes = [warm, base] + traced + [memory]
        layers = [per_layer(tracer, p, memory) for p in traced]
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        metrics["trace.untraced_wall_s"] = base.wall
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base.wall
        lines += stage_lines(tracer, traced[0], memory)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        dump = tracer.dump()
        dump["op_labels"] = {r.op_id: r.label for p in passes for r in p.ops}
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump))
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        passes = runner.passes_until(deadline)
        GAUGE.stop()
        metrics, measured = end_to_end(passes, GAUGE)
        lines.append("as measured, in seconds: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in measured.items() if k != "op_samples"))
        lines.append(f"speed gauge: {len(GAUGE.walks)} samples, walk median "
                     f"{1e6 * statistics.median(GAUGE.walks):.1f} us, fastest "
                     f"{1e6 * min(GAUGE.walks):.1f} us, reference "
                     f"{1e6 * REFERENCE_S:.1f} us")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ref_mismatch_rows"] = sum(
            r.counts.get("mismatch_rows", 0) for r in passes[0].ops)

    mismatches = count_mismatches(passes)
    for bad in mismatches:
        print(f"COUNT MISMATCH {bad}", file=sys.stderr)
    records = [r for p in passes for r in p.ops]
    failed = sum(r.failure is not None for r in records)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and not mismatches,
        "count_mismatches": len(mismatches),
        "passes": len(passes),
        "metrics": metrics,
        "lines": lines,
        "header": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
