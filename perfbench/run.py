"""triplate benchmark: one workload per call, metrics as described in BENCHMARK.json.

    python3 perfbench/run.py --workload plate-m48 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that has ``src/triplate``; the library is
imported from that source tree, nothing is installed.  Workloads:

* ``plate-m48``  -- square-ss and skew-60 at m=48: assembly, BC reduction
  and the solve dominate.
* ``probe-grid`` -- square-clamped at m=24 solved once per pass, then
  ``field_eval`` + ``moment_eval`` at 225 seed-drawn points.
* ``refcases``   -- ``run_case`` with the oracle on for the registry's
  (case, m) pairs up to m=8, the ``triplate bench all`` path.

The workload runs in a child process (``worker.py``) whose BLAS/OpenMP
pools are capped at ``nproc``.  With ``--trace 0`` the output holds the
``end_to_end`` metrics; ``setup_s`` is the median, over several fresh
processes, of the time from process start to the first timed operation.
These times are in reference seconds: measured seconds scaled by the
host's speed at the time, which a gauge samples all through the run
(``speed.py``), because other tenants of the host slow it by up to half
for tens of seconds.  The figures as measured are printed too.
With ``--trace 1`` it holds the ``per_layer`` metrics of a separate traced
run, including the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Self-tests: ``PYTHONPATH=src python3 -m pytest perfbench/tests``.  The
reference outputs every operation is checked against live in
``perfbench/refs`` and are written by ``perfbench/record_refs.py``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plate-m48", "probe-grid", "refcases")

#: fresh processes that only set up, besides the workload's own, for setup_s
SETUP_REPEATS = 4
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: workload-specific names of the per-operation metrics, printed besides them
ALIASES = {
    "plate-m48": [("solve_p50_s", "op_p50_ms", 1e-3, "s")],
    "probe-grid": [("probe_p50_ms", "op_p50_ms", 1.0, "ms"),
                   ("probe_p95_ms", "op_p95_ms", 1.0, "ms"),
                   ("probes_per_s", "ops_per_s", 1.0, "1/s")],
    "refcases": [("refcase_p50_s", "op_p50_ms", 1e-3, "s")],
}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        current = env.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(limit, nproc))
    return env


def run_child(args, env, setup_only: bool, timeout: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    last = proc.stdout.strip().splitlines()[-1:] if proc.stdout else []
    if proc.returncode != 0 or not last:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(last[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    start = time.monotonic()
    if not (ROOT / "src" / "triplate" / "__init__.py").is_file():
        print(f"no triplate source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    setups, setups_raw = [], []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            res = run_child(args, env, True, RUN_LIMIT_S - (time.monotonic() - start))
            if res is None:
                return 1
            setups.append(res["setup_s"])
            setups_raw.append(res["setup_raw_s"])
    res = run_child(args, env, False, RUN_LIMIT_S - (time.monotonic() - start))
    if res is None:
        return 1
    values = dict(res["metrics"])
    if not args.trace:
        setups.append(res["setup_s"])
        setups_raw.append(res["setup_raw_s"])
        values["setup_s"] = statistics.median(setups)

    header = dict(res["header"], workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, nproc=nproc,
                  threads={v: env[v] for v in THREAD_VARS},
                  passes=res["passes"], count_mismatches=res["count_mismatches"])
    if setups:
        header["setup_samples_s"] = setups
        header["setup_measured_s"] = setups_raw
    print("# header " + json.dumps(header))
    for line in res["lines"]:
        print("# " + line)

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    if not args.trace:
        for name, key, factor, unit in ALIASES[args.workload]:
            print(f"{name} = {values[key] * factor:.6g} {unit}"
                  f" (n={values['op_samples']})")
        if args.workload == "refcases":
            print(f"bench.ref_mismatch_rows = {values['ref_mismatch_rows']} count")
    print(f"failed_ops = {res['failed'] / res['attempted']:.6g}"
          f" ({res['failed']} of {res['attempted']} operations)")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
