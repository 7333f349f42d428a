"""Record the reference outputs that the benchmark checks every run against.

    PYTHONPATH=src python3 perfbench/record_refs.py

Writes ``perfbench/refs/*.json``.  The committed files were recorded from
the seed implementation; re-record only when a change is meant to alter
results, and say so where the change is described.
"""
from __future__ import annotations

import json

import triplate.bench

from workloads import (PLATE_CASES, PLATE_M, PROBE_CASE, PROBE_M, REFS,
                       RefCases, probe_point, probe_pool, solve_case)


def _sizes(sol) -> dict:
    return {"dofs": sol.system.n_dofs, "free_dofs": sol.system.n_free}


def plate() -> dict:
    cases = {}
    for name in PLATE_CASES:
        sol = solve_case(name, PLATE_M)
        probes = triplate.bench.benchmark_case(name).probes
        cases[name] = dict(_sizes(sol), probes=[float(p.evaluate(sol)) for p in probes])
    return {"m": PLATE_M, "cases": cases}


def probe() -> dict:
    sol = solve_case(PROBE_CASE, PROBE_M)
    pool = probe_pool()
    points = [xy for kind in ("node", "edge", "interior") for xy in pool[kind]]
    return dict(_sizes(sol), case=PROBE_CASE, m=PROBE_M, points=points,
                values=[probe_point(sol, xy) for xy in points])


def refcases() -> dict:
    rows: dict[str, list] = {}
    for row in triplate.bench.run_benchmark()["rows"]:
        rows.setdefault(RefCases.key(row["case"], row["m"]), []).append(row)
    return {"rows": rows}


def main() -> None:
    REFS.mkdir(exist_ok=True)
    for name, make in (("plate-m48", plate), ("probe-grid", probe),
                       ("refcases", refcases)):
        (REFS / f"{name}.json").write_text(json.dumps(make()) + "\n")
        print(f"wrote {REFS / name}.json")


if __name__ == "__main__":
    main()
