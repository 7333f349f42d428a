"""The benchmark's workloads: their operations and the checks on every output.

A workload is a fixed set of models; the seed chooses only the probe points
(``probe-grid``) or the order of the operations in a pass (``plate-m48``,
``refcases``).  Each operation is run by ``run`` (timed) and judged by
``check`` (untimed) against reference outputs recorded in ``refs/`` by
``record_refs.py``.  Library functions are looked up through their module
at call time, so that the tracer's wrappers see the benchmark's own calls.

An operation fails when it raises, when a probe value drifts from its
reference by more than ``PROBE_REL_TOL`` (the ROADMAP aim 2 gate), when
dofs or free dofs differ from the reference, when an equivalence row
exceeds ``EQUIVALENCE_TOL``, when node parity breaks, or when a
``refcases`` row changes its status.  The probe rows that ``refcases``
reports as ``mismatch`` against the library's stored tables are standing
findings: they are counted, not failed, as long as their status holds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import triplate.assembly
import triplate.bench
import triplate.solve

REFS = Path(__file__).resolve().parent / "refs"

PROBE_REL_TOL = 1e-12
EQUIVALENCE_TOL = 1e-9

#: probe-grid lattice: points are (X, Y) / LATTICE with integer X, Y; cell
#: lines of the m=24 square model fall on multiples of LATTICE // 24 = 7
LATTICE = 168
PROBE_M = 24
#: points drawn per seed: on cell nodes, on the shared element edge (between
#: nodes) and strictly inside cells; 45 + 22 + 158 = 225, so 20% / 10% / 70%
PROBE_DRAW = {"node": 45, "edge": 22, "interior": 158}
PLATE_M = 48
PLATE_CASES = ("square-ss", "skew-60")
PROBE_CASE = "square-clamped"
#: refcases runs the registry's (case, m) pairs up to this m: 11 of the 15,
#: every case, about 8 s a pass, so a 30 s run repeats each pair.  The other
#: four (m=12 and 16) would add 18 s, leave one sample of each pair per run,
#: and make the median operation time spread by a fifth from run to run.
REFCASES_MAX_M = 8


@dataclass
class Op:
    """One operation of a pass: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]     # reason for failure, or None
    counts: Callable[[Any], dict] = lambda out: {}
    measured: bool = True                  # part of the op latency metrics


def _load(name: str) -> dict:
    with open(REFS / f"{name}.json") as fh:
        return json.load(fh)


def _drift(value: float, ref: float, scale: float) -> str | None:
    if abs(value - ref) <= PROBE_REL_TOL * max(abs(ref), scale):
        return None
    return f"value {value!r} drifted from reference {ref!r}"


def solve_case(name: str, m: int):
    """Build, assemble, reduce and solve one registered case."""
    model = triplate.bench.benchmark_case(name).build(m)
    system = triplate.assembly.assemble(model)
    reduced = triplate.assembly.apply_boundary_conditions(system)
    return triplate.solve.solve_system(reduced)


def _system_counts(sol) -> dict:
    system = sol.system
    return {"dofs": system.n_dofs, "free_dofs": system.n_free,
            "nnz_stored": int(system.K.nnz), "nnz_red": int(system.K_red.nnz)}


def probe_point(sol, xy) -> list[float]:
    """w, thx, thy, mx, my, mxy at the lattice point xy."""
    p = (xy[0] / LATTICE, xy[1] / LATTICE)
    w, thx, thy = triplate.solve.field_eval(sol, p)
    mom = triplate.solve.moment_eval(sol, p)
    return [w, thx, thy, mom.mx, mom.my, mom.mxy]


def _check_dofs(sol, ref: dict) -> str | None:
    got = (sol.system.n_dofs, sol.system.n_free)
    want = (ref["dofs"], ref["free_dofs"])
    return None if got == want else f"dofs/free dofs {got} != reference {want}"


class PlateM48:
    """Solve square-ss and skew-60 at m=48 and evaluate each case's probes.

    One operation is one model, from building it to its last probe.
    """

    name = "plate-m48"

    def __init__(self, seed: int, m: int = PLATE_M, cases=PLATE_CASES, refs=None):
        self.m = m
        self.refs = _load(self.name)["cases"] if refs is None else refs
        self.cases = list(cases)
        np.random.default_rng(seed).shuffle(self.cases)

    def _run(self, name):
        sol = solve_case(name, self.m)
        probes = triplate.bench.benchmark_case(name).probes
        return sol, [float(p.evaluate(sol)) for p in probes]

    def _check(self, name, out) -> str | None:
        sol, values = out
        ref = self.refs[name]
        reason = _check_dofs(sol, ref)
        for value, want in zip(values, ref["probes"], strict=True):
            reason = reason or _drift(value, want, 0.0)
        return reason

    def ops(self) -> list[Op]:
        return [Op(name, lambda n=name: self._run(n),
                   lambda out, n=name: self._check(n, out),
                   lambda out: _system_counts(out[0]))
                for name in self.cases]


def probe_pool() -> dict[str, list[tuple[int, int]]]:
    """Candidate probe points of the unit square on the 1/168 lattice.

    Nodes are every m=24 grid node; edge points lie on the shared diagonal
    strictly between nodes; interior points avoid every cell line, so they
    take the single-cell path.  The interior pool is a fixed draw.
    """
    step = LATTICE // PROBE_M
    nodes = [(step * i, step * j) for j in range(PROBE_M + 1)
             for i in range(PROBE_M + 1)]
    edge = [(x, x) for x in range(1, LATTICE) if x % step]
    inside = [(x, y) for x in range(1, LATTICE) for y in range(1, LATTICE)
              if x % step and y % step and (x - y) % step]
    pick = np.random.default_rng(0).choice(len(inside), 600, replace=False)
    return {"node": nodes, "edge": edge,
            "interior": [inside[i] for i in sorted(pick)]}


class ProbeGrid:
    """Solve square-clamped at m=24 once per pass, then probe 225 points.

    The first operation of a pass is the solve; each further operation is
    one point's ``field_eval`` plus ``moment_eval``.
    """

    name = "probe-grid"

    def __init__(self, seed: int, m: int = PROBE_M, draw=None, refs=None):
        refs = _load(self.name) if refs is None else refs
        self.m = m
        self.refs = refs
        self.values = {tuple(p): v for p, v in zip(refs["points"], refs["values"])}
        vals = np.abs(np.array(refs["values"]))
        self.scale = vals.max(axis=0)
        pool = probe_pool()
        rng = np.random.default_rng(seed)
        points = []
        for kind, n in (PROBE_DRAW if draw is None else draw).items():
            idx = rng.choice(len(pool[kind]), n, replace=False)
            points.extend(pool[kind][i] for i in idx)
        order = rng.permutation(len(points))
        self.points = [points[i] for i in order]
        self.sol = None

    def _solve(self):
        self.sol = solve_case(PROBE_CASE, self.m)
        return self.sol

    def _check_probe(self, xy, out) -> str | None:
        ref = self.values[xy]
        for value, want, scale in zip(out, ref, self.scale):
            reason = _drift(value, want, scale)
            if reason:
                return f"point {xy}: {reason}"
        return None

    def ops(self) -> list[Op]:
        ops = [Op("solve", self._solve, lambda sol: _check_dofs(sol, self.refs),
                  _system_counts, measured=False)]
        ops += [Op(f"point {xy}", lambda xy=xy: probe_point(self.sol, xy),
                   lambda out, xy=xy: self._check_probe(xy, out))
                for xy in self.points]
        return ops


class RefCases:
    """``run_case`` with the oracle on, for the registry's (case, m) pairs.

    This is what ``run_benchmark()`` (``triplate bench all``) runs, timed one
    (case, m) at a time, for every case at its default scales up to
    ``REFCASES_MAX_M``; one operation is one (case, m).
    """

    name = "refcases"

    def __init__(self, seed: int, pairs=None, refs=None):
        self.refs = _load(self.name)["rows"] if refs is None else refs
        if pairs is None:
            pairs = [(name, m) for name, case in triplate.bench.CASES.items()
                     for m in case.default_ms if m <= REFCASES_MAX_M]
        self.pairs = list(pairs)
        order = np.random.default_rng(seed).permutation(len(self.pairs))
        self.pairs = [self.pairs[i] for i in order]

    @staticmethod
    def key(name: str, m: int) -> str:
        return f"{name}:{m}"

    def _check(self, name, m, rows) -> str | None:
        ref = self.refs[self.key(name, m)]
        if [r["quantity"] for r in rows] != [r["quantity"] for r in ref]:
            return f"{name} m={m}: rows {[r['quantity'] for r in rows]} differ"
        for row, want in zip(rows, ref):
            where = f"{name} m={m} {row['quantity']}"
            if row["status"] != want["status"]:
                return f"{where}: status {row['status']} != {want['status']}"
            if row["quantity"] == "equivalence_max_diff":
                if not row["value"] <= EQUIVALENCE_TOL:
                    return f"{where}: {row['value']} > {EQUIVALENCE_TOL}"
            elif row["quantity"] == "node_count_vs_conventional":
                if not row["value"] == row["expected"] == want["value"]:
                    return (f"{where}: {row['value']} nodes, twin {row['expected']},"
                            f" reference {want['value']}")
            else:
                reason = _drift(row["value"], want["value"], 0.0)
                if reason:
                    return f"{where}: {reason}"
        return None

    def ops(self) -> list[Op]:
        return [Op(self.key(name, m),
                   lambda n=name, m=m: triplate.bench.run_case(n, ms=(m,)),
                   lambda rows, n=name, m=m: self._check(n, m, rows),
                   lambda rows: {"mismatch_rows": sum(r["status"] == "mismatch"
                                                      for r in rows)})
                for name, m in self.pairs]


WORKLOADS = {cls.name: cls for cls in (PlateM48, ProbeGrid, RefCases)}
