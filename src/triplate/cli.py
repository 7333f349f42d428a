"""Command line interface: solve configs, run benchmarks, verify equivalence.

Subcommands:

* ``solve CONFIG``   solve the plate model described by a JSON config file,
  print a plain-text probe table and optionally write a JSON report.
* ``bench [CASE..]`` run built-in benchmark cases and emit the result table
  as CSV (default) or JSON.  The exit code is nonzero if any probe row
  disagrees with its frozen reference value.
* ``verify CONFIG``  rebuild the config's model from conventional per-cell
  elements and check that stiffness and solution match exactly.
* ``dev``            seeded randomized self-checks of the element core.

Config files are JSON and use SI units throughout: coordinates in metres,
E and q in pascals, point loads in newtons.  Nothing is rescaled on input;
dimensionless coefficients appear only in reports, and only when the config
carries a ``reporting.reference_length`` entry.  The schema is exported in
``CONFIG_SCHEMA`` and shipped as ``docs/config_schema.json``.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import bench
from .assembly import (BCKind, BoundaryCondition, Model,
                       apply_boundary_conditions, assemble)
from .element import MRElement, PlateMaterial, element_load_uniform, element_stiffness
from .errors import ConfigError, TriplateError
from .oracle import build_equivalent_mono, equivalence_check
from .solve import field_eval, moment_eval, normalize_coefficient, solve_system

_POINT = {
    "type": "array",
    "minItems": 2,
    "maxItems": 2,
    "items": {"type": "number"},
}

#: JSON schema for problem configs (SI units: m, Pa, N).
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "triplate problem configuration",
    "description": "Thin-plate bending model in SI units: coordinates in "
                   "metres, E and uniform_q in pascals, point loads in "
                   "newtons.  No implicit scaling is applied on input.",
    "type": "object",
    "additionalProperties": False,
    "required": ["material", "elements"],
    "properties": {
        "material": {
            "type": "object",
            "additionalProperties": False,
            "required": ["E", "t", "nu"],
            "properties": {
                "E": {"type": "number", "exclusiveMinimum": 0,
                      "description": "Young's modulus [Pa]"},
                "t": {"type": "number", "exclusiveMinimum": 0,
                      "description": "plate thickness [m]"},
                "nu": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.5,
                       "description": "Poisson ratio [-]"},
            },
        },
        "elements": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["vertices", "m"],
                "properties": {
                    "vertices": {
                        "type": "array", "minItems": 3, "maxItems": 3,
                        "items": _POINT,
                        "description": "triangle corners [m]",
                    },
                    "m": {"type": "integer", "minimum": 1,
                          "description": "resolution scale"},
                },
            },
        },
        "loads": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "uniform_q": {"type": "number",
                              "description": "transverse pressure [Pa]"},
                "point_loads": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["x", "y", "P"],
                        "properties": {
                            "x": {"type": "number"},
                            "y": {"type": "number"},
                            "P": {"type": "number",
                                  "description": "transverse force [N]"},
                        },
                    },
                },
            },
        },
        "bcs": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["edge", "kind"],
                "properties": {
                    "edge": {
                        "type": "array", "minItems": 2, "maxItems": 2,
                        "items": _POINT,
                        "description": "straight edge endpoints [m]",
                    },
                    "kind": {"enum": ["clamped", "simply_supported",
                                      "symmetry", "free"]},
                    "hard": {"type": "boolean",
                             "description": "also fix the tangential slope "
                                            "(simply_supported only)"},
                },
            },
        },
        "probes": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["x", "y", "quantity"],
                "properties": {
                    "x": {"type": "number"},
                    "y": {"type": "number"},
                    "quantity": {"enum": ["deflection", "moment_x",
                                          "moment_y", "moment_xy"]},
                },
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "merge_tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "reporting": {
            "type": "object",
            "additionalProperties": False,
            "required": ["reference_length"],
            "properties": {
                "reference_length": {
                    "type": "number", "exclusiveMinimum": 0,
                    "description": "span L [m] for the dimensionless "
                                   "coefficients 100 w D / (q L^4) and "
                                   "10 M / (q L^2)",
                },
            },
        },
    },
}

#: bench command shorthands for groups of registry cases
CASE_ALIASES = {
    "square": ("square-ss", "square-clamped"),
    "skew60": ("skew-60",),
    "circular": ("circle-clamped", "circle-ss"),
}

CSV_HEADER = ("case", "m", "rl_label", "quantity", "value",
              "expected", "tolerance", "status")


def load_config(path) -> dict:
    """Read and schema-validate a JSON problem config."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    # imported here: bench, dev and --help read no config
    import jsonschema
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(k) for k in exc.absolute_path) or "<root>"
        raise ConfigError(f"config {path}: {exc.message} (at {where})") from exc
    return cfg


def build_model(cfg: dict, hard_ss: bool = False) -> Model:
    """Instantiate the model a validated config describes."""
    material = PlateMaterial(**cfg["material"])
    solver = cfg.get("solver", {})
    elements = [
        MRElement.from_vertices(*(np.asarray(v, dtype=float)
                                  for v in spec["vertices"]),
                                spec["m"], material)
        for spec in cfg["elements"]
    ]
    loads = cfg.get("loads", {})
    point_loads = [(p["x"], p["y"], p["P"])
                   for p in loads.get("point_loads", [])]
    bcs = [
        BoundaryCondition(edge=np.asarray(b["edge"], dtype=float),
                          kind=BCKind(b["kind"]),
                          hard=b.get("hard", False) or (
                              hard_ss and b["kind"] == "simply_supported"))
        for b in cfg.get("bcs", [])
    ]
    return Model(elements=elements,
                 uniform_q=loads.get("uniform_q", 0.0),
                 point_loads=point_loads,
                 bcs=bcs,
                 merge_tolerance=solver.get("merge_tolerance"))


def _probe_value(sol, probe: dict) -> float:
    p = (probe["x"], probe["y"])
    quantity = probe["quantity"]
    if quantity == "deflection":
        return float(field_eval(sol, p)[0])
    triple = moment_eval(sol, p)
    return float({"moment_x": triple.mx, "moment_y": triple.my,
                  "moment_xy": triple.mxy}[quantity])


def solve_report(cfg: dict, model: Model) -> dict:
    """Assemble, solve and evaluate all probes of a config."""
    system = apply_boundary_conditions(assemble(model))
    sol = solve_system(system)

    q = model.uniform_q
    ref_length = cfg.get("reporting", {}).get("reference_length")
    rigidity = model.elements[0].material.rigidity

    probes = []
    for probe in cfg.get("probes", []):
        value = _probe_value(sol, probe)
        normalized = None
        if ref_length is not None and q != 0.0:
            kind = ("deflection" if probe["quantity"] == "deflection"
                    else "moment")
            normalized = normalize_coefficient(value, kind, ref_length, q,
                                               rigidity)
        probes.append({
            "x": float(probe["x"]), "y": float(probe["y"]),
            "quantity": probe["quantity"],
            "value": value, "normalized": normalized,
        })

    return {
        "elements": [{"m": e.m, "rl_label": bench.rl_label(e.m),
                      "nodes": e.node_count} for e in model.elements],
        "dof_counts": {"nodes": system.n_nodes, "total": system.n_dofs,
                       "free": system.n_free},
        "residual": float(sol.residual),
        "probes": probes,
    }


def render_solve_table(report: dict) -> str:
    """Plain-text view of a solve report, 6 significant digits."""
    counts = report["dof_counts"]
    lines = [
        "elements: " + ", ".join(f"m={e['m']} ({e['rl_label']})"
                                 for e in report["elements"]),
        f"nodes {counts['nodes']}  dofs {counts['total']}  "
        f"free {counts['free']}  residual {report['residual']:.6g}",
    ]
    if report["probes"]:
        lines.append(f"{'quantity':<12} {'x':>10} {'y':>10} "
                     f"{'value':>14} {'normalized':>14}")
        for p in report["probes"]:
            norm = "-" if p["normalized"] is None else f"{p['normalized']:.6g}"
            lines.append(f"{p['quantity']:<12} {p['x']:>10.6g} "
                         f"{p['y']:>10.6g} {p['value']:>14.6g} {norm:>14}")
    else:
        lines.append("no probes defined")
    return "\n".join(lines) + "\n"


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _bench_output_rows(rows: list) -> list:
    """CLI-facing row dicts: library key ``rl`` becomes ``rl_label``."""
    out = []
    for row in rows:
        item = {key: row[key] for key in
                ("case", "m", "quantity", "value", "expected",
                 "tolerance", "status")}
        item["rl_label"] = row["rl"]
        out.append(item)
    return out


def render_bench_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in _bench_output_rows(rows):
        writer.writerow([
            row["case"], row["m"], row["rl_label"], row["quantity"],
            repr(float(row["value"])),
            "" if row["expected"] is None else repr(float(row["expected"])),
            "" if row["tolerance"] is None else repr(float(row["tolerance"])),
            row["status"],
        ])
    return buf.getvalue()


def resolve_case_names(names: list) -> list:
    """Expand aliases, validate against the registry, keep order, dedupe."""
    resolved = []
    for name in names:
        if name == "all":
            group = tuple(bench.CASES)
        else:
            group = CASE_ALIASES.get(name, (name,))
        for case_name in group:
            bench.benchmark_case(case_name)
            if case_name not in resolved:
                resolved.append(case_name)
    return resolved


def _write_or_print(text: str, out_path, summary: str | None = None) -> None:
    if out_path:
        Path(out_path).write_text(text)
        if summary:
            print(summary)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg, args.hard_ss)
    report = solve_report(cfg, model)
    if args.out:
        _write_or_print(_json_dumps(report), args.out)
        sys.stdout.write(render_solve_table(report))
    elif args.format == "json":
        sys.stdout.write(_json_dumps(report))
    else:
        sys.stdout.write(render_solve_table(report))
    return 0


def cmd_bench(args) -> int:
    names = resolve_case_names(args.cases or ["all"])
    report = bench.run_benchmark(names, ms=args.m, hard_ss=args.hard_ss)
    rows = report["rows"]
    bad = sum(1 for r in rows if r["status"] == "mismatch")
    if args.format == "json":
        text = _json_dumps({"rows": _bench_output_rows(rows)})
    else:
        text = render_bench_csv(rows)
    _write_or_print(text, args.out,
                    f"{len(rows)} rows, {bad} mismatch -> {args.out}")
    return 0 if bad == 0 else 1


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg, args.hard_ss)
    mono = build_equivalent_mono(model)
    if args.perturb_k:
        # negative control: nudge the refinable model's stiffness so the
        # comparison against the unperturbed conventional twin must fail
        mat = model.elements[0].material
        bumped = PlateMaterial(mat.E * (1.0 + 1e-6), mat.t, mat.nu)
        model = dataclasses.replace(model, elements=[
            dataclasses.replace(e, material=bumped) for e in model.elements])
    report = equivalence_check(model, mono)
    lines = [
        f"nodes {report.node_count}  dofs {report.dof_count}  "
        f"conventional elements {report.mono_element_count}",
        f"max stiffness diff {report.max_K_diff:.6g} (relative)",
        f"max solution diff {report.max_solution_diff:.6g} (relative)",
        f"{'PASS' if report.ok else 'FAIL'} (tolerance {report.tolerance:g})",
    ]
    text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out, lines[-1])
    return 0 if report.ok else 1


def _twice_area(verts: np.ndarray) -> float:
    u, v = verts[1] - verts[0], verts[2] - verts[0]
    return float(u[0] * v[1] - u[1] * v[0])


def _random_triangle(rng: np.random.Generator) -> np.ndarray:
    verts = rng.uniform(-1.0, 1.0, (3, 2))
    while abs(_twice_area(verts)) < 0.3:
        verts = rng.uniform(-1.0, 1.0, (3, 2))
    return verts


def _check_rigid_modes(rng: np.random.Generator) -> tuple[bool, str]:
    """K times any rigid displacement must vanish on a random element."""
    worst = 0.0
    for _ in range(3):
        verts = _random_triangle(rng)
        m = int(rng.integers(1, 4))
        elem = MRElement.from_vertices(*verts, m, bench.UNIT_RIGIDITY_MATERIAL)
        K = element_stiffness([elem]).toarray()
        pos = elem.node_positions_local()
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        d = np.empty(3 * len(pos))
        d[0::3] = a + b * pos[:, 0] + c * pos[:, 1]
        d[1::3] = c
        d[2::3] = -b
        worst = max(worst, float(np.abs(K @ d).max() / np.abs(K).max()))
    return worst < 1e-10, f"max rigid-mode residual {worst:.3g}"


def _check_load_totals(rng: np.random.Generator) -> tuple[bool, str]:
    """Uniform load components must sum to q times the element area."""
    worst = 0.0
    for _ in range(3):
        verts = _random_triangle(rng)
        m = int(rng.integers(1, 4))
        q = float(rng.uniform(0.5, 2.0))
        elem = MRElement.from_vertices(*verts, m, bench.UNIT_RIGIDITY_MATERIAL)
        f = element_load_uniform([elem], q)
        area = 0.5 * abs(_twice_area(verts))
        worst = max(worst, abs(float(f[0::3].sum()) - q * area) / (q * area))
    return worst < 1e-12, f"max load-total error {worst:.3g}"


def _check_superposition(rng: np.random.Generator) -> tuple[bool, str]:
    """Solutions of two point loads must add up to the combined solution."""
    loads = [(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.2, 0.4)),
              float(rng.uniform(0.5, 2.0))) for _ in range(2)]

    def solve(pls):
        model = bench.benchmark_case("square-clamped").build(2)
        model = dataclasses.replace(model, uniform_q=0.0, point_loads=pls)
        return solve_system(apply_boundary_conditions(assemble(model))).dofs

    combined = solve(loads)
    split = solve(loads[:1]) + solve(loads[1:])
    scale = max(float(np.abs(combined).max()), 1e-300)
    diff = float(np.abs(combined - split).max() / scale)
    return diff < 1e-9, f"superposition diff {diff:.3g}"


def cmd_dev(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = [
        ("rigid-modes", _check_rigid_modes),
        ("load-totals", _check_load_totals),
        ("superposition", _check_superposition),
    ]
    all_ok = True
    for name, check in checks:
        ok, detail = check(rng)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return 0 if all_ok else 1


def _parse_m_list(text: str):
    try:
        ms = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers, got {text!r}") from None
    if not ms or any(m < 1 for m in ms):
        raise argparse.ArgumentTypeError("scales must be integers >= 1")
    return ms


def _add_model_flags(parser):
    parser.add_argument("--out", metavar="PATH",
                        help="write the output to this file")
    parser.add_argument("--hard-ss", action="store_true",
                        help="also fix the tangential edge slope on every "
                        "simply supported edge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplate",
        description="Multiresolution triangular plate bending: solve JSON "
                    "configs, run benchmark tables, verify the conventional "
                    "equivalence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="solve a JSON problem config",
        description="Solve the model in CONFIG.  Prints a plain-text probe "
                    "table; with --out the full-precision JSON report is "
                    "written there as well.")
    p_solve.add_argument("config", help="path to a JSON config file")
    p_solve.add_argument("--format", choices=("table", "json"),
                         default="table",
                         help="stdout format when --out is not given")
    _add_model_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser(
        "bench", help="run built-in benchmark cases",
        description="Known cases: " + ", ".join(sorted(bench.CASES))
                    + "; aliases: "
                    + ", ".join(f"{k} -> {'+'.join(v)}"
                                for k, v in sorted(CASE_ALIASES.items()))
                    + "; default: all cases.")
    p_bench.add_argument("cases", nargs="*", metavar="CASE",
                         help="case names or aliases (default: all)")
    p_bench.add_argument("--m", type=_parse_m_list, default=None,
                         metavar="LIST",
                         help="comma separated scales, e.g. 2,4,8,16 "
                         "(default: per-case list)")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_model_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser(
        "verify", help="check a config against the conventional assembly",
        description="Build the config's model, rebuild it from one "
                    "conventional element per refinement cell, and compare "
                    "stiffness and solution.  Exit 0 iff they match.")
    p_verify.add_argument("config", help="path to a JSON config file")
    p_verify.add_argument("--perturb-k", action="store_true",
                          help="test hook: perturb the stiffness so the "
                          "check must fail")
    _add_model_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_dev = sub.add_parser(
        "dev", help="seeded randomized self-checks",
        description="Randomized element-level property checks: rigid-body "
                    "modes, load totals, superposition.")
    p_dev.add_argument("--seed", type=int, default=0)
    p_dev.set_defaults(func=cmd_dev)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TriplateError as exc:
        # str(KeyError) wraps the message in quotes; take the bare payload
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
