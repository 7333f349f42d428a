"""Bit-identity digests of what triplate computes, for comparing two trees.

Prints one line per item, ``<sha256>  <name>``, for:

* ``K``, ``rhs``, ``K_red``, ``rhs_red`` and the solution of every registry
  case at m = 1, 3 and its default scales, and of square-ss and skew-60 at
  m = 48;
* ``K`` and ``rhs`` of each of those models' conventional twin, assembled
  by ``assemble(build_equivalent_mono(model).model)`` (``twin``) and by the
  oracle's own ``_assemble_twin`` (``oracle twin``), not at m = 48;
* ``rhs``, solution, twin ``rhs`` and oracle twin ``rhs`` of every registry
  model at m = 1 and 3 with its uniform load replaced by one point load, in
  turn inside a cell, on a cell edge, at a grid node and on the edge its two
  elements share (`point_load_sites`);
* ``field_eval`` and ``moment_eval`` at every point of the probe-grid pool
  (``perfbench/workloads.py``), one digest for all;
* the ``run_case`` rows of every case at its default scales;
* the ``solve`` (table and JSON) and ``verify`` outputs and exit codes of
  the CLI for the demo configs with every element at m = 1 and 4, and the
  ``bench`` (CSV) output of every case at m = 1 and 4.

Run it once per tree and compare the outputs::

    PYTHONPATH=<other tree>/src python tests/digests.py > digests.txt
    PYTHONPATH=src python tests/digests.py --against digests.txt

``--against FILE`` prints, instead of the digests, each item whose digest
differs from the one FILE holds for it (``differs:``), that FILE lacks
(``new:``) or that FILE holds and this run does not print (``missing:``),
then a count, and exits 1 if there is any; compare runs made with the same
``--case``, ``--m`` and ``--upstream``.  ``--case`` and ``--m`` (both
repeatable) restrict the cases and scales; the digests of one item do not
depend on which others are printed.

``--upstream`` keeps only the items computed before any factorization:
``K``, ``rhs``, ``K_red`` and ``rhs_red``, also of the twins and the
oracle twins and of the point-load models.  They show where a BLAS kernel
moves the bits of the assembly itself.  OpenBLAS picks its kernel from the
CPU; ``OPENBLAS_CORETYPE`` chooses another for one process, so setting it
in the environment of the second run only compares the two kernels on
this host::

    PYTHONPATH=src python tests/digests.py --upstream > upstream.txt
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/digests.py \
        --upstream --against upstream.txt
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from triplate import (CASES, TriplateError, apply_boundary_conditions, assemble,
                      build_equivalent_mono, cli, field_eval, moment_eval, run_case,
                      solve_system)
from triplate.oracle import _assemble_twin

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.json"))
#: the cases also digested at m = 48, as the plate-m48 workload runs them
LARGE_M_CASES = ("square-ss", "skew-60")
#: the last word of the name of each item `--upstream` keeps
UPSTREAM = ("K", "rhs", "K_red", "rhs_red")


def is_upstream(item: str) -> bool:
    """Whether the item is one the LU does not see: a matrix or load vector."""
    return item.rsplit(" ", 1)[-1] in UPSTREAM


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and strings, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            a = np.asarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def sparse(K) -> tuple:
    return K.data, K.indices, K.indptr


def case_scales(name: str) -> list[int]:
    ms = {1, 3, *CASES[name].default_ms}
    if name in LARGE_M_CASES:
        ms.add(48)
    return sorted(ms)


def model_digests(name: str, m: int):
    """(item, digest) of one registry model and, below m = 48, its twin."""
    model = CASES[name].build(m)
    system = apply_boundary_conditions(assemble(model))
    sol = solve_system(system)
    where = f"{name} m={m}"
    yield f"{where} K", digest(*sparse(system.K))
    yield f"{where} rhs", digest(system.rhs)
    yield f"{where} K_red", digest(*sparse(system.K_red))
    yield f"{where} rhs_red", digest(system.rhs_red)
    yield f"{where} solution", digest(sol.dofs)
    if m < 48:
        mono = build_equivalent_mono(model)
        for kind, twin in (("twin", assemble(mono.model)),
                           ("oracle twin", _assemble_twin(mono))):
            yield f"{where} {kind} K", digest(*sparse(twin.K))
            yield f"{where} {kind} rhs", digest(twin.rhs)


def point_load_sites(model) -> dict:
    """Global points of each kind of point-load site of a two-element model:
    inside the last cell, on an edge of the first cell and at a grid node
    of the first element, and on the edge the two elements share."""
    elem = model.elements[0]
    frame, cells = elem.frame, elem.partition()
    local = {"cell": np.array([0.2, 0.3, 0.5]) @ cells[-1],
             "cell edge": 0.7 * cells[0][1] + 0.3 * cells[0][2],
             "grid node": elem.node_positions_local()[elem.node_count // 2]}
    sites = {kind: frame.to_global(p) for kind, p in local.items()}
    first, second = (el.frame.to_global(el.frame.local_vertices())
                     for el in model.elements[:2])
    shared = [v for v in first if np.isclose(second, v).all(axis=1).any()]
    sites["element edge"] = 0.6 * shared[0] + 0.4 * shared[1]
    return sites


def point_load_digests(name: str, m: int):
    """(item, digest) of the rhs, the solution, the twin's rhs and the
    oracle twin's rhs of one registry model with one point load P = 0.7 at
    each `point_load_sites` site in turn, and no uniform load."""
    model = CASES[name].build(m)
    for kind, (x, y) in point_load_sites(model).items():
        loaded = dataclasses.replace(model, uniform_q=0.0, point_loads=[(x, y, 0.7)])
        system = apply_boundary_conditions(assemble(loaded))
        where = f"{name} m={m} point load on {kind}"
        yield f"{where} rhs", digest(system.rhs)
        yield f"{where} solution", digest(solve_system(system).dofs)
        mono = build_equivalent_mono(loaded)
        yield f"{where} twin rhs", digest(assemble(mono.model).rhs)
        yield f"{where} oracle twin rhs", digest(_assemble_twin(mono).rhs)


def pool_digest() -> str:
    """One digest of field_eval and moment_eval at every probe-grid pool
    point, in pool order; a probe that raises contributes its message."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import LATTICE, PROBE_CASE, PROBE_M, probe_pool, solve_case
    finally:
        sys.path.pop(0)
    sol = solve_case(PROBE_CASE, PROBE_M)
    parts = []
    for kind, points in probe_pool().items():
        for x, y in points:
            p = (x / LATTICE, y / LATTICE)
            try:
                mom = moment_eval(sol, p)
                values = [*field_eval(sol, p), mom.mx, mom.my, mom.mxy]
                parts.append(np.array(values))
            except TriplateError as exc:
                parts.append(f"{kind} {p}: {type(exc).__name__}: {exc}")
    return digest(*parts)


def cli_output(argv) -> str:
    """Exit code, standard output and standard error of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}\n--\n{err.getvalue()}"


def cli_digests(names, ms):
    """(item, digest) of the CLI: solve, solve --format json and verify of
    each demo config with every element at each m, and bench CSV of each
    case at each m."""
    with tempfile.TemporaryDirectory() as tmp:
        for path in DEMO_CONFIGS:
            config = json.loads(path.read_text())
            for m in ms:
                for element in config["elements"]:
                    element["m"] = m
                scaled = os.path.join(tmp, f"{path.stem}.m{m}.json")
                Path(scaled).write_text(json.dumps(config))
                for argv in (["solve", scaled], ["solve", scaled, "--format", "json"],
                             ["verify", scaled]):
                    yield f"cli {' '.join(argv[:1] + argv[2:])} {path.name} m={m}", \
                        digest(cli_output(argv))
    for name in names:
        for m in ms:
            argv = ["bench", name, "--m", str(m)]
            yield f"cli {' '.join(argv)}", digest(cli_output(argv))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--case", action="append", choices=sorted(CASES),
                    help="a registry case (default: all)")
    ap.add_argument("--m", action="append", type=int,
                    help="a scale (default: each case's scales, see above)")
    ap.add_argument("--against", metavar="FILE",
                    help="print the items that differ from this saved run")
    ap.add_argument("--upstream", action="store_true",
                    help="only K, rhs, K_red and rhs_red (see above)")
    args = ap.parse_args(argv)
    names = args.case or list(CASES)
    saved = None
    if args.against:
        lines = Path(args.against).read_text().splitlines()
        saved = {item: value for value, item in (line.split("  ", 1) for line in lines)
                 if not args.upstream or is_upstream(item)}
    differ, printed = [], set()

    def emit(item, value):
        if args.upstream and not is_upstream(item):
            return
        printed.add(item)
        if saved is None:
            print(f"{value}  {item}", flush=True)
        elif saved.get(item) != value:
            differ.append(item)
            print(f"{'differs' if item in saved else 'new'}: {item}", flush=True)

    for name in names:
        for m in args.m or case_scales(name):
            for item, value in model_digests(name, m):
                emit(item, value)
        for m in args.m or [1, 3]:
            for item, value in point_load_digests(name, m):
                emit(item, value)
    if not args.upstream:
        emit("probe-grid pool", pool_digest())
        for name in names:
            ms = args.m or CASES[name].default_ms
            emit(f"run_case {name} m={list(ms)}", digest(json.dumps(run_case(name, ms))))
        for item, value in cli_digests(names, args.m or [1, 4]):
            emit(item, value)
    if saved is None:
        return 0
    for item in [item for item in saved if item not in printed]:
        differ.append(item)
        print(f"missing: {item}")
    print(f"{len(differ)} of {len(printed | saved.keys())} items differ "
          f"from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
