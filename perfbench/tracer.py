"""In-memory span tracer that wraps triplate's layer boundaries from outside.

Each span records name, start, end, parent span and operation id.  The
tracer does not edit the library: it replaces, for the duration of a
``with tracer.installed():`` block, the names each triplate module imports
from the layer below (``triplate.assembly.element_stiffness``,
``triplate.solve.locate_subtriangle``, ``triplate.bench.assemble`` ...)
with wrappers that open a span around the call, and puts the originals
back on exit.

``tracemalloc`` runs only while ``memory`` is set, and then only inside the
model-level ``assembly.assemble`` and ``assembly.bc`` spans (those not
nested in the oracle or in the twin node recount): it slows the m=48
assembly by a third, and tracing every allocation of the oracle's
thousands of one-cell elements would make a ``refcases`` pass several
times slower.
Sizes such as nnz and LU fill are taken after the wrapped call returns,
inside a ``trace.count`` span, so self times of the enclosing spans do not
absorb them.
"""
from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import Counter

import numpy as np
import scipy.sparse.linalg as spla

import triplate.assembly
import triplate.bench
import triplate.element
import triplate.oracle
import triplate.solve

_MB = 1024.0 * 1024.0

#: spans below which a call is not a model-level call of the workload
_ORACLE_SPANS = ("oracle.equivalence", "oracle.build_mono", "bench.twin_recount")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "peak_mb")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.peak_mb = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _FactorModule:
    """Stands in for ``scipy.sparse.linalg`` inside ``triplate.solve`` so
    that ``splu`` is traced; every other name resolves to the real module."""

    def __init__(self, splu):
        self.splu = splu

    def __getattr__(self, name):
        return getattr(spla, name)


class Tracer:
    """Collects spans and per-operation counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_counts: dict[int, Counter] = {}
        self.op_max: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._op = -1
        self._twin_model = None
        self.memory = False

    # -- recording ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, mem: bool = False):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, 0.0, parent, self._op)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        if mem:
            tracemalloc.start()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if mem:
                sp.peak_mb = tracemalloc.get_traced_memory()[1] / _MB
                tracemalloc.stop()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int, name: str):
        """Top-level span of one benchmark operation; children inherit op_id."""
        self._op = op_id
        self.op_counts[op_id] = Counter()
        self.op_max[op_id] = {}
        try:
            with self.span(name):
                yield
        finally:
            self._op = -1

    def count(self, key: str, value=1) -> None:
        if self._op >= 0:
            self.op_counts[self._op][key] += value

    def maximum(self, key: str, value: float) -> None:
        if self._op >= 0:
            seen = self.op_max[self._op]
            seen[key] = max(seen.get(key, value), value)

    def model_level(self) -> bool:
        """True unless the current call is nested in the oracle or twin recount."""
        return not any(self.spans[i].name in _ORACLE_SPANS for i in self._stack)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name, after=None, mem=False, name_for=None):
        def wrapper(*args, **kwargs):
            span_name = name_for(args) if name_for else name
            top = self.model_level() and span_name not in _ORACLE_SPANS
            self.count(f"calls.{span_name}")
            with self.span(span_name, mem=mem and top and self.memory):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span("trace.count"):
                    after(result, top)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _after_assemble(self, system, top):
        if top:
            self.count("assembly.dofs", system.n_dofs)
            self.count("assembly.nnz_stored", int(system.K.nnz))
            self.count("assembly.nnz_true", int(np.count_nonzero(system.K.data)))

    def _after_bc(self, system, top):
        if top:
            self.count("assembly.free_dofs", system.n_free)
            self.count("assembly.nnz_red", int(system.K_red.nnz))

    def _after_solve(self, sol, top):
        if top and sol.system.K_red.shape[0] > 0:
            lu = spla.splu(sol.system.K_red.tocsc())
            self.count("solve.lu_fill", int(lu.L.nnz + lu.U.nnz))

    def _after_mono(self, mono, top):
        self._twin_model = mono.model

    def _after_equivalence(self, report, top):
        self.count("oracle.mono_elements", report.mono_element_count)
        self.maximum("oracle.max_diff",
                     max(report.max_K_diff, report.max_solution_diff))

    def _bench_assemble_name(self, args):
        return "bench.twin_recount" if args and args[0] is self._twin_model \
            else "assembly.assemble"

    def _targets(self):
        asm, bc, sol = self._after_assemble, self._after_bc, self._after_solve
        return [
            # (module, attribute, span name, after hook, tracemalloc, namer)
            (triplate.assembly, "assemble", "assembly.assemble", asm, True, None),
            (triplate.bench, "assemble", None, asm, True, self._bench_assemble_name),
            (triplate.oracle, "assemble", "assembly.assemble", asm, True, None),
            (triplate.assembly, "apply_boundary_conditions", "assembly.bc", bc, True, None),
            (triplate.bench, "apply_boundary_conditions", "assembly.bc", bc, True, None),
            (triplate.oracle, "apply_boundary_conditions", "assembly.bc", bc, True, None),
            (triplate.assembly, "element_stiffness", "element.stiffness", None, False, None),
            (triplate.assembly, "element_load_uniform", "element.load", None, False, None),
            (triplate.element, "subtriangle_partition", "geometry.partition", None, False, None),
            (triplate.element, "subtriangle_basis", "shapefn.basis", None, False, None),
            (triplate.solve, "subtriangle_basis", "shapefn.basis", None, False, None),
            (triplate.solve, "locate_subtriangle", "element.locate", None, False, None),
            (triplate.solve, "solve_system", "solve.solve", sol, False, None),
            (triplate.bench, "solve_system", "solve.solve", sol, False, None),
            (triplate.oracle, "solve_system", "solve.solve", sol, False, None),
            (triplate.solve, "field_eval", "solve.field", None, False, None),
            (triplate.bench, "field_eval", "solve.field", None, False, None),
            (triplate.solve, "moment_eval", "solve.moment", None, False, None),
            (triplate.bench, "moment_eval", "solve.moment", None, False, None),
            (triplate.bench, "equivalence_check", "oracle.equivalence",
             self._after_equivalence, False, None),
            (triplate.bench, "build_equivalent_mono", "oracle.build_mono",
             self._after_mono, False, None),
            (triplate.oracle, "build_equivalent_mono", "oracle.build_mono", None, False, None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        saved = []
        try:
            for module, attr, name, after, mem, namer in self._targets():
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), name,
                                                 after, mem, namer))
            saved.append((triplate.solve, "spla", triplate.solve.spla))
            triplate.solve.spla = _FactorModule(self._wrap(spla.splu, "solve.factor"))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                out[sp.parent] -= sp.duration
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op", "peak_mb"],
            "spans": [[s.name, s.start, s.end, s.parent, s.op, s.peak_mb]
                      for s in self.spans],
            "op_counts": {str(k): dict(v) for k, v in self.op_counts.items()},
            "op_max": {str(k): v for k, v in self.op_max.items()},
        }
