"""Conventional-element oracle for the multiresolution formulation.

Every sub-triangle of every element becomes one conventional cubic
plate-bending element (resolution 1) on its own canonical frame.  The
resulting model must match the multiresolution one exactly: same merged
nodes, same global stiffness up to a node permutation, same solution.

The conventional twin is assembled in one stacked pass over its cells
(`geometry.canonicalize_triangles` gives every cell its frame).  Each cell
is integrated from its BCIZ cubics, written out in area coordinates at the
quadrature points.  The oracle keeps these 9x9 cell matrices and load
vectors in a table of its own, `_cell_table`, keyed by the float64 bytes of
each cell's canonical local vertices, rigidity D and load q and bounded at
`CELL_TABLE_BOUND` entries: a process integrates each distinct cell once
(see `_distinct_cell_integrals`).  The integrals are gathered back to every
cell, each 3x3 node block is rotated to global axes and the whole twin is
scattered as one COO matrix.  Of the multiresolution path it shares the
node merge (`assembly._merge_nodes`), though not the mesh plans that
`assemble` keeps (`assembly._mesh_table`), and, for point loads, the
owning-element search and `element_load_point` of its m = 1 elements,
besides the quadrature table, the material law, barycentric coordinates
and the `shapefn.LRUTable` container: not the basis kernel, nor its cell
partition, cell-dof map, integral table (`element._integral_table`),
element matrices or their rotation to global axes.

`equivalence_check` assembles the multiresolution model itself.  A caller
that has already solved that model may pass its `Solution`: the check then
reads the multiresolution dofs from it in place of a second reduction and
solve, but only when the solution's system is of the same model, reduced
with the model's own boundary conditions, and has, bit for bit, the K and
rhs of the check's own assembly; otherwise it raises ValueError.  The twin
is always reduced and solved by the check itself.  The two stiffness
matrices are compared in one sparse build of the multiresolution entries
and the negated, permuted twin entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .assembly import (GlobalSystem, Model, _element_stack, _merge_nodes,
                       _merge_tolerance, _owning_element, apply_boundary_conditions,
                       assemble)
from .element import QUADRATURE_DEGREE, MRElement, bending_rigidity, element_load_point
from .errors import PermutationNotFound
from .geometry import (CanonicalFrames, LocalFrame, barycentric_coeffs,
                       canonicalize_triangles, pairs_within)
from .quadrature import triangle_rule
from .shapefn import LRUTable
from .solve import Solution, solve_system

#: agreement bound of the equivalence check, on stiffness and solution
EQUIVALENCE_TOL = 1e-9

#: cells per pass of `_cell_integrals`, whose temporaries peak near 5.6 MB at 256
_CHUNK = 256

#: entries `_cell_table` keeps, about 1.2 KB each with their keys, or the
#: distinct cells of the latest `_distinct_cell_integrals` that integrates
#: if those are more
CELL_TABLE_BOUND = 1024

#: the (stiffness (9, 9), load (9,)) of every cell integrated, keyed by
#: the bytes of its (local, D, q), least recently used first.  The
#: oracle's own: it shares no entry with `element._integral_table`
_cell_table = LRUTable(CELL_TABLE_BOUND)

#: the distinct second derivatives d2/dL_a dL_b, a <= b
_A, _B = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]


def _cubic_tables(L: np.ndarray, wq: np.ndarray):
    """Loads over a unit area (4, 3, 1, 1) and distinct L-space second
    derivatives (6, 4, 1, n, 3, 1), per slot and vertex i, of the BCIZ cubics
    at the points L (n, 3) of weights wq, (j, k) = (i + 1, i + 2) mod 3: slot
    0 is N_i = L_i + L_i^2 (L_j + L_k) - L_i (L_j^2 + L_k^2), slot 1 + m the
    cubic that g_m multiplies in the rotation function -g_k L_i^2 L_j +
    g_j L_i^2 L_k + (g_j - g_k) L_i L_j L_k / 2 of g = b or c."""
    value, hess = np.zeros((4, 3, len(L))), np.zeros((3, 3, 4, len(L), 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for slot, coef, factors in ((0, 1.0, (i,)), (0, 1.0, (i, i, j)), (0, 1.0, (i, i, k)),
                                    (0, -1.0, (i, j, j)), (0, -1.0, (i, k, k)),
                                    (1 + j, 1.0, (i, i, k)), (1 + j, 0.5, (i, j, k)),
                                    (1 + k, -1.0, (i, i, j)), (1 + k, -0.5, (i, j, k))):
            value[slot, i] += coef * np.prod(L[:, factors], axis=1)
            for p, r in permutations(range(len(factors)), 2):
                rest = [a for t, a in enumerate(factors) if t not in (p, r)]
                hess[factors[p], factors[r], slot, :, i] += coef * np.prod(L[:, rest], axis=1)
    return np.sum(value * wq, axis=-1)[..., None, None], hess[_A, _B][:, :, None, :, :, None]


_POINTS, _WQ = triangle_rule(QUADRATURE_DEGREE)
_LOAD, _HESS = _cubic_tables(_POINTS, _WQ)
#: -(w_xx, w_yy, 2 w_xy) from the sums u_a v_b + u_b v_a, (a <= b, 3, 1)
_CURVATURE = np.array([[-0.5, -0.5, -0.5, -1.0, -1.0, -1.0]]).T[..., None] * [[1.0], [1.0], [2.0]]


@dataclass
class MonoModel:
    """One conventional element per sub-triangle of the source model."""

    model: Model
    triangles: list[np.ndarray]   # (3, 2) global vertices per element
    frames: CanonicalFrames       # the elements' frames, stacked


@dataclass
class EquivalenceReport:
    node_count: int
    dof_count: int
    mono_element_count: int
    max_K_diff: float
    max_solution_diff: float
    tolerance: float = EQUIVALENCE_TOL

    @property
    def ok(self) -> bool:
        return (self.max_K_diff < self.tolerance
                and self.max_solution_diff < self.tolerance)


def build_equivalent_mono(model: Model) -> MonoModel:
    """Explode each element's refinement partition into m=1 elements."""
    cells = [elem.frame.to_global(elem.partition()) for elem in model.elements]
    triangles = np.concatenate(cells)
    frames = canonicalize_triangles(triangles)
    params = zip(frames.a.tolist(), frames.h.tolist(), frames.b.tolist(),
                 frames.vertices[:, 0], frames.rotation.tolist())
    sources = (elem for elem, c in zip(model.elements, cells) for _ in c)
    elements = [MRElement(LocalFrame(*frame), 1, elem.material)
                for elem, frame in zip(sources, params)]
    mono = Model(elements=elements, uniform_q=model.uniform_q,
                 point_loads=list(model.point_loads), bcs=list(model.bcs),
                 merge_tolerance=model.merge_tolerance)
    return MonoModel(model=mono, triangles=list(triangles), frames=frames)


def _cell_integrals(local: np.ndarray, D: np.ndarray, q: float):
    """Stiffness (n, 9, 9) and uniform load (n, 9), dof 3 * vertex + family,
    of cells with canonical local vertices local (n, 3, 2) and bending
    rigidity D (n, 3, 3).  Every product is elementwise and every sum runs
    over a fixed axis, so a cell's bits do not depend on its chunk."""
    n, nq = len(local), len(_WQ)
    kc, f = np.empty((n, 9, 9)), np.empty((n, 9))
    D = np.ascontiguousarray(D.transpose(1, 2, 0))      # (3, 3, n)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        c = stop - start
        # cells run along the last axis of every array, every sum over the
        # first; the weights (slot, family, cell) of the families (w, b, c)
        _, bb, cc, twoA = barycentric_coeffs(local[start:stop])
        coef = np.zeros((4, 3, c))
        coef[0, 0] = 1.0
        coef[1:, 1:] = np.stack([bb, cc]).transpose(2, 0, 1)
        # chain rule dL_a/dx = b_a / 2A, dL_a/dy = c_a / 2A: dof curvatures (3, nq, 9, c)
        wb, wc = bb.T / twoA, cc.T / twoA
        uv = np.stack([u * v[:, None] for u, v in ((wb, wb), (wc, wc), (wb, wc))], axis=2)
        uv = _CURVATURE * (uv + uv.transpose(1, 0, 2, 3))[_A, _B]
        Z = np.sum(_HESS * uv[:, None, :, None, None], axis=0)
        B = np.sum(Z[:, :, :, :, None] * coef[:, None, None, None], axis=0).reshape(3, nq, 9, c)
        area = 0.5 * twoA
        WB = B * (_WQ[:, None, None] * area)
        DB = sum(D[:, e, None, None, start:stop] * B[e] for e in range(3))
        k = np.sum((WB[:, :, :, None] * DB[:, :, None]).reshape(3 * nq, 9, 9, c), axis=0)
        kc[start:stop] = (0.5 * (k + k.transpose(1, 0, 2))).transpose(2, 0, 1)
        f[start:stop] = (q * area * np.sum(_LOAD * coef[:, None], axis=0)).reshape(9, c).T
    return kc, f


def _distinct_cell_integrals(local: np.ndarray, D: np.ndarray, q: float):
    """`_cell_integrals` of every cell, looked up per bit-distinct (local,
    D) row in `_cell_table` under the key of its float64 bytes and those
    of q.  The rows the table lacks are integrated in one `_cell_integrals`
    call.  A cell's integrals depend on (local, D, q) alone, and each cell
    gets the bits of integrating it alone, so the result is that of
    integrating every cell.  The rows are gathered back as writable
    copies; the kept entries are read-only."""
    rows = np.concatenate([local.reshape(len(local), 6), D.reshape(len(D), 9)], axis=1)
    _, first, inverse = np.unique(rows.view(f"V{rows[0].nbytes}").ravel(),
                                  return_index=True, return_inverse=True)
    load = np.float64(q).tobytes()
    keys = [row.tobytes() + load for row in rows[first]]
    at = dict(zip(keys, first.tolist()))

    def build(missing):
        cells = [at[key] for key in missing]
        kc, f = _cell_integrals(local[cells], D[cells], q)
        return [(k.copy(), g.copy()) for k, g in zip(kc, f)]

    entries = _cell_table.get(keys, build)
    return tuple(np.stack(x)[inverse] for x in zip(*entries))


def _assemble_twin(mono: MonoModel) -> GlobalSystem:
    """Assemble the conventional twin from its stacked cell frames."""
    model = mono.model
    verts, a, h, b, rotation = mono.frames
    n = len(a)
    local = np.zeros((n, 3, 2))
    local[:, 1, 0] = a
    local[:, 2] = np.stack([a * (1.0 - h / b), h], axis=-1)
    coords = verts.reshape(-1, 2)
    tol = _merge_tolerance(model, coords)
    first, ids = np.unique(_merge_nodes(coords, tol), return_inverse=True)
    node_coords = coords[first]
    node_ids = ids.reshape(n, 3)

    materials = [elem.material for elem in model.elements]
    distinct = {id(mat): mat for mat in materials}
    D_of = {key: bending_rigidity(mat) for key, mat in distinct.items()}
    kc, f = _distinct_cell_integrals(local, np.array([D_of[id(mat)] for mat in materials]),
                                     model.uniform_q)
    stack = _element_stack(model.elements) if model.point_loads else None
    for x, y, P in model.point_loads:
        p = np.array([x, y])
        owners, _ = _owning_element(stack, p)
        e = owners[0]
        elem = model.elements[e]
        f[e] += element_load_point(elem, P, elem.frame.to_local(p))

    # lam maps a node's global (w, thx, thy) to local.  lam^T K lam turns
    # the (thx, thy) pair of each node's columns and rows, lam^T f that of
    # its loads: (thx, thy) -> (cos thx - sin thy, sin thx + cos thy)
    cos, sin = np.cos(rotation)[:, None, None], np.sin(rotation)[:, None, None]
    for x in (kc.transpose(0, 2, 1), kc, f[:, :, None]):
        thx, thy = x[:, 1::3], x[:, 2::3]
        x[:, 1::3], x[:, 2::3] = cos * thx - sin * thy, sin * thx + cos * thy

    gdof = (3 * node_ids[:, :, None] + np.arange(3)).reshape(n, 9)
    n_dofs = 3 * len(node_coords)
    K = sp.coo_matrix((kc.ravel(), (np.repeat(gdof, 9, axis=1).ravel(),
                                     np.tile(gdof, (1, 9)).ravel())),
                      shape=(n_dofs, n_dofs)).tocsr()
    rhs = np.bincount(gdof.ravel(), weights=f.ravel(), minlength=n_dofs)
    return GlobalSystem(model=model, node_coords=node_coords,
                        element_nodes=list(node_ids), K=K, rhs=rhs,
                        merge_tol=tol)


def _node_permutation(multi: GlobalSystem, mono: GlobalSystem) -> np.ndarray:
    """perm[j] = multi node id coincident with mono node j: the nearest
    within the larger merge tolerance, the lowest id on a tie."""
    if multi.n_nodes != mono.n_nodes:
        raise PermutationNotFound(
            f"node counts differ: multi {multi.n_nodes}, mono {mono.n_nodes}")
    tol = max(multi.merge_tol, mono.merge_tol)
    j, perm = pairs_within(mono.node_coords, multi.node_coords, tol)
    d = multi.node_coords[perm] - mono.node_coords[j]
    order = np.lexsort((perm, d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1], j))
    j, perm = j[order], perm[order]
    nearest = np.ones(len(j), dtype=bool)
    nearest[1:] = j[1:] != j[:-1]
    perm = perm[nearest]
    if len(perm) != mono.n_nodes or np.bincount(perm).max() > 1:
        raise PermutationNotFound("node tables do not match one-to-one")
    return perm


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_solution(solution: Solution, model: Model, system: GlobalSystem) -> None:
    """Raise ValueError unless solution solves the model's system: its
    system is of the model, was reduced with the model's own boundary
    conditions (the same objects, in order), and its K (indptr, indices,
    data) and rhs are those of system bit for bit."""
    theirs = solution.system
    if theirs.model is not model:
        raise ValueError("solution is of another model")
    bcs = theirs.bcs if theirs.bcs is not None else ()
    if len(bcs) != len(model.bcs) or any(a is not b for a, b in zip(bcs, model.bcs)):
        raise ValueError("solution is reduced with other boundary conditions")
    if not (all(_same_bits(getattr(theirs.K, name), getattr(system.K, name))
                for name in ("indptr", "indices", "data"))
            and _same_bits(theirs.rhs, system.rhs)):
        raise ValueError("solution's K or rhs differs from the model's assembly")


def equivalence_check(model: Model, mono: MonoModel | None = None,
                      tolerance: float = EQUIVALENCE_TOL,
                      solution: Solution | None = None) -> EquivalenceReport:
    """Compare global stiffness and solution of both formulations.

    solution, when given, is the caller's solution of model under the
    model's own boundary conditions: it stands in for the check's own
    reduction and solve of the multiresolution side once `_check_solution`
    accepts its boundary conditions, K and rhs.  Its dofs are read as given.
    """
    if mono is None:
        mono = build_equivalent_mono(model)
    sys_multi = assemble(model)
    if solution is not None:
        _check_solution(solution, model, sys_multi)
    sys_mono = _assemble_twin(mono)
    perm = _node_permutation(sys_multi, sys_mono)
    dof_perm = (3 * np.repeat(perm, 3) + np.tile([0, 1, 2], len(perm)))

    # twin entry (r, c) sits at (dof_perm[r], dof_perm[c]) in the multi's
    # dofs.  One COO -> CSR build sums each multi entry a with the negated
    # twin entry -b at its position; each side holds a position at most
    # once, so every sum is a - b exactly
    K, K_mono = sys_multi.K, sys_mono.K
    rows = [np.repeat(np.arange(x.shape[0]), np.diff(x.indptr)) for x in (K, K_mono)]
    dK = sp.csr_matrix((np.concatenate([K.data, -K_mono.data]),
                        (np.concatenate([rows[0], dof_perm[rows[1]]]),
                         np.concatenate([K.indices, dof_perm[K_mono.indices]]))),
                       shape=K.shape)
    scale = max(np.abs(K.data).max(), 1e-300)
    max_K_diff = float(abs(dK.data).max() / scale) if dK.nnz else 0.0

    max_sol_diff = 0.0
    if model.bcs:
        if solution is None:
            solution = solve_system(apply_boundary_conditions(sys_multi))
        sol_mono = solve_system(apply_boundary_conditions(sys_mono))
        a_multi = solution.dofs
        a_mono = np.zeros_like(a_multi)
        a_mono[dof_perm] = sol_mono.dofs
        s = max(float(np.abs(a_multi).max()), 1e-300)
        max_sol_diff = float(np.abs(a_multi - a_mono).max() / s)

    return EquivalenceReport(
        node_count=sys_multi.n_nodes,
        dof_count=sys_multi.n_dofs,
        mono_element_count=len(mono.model.elements),
        max_K_diff=max_K_diff,
        max_solution_diff=max_sol_diff,
        tolerance=tolerance,
    )
