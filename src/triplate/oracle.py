"""Conventional-element oracle for the multiresolution formulation.

Every sub-triangle of every element becomes one conventional cubic
plate-bending element (resolution 1) on its own canonical frame.  The
resulting model must match the multiresolution one exactly: same merged
nodes, same global stiffness up to a node permutation, same solution.

The conventional twin is assembled in one stacked pass over its cells.
`build_equivalent_mono` gives every cell its own canonical frame
(`geometry.canonicalize_triangles`, all cells at once).  Each cell whose
canonical vertices and rigidity are bitwise distinct is evaluated once,
one basis-kernel call per block of them, at its quadrature points; the
9x9 cell matrices and load vectors are batched products gathered back to
every cell, each 3x3 node block is rotated to global axes and the whole
twin is scattered as one COO matrix.  Of the multiresolution path it
shares the basis kernel (`shapefn._eval_triangles`), the node merge
(`assembly._merge_nodes`) and, for point loads, the owning-element search
and `element_load_point` of its m = 1 elements, besides the quadrature
table, the material law and barycentric coordinates: nothing of its cell
partition, cell-dof map, integral table, element matrices or
transformation matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .assembly import (GlobalSystem, Model, _element_stack, _merge_nodes,
                       _merge_tolerance, _owning_element, apply_boundary_conditions,
                       assemble)
from .element import QUADRATURE_DEGREE, MRElement, bending_rigidity, element_load_point
from .errors import PermutationNotFound
from .geometry import CanonicalFrames, LocalFrame, canonicalize_triangles
from .quadrature import triangle_rule
from .shapefn import _domains, _eval_triangles
from .solve import solve_system

#: cells per basis-kernel call: keeps the kernel's temporaries near 2 MB.
#: A call also costs about 0.3 ms whatever its size: 128 cells take 7.7 ms
#: at 16 cells a call and 5.7 ms at 64, which peak at 7 MB; a larger chunk
#: buys time with memory
_CHUNK = 16


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
    tolerance: float = 1e-9

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
    """Stiffness (n, 9, 9) and uniform load (n, 9) of cells in local axes.

    local: (n, 3, 2) canonical local vertices, the cells' nodes at m = 1;
    D: (n, 3, 3) bending rigidity of each cell.
    """
    bary, wq = triangle_rule(QUADRATURE_DEGREE)
    n, nq = len(local), len(wq)
    kc, f = np.empty((n, 9, 9)), np.empty((n, 9))
    for start in range(0, n, _CHUNK):
        cell = local[start:start + _CHUNK]
        c = len(cell)
        # each corner's hexagon domain is the cell moved to put that corner
        # at the origin, with the node at local vertex i0 = corner
        domains = (cell[:, None] - cell[:, :, None]).reshape(3 * c, 3, 2)
        rel = np.matmul(bary, cell)[:, None] - cell[:, :, None]
        value, _, hess = _eval_triangles(_domains(domains, np.tile(np.arange(3), c)),
                                         rel.reshape(3 * c, nq, 2), grad=False)
        # dof 3*corner + family; curvatures -(w_xx, w_yy, 2 w_xy)
        N = value.reshape(c, 9, nq).transpose(0, 2, 1)
        B = (hess.reshape(c, 9, nq, 3).transpose(0, 2, 3, 1)
             * np.array([-1.0, -1.0, -2.0])[:, None])      # (c, q, 3, 9)
        wts = wq * (0.5 * cell[:, 1, 0] * cell[:, 2, 1])[:, None]
        DB = np.matmul(D[start:start + c, None], B).reshape(c, 3 * nq, 9)
        WB = (B * wts[:, :, None, None]).reshape(c, 3 * nq, 9)
        k = np.matmul(WB.transpose(0, 2, 1), DB)
        kc[start:start + c] = 0.5 * (k + k.transpose(0, 2, 1))
        f[start:start + c] = q * np.matmul(wts[:, None], N)[:, 0]
    return kc, f


def _distinct_cell_integrals(local: np.ndarray, D: np.ndarray, q: float):
    """`_cell_integrals` of every cell, evaluated once per bit-distinct
    (local, D) row.  A cell's integrals depend on those alone, and each
    cell gets the bits of evaluating it alone, so the result is that of
    evaluating every cell; the rows are gathered back as copies."""
    rows = np.concatenate([local.reshape(len(local), 6), D.reshape(len(D), 9)], axis=1)
    _, first, inverse = np.unique(rows.view(f"V{rows[0].nbytes}").ravel(),
                                  return_index=True, return_inverse=True)
    return tuple(x[inverse] for x in _cell_integrals(local[first], D[first], q))


def _assemble_twin(mono: MonoModel) -> GlobalSystem:
    """Assemble the conventional twin from its stacked cell frames."""
    model = mono.model
    verts, a, h, b, rotation = mono.frames
    n = len(a)
    zero = np.zeros(n)
    local = np.stack([np.stack([zero, zero], axis=-1),
                      np.stack([a, zero], axis=-1),
                      np.stack([a * (1.0 - h / b), h], axis=-1)], axis=1)
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

    cos, sin = np.cos(rotation), np.sin(rotation)
    # lam maps a node's global (w, thx, thy) to local; rotate each 3x3 node
    # block as lam^T K lam and each node load as lam^T f
    lam = np.zeros((n, 3, 3))
    lam[:, 0, 0] = 1.0
    lam[:, 1, 1] = lam[:, 2, 2] = cos
    lam[:, 1, 2] = sin
    lam[:, 2, 1] = -sin
    K_g = np.einsum("cpa,cipjq,cqb->ciajb", lam, kc.reshape(n, 3, 3, 3, 3),
                    lam, optimize=True).reshape(n, 9, 9)
    f_g = np.einsum("cpa,cip->cia", lam, f.reshape(n, 3, 3)).reshape(n, 9)

    gdof = (3 * node_ids[:, :, None] + np.arange(3)).reshape(n, 9)
    n_dofs = 3 * len(node_coords)
    K = sp.coo_matrix((K_g.ravel(), (np.repeat(gdof, 9, axis=1).ravel(),
                                     np.tile(gdof, (1, 9)).ravel())),
                      shape=(n_dofs, n_dofs)).tocsr()
    rhs = np.bincount(gdof.ravel(), weights=f_g.ravel(), minlength=n_dofs)
    return GlobalSystem(model=model, node_coords=node_coords,
                        element_nodes=list(node_ids), K=K, rhs=rhs,
                        merge_tol=tol)


def _node_permutation(multi: GlobalSystem, mono: GlobalSystem) -> np.ndarray:
    """perm[j] = multi node id coincident with mono node j."""
    if multi.n_nodes != mono.n_nodes:
        raise PermutationNotFound(
            f"node counts differ: multi {multi.n_nodes}, mono {mono.n_nodes}")
    tree = cKDTree(multi.node_coords)
    dist, perm = tree.query(mono.node_coords)
    tol = max(multi.merge_tol, mono.merge_tol)
    if np.any(dist > tol) or len(set(perm.tolist())) != len(perm):
        raise PermutationNotFound("node tables do not match one-to-one")
    return perm


def equivalence_check(model: Model, mono: MonoModel | None = None,
                      tolerance: float = 1e-9) -> EquivalenceReport:
    """Compare global stiffness and solution of both formulations."""
    if mono is None:
        mono = build_equivalent_mono(model)
    sys_multi = assemble(model)
    sys_mono = _assemble_twin(mono)
    perm = _node_permutation(sys_multi, sys_mono)
    dof_perm = (3 * np.repeat(perm, 3) + np.tile([0, 1, 2], len(perm)))
    inv_perm = np.empty_like(dof_perm)
    inv_perm[dof_perm] = np.arange(len(dof_perm))

    K_mono = sys_mono.K.tocsr()[inv_perm][:, inv_perm]
    dK = (sys_multi.K - K_mono).tocoo()
    scale = max(abs(sys_multi.K).max(), 1e-300)
    max_K_diff = float(abs(dK.data).max() / scale) if dK.nnz else 0.0

    max_sol_diff = 0.0
    if model.bcs:
        sol_multi = solve_system(apply_boundary_conditions(sys_multi))
        sol_mono = solve_system(apply_boundary_conditions(sys_mono))
        a_multi = sol_multi.dofs
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
