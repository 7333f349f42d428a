"""Multi-element models: node merging, transformation, constraints.

Elements are spliced by geometric node identity: coincident grid nodes of
adjacent elements (within the merge tolerance) become one global node
carrying (w, thx, thy) in global axes.  Boundary conditions are applied
by elimination through a reduction matrix, which also supports fixing a
single direction of the rotation pair (hard simple support, symmetry).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .element import (QUADRATURE_DEGREE, MRElement, _fill_basis, element_load_point,
                      element_load_uniform, element_stiffness)
from .errors import DimensionMismatch, EmptyEdge, NodeMismatch, OutsideModel
from .geometry import CONTAIN_TOL, LocalFrame, barycentric_at, barycentric_coeffs

_PAIR_TOL = 1e-10


class BCKind(enum.Enum):
    CLAMPED = "clamped"
    SIMPLY_SUPPORTED = "simply_supported"
    SYMMETRY = "symmetry_normal_rotation_fixed"
    FREE = "free"


@dataclass
class BoundaryCondition:
    """A kinematic condition applied to all nodes on a straight edge.

    edge: ((x1, y1), (x2, y2)) in global coordinates.  A zero-length edge
    targets the nodes at that single point (useful to pin one node).
    hard applies only to SIMPLY_SUPPORTED: additionally fixes the
    tangential slope along the edge.
    """

    edge: np.ndarray
    kind: BCKind
    hard: bool = False

    def __post_init__(self):
        self.edge = np.asarray(self.edge, dtype=float)
        if self.edge.shape != (2, 2):
            raise DimensionMismatch("edge must be ((x1,y1),(x2,y2))")
        if isinstance(self.kind, str):
            self.kind = BCKind(self.kind)


@dataclass
class Model:
    """A thin plate built from one or more multiresolution elements."""

    elements: list[MRElement]
    uniform_q: float = 0.0
    point_loads: list[tuple[float, float, float]] = field(default_factory=list)
    bcs: list[BoundaryCondition] = field(default_factory=list)
    merge_tolerance: float | None = None


def node_rotation(frame: LocalFrame) -> np.ndarray:
    """3x3 per-node map from global (w, thx, thy) to frame-local components."""
    c, s = math.cos(frame.rotation), math.sin(frame.rotation)
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, c, s],
        [0.0, -s, c],
    ])


def transformation_matrix(frames, node_counts) -> sp.csr_matrix:
    """Block-diagonal global-to-local transformation of stacked element dofs.

    One 3x3 `node_rotation` block per node, for node_counts[e] nodes of
    each frames[e] in turn, stored whole in CSR.
    """
    lam = np.array([node_rotation(frame).ravel() for frame in frames])
    n = 3 * int(np.sum(node_counts))
    cols = np.repeat(np.arange(0, n, 3), 9) + np.tile([0, 1, 2], n)
    return sp.csr_matrix((np.repeat(lam, node_counts, axis=0).ravel(), cols,
                          np.arange(0, 3 * n + 1, 3)), shape=(n, n))


@dataclass
class Constraint:
    """One scalar constraint at a node: a fixed dof or a fixed rotation direction."""

    node: int
    component: str            # "w" | "rot"
    direction: np.ndarray | None = None   # unit vector in (thx, thy) space


@dataclass
class GlobalSystem:
    """Assembled model: node table, sparse stiffness, loads, constraints."""

    model: Model
    node_coords: np.ndarray                 # (N, 2)
    element_nodes: list[np.ndarray]         # global node id per element node
    K: sp.csr_matrix
    rhs: np.ndarray
    merge_tol: float
    C: sp.csr_matrix | None = None          # reduction: full = C @ reduced
    K_red: sp.csr_matrix | None = None
    rhs_red: np.ndarray | None = None
    constraints: list[Constraint] = field(default_factory=list)

    @cached_property
    def element_stack(self) -> tuple:
        """`_element_stack` of the model's elements, kept from first use:
        the system's matrices already fix those elements."""
        return _element_stack(self.model.elements)

    @property
    def n_nodes(self) -> int:
        return len(self.node_coords)

    @property
    def n_dofs(self) -> int:
        return 3 * self.n_nodes

    @property
    def n_free(self) -> int:
        return self.C.shape[1] if self.C is not None else self.n_dofs


def _merge_nodes(coords: np.ndarray, tol: float) -> np.ndarray:
    """Merge points within tol, transitively; returns each point's
    representative, the lowest index in its cluster."""
    i, j = cKDTree(coords).query_pairs(tol, output_type="ndarray").T
    rep = np.arange(len(coords))
    while True:
        # lower both points of every pair to their smaller label until every
        # cluster carries its lowest index
        low = np.minimum(rep[i], rep[j])
        lowered = rep.copy()
        np.minimum.at(lowered, i, low)
        np.minimum.at(lowered, j, low)
        if np.array_equal(lowered, rep):
            return rep
        rep = lowered


def _segment_distance(points: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Distance from each point to the closed segment p1-p2.

    p1 and p2 are one segment (2,) or one segment per point (n, 2).
    """
    d = p2 - p1
    L2 = np.einsum("...i,...i->...", d, d)
    along = np.einsum("...i,...i->...", points - p1, d)
    t = np.clip(np.divide(along, L2, out=np.zeros(np.shape(along)), where=L2 > 0.0),
                0.0, 1.0)
    return np.linalg.norm(points - (p1 + t[..., None] * d), axis=-1)


def _check_edge_conformity(system: GlobalSystem):
    """Reject hanging nodes: every node on an element side must be one of
    that element's own side nodes (same grid on both sides of a splice).

    A k-d tree lists the nodes within reach of each side's midpoint, and
    the exact segment distance keeps those on the side, so memory grows
    with the nodes near the sides, not with sides x nodes.  The first
    failing (element, side) is reported, with its foreign nodes in order.
    """
    coords = system.node_coords
    tol = system.merge_tol
    corners = np.array([elem.frame.global_vertices() for elem in system.model.elements])
    p1 = corners.reshape(-1, 2)
    p2 = corners[:, [1, 2, 0]].reshape(-1, 2)
    reach = 0.5 * np.linalg.norm(p2 - p1, axis=1) * (1.0 + 1e-9) + tol
    near = cKDTree(coords).query_ball_point(0.5 * (p1 + p2), reach)
    side = np.repeat(np.arange(len(p1)), [len(ids) for ids in near])
    node = np.concatenate(near).astype(np.intp)
    keep = _segment_distance(coords[node], p1[side], p2[side]) <= tol
    side, node = side[keep], node[keep]
    # a node belongs to element e when e * n_nodes + node is one of e's keys
    n_nodes = len(coords)
    own = np.concatenate([e * n_nodes + ids for e, ids in enumerate(system.element_nodes)])
    foreign = ~np.isin(side // 3 * n_nodes + node, own)
    if foreign.any():
        first = side[foreign].min()
        e, i = divmod(int(first), 3)
        nodes = np.sort(node[foreign & (side == first)]).tolist()
        raise NodeMismatch(
            f"element {e} side {i}: nodes {nodes} lie on the side "
            "but do not match its grid (differing m across a shared edge?)")


def _element_stack(elements):
    """Origins (E, 2), rotations (E, 2, 2) and the `barycentric_coeffs` of
    the local vertices of the elements, stacked for `_owning_element`."""
    frames = [elem.frame for elem in elements]
    return (np.array([frame.origin for frame in frames]),
            np.array([frame.rotation_matrix() for frame in frames]),
            barycentric_coeffs(np.array([frame.local_vertices() for frame in frames])))


def _owning_element(stack, p) -> list[int]:
    """Every element whose closure holds the global point p, in model order.

    All elements of the `_element_stack` (which each system keeps) take
    one stacked closure test of p in their local axes, each rounded as
    `to_local` and `barycentric` round it alone.  Raises OutsideModel when
    none holds p; a point with a NaN or infinite coordinate lies in none.
    """
    p = np.asarray(p, dtype=float)
    # skip a non-finite point: its local coordinates would be NaN
    if np.all(np.isfinite(p)):
        origins, R, coeffs = stack
        local = np.matmul((p - origins)[:, None], R)[:, 0]
        L = barycentric_at(coeffs, local)
        found = np.flatnonzero(np.all(L >= -CONTAIN_TOL, axis=1)).tolist()
        if found:
            return found
    raise OutsideModel(f"point {p.tolist()} lies outside every element")


def _block_diagonal(mats) -> sp.csr_matrix:
    """CSR matrices stacked on the diagonal, each row's entries in the order
    its matrix stores them."""
    nnz = np.cumsum([0] + [K.nnz for K in mats])
    offsets = np.cumsum([0] + [K.shape[0] for K in mats])
    indptr = [K.indptr[:-1] + start for K, start in zip(mats, nnz)] + [nnz[-1:]]
    return sp.csr_matrix(
        (np.concatenate([K.data for K in mats]),
         np.concatenate([K.indices + off for K, off in zip(mats, offsets)]),
         np.concatenate(indptr)), shape=(offsets[-1], offsets[-1]))


def assemble(model: Model) -> GlobalSystem:
    """Merge nodes, transform and accumulate element matrices and loads.

    Every element's per-orientation basis is evaluated first, a chunk of
    elements per kernel call (`element._fill_basis`); `element_stiffness`
    and `element_load_uniform` are then called once per element and read
    it from the element's cache.  All element matrices are rotated to
    global axes by one block-diagonal product T^T K T, and all uniform
    loads by one T^T f; the result has the bits of rotating each element
    alone, and every global entry sums its element contributions in
    element order.
    """
    if not model.elements:
        raise ValueError("model has no elements")
    all_coords = np.vstack([el.node_positions_global() for el in model.elements])
    if model.merge_tolerance is not None:
        tol = model.merge_tolerance
    else:
        lo, hi = all_coords.min(axis=0), all_coords.max(axis=0)
        tol = 1e-9 * float(np.linalg.norm(hi - lo))

    reps = _merge_nodes(all_coords, tol)
    uniq, inverse = np.unique(reps, return_inverse=True)
    node_coords = all_coords[uniq]
    node_counts = [el.node_count for el in model.elements]
    starts = np.cumsum(node_counts)[:-1]
    element_nodes = np.split(inverse, starts)
    gdof = (3 * inverse[:, None] + np.arange(3)).ravel()
    n_dofs = 3 * len(node_coords)

    _fill_basis(model.elements, QUADRATURE_DEGREE)
    T = transformation_matrix([el.frame for el in model.elements], node_counts)
    K_loc = _block_diagonal([element_stiffness(el) for el in model.elements])
    # K_loc @ T first, as (T^T K_loc^T)^T: a different grouping rounds K
    # differently, and the large-m solves amplify that.  Each row of the
    # product lies in one element's block, and scipy sums a row in its own
    # column order, so every element's entries come out with the bits and
    # in the order of rotating that element alone.
    K_g = (T.T @ (K_loc @ T)).tocoo()
    rows, cols, data = gdof[K_g.row], gdof[K_g.col], K_g.data
    f_loc = np.concatenate([element_load_uniform(el, model.uniform_q)
                            for el in model.elements])
    rhs = np.bincount(gdof, weights=T.T @ f_loc, minlength=n_dofs)
    # free the stacked intermediates before the global matrix is built
    del T, K_loc, K_g, f_loc

    K = sp.coo_matrix((data, (rows, cols)), shape=(n_dofs, n_dofs)).tocsr()
    system = GlobalSystem(model=model, node_coords=node_coords,
                          element_nodes=element_nodes, K=K, rhs=rhs, merge_tol=tol)

    gdofs = np.split(gdof, 3 * starts)
    for (x, y, P) in model.point_loads:
        p = np.array([x, y])
        e = _owning_element(system.element_stack, p)[0]
        elem = model.elements[e]
        F_loc = element_load_point(elem, P, elem.frame.to_local(p))
        T = transformation_matrix([elem.frame], [elem.node_count])
        rhs[gdofs[e]] += T.T @ F_loc
    _check_edge_conformity(system)
    return system


def _edge_constraints(bc: BoundaryCondition, node_ids: np.ndarray) -> list[Constraint]:
    p1, p2 = bc.edge
    d = p2 - p1
    L = float(np.linalg.norm(d))
    t = d / L if L > 0 else np.array([1.0, 0.0])
    out: list[Constraint] = []
    for n in node_ids:
        n = int(n)
        if bc.kind == BCKind.CLAMPED:
            out.append(Constraint(n, "w"))
            out.append(Constraint(n, "rot", np.array([1.0, 0.0])))
            out.append(Constraint(n, "rot", np.array([0.0, 1.0])))
        elif bc.kind == BCKind.SIMPLY_SUPPORTED:
            out.append(Constraint(n, "w"))
            if bc.hard and L > 0:
                # kill the tangential slope dw/dt = (thx, thy) . (ty, -tx)
                out.append(Constraint(n, "rot", np.array([t[1], -t[0]])))
        elif bc.kind == BCKind.SYMMETRY:
            # kill the normal slope dw/dn = (thx, thy) . t
            out.append(Constraint(n, "rot", t.copy()))
        elif bc.kind == BCKind.FREE:
            pass
    return out


def apply_boundary_conditions(system: GlobalSystem,
                              bcs: list[BoundaryCondition] | None = None) -> GlobalSystem:
    """Eliminate constrained dofs; returns a system with K_red installed."""
    bcs = system.model.bcs if bcs is None else bcs
    constraints: list[Constraint] = []
    for bc in bcs:
        dist = _segment_distance(system.node_coords, bc.edge[0], bc.edge[1])
        ids = np.nonzero(dist <= system.merge_tol)[0]
        if len(ids) == 0:
            raise EmptyEdge(f"no nodes found on edge {bc.edge.tolist()}")
        constraints.extend(_edge_constraints(bc, ids))

    fix_w = set()
    rot_dirs: dict[int, list[np.ndarray]] = {}
    for c in constraints:
        if c.component == "w":
            fix_w.add(c.node)
        else:
            dirs = rot_dirs.setdefault(c.node, [])
            u = c.direction / np.linalg.norm(c.direction)
            # parallel directions are the same constraint; keep one
            if not any(abs(abs(u @ v) - 1.0) <= _PAIR_TOL for v in dirs):
                dirs.append(u)

    rows, cols, vals = [], [], []
    col = 0
    for n in range(system.n_nodes):
        if n not in fix_w:
            rows.append(3 * n)
            cols.append(col)
            vals.append(1.0)
            col += 1
        dirs = rot_dirs.get(n, [])
        if len(dirs) == 0:
            for comp in (1, 2):
                rows.append(3 * n + comp)
                cols.append(col)
                vals.append(1.0)
                col += 1
        elif len(dirs) == 1:
            u = dirs[0]
            free_dir = np.array([-u[1], u[0]])
            rows.extend([3 * n + 1, 3 * n + 2])
            cols.extend([col, col])
            vals.extend([free_dir[0], free_dir[1]])
            col += 1
        # two independent directions: rotation pair fully fixed

    C = sp.coo_matrix((vals, (rows, cols)), shape=(system.n_dofs, col)).tocsr()
    K_red = (C.T @ system.K @ C).tocsr()
    rhs_red = C.T @ system.rhs
    return replace(system, C=C, K_red=K_red, rhs_red=rhs_red,
                   constraints=constraints)
