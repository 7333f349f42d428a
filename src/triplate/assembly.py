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

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .element import MRElement, element_load_point, element_load_uniform, element_stiffness
from .errors import DimensionMismatch, EmptyEdge, NodeMismatch, OutsideModel
from .geometry import CONTAIN_TOL, LocalFrame, barycentric

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
    quadrature_degree: int = 5


def node_rotation(frame: LocalFrame) -> np.ndarray:
    """3x3 per-node map from global (w, thx, thy) to frame-local components."""
    c, s = math.cos(frame.rotation), math.sin(frame.rotation)
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, c, s],
        [0.0, -s, c],
    ])


def transformation_matrix(frame: LocalFrame, node_count: int) -> sp.csr_matrix:
    """Block-diagonal global-to-local transformation for all element dofs.

    Built directly as CSR with each 3x3 block stored whole: ``sp.kron``
    costs more than the rotation itself for the oracle's one-cell elements.
    """
    lam = node_rotation(frame)
    n = 3 * node_count
    cols = np.repeat(np.arange(0, n, 3), 9) + np.tile([0, 1, 2], n)
    return sp.csr_matrix((np.tile(lam.ravel(), node_count), cols,
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
    """Union-find merge of coincident points; returns representative ids."""
    tree = cKDTree(coords)
    parent = np.arange(len(coords))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in sorted(tree.query_pairs(tol)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(len(coords))])


def _segment_distance(points: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Distance from each point to the closed segment p1-p2."""
    d = p2 - p1
    L2 = float(d @ d)
    if L2 == 0.0:
        return np.linalg.norm(points - p1, axis=1)
    t = np.clip(((points - p1) @ d) / L2, 0.0, 1.0)
    proj = p1 + t[:, None] * d
    return np.linalg.norm(points - proj, axis=1)


def _check_edge_conformity(system: GlobalSystem):
    """Reject hanging nodes: every node on an element side must be one of
    that element's own side nodes (same grid on both sides of a splice)."""
    coords = system.node_coords
    tol = system.merge_tol
    for e, elem in enumerate(system.model.elements):
        own = set(system.element_nodes[e].tolist())
        corners = elem.frame.global_vertices()
        for i in range(3):
            p1, p2 = corners[i], corners[(i + 1) % 3]
            on_side = np.nonzero(_segment_distance(coords, p1, p2) <= tol)[0]
            foreign = [int(n) for n in on_side if int(n) not in own]
            if foreign:
                raise NodeMismatch(
                    f"element {e} side {i}: nodes {foreign} lie on the side "
                    "but do not match its grid (differing m across a shared edge?)")


def _owning_element(model: Model, p: np.ndarray) -> int:
    for e, elem in enumerate(model.elements):
        L = barycentric(elem.frame.local_vertices(), elem.frame.to_local(p))
        if np.all(L >= -CONTAIN_TOL):
            return e
    raise OutsideModel(f"point {p} lies outside every element")


def assemble(model: Model) -> GlobalSystem:
    """Merge nodes, transform and accumulate element matrices and loads."""
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
    element_nodes = []
    offset = 0
    for el in model.elements:
        n = el.node_count
        element_nodes.append(inverse[offset: offset + n].copy())
        offset += n

    n_dofs = 3 * len(node_coords)
    gdofs = [(3 * ids[:, None] + np.arange(3)).ravel() for ids in element_nodes]
    rows, cols, data = [], [], []
    rhs = np.zeros(n_dofs)
    for elem, gdof in zip(model.elements, gdofs):
        T = transformation_matrix(elem.frame, elem.node_count)
        K_loc = element_stiffness(elem, model.quadrature_degree)
        # K_loc @ T first, as (T^T K_loc^T)^T: a different grouping rounds K
        # differently, and the large-m solves amplify that
        K_g = (T.T @ (K_loc @ T)).tocoo()
        rows.append(gdof[K_g.row])
        cols.append(gdof[K_g.col])
        data.append(K_g.data)
        rhs[gdof] += T.T @ element_load_uniform(elem, model.uniform_q,
                                                model.quadrature_degree)

    for (x, y, P) in model.point_loads:
        p = np.array([x, y])
        e = _owning_element(model, p)
        elem = model.elements[e]
        F_loc = element_load_point(elem, P, elem.frame.to_local(p))
        T = transformation_matrix(elem.frame, elem.node_count)
        rhs[gdofs[e]] += T.T @ F_loc

    K = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_dofs, n_dofs)).tocsr()

    system = GlobalSystem(model=model, node_coords=node_coords,
                          element_nodes=element_nodes, K=K, rhs=rhs, merge_tol=tol)
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
