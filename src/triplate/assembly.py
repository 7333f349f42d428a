"""Multi-element models: node merging, rotation to global axes, constraints.

Elements are spliced by geometric node identity: coincident grid nodes of
adjacent elements (within the merge tolerance) become one global node
carrying (w, thx, thy) in global axes.  Boundary conditions are applied
by elimination through a reduction matrix, which also supports fixing a
single direction of the rotation pair (hard simple support, symmetry).

What the splice derives from the mesh alone, its `MeshPlan` (merged node
positions, each element node's global node and the merge tolerance), is
kept per distinct mesh in `_mesh_table`, so that `assemble` positions,
merges and checks a mesh once and computes only stiffness and loads on
later calls.  The conventional twin of the equivalence oracle keeps its
own merge and reads no plan (see `assemble`).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .element import (QUADRATURE_DEGREE, MRElement, element_load_point,
                      element_load_uniform, element_stiffness)
from .errors import DimensionMismatch, EmptyEdge, NodeMismatch, OutsideModel
from .geometry import (CONTAIN_TOL, FrameStack, barycentric_at,
                       barycentric_coeffs, grid_index_arrays, grid_positions,
                       pairs_within)
from .shapefn import LRUTable

_PAIR_TOL = 1e-10


class BCKind(enum.Enum):
    """Boundary kinds; each value is the kind's config name."""

    CLAMPED = "clamped"
    SIMPLY_SUPPORTED = "simply_supported"
    SYMMETRY = "symmetry"
    FREE = "free"


@dataclass
class BoundaryCondition:
    """A kinematic condition applied to all nodes on a straight edge.

    edge: ((x1, y1), (x2, y2)) in global coordinates.  A zero-length edge
    targets the nodes at that single point (useful to pin one node); a
    symmetry edge needs nonzero length: it fixes the slope normal to it.
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
        if (self.kind == BCKind.SYMMETRY
                and not np.linalg.norm(self.edge[1] - self.edge[0]) > 0):
            raise DimensionMismatch(f"symmetry edge {self.edge.tolist()} has zero "
                                    "length: its normal is undefined")


@dataclass
class Model:
    """A thin plate built from one or more multiresolution elements."""

    elements: list[MRElement]
    uniform_q: float = 0.0
    point_loads: list[tuple[float, float, float]] = field(default_factory=list)
    bcs: list[BoundaryCondition] = field(default_factory=list)
    merge_tolerance: float | None = None


def node_rotations(R: np.ndarray) -> np.ndarray:
    """3x3 per-node maps (E, 3, 3) from global (w, thx, thy) to the
    frame-local components of frames with rotation matrices R (E, 2, 2)
    (`FrameStack.R`): 1 for w, and R's transpose for the rotations."""
    lam = np.zeros((len(R), 3, 3))
    lam[:, 0, 0] = 1.0
    lam[:, 1:, 1:] = R.transpose(0, 2, 1)
    return lam


def _turn(thx: np.ndarray, thy: np.ndarray, R: np.ndarray) -> tuple:
    """Rotation components (thx, thy) turned from frame-local to global
    axes, R @ (thx, thy), by the frames' rotation matrices R (..., 2, 2)
    broadcast against them: the transposed `node_rotations` block.  Each
    result is the sum of two products, so any summation order has its bits."""
    return (R[..., 0, 0] * thx + R[..., 0, 1] * thy,
            R[..., 1, 0] * thx + R[..., 1, 1] * thy)


@dataclass
class GlobalSystem:
    """Assembled model: node table, sparse stiffness, loads, reduction."""

    model: Model
    node_coords: np.ndarray                 # (N, 2)
    element_nodes: list[np.ndarray]         # global node id per element node
    K: sp.csr_matrix
    rhs: np.ndarray
    merge_tol: float
    C: sp.csr_matrix | None = None          # reduction: full = C @ reduced
    K_red: sp.csr_matrix | None = None
    rhs_red: np.ndarray | None = None
    bcs: list[BoundaryCondition] | None = None  # the conditions C eliminates

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


def _given_tolerance(model: Model):
    """The model's merge tolerance, None when it sets none; raises
    ValueError unless a set one is a finite number > 0."""
    tol = model.merge_tolerance
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"merge_tolerance must be a finite number > 0, got {tol!r}")
    return tol


def _merge_tolerance(model: Model, coords: np.ndarray) -> float:
    """The model's merge tolerance, or 1e-9 of the diagonal of the box
    around the node coords (n, 2) when it sets none."""
    tol = _given_tolerance(model)
    if tol is None:
        return 1e-9 * float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    return tol


def _merge_nodes(coords: np.ndarray, tol: float) -> np.ndarray:
    """Merge points within tol, transitively; returns each point's
    representative, the lowest index in its cluster.  The grid search of
    `pairs_within` lists the pairs i < j within tol."""
    i, j = pairs_within(coords, coords, tol)
    below = i < j
    i, j = i[below], j[below]
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

    p1 and p2 are one segment (2,), one segment per point (n, 2) or k
    segments (k, 1, 2), which give the distances (k, n).
    """
    d = p2 - p1
    L2 = np.einsum("...i,...i->...", d, d)
    along = np.einsum("...i,...i->...", points - p1, d)
    t = np.clip(np.divide(along, L2, out=np.zeros(np.shape(along)), where=L2 > 0.0),
                0.0, 1.0)
    return np.linalg.norm(points - (p1 + t[..., None] * d), axis=-1)


def _check_edge_conformity(system: GlobalSystem, corners: np.ndarray,
                           inverse: np.ndarray, counts: np.ndarray):
    """Reject hanging nodes: every node on an element side must be one of
    that element's own side nodes (same grid on both sides of a splice).
    corners (E, 3, 2) are the elements' global vertices, inverse the global
    node of each stacked element node and counts (E,) the elements' node
    counts.

    The grid search of `pairs_within` lists the nodes within reach of each
    side's midpoint, and the exact segment distance keeps those on the
    side, so memory grows with the nodes near the sides, not with sides x
    nodes.  The first failing (element, side) is reported, with its foreign
    nodes in order.
    """
    coords = system.node_coords
    tol = system.merge_tol
    p1 = corners.reshape(-1, 2)
    p2 = corners[:, [1, 2, 0]].reshape(-1, 2)
    reach = 0.5 * np.linalg.norm(p2 - p1, axis=1) * (1.0 + 1e-9) + tol
    side, node = pairs_within(0.5 * (p1 + p2), coords, reach)
    keep = _segment_distance(coords[node], p1[side], p2[side]) <= tol
    side, node = side[keep], node[keep]
    # a node belongs to element e when e * n_nodes + node is one of e's keys
    n_nodes = len(coords)
    own = np.repeat(np.arange(len(counts)) * n_nodes, counts) + inverse
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
    frames = FrameStack.of([elem.frame for elem in elements])
    return frames.origin, frames.R, barycentric_coeffs(frames.local_vertices())


def _owning_element(stack, p) -> tuple[list[int], np.ndarray]:
    """Every element whose closure holds the global point p, in model order,
    and p in each one's local axes (k, 2).

    All elements of the `_element_stack` (which each system keeps) take
    one stacked closure test of p in their local axes, each rounded as
    `to_local` and `barycentric` round it alone.  Raises OutsideModel when
    none holds p; a point with a NaN or infinite coordinate lies in none.
    """
    p = np.asarray(p, dtype=float)
    # skip a non-finite point: its local coordinates would be NaN
    if np.isfinite(p).all():
        origins, R, coeffs = stack
        local = np.matmul((p - origins)[:, None], R)[:, 0]
        L = barycentric_at(coeffs, local)
        found = (L >= -CONTAIN_TOL).all(axis=1).nonzero()[0]
        if len(found):
            return found.tolist(), local[found]
    raise OutsideModel(f"point {p.tolist()} lies outside every element")


def _node_coords(frames: FrameStack, ms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Global positions of the grid nodes of elements with the frames, the
    resolutions ms (E,) and node counts (E,), element by element, each in
    `grid_indices` order: every element's `node_positions_global`, from
    one stacked product per resolution."""
    starts = np.cumsum(counts) - counts
    coords = np.empty((int(counts.sum()), 2))
    for m in np.unique(ms).tolist():
        rows = np.flatnonzero(ms == m)
        part = frames.take(rows)
        r, s, _ = np.broadcast_arrays(*grid_index_arrays(m), part.a)
        at = starts[rows, None] + np.arange(r.shape[1])
        coords[at.ravel()] = part.to_global(grid_positions(part, m, r, s)).reshape(-1, 2)
    return coords


class MeshPlan(NamedTuple):
    """What `assemble` derives from a model's mesh alone, read-only and
    kept in `_mesh_table`: only a mesh that passed `_check_edge_conformity`
    has one."""

    node_coords: np.ndarray   # (N, 2) merged node positions
    inverse: np.ndarray       # (n,) global node of each stacked element node
    tol: np.ndarray           # () merge tolerance, kept for a model that sets none


#: entries `_mesh_table` keeps.  An entry holds 16 bytes a merged node,
#: 8 an element node and 80 an element for its key: 58 KB for a
#: two-element model at m = 48, 15 KB for its conventional twin at m = 8
MESH_TABLE_BOUND = 64

#: the `MeshPlan` of every mesh `assemble` has checked, keyed by
#: `_mesh_key`, least recently used first
_mesh_table = LRUTable(MESH_TABLE_BOUND)


def _mesh_key(frames: FrameStack, ms: np.ndarray, given) -> tuple:
    """Everything a `MeshPlan` depends on: the float64 bytes of the
    stacked frames (a, h, b, origin, R) and of the model's own merge
    tolerance (None when it sets none), and the resolutions ms."""
    return (b"".join(x.tobytes() for x in frames), ms.tobytes(),
            None if given is None else np.float64(given).tobytes())


def assemble(model: Model) -> GlobalSystem:
    """Merge nodes, transform and accumulate element matrices and loads.

    The mesh part comes from the `MeshPlan` of the model's mesh, keyed by
    `_mesh_key` in `_mesh_table` (`MESH_TABLE_BOUND` entries): a mesh the
    table lacks is positioned (`_node_coords`), merged (`_merge_nodes`)
    and checked for hanging nodes (`_check_edge_conformity`, after the
    loads), and only a mesh that passes is kept.  A kept plan's arrays are
    read-only and shared by every system of that mesh, so each system's
    `node_coords` and `element_nodes` are read-only too.  Materials, loads
    and conditions are not part of the key: stiffness and loads are
    computed on every call.  The oracle's twin assembly
    (`oracle._assemble_twin`) merges its own nodes and reads no plan, so
    that the equivalence check compares each plan with a merge of its own.

    One `element_stiffness` and one `element_load_uniform` call give the
    block-diagonal matrix and the stacked uniform loads of all elements;
    they look the cell integrals up per key of frame shape, m and material
    in the table every model shares, and compute the keys it lacks in one
    pass (`element._fill_basis`).  Node positions, rotations and the side
    vertices of the conformity check come from the stacked frames
    (`FrameStack`), not from one call per element.  `_turn` rotates the
    (thx, thy) pair of every column triple, then of every node's rows, of
    the stored entries, and of every load, to global axes: the bits of
    each element's T^T (K T) with its block-diagonal node rotations T,
    with no sparse product.  The COO to CSR conversion then sums the element
    contributions to each global entry.  Where at most two elements share
    an entry, as in every registry and demo model, that sum does not
    depend on the order; where more do, as in the conventional twins (up
    to six), the order is that of scipy's duplicate sort, not element
    order.
    """
    if not model.elements:
        raise ValueError("model has no elements")
    for name, value in [("uniform_q", model.uniform_q)] + [
            (f"point load P at ({x}, {y})", P) for x, y, P in model.point_loads]:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    frames = FrameStack.of([el.frame for el in model.elements])
    ms = np.array([el.m for el in model.elements])
    node_counts = (ms + 1) * (ms + 2) // 2
    given = _given_tolerance(model)
    key = _mesh_key(frames, ms, given)
    plan = _mesh_table.find(key)
    if plan is None:
        all_coords = _node_coords(frames, ms, node_counts)
        tol = _merge_tolerance(model, all_coords)
        uniq, inverse = np.unique(_merge_nodes(all_coords, tol), return_inverse=True)
        node_coords = all_coords[uniq]
        # read-only before element_nodes views inverse: a later plan hit
        # hands out the same arrays
        node_coords.flags.writeable = inverse.flags.writeable = False
    else:
        node_coords, inverse = plan.node_coords, plan.inverse
        tol = float(plan.tol) if given is None else given
    ends = np.cumsum(node_counts).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    element_nodes = [inverse[start:end] for start, end in spans]
    n_dofs = 3 * len(node_coords)

    K_loc = element_stiffness(model.elements, QUADRATURE_DEGREE)
    ptr, width = K_loc.indptr, np.diff(K_loc.indptr)
    gdof = (3 * inverse[:, None] + np.arange(3)).ravel().astype(ptr.dtype)
    # a node's three rows hold the same aligned column triple per neighbour
    # node, so an element has as many triples as entries in its rows 3i + 1
    # (and 3i + 2).  Columns turn first, then rows: the rounding of T^T (K_loc T)
    nnz = np.diff(ptr[3 * np.r_[0, np.cumsum(node_counts)]])
    R = np.repeat(frames.R, nnz // 3, axis=0)
    data = K_loc.data.copy()
    triples = data.reshape(-1, 3)
    triples[:, 1], triples[:, 2] = _turn(triples[:, 1], triples[:, 2], R)
    thx, thy = np.repeat(np.tile(np.arange(3, dtype=np.int8), len(inverse)), width) == [[1], [2]]
    data[thx], data[thy] = _turn(data[thx], data[thy], R)
    del R, thx, thy
    # drop exact zeros as sparse products do; each global row lists its
    # entries in element, then column order, which fixes COO -> CSR's sums
    keep = data != 0.0
    rows, cols, data = np.repeat(gdof, width)[keep], gdof[K_loc.indices][keep], data[keep]
    del K_loc, triples, keep
    f = element_load_uniform(model.elements, model.uniform_q,
                             QUADRATURE_DEGREE).reshape(-1, 3)
    f[:, 1], f[:, 2] = _turn(f[:, 1], f[:, 2], np.repeat(frames.R, node_counts, axis=0))
    rhs = np.bincount(gdof, weights=f.ravel(), minlength=n_dofs)

    K = sp.coo_matrix((data, (rows, cols)), shape=(n_dofs, n_dofs)).tocsr()
    system = GlobalSystem(model=model, node_coords=node_coords,
                          element_nodes=element_nodes, K=K, rhs=rhs, merge_tol=tol)

    for (x, y, P) in model.point_loads:
        p = np.array([x, y])
        owners, local = _owning_element(system.element_stack, p)
        e = owners[0]
        F = element_load_point(model.elements[e], P, local[0]).reshape(-1, 3)
        F[:, 1], F[:, 2] = _turn(F[:, 1], F[:, 2], frames.R[e])
        start, end = spans[e]
        rhs[gdof[3 * start:3 * end]] += F.ravel()
    if plan is None:
        _check_edge_conformity(system, frames.to_global(frames.local_vertices()),
                               inverse, node_counts)
        _mesh_table.get([key], lambda missing: [MeshPlan(node_coords, inverse,
                                                         np.array(tol, dtype=float))])
    return system


def _fixed_directions(bc: BoundaryCondition) -> np.ndarray:
    """Unit (thx, thy) directions (k, 2) of the rotations bc fixes at each
    of its nodes: (1, 0) and (0, 1) on a clamped edge, the edge's unit
    tangent t on a symmetry edge (normal slope (thx, thy) . t = 0) and
    (ty, -tx) on a hard simply supported edge (tangential slope = 0)."""
    d = bc.edge[1] - bc.edge[0]
    L = float(np.linalg.norm(d))
    if bc.kind == BCKind.CLAMPED:
        dirs = [(1.0, 0.0), (0.0, 1.0)]
    elif bc.kind == BCKind.SYMMETRY:
        dirs = [d / L]
    elif bc.kind == BCKind.SIMPLY_SUPPORTED and bc.hard and L > 0:
        t = d / L
        dirs = [(t[1], -t[0])]
    else:
        dirs = []
    units = [v / np.linalg.norm(v) for v in np.array(dirs, dtype=float)]
    return np.array(units).reshape(-1, 2)


def apply_boundary_conditions(system: GlobalSystem,
                              bcs: list[BoundaryCondition] | None = None) -> GlobalSystem:
    """Eliminate constrained dofs; returns a system with K_red installed
    and the conditions it eliminated (bcs, the model's when None).

    The reduction matrix C (full = C @ reduced) gives each node, in node
    order, these columns:
    - w, unless a clamped or simply supported edge holds the node;
    - of the rotation pair (thx, thy), 2 columns when no edge fixes a
      rotation direction at the node; 1 column, the unit normal to the
      first fixed direction, when every fixed direction is parallel to
      that one within _PAIR_TOL; 0 columns when two of them cross.
    The fixed directions of each condition come from `_fixed_directions`.
    """
    bcs = system.model.bcs if bcs is None else bcs
    free_w = np.ones(system.n_nodes, dtype=bool)
    # one row per (node, fixed direction), in condition, node, direction order
    nodes, dirs = [np.zeros(0, dtype=np.intp)], [np.zeros((0, 2))]
    edges = np.array([bc.edge for bc in bcs]).reshape(-1, 2, 1, 2)
    on_edge = _segment_distance(system.node_coords, edges[:, 0], edges[:, 1]) <= system.merge_tol
    for bc, on in zip(bcs, on_edge):
        ids = np.flatnonzero(on)
        if len(ids) == 0:
            raise EmptyEdge(f"no nodes found on edge {bc.edge.tolist()}")
        if bc.kind in (BCKind.CLAMPED, BCKind.SIMPLY_SUPPORTED):
            free_w[ids] = False
        units = _fixed_directions(bc)
        nodes.append(np.repeat(ids, len(units)))
        dirs.append(np.tile(units, (len(ids), 1)))
    nodes, dirs = np.concatenate(nodes), np.concatenate(dirs)
    # a node with a direction not parallel to its first one is fully fixed
    held, first, inverse = np.unique(nodes, return_index=True, return_inverse=True)
    cos = np.einsum("ij,ij->i", dirs, dirs[first][inverse])
    crossing = np.abs(np.abs(cos) - 1.0) > _PAIR_TOL
    n_rot = np.full(system.n_nodes, 2)
    n_rot[held] = 1
    n_rot[nodes[crossing]] = 0

    n_cols = free_w + n_rot
    w_col = np.cumsum(n_cols) - n_cols
    rot_col = w_col + free_w
    # the column and coefficient of each dof, -1 where it has none: C has
    # at most one entry a row, so its CSR rows need no sort
    col, val = np.full((system.n_nodes, 3), -1), np.ones((system.n_nodes, 3))
    w, pair = np.flatnonzero(free_w), np.flatnonzero(n_rot == 2)
    col[w, 0] = w_col[w]
    col[pair, 1], col[pair, 2] = rot_col[pair], rot_col[pair] + 1
    one = n_rot[held] == 1
    single, u = held[one], dirs[first[one]]
    col[single, 1] = col[single, 2] = rot_col[single]
    val[single, 1], val[single, 2] = -u[:, 1], u[:, 0]
    has = col.ravel() >= 0
    dofs, cols, vals = np.flatnonzero(has), col.ravel()[has], val.ravel()[has]
    shape = (system.n_dofs, int(n_cols.sum()))
    C = sp.csr_matrix((vals, cols, np.concatenate([[0], np.cumsum(has)])), shape=shape)
    # the columns do not decrease in dof order, so the rows of C^T are runs
    # of dofs in increasing order: the CSR that C.T.tocsr() builds
    Ct = sp.csr_matrix((vals, dofs, np.searchsorted(cols, np.arange(shape[1] + 1))),
                       shape=shape[::-1])
    # (C^T K) C in CSR throughout: a column of C holds at most two entries,
    # so each entry sums at most two products and has the bits of any order
    K_red = (Ct @ system.K) @ C
    K_red.sort_indices()
    rhs_red = Ct @ system.rhs
    return replace(system, C=C, K_red=K_red, rhs_red=rhs_red, bcs=bcs)
