"""Multiresolution plate-bending element: stiffness and load integrals.

Element degrees of freedom are (w, thx, thy) per grid node in the fixed
s-major node order.  Curvatures are kappa = -(w_xx, w_yy, 2 w_xy); the
moment-curvature law is M = D_b kappa with the isotropic bending matrix.
"""
from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import OutsideElement, QuadratureFailure
from .geometry import (
    CONTAIN_TOL,
    LocalFrame,
    barycentric,
    canonicalize_triangle,
    cell_corners,
    grid_indices,
    grid_ordinal,
    grid_positions,
    grid_size,
    node_ordinal,
    node_positions,
    partition_corners,
    subtriangle_partition,
    triangle_areas,
)
from .quadrature import triangle_rule
from .shapefn import LRUTable, cells_basis, subtriangle_basis

#: Degree of the cell integration rule.  The stiffness integrand is
#: quadratic (products of second derivatives of cubics), so every rule of
#: degree >= 2 integrates it exactly, and rules of degree 2 to 6 give the
#: same stiffness and uniform load to roundoff; degree 5 is the rule the
#: element has always used, so its bits stay as they were.
QUADRATURE_DEGREE = 5

#: (key, orientation) pairs per basis-kernel call of `_fill_basis`:
#: keeps the kernel's temporaries near 2 MB
_CHUNK = 16


@dataclass
class PlateMaterial:
    """Isotropic thin-plate material: Young's modulus, thickness, Poisson ratio."""

    E: float
    t: float
    nu: float

    def __post_init__(self):
        if not (0 < self.E < math.inf and 0 < self.t < math.inf):
            raise ValueError("material requires finite E > 0 and t > 0")
        if not 0 <= self.nu < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 0.5)")

    @property
    def rigidity(self) -> float:
        return self.E * self.t**3 / (12.0 * (1.0 - self.nu**2))


def bending_rigidity(material: PlateMaterial) -> np.ndarray:
    """3x3 moment-curvature matrix for (kx, ky, kxy) ordering."""
    nu = material.nu
    return material.rigidity * np.array([
        [1.0, nu, 0.0],
        [nu, 1.0, 0.0],
        [0.0, 0.0, (1.0 - nu) / 2.0],
    ])


@dataclass
class MRElement:
    """One triangular element refined internally at resolution m."""

    frame: LocalFrame
    m: int
    material: PlateMaterial

    def __post_init__(self):
        try:
            m = operator.index(self.m)
        except TypeError:
            raise ValueError(f"resolution m must be an integer, got {self.m!r}") from None
        if m < 1:
            raise ValueError("resolution m must be >= 1")

    @classmethod
    def from_vertices(cls, v1, v2, v3, m: int,
                      material: PlateMaterial) -> "MRElement":
        return cls(canonicalize_triangle(v1, v2, v3), m, material)

    @property
    def node_count(self) -> int:
        return grid_size(self.m)

    @property
    def dof_count(self) -> int:
        return 3 * self.node_count

    def nodes(self) -> list[tuple[int, int]]:
        return grid_indices(self.m)

    def node_positions_local(self) -> np.ndarray:
        return node_positions(self.frame, self.m)

    def node_positions_global(self) -> np.ndarray:
        return self.frame.to_global(self.node_positions_local())

    def partition(self) -> np.ndarray:
        """Local vertices (m*m, 3, 2) of every cell, built anew on each call;
        `partition_corners(m)` gives their corners and orientations."""
        return subtriangle_partition(self.frame, self.m)

    def dof_slice(self, idx: tuple[int, int]) -> slice:
        k = node_ordinal(self.m, idx)
        return slice(3 * k, 3 * k + 3)


def _cell_quadrature(vertices: np.ndarray, degree: int):
    """Points (k, npts, 2) and weights (k, npts) of the degree rule on
    the cells with vertices (k, 3, 2)."""
    if degree < 2:
        # the stiffness integrand is quadratic; lower rules are not exact
        raise QuadratureFailure(
            f"element integrals need quadrature degree >= 2, got {degree}")
    bary, w = triangle_rule(degree)
    area = triangle_areas(vertices)
    if np.any(area <= 0.0):
        raise QuadratureFailure("degenerate sub-triangle")
    return np.matmul(bary, vertices), w * area[:, None]


def _values(value: np.ndarray) -> np.ndarray:
    """(k, npts, 9) deflection-interpolation rows of the nine local dofs of
    k cells, from their `cells_basis` values (k, 3, 3, npts)."""
    k, n = value.shape[0], value.shape[-1]
    return np.ascontiguousarray(value.reshape(k, 9, n).transpose(0, 2, 1))


def _curvatures(hess: np.ndarray) -> np.ndarray:
    """(k, npts, 3, 9) curvature matrices -(w_xx, w_yy, 2 w_xy) of the nine
    local dofs of k cells, from their `cells_basis` Hessians
    (k, 3, 3, npts, 3)."""
    k, n = hess.shape[0], hess.shape[3]
    hess = np.ascontiguousarray(hess.reshape(k, 9, n, 3).transpose(0, 2, 3, 1))
    return hess * np.array([-1.0, -1.0, -2.0])[:, None]


#: the (w, thx, thy) dofs of a node, after its 3 * ordinal
_NODE_DOFS = np.arange(3)


def _corner_dofs(m: int, corners: np.ndarray) -> np.ndarray:
    """(n_cells, 9) element dofs of cells with corner grid indices (n, 3, 2)."""
    k = grid_ordinal(m, corners[..., 0], corners[..., 1])
    return (3 * k[:, :, None] + _NODE_DOFS).reshape(len(k), 9)


@lru_cache(maxsize=8)
def _partition_dofs(m: int) -> tuple[np.ndarray, ...]:
    """`_corner_dofs` of the whole partition, the orientation (0 up,
    1 down) of each cell, and the CSR pattern of the element stiffness:
    the slot of each cell-matrix entry among the distinct (row, col) pairs
    in row-major order, their column indices, and the row pointers, both
    in the int32 a CSR of this size keeps.  All read-only."""
    corners, down = partition_corners(m)
    dofs = _corner_dofs(m, corners)
    n = 3 * grid_size(m)
    key = (dofs[:, :, None] * n + dofs[:, None, :]).ravel()
    uniq, slot = np.unique(key, return_inverse=True)
    row, indices = np.divmod(uniq, n)
    indptr = np.searchsorted(row, np.arange(n + 1))
    arrays = (dofs, down.astype(np.intp), slot, indices.astype(np.int32),
              indptr.astype(np.int32))
    for a in arrays:
        a.flags.writeable = False
    return arrays


#: corner grid indices (2, 3, 2) of the first up and the first down cell
_FIRST_CELLS = cell_corners(np.array([0, 1]), np.array([0, 0]), np.array([False, True]))


class CellIntegrals(NamedTuple):
    """The cell integrals of one (`_basis_key`, degree), one row per cell
    orientation: up, then down when m > 1.  Read-only, kept in
    `_integral_table` and shared by every element of that key."""

    K: np.ndarray          # (o, 9, 9) cell stiffness
    f: np.ndarray          # (o, 9) load row wq @ N of a unit pressure


#: entries `_integral_table` keeps, about 1.5 KB each, or the keys of the
#: latest `_fill_basis` that computes if those are more
INTEGRAL_TABLE_BOUND = 1024

#: the `CellIntegrals` of every (`_basis_key`, degree) filled, least
#: recently used first (see `_fill_basis`)
_integral_table = LRUTable(INTEGRAL_TABLE_BOUND)


def _basis_key(elem: MRElement) -> tuple:
    """Everything an element's `CellIntegrals` depend on: the float64 bits
    of its frame's shape (a, h, b) and of its material's E, t and nu, and
    its resolution m."""
    f, mat = elem.frame, elem.material
    return struct.pack("6d", f.a, f.h, f.b, mat.E, mat.t, mat.nu), elem.m


def _cell_stiffness(wq: np.ndarray, B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """9x9 stiffness (k, 9, 9) of k cells with rule weights wq (k, npts),
    curvature matrices B (k, npts, 3, 9) and rigidity D (k, 3, 3).

    w_q B_qai D_ab B_qbj is summed over (q, a, b) in that order, with the
    bits of einsum("q,qai,ab,qbj->ij") per cell at half its cost.
    """
    wB = (wq[:, :, None, None] * B)[:, :, :, None, :] * D[:, None, :, :, None]
    kc = (wB[..., None] * B[:, :, None, :, None, :]).reshape(len(B), -1, 81).sum(axis=1)
    kc = kc.reshape(-1, 9, 9)
    return 0.5 * (kc + kc.transpose(0, 2, 1))


def _first_cells(jobs, degree: int) -> tuple[np.ndarray, ...]:
    """Rule weights wq (k, npts), deflection rows N (k, npts, 9) and
    curvature matrices B (k, npts, 3, 9) of the first up or down cell of
    k (element, down) jobs, from one `cells_basis` call."""
    down = [d for _, d in jobs]
    vertices = np.array([grid_positions(elem.frame, elem.m, *_FIRST_CELLS[int(d)].T)
                         for elem, d in jobs])
    pts, wq = _cell_quadrature(vertices, degree)
    value, _, hess = cells_basis([elem.frame for elem, _ in jobs],
                                 [elem.m for elem, _ in jobs], vertices, down, pts,
                                 grad=False)
    return wq, _values(value), _curvatures(hess)


def _fill_basis(elements, degree: int) -> list:
    """The `CellIntegrals` of each element at the quadrature degree, from
    `_integral_table`; the keys it lacks are computed in one pass.

    Cells of equal orientation are translates of each other, so an element
    needs the rule, N and B of its first up cell and (m > 1) its first down
    cell only.  These depend on the frame's shape (a, h, b) and m alone,
    and the cell stiffness also on the material, so elements of equal
    `_basis_key` get equal arrays, bit for bit, in every model: one table
    keeps them per (`_basis_key`, degree), and a material changed in place
    is a new key.  The first element of each missing key is evaluated
    through `cells_basis` (`_first_cells`), `_CHUNK` (key, orientation)
    pairs per kernel call, and the 9x9 cell stiffness (`_cell_stiffness`)
    and the load row wq @ N of each pair come from one stacked product per
    call, each with the bits of computing it alone.  Only those two are
    kept.  The table keeps every key of this call, so the element matrices
    of one assembly read it without a refill, and evicts the least
    recently used others beyond `INTEGRAL_TABLE_BOUND`.
    """
    first = {}
    keys = [(_basis_key(elem), degree) for elem in elements]
    for key, elem in zip(keys, elements):
        first.setdefault(key, elem)

    def build(missing):
        jobs = [(first[key], down) for key in missing
                for down in ((False, True) if first[key].m > 1 else (False,))]
        parts = []
        for start in range(0, len(jobs), _CHUNK):
            chunk = jobs[start:start + _CHUNK]
            wq, N, B = _first_cells(chunk, degree)
            D = np.array([bending_rigidity(elem.material) for elem, _ in chunk])
            parts.append((_cell_stiffness(wq, B, D), np.matmul(wq[:, None], N)[:, 0]))
        kc, f = (np.concatenate(a) for a in zip(*parts))
        built, row = [], 0
        for key in missing:
            o = 2 if first[key].m > 1 else 1
            built.append(CellIntegrals(kc[row:row + o].copy(), f[row:row + o].copy()))
            row += o
        return built

    return _integral_table.get(keys, build)


def _distinct_by_resolution(elements, ms: np.ndarray, degree: int | None) -> list:
    """(m, rows, cells, inverse) per resolution m of the elements with the
    resolutions ms (E,): their positions (k,) in the sequence, the distinct
    `CellIntegrals` among them at the degree (None means
    `QUADRATURE_DEGREE`) and each one's index into those (k,), all from
    one `_fill_basis` lookup, in which elements of equal `_basis_key`
    share one entry."""
    entries = _fill_basis(elements, QUADRATURE_DEGREE if degree is None else degree)
    ids = np.array([id(c) for c in entries], dtype=np.int64)
    groups = []
    for m in np.unique(ms).tolist():
        rows = np.flatnonzero(ms == m)
        _, first, inverse = np.unique(ids[rows], return_index=True, return_inverse=True)
        groups.append((m, rows, [entries[r] for r in rows[first].tolist()], inverse))
    return groups


def _resolutions(elements) -> tuple[np.ndarray, ...]:
    """Resolutions (E,) and dof counts (E,) of the elements, and the first
    dof (E,) of each in their stacked dofs."""
    ms = np.array([elem.m for elem in elements], dtype=np.intp)
    n = 3 * grid_size(ms)
    return ms, n, np.cumsum(n) - n


def element_stiffness(elements, degree: int | None = None) -> sp.csr_matrix:
    """Bending stiffness of a sequence of elements: their 3n x 3n element
    matrices on the diagonal of one CSR, in sequence order (pass ``[elem]``
    for one element).

    The integrand per cell is quadratic (second derivatives of cubics),
    so the default `QUADRATURE_DEGREE` rule is exact.  An element's two
    9x9 cell matrices (up and down) are the ones `_integral_table` keeps
    per shape, m and material (`_fill_basis`), shared by every element of
    equal key; they are scattered through the pattern `_partition_dofs`
    keeps per m, once per distinct entry, each entry summed over its cells
    in partition order.  Per m, one gather then writes every element's
    values and its offset pattern into the block-diagonal arrays, so each
    block has the bits, and each row the entry order, of that element's
    matrix alone.
    """
    ms, n, row0 = _resolutions(elements)
    groups = _distinct_by_resolution(elements, ms, degree)
    nnz = np.zeros_like(n)
    for m, rows, _, _ in groups:
        nnz[rows] = len(_partition_dofs(m)[3])
    nz0 = np.cumsum(nnz) - nnz
    total = int(nnz.sum())
    # every row holds its diagonal entry, so total bounds every index
    index = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    data = np.empty(total)
    indices = np.empty(total, dtype=index)
    indptr = np.empty(int(n.sum()) + 1, dtype=index)
    indptr[-1] = total
    for m, rows, cells, inverse in groups:
        _, orientation, slot, cols, ptr = _partition_dofs(m)
        # bincount adds in input order; the cell matrices are exactly
        # symmetric, so each block is too
        values = np.array([np.bincount(slot, weights=c.K[orientation].ravel())
                           for c in cells])
        at = nz0[rows, None] + np.arange(len(cols))
        data[at] = values[inverse]
        indices[at] = cols + row0[rows, None]
        indptr[row0[rows, None] + np.arange(len(ptr) - 1)] = ptr[:-1] + nz0[rows, None]
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)


def element_load_uniform(elements, q: float, degree: int | None = None) -> np.ndarray:
    """Consistent load vectors of a sequence of elements for a uniform
    transverse pressure q, concatenated in sequence order (pass ``[elem]``
    for one element).

    Scatters the cell load rows `_integral_table` keeps beside the cell
    stiffness, once per distinct entry, and gathers them per m.
    """
    ms, n, row0 = _resolutions(elements)
    f = np.zeros(int(n.sum()))
    if q == 0.0:
        return f
    for m, rows, cells, inverse in _distinct_by_resolution(elements, ms, degree):
        dofs, orientation = _partition_dofs(m)[:2]
        size = 3 * grid_size(m)
        values = np.array([np.bincount(dofs.ravel(), weights=(q * c.f)[orientation].ravel(),
                                       minlength=size) for c in cells])
        f[row0[rows, None] + np.arange(size)] = values[inverse]
    return f


#: base-node offsets (dr, ds), orientations and corner offsets of the up and
#: down cells of the 3 x 3 window around a point's grid square, in
#: partition order: row by row, each row's up cells before its down cells
_WINDOW = np.array([(dr, ds) for ds in (-1, 0, 1) for _ in (0, 1) for dr in (-1, 0, 1)])
_WINDOW_DOWN = np.tile(np.repeat([False, True], 3), 3)
_WINDOW_CORNERS = cell_corners(*_WINDOW.T, _WINDOW_DOWN)


def _window_cells(m: int, r0: int, s0: int) -> tuple:
    """Orientations (j,) and corner offsets (j, 3, 2) from the base node
    (r0, s0) of the `_WINDOW` cells that lie in the grid of resolution m,
    in window order; read-only, from `_window_class`."""
    return _window_class(min(max(s0, -2), 1), min(max(m - 1 - s0, -2), 1),
                         min(max(m - 1 - r0, -2), 1), min(max(r0 - s0, -3), 3))


@lru_cache(maxsize=4 * 4 * 4 * 7)
def _window_class(s0: int, top: int, right: int, diagonal: int) -> tuple:
    """`_window_cells` of a base node (r0, s0) by its edge classes: s0,
    m - 1 - s0 and m - 1 - r0 clipped to [-2, 1] and r0 - s0 clipped to
    [-3, 3].  A window cell (r, s) = (r0 + dr, s0 + ds) lies in the grid
    when s >= 0, s < m, r < m and r >= s + down; with dr and ds in
    [-1, 1], each test reads its class alone, so the 448 classes are
    every entry the table can hold."""
    dr, ds = _WINDOW.T
    keep = ((s0 + ds >= 0) & (ds <= top) & (dr <= right)
            & (diagonal >= ds + _WINDOW_DOWN - dr))
    entry = (_WINDOW_DOWN[keep], _WINDOW_CORNERS[keep])
    for a in entry:
        a.flags.writeable = False
    return entry


def locate_subtriangle(elem: MRElement, p_local):
    """Every cell whose closure contains the local point p, in partition
    order: their vertices (j, 3, 2), corner grid indices (j, 3, 2) and
    down-cell mask (j,), j >= 1.  Row 0 is the first match.

    Inverting `node_position` maps p to grid coordinates (rc, sc), in which
    the up cell (r, s) and the down cell (r, s) both lie in the unit square
    [r, r+1] x [s, s+1].  A cell that holds p within the tolerance is
    therefore at most one grid step from the base node (floor(rc),
    floor(sc)), so only the cells of the fixed `_WINDOW` around it that
    lie in the grid are candidates: at most 18, whatever m is.  Which
    those are depends only on the base node's distance to the grid's
    three edges, and `_window_class` keeps them per class.  Their vertices
    (the partition's `grid_positions`) get one stacked closure test,
    rounded as a scan over all m*m cells rounds it, in partition order,
    so the tolerance band, the first match and the order of the matches
    (which sets moment_eval's averaging order) are the scan's; the hits
    are gathered once, by index.  Nothing of size m*m is kept and no
    partition is built.
    """
    p = np.asarray(p_local, dtype=float).reshape(2)
    frame, m = elem.frame, elem.m
    x, y = p.tolist()
    sc = m * y / frame.h
    rc = m * x / frame.a + sc * frame.h / frame.b
    if not (math.isfinite(rc) and math.isfinite(sc)):
        # NaN, inf or overflow: no cell holds it, and math.floor would raise
        raise OutsideElement(f"point {p} lies outside the element")
    # a base node beyond -2 or m + 1 puts the whole window off the grid
    r0, s0 = (min(max(math.floor(c), -2), m + 1) for c in (rc, sc))
    down, offsets = _window_cells(m, r0, s0)
    if not len(down):
        raise OutsideElement(f"point {p} lies outside the element")
    corners = offsets + np.array([r0, s0])
    vertices = grid_positions(frame, m, corners[..., 0], corners[..., 1])
    hits = np.flatnonzero((barycentric(vertices, p) >= -CONTAIN_TOL).all(axis=1))
    if not len(hits):
        raise OutsideElement(f"point {p} lies outside the element")
    return vertices.take(hits, axis=0), corners.take(hits, axis=0), down.take(hits)


def element_load_point(elem: MRElement, P: float, p_local) -> np.ndarray:
    """Consistent load vector for a transverse point load P at local p."""
    vertices, corners, down = locate_subtriangle(elem, p_local)
    N = subtriangle_basis(elem.frame, elem.m, vertices[:1], down[:1], p_local,
                          grad=False, hess=False)[0]
    f = np.zeros(elem.dof_count)
    f[_corner_dofs(elem.m, corners[:1])[0]] = P * N.ravel()
    return f
