"""Triangle frames, refinement grids and the hexagonal nodal support.

The canonical local frame places vertex 1 at the origin and vertex 2 at
(a, 0).  The apex sits at (a*(1 - h/b), h) where h is the triangle height
and b >= h is the vertical intercept of the far sideline.  Around every
grid node, the basis is supported on a hexagon made of six triangular
sub-domains D1..D6 congruent (up to point reflection) to the element
shape.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CollinearVertices, IndexOutOfGrid, NoValidLabeling

_REL_TOL = 1e-12
#: closure test on barycentric coordinates: a point lies in a triangle when
#: every coordinate is >= -CONTAIN_TOL.  Scale-free, since the coordinates
#: are relative to the triangle itself.
CONTAIN_TOL = 1e-9


class HexDomain(enum.Enum):
    """One of the six hexagon sub-domains around a node, or outside."""

    D1 = 1
    D2 = 2
    D3 = 3
    D4 = 4
    D5 = 5
    D6 = 6
    OUTSIDE = 0


# Each domain triangle expressed through the neighbor offsets u = (a, 0)
# and v = apex.  Rows: (coeff_u, coeff_v) per local vertex 1..3; the last
# entry is the local vertex index (1-based) taken by the central node.
_DOMAIN_TABLE = {
    HexDomain.D1: (((0, 0), (1, 0), (0, 1)), 1),
    HexDomain.D2: (((0, 1), (-1, 1), (0, 0)), 3),
    HexDomain.D3: (((-1, 0), (0, 0), (-1, 1)), 2),
    HexDomain.D4: (((0, 0), (-1, 0), (0, -1)), 1),
    HexDomain.D5: (((0, -1), (1, -1), (0, 0)), 3),
    HexDomain.D6: (((1, 0), (0, 0), (1, -1)), 2),
}

_DOMAIN_UV = {dom: np.array(coeffs) for dom, (coeffs, _) in _DOMAIN_TABLE.items()}

_DOMAIN_ORDER = (
    HexDomain.D1,
    HexDomain.D2,
    HexDomain.D3,
    HexDomain.D4,
    HexDomain.D5,
    HexDomain.D6,
)


def domain_triangles_of(uv, u, v) -> np.ndarray:
    """Local vertices (..., 3, 2) of hexagon sub-domains with (u, v)
    coefficients uv (..., 3, 2), from node offsets u and v (..., 2)."""
    return uv[..., :1] * u + uv[..., 1:] * v


@dataclass
class LocalFrame:
    """Canonical description of a triangular element.

    a: bottom side length, h: height of the apex, b: vertical intercept of
    the far sideline (b >= h).  origin/rotation place the local frame in
    global coordinates: global = origin + R(rotation) @ local.
    """

    a: float
    h: float
    b: float
    origin: np.ndarray = field(default_factory=lambda: np.zeros(2))
    rotation: float = 0.0

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        if not (0.0 < self.a < math.inf and 0.0 < self.h < math.inf):
            raise ValueError("frame requires finite a > 0 and h > 0")
        if not math.isfinite(self.b) or self.b < self.h * (1.0 - 1e-9):
            raise ValueError("frame requires finite b >= h")

    @property
    def apex_x(self) -> float:
        return self.a * (1.0 - self.h / self.b)

    @property
    def area(self) -> float:
        return 0.5 * self.a * self.h

    @property
    def u(self) -> np.ndarray:
        """Offset from the origin node to its neighbor along the bottom side."""
        return np.array([self.a, 0.0])

    @property
    def v(self) -> np.ndarray:
        """Offset from the origin node to the apex."""
        return np.array([self.apex_x, self.h])

    def rotation_matrix(self) -> np.ndarray:
        return rotation_matrices([self.rotation])[0]

    def to_global(self, p_local) -> np.ndarray:
        p = np.asarray(p_local, dtype=float)
        return p @ self.rotation_matrix().T + self.origin

    def to_local(self, p_global) -> np.ndarray:
        p = np.asarray(p_global, dtype=float)
        return (p - self.origin) @ self.rotation_matrix()

    def local_vertices(self) -> np.ndarray:
        return np.array([[0.0, 0.0], [self.a, 0.0], [self.apex_x, self.h]])

    def global_vertices(self) -> np.ndarray:
        return self.to_global(self.local_vertices())

    def domain_triangle(self, domain: HexDomain) -> np.ndarray:
        """Local vertices (3, 2) of one hexagon sub-domain, vertex order 1..3."""
        return self.domain_triangles([domain])[0]

    def domain_triangles(self, domains) -> np.ndarray:
        """Local vertices (len(domains), 3, 2) of several hexagon sub-domains."""
        uv = np.array([_DOMAIN_UV[d] for d in domains])
        return domain_triangles_of(uv, self.u, self.v)

    def domain_center_vertex(self, domain: HexDomain) -> int:
        """Local vertex index (1-based) occupied by the node at the origin."""
        return _DOMAIN_TABLE[domain][1]


def rotation_matrices(angles) -> np.ndarray:
    """Rotation matrices R (E, 2, 2) of the frame rotation angles (E,),
    global = origin + R @ local, from math.cos and math.sin (np.cos can
    differ from them by one ulp).  The one local-to-global rotation."""
    c, s = np.array([(math.cos(t), math.sin(t)) for t in angles]).reshape(-1, 2).T
    return np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)


def canonicalize_triangle(v1, v2, v3) -> LocalFrame:
    """Build the canonical frame for a triangle given in global coordinates.

    Vertices are cyclically relabeled until the far-sideline intercept
    satisfies b >= h.  Clockwise input is reversed first; node identity in
    an assembled model is positional, so the relabeling is unobservable.

    x3 and h come from `np.dot`, a BLAS dot product, whose rounding can
    differ from the plain products of `canonicalize_triangles` (skew-60's
    second element: h 0x1.bb67ae8584cabp-1 here, ...cacp-1 there), so the
    frozen benchmark values depend on the BLAS build.  One routine for both
    moves the skew-60 m = 48 deflection by 1.5e-10 relative; it waits for a
    reference refresh.
    """
    verts = [np.asarray(v, dtype=float) for v in (v1, v2, v3)]
    e1 = verts[1] - verts[0]
    e2 = verts[2] - verts[0]
    twice_area = e1[0] * e2[1] - e1[1] * e2[0]
    longest = max(np.linalg.norm(verts[i] - verts[j]) for i, j in ((0, 1), (1, 2), (2, 0)))
    if abs(twice_area) <= 2e-12 * longest**2:
        raise CollinearVertices(f"triangle with vertices {verts} is degenerate")
    if twice_area < 0.0:
        verts = [verts[0], verts[2], verts[1]]

    for shift in range(3):
        p1, p2, p3 = (verts[(shift + k) % 3] for k in range(3))
        a = float(np.linalg.norm(p2 - p1))
        t = (p2 - p1) / a
        n = np.array([-t[1], t[0]])
        x3 = float(np.dot(p3 - p1, t))
        h = float(np.dot(p3 - p1, n))
        # valid labeling: apex projects into [0, a) so that b is finite, >= h
        if x3 >= -_REL_TOL * a and (a - x3) > _REL_TOL * a:
            b = h * a / (a - x3)
            b = max(b, h)  # guard rounding when the apex sits right above v1
            return LocalFrame(a=a, h=h, b=b, origin=p1.copy(),
                              rotation=math.atan2(t[1], t[0]))
    raise NoValidLabeling("no cyclic labeling gives a valid canonical frame")


class FrameStack(NamedTuple):
    """Frames stacked for array code, each row with the bits of its frame.

    a, h and b are (E, 1) columns, so that `grid_positions` takes a stack
    for its frame with grid indices of shape (E, n); origin is (E, 2) and
    R (E, 2, 2) holds each frame's `rotation_matrix`.
    """

    a: np.ndarray
    h: np.ndarray
    b: np.ndarray
    origin: np.ndarray
    R: np.ndarray

    @classmethod
    def of(cls, frames) -> "FrameStack":
        n = len(frames)
        a, h, b = np.array([(f.a, f.h, f.b) for f in frames],
                           dtype=float).reshape(n, 3).T[:, :, None]
        origin = np.array([f.origin for f in frames], dtype=float).reshape(n, 2)
        return cls(a, h, b, origin, rotation_matrices([f.rotation for f in frames]))

    def take(self, rows) -> "FrameStack":
        return FrameStack(*(x[rows] for x in self))

    def local_vertices(self) -> np.ndarray:
        """Each frame's `local_vertices`, (E, 3, 2)."""
        v = np.zeros((len(self.a), 3, 2))
        v[:, 1, 0] = self.a[:, 0]
        v[:, 2, 0] = (self.a * (1.0 - self.h / self.b))[:, 0]
        v[:, 2, 1] = self.h[:, 0]
        return v

    def to_global(self, p_local: np.ndarray) -> np.ndarray:
        """Each frame's `to_global` of its local points (E, n, 2)."""
        return np.matmul(p_local, self.R.transpose(0, 2, 1)) + self.origin[:, None]


# (p1, p2, p3) of the three cyclic labelings of a triangle
_CYCLIC_SHIFTS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


class CanonicalFrames(NamedTuple):
    """Canonical frames of stacked triangles, one entry per triangle."""

    vertices: np.ndarray   # (n, 3, 2) global vertices in local order
    a: np.ndarray
    h: np.ndarray
    b: np.ndarray
    rotation: np.ndarray


def canonicalize_triangles(triangles) -> CanonicalFrames:
    """`canonicalize_triangle` applied to (n, 3, 2) stacked triangles at once.

    The first relabeled vertex of each triangle is its frame's origin.
    """
    v = np.asarray(triangles, dtype=float)
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    twice_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    longest = np.linalg.norm(v - v[:, [1, 2, 0]], axis=-1).max(axis=1)
    degenerate = np.abs(twice_area) <= 2e-12 * longest**2
    if degenerate.any():
        raise CollinearVertices(
            f"triangle {int(np.argmax(degenerate))} of the stack is degenerate")
    v = np.where((twice_area < 0.0)[:, None, None], v[:, [0, 2, 1]], v)
    labeled = v[:, _CYCLIC_SHIFTS]             # (n, labeling, vertex, 2)
    d = labeled[:, :, 1] - labeled[:, :, 0]
    r = labeled[:, :, 2] - labeled[:, :, 0]
    a = np.linalg.norm(d, axis=-1)
    t = d / a[..., None]
    x3 = r[..., 0] * t[..., 0] + r[..., 1] * t[..., 1]
    h = r[..., 1] * t[..., 0] - r[..., 0] * t[..., 1]
    valid = (x3 >= -_REL_TOL * a) & (a - x3 > _REL_TOL * a)
    if not valid.any(axis=1).all():
        raise NoValidLabeling("no cyclic labeling gives a valid canonical frame")
    rows, k = np.arange(len(v)), valid.argmax(axis=1)
    a, h, x3, t = a[rows, k], h[rows, k], x3[rows, k], t[rows, k]
    # b >= h guards rounding when the apex sits right above v1
    b = np.maximum(h * a / (a - x3), h)
    return CanonicalFrames(labeled[rows, k], a, h, b, np.arctan2(t[:, 1], t[:, 0]))


def grid_size(m: int) -> int:
    return (m + 1) * (m + 2) // 2


def grid_indices(m: int) -> list[tuple[int, int]]:
    """All (r, s) with m >= r >= s >= 0, ordered by s then r."""
    if m < 1:
        raise IndexOutOfGrid(f"resolution m must be >= 1, got {m}")
    return [(r, s) for s in range(m + 1) for r in range(s, m + 1)]


def grid_index_arrays(m: int) -> tuple[np.ndarray, np.ndarray]:
    """`grid_indices` as two integer arrays r, s in the same order."""
    if m < 1:
        raise IndexOutOfGrid(f"resolution m must be >= 1, got {m}")
    s = np.repeat(np.arange(m + 1), np.arange(m + 1, 0, -1))
    return np.arange(grid_size(m)) - grid_ordinal(m, s, s) + s, s


def grid_ordinal(m: int, r, s):
    """`node_ordinal` of (r, s) without the range check; r and s may be
    integer arrays.  Rows 0 to s - 1 hold m + 1, m, ..., m + 2 - s nodes,
    s (2m + 3 - s) / 2 in all, and row s starts at r = s, so the ordinal
    is s (2m + 1 - s) / 2 + r, an integer as s (1 - s) is even."""
    return s * (2 * m + 1 - s) // 2 + r


def node_ordinal(m: int, idx: tuple[int, int]) -> int:
    """Position of grid index (r, s) in the fixed s-major ordering."""
    r, s = idx
    if not (m >= r >= s >= 0):
        raise IndexOutOfGrid(f"index {idx} outside grid of resolution {m}")
    return grid_ordinal(m, r, s)


def grid_positions(frame: LocalFrame, m: int, r, s) -> np.ndarray:
    """Local coordinates (..., 2) of grid nodes (r, s), unchecked; r and s
    may be integer arrays of one shape, (E, n) for a `FrameStack` of E
    frames.  The one node-position expression."""
    out = np.empty(np.shape(r) + (2,))
    out[..., 0] = (frame.a / m) * (r - s * frame.h / frame.b)
    out[..., 1] = (s / m) * frame.h
    return out


def node_position(frame: LocalFrame, m: int, idx: tuple[int, int]) -> np.ndarray:
    """Local coordinates of grid node (r, s) at resolution m."""
    r, s = idx
    if not (m >= r >= s >= 0):
        raise IndexOutOfGrid(f"index {idx} outside grid of resolution {m}")
    return grid_positions(frame, m, r, s)


def node_positions(frame: LocalFrame, m: int) -> np.ndarray:
    """Local coordinates (n, 2) of every grid node in `grid_indices` order."""
    return grid_positions(frame, m, *grid_index_arrays(m))


#: up cells [0] and down cells [1]: (dr, ds) offsets of the corners from
#: the cell's base node (r, s), and the hexagon domain each corner shows
#: its cell
_CELL_SHAPES = (
    (((0, 0), (1, 0), (1, 1)), (HexDomain.D1, HexDomain.D3, HexDomain.D5)),
    (((0, 0), (1, 1), (0, 1)), (HexDomain.D2, HexDomain.D4, HexDomain.D6)),
)
_CELL_OFFSETS = np.array([offsets for offsets, _ in _CELL_SHAPES])
# per orientation, the domain each corner shows its cell: its (u, v)
# coefficients, its `domain_center_vertex` (0-based) and its name, indexed
# [down, corner]
_CELL_UV = np.array([[_DOMAIN_UV[d] for d in ds] for _, ds in _CELL_SHAPES])
_CELL_I0 = np.array([[_DOMAIN_TABLE[d][1] - 1 for d in ds] for _, ds in _CELL_SHAPES])
_CELL_NAMES = np.array([[d.name for d in ds] for _, ds in _CELL_SHAPES])


def subtriangle_partition(frame: LocalFrame, m: int) -> np.ndarray:
    """Local vertices (m*m, 3, 2) of the m x m congruent cells of the element.

    Upward cells are (r,s), (r+1,s), (r+1,s+1); downward cells are
    (r,s), (r+1,s+1), (r,s+1).  The corner grid indices and down-cell mask
    of each row are `partition_corners(m)`.
    """
    corners, _ = partition_corners(m)
    return grid_positions(frame, m, corners[..., 0], corners[..., 1])


def triangle_areas(vertices: np.ndarray) -> np.ndarray:
    """Areas (k,) of triangles with vertices (k, 3, 2)."""
    e1 = vertices[:, 1] - vertices[:, 0]
    e2 = vertices[:, 2] - vertices[:, 0]
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def partition_corners(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Corner grid indices (m*m, 3, 2) of every cell of the partition, and
    a (m*m,) mask of its down cells, in `subtriangle_partition` order.

    Row s holds its m-s up cells, then its m-s-1 down cells, after the
    s*(2m-s) cells of the rows below.
    """
    if m < 1:
        raise IndexOutOfGrid(f"resolution m must be >= 1, got {m}")
    s = np.repeat(np.arange(m), 2 * (m - np.arange(m)) - 1)
    j = np.arange(m * m) - s * (2 * m - s)       # place in row s
    down = j >= m - s
    r = s + j - down * (m - s - 1)
    return cell_corners(r, s, down), down


def cell_corners(r, s, down) -> np.ndarray:
    """Corner grid indices (k, 3, 2) of the up or down cells at base nodes (r, s)."""
    offsets = _CELL_OFFSETS[np.asarray(down, dtype=np.intp)]
    return np.stack([r, s], axis=-1)[:, None] + offsets


# cyclic successor j and predecessor k of each vertex i
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def barycentric_coeffs(vertices: np.ndarray):
    """Affine coefficients of the barycentric coordinates of a triangle.

    Returns (a0, bb, cc, twoA) with L_i(x, y) = (a0_i + bb_i x + cc_i y)/twoA,
    using the cyclic convention bb_i = y_j - y_k, cc_i = x_k - x_j.
    vertices may carry leading batch axes, (..., 3, 2).  The successor
    and predecessor vertices are each taken once, both coordinates
    together, and every step is elementwise, so each triangle is rounded
    as if alone.
    """
    vj = vertices.take(_NEXT, axis=-2)
    vk = vertices.take(_PREV, axis=-2)
    xj, yj = vj[..., 0], vj[..., 1]
    xk, yk = vk[..., 0], vk[..., 1]
    bb = yj - yk
    cc = xk - xj
    a0 = xj * yk - xk * yj
    twoA = a0.sum(axis=-1)
    return a0, bb, cc, twoA


def barycentric(vertices: np.ndarray, p) -> np.ndarray:
    """Barycentric coordinates (..., 3) of points p (..., 2) in triangles
    (..., 3, 2); their leading axes broadcast, so one triangle takes many
    points and one point many triangles, each rounded as if alone."""
    return barycentric_at(barycentric_coeffs(vertices), p)


def barycentric_at(coeffs, p) -> np.ndarray:
    """`barycentric` from the triangles' `barycentric_coeffs`."""
    a0, bb, cc, twoA = coeffs
    p = np.asarray(p, dtype=float)
    return (a0 + p[..., :1] * bb + p[..., 1:] * cc) / twoA[..., None]


def hexagon_domain_of(p, frame: LocalFrame, tol: float = 1e-12) -> HexDomain:
    """Classify a point (relative to a node at the origin) into D1..D6.

    Points on shared sub-domain edges go to the lower-numbered domain;
    points outside the hexagon return OUTSIDE.
    """
    return HexDomain(int(classify_points(np.reshape(p, 2), frame, tol)[0]))


def classify_points(points: np.ndarray, frame: LocalFrame, tol: float = 1e-12) -> np.ndarray:
    """Vectorized hexagon classification, one closure test of all six domains;
    returns the number of the lowest domain holding each point (0 = outside)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    L = barycentric(frame.domain_triangles(_DOMAIN_ORDER), points[:, None])
    inside = np.all(L >= -tol, axis=-1)                     # (n, 6)
    return np.where(inside.any(axis=1), np.argmax(inside, axis=1) + 1, 0)


def pairs_within(centers, points, radius) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) of a center (n, 2) and a point (k, 2) with
    dx^2 + dy^2 <= r^2, r the radius, one for all centers or one each (n,).

    A uniform grid (Teschner et al., VMV 2003): the points are sorted by
    the key of their cell, a little over max(radius), and each center's
    3 x 3 block of cells is three key ranges found by `searchsorted`, so the
    work grows with the candidate pairs, not with centers x points.  The
    margin of 2^-16 keeps a pair at exactly the radius two cells apart at
    most, however (x - lo) / cell rounds.  The cell never drops below
    span * 2^-30 of the box around both sets, so every key fits in int64.
    The pairs come in center order.
    """
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    n, r2 = len(c), np.square(np.asarray(radius, dtype=float))
    if not (n and len(p)):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    # x and y as contiguous rows, centers first: reductions and gathers
    # along a row cost a fraction of those along a column of (n, 2)
    both = np.concatenate([c, p]).T.copy()
    lo = both.min(axis=1)[:, None]
    span = float((both.max(axis=1)[:, None] - lo).max())
    cell = max(math.sqrt(float(r2.max())) * (1.0 + 2.0**-16), span * 2.0**-30) or 1.0
    # (x - lo) / cell >= 0 rounds to at most span / cell, so the cast floors
    # it to a row below `rows`; a column of rows + 1 keys leaves its last
    # one empty, so a center's three rows never reach into the next column
    rows = int(span / cell) + 1
    cells = ((both - lo) / cell).astype(np.int64)
    keys = cells[0] * (rows + 1) + cells[1]
    order = np.argsort(keys[n:], kind="stable")
    key = keys[n:][order]
    low = (keys[:n, None] + np.array([-rows - 2, -1, rows])).ravel()
    start = np.searchsorted(key, low)
    counts = np.searchsorted(key, low + 3) - start
    i = np.repeat(np.arange(n), counts.reshape(n, 3).sum(axis=1))
    j = order[np.repeat(start - (np.cumsum(counts) - counts), counts) + np.arange(len(i))]
    x, y = both
    dx, dy = x[n + j] - x[i], y[n + j] - y[i]
    keep = dx * dx + dy * dy <= (r2 if r2.ndim == 0 else r2[i])
    return i[keep], j[keep]
