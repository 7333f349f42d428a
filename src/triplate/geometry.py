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
        if not (self.a > 0.0 and self.h > 0.0):
            raise ValueError("frame requires a > 0 and h > 0")
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
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        return np.array([[c, -s], [s, c]])

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
        return uv[..., :1] * self.u + uv[..., 1:] * self.v

    def domain_center_vertex(self, domain: HexDomain) -> int:
        """Local vertex index (1-based) occupied by the node at the origin."""
        return _DOMAIN_TABLE[domain][1]


def canonicalize_triangle(v1, v2, v3) -> LocalFrame:
    """Build the canonical frame for a triangle given in global coordinates.

    Vertices are cyclically relabeled until the far-sideline intercept
    satisfies b >= h.  Clockwise input is reversed first; node identity in
    an assembled model is positional, so the relabeling is unobservable.
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


def node_ordinal(m: int, idx: tuple[int, int]) -> int:
    """Position of grid index (r, s) in the fixed s-major ordering."""
    r, s = idx
    if not (m >= r >= s >= 0):
        raise IndexOutOfGrid(f"index {idx} outside grid of resolution {m}")
    return s * (m + 1) - s * (s - 1) // 2 + (r - s)


def node_position(frame: LocalFrame, m: int, idx: tuple[int, int]) -> np.ndarray:
    """Local coordinates of grid node (r, s) at resolution m."""
    r, s = idx
    if not (m >= r >= s >= 0):
        raise IndexOutOfGrid(f"index {idx} outside grid of resolution {m}")
    x = (frame.a / m) * (r - s * frame.h / frame.b)
    y = (s / m) * frame.h
    return np.array([x, y])


@dataclass
class SubTriangle:
    """One cell of the m x m refinement partition of an element."""

    vertices: np.ndarray           # (3, 2) local coordinates
    orientation: str               # "up" | "down"
    corner_nodes: tuple[tuple[int, int], ...]   # grid indices of the corners
    corner_domains: tuple[HexDomain, ...]       # hexagon domain seen by each corner

    @property
    def area(self) -> float:
        e1 = self.vertices[1] - self.vertices[0]
        e2 = self.vertices[2] - self.vertices[0]
        return 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])


_UP_DOMAINS = (HexDomain.D1, HexDomain.D3, HexDomain.D5)
_DOWN_DOMAINS = (HexDomain.D2, HexDomain.D4, HexDomain.D6)


def subtriangle_partition(frame: LocalFrame, m: int) -> list[SubTriangle]:
    """Partition the element into m*m congruent sub-triangles.

    Upward cells are (r,s), (r+1,s), (r+1,s+1); downward cells are
    (r,s), (r+1,s+1), (r,s+1).  Corner order matches corner_domains.
    """
    if m < 1:
        raise IndexOutOfGrid(f"resolution m must be >= 1, got {m}")
    tris: list[SubTriangle] = []
    pos = {idx: node_position(frame, m, idx) for idx in grid_indices(m)}
    for s in range(m):
        for r in range(s, m):
            nodes = ((r, s), (r + 1, s), (r + 1, s + 1))
            tris.append(SubTriangle(
                vertices=np.array([pos[n] for n in nodes]),
                orientation="up",
                corner_nodes=nodes,
                corner_domains=_UP_DOMAINS,
            ))
        for r in range(s + 1, m):
            nodes = ((r, s), (r + 1, s + 1), (r, s + 1))
            tris.append(SubTriangle(
                vertices=np.array([pos[n] for n in nodes]),
                orientation="down",
                corner_nodes=nodes,
                corner_domains=_DOWN_DOMAINS,
            ))
    return tris


# cyclic successor j and predecessor k of each vertex i
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def barycentric_coeffs(vertices: np.ndarray):
    """Affine coefficients of the barycentric coordinates of a triangle.

    Returns (a0, bb, cc, twoA) with L_i(x, y) = (a0_i + bb_i x + cc_i y)/twoA,
    using the cyclic convention bb_i = y_j - y_k, cc_i = x_k - x_j.
    vertices may carry leading batch axes, (..., 3, 2).
    """
    x = vertices[..., 0]
    y = vertices[..., 1]
    xj, xk = x.take(_NEXT, axis=-1), x.take(_PREV, axis=-1)
    yj, yk = y.take(_NEXT, axis=-1), y.take(_PREV, axis=-1)
    bb = yj - yk
    cc = xk - xj
    a0 = xj * yk - xk * yj
    twoA = a0.sum(axis=-1)
    return a0, bb, cc, twoA


def barycentric(vertices: np.ndarray, p) -> np.ndarray:
    """Barycentric coordinates of point(s) p in the given triangle."""
    a0, bb, cc, twoA = barycentric_coeffs(vertices)
    p = np.asarray(p, dtype=float)
    return (a0 + p[..., :1] * bb + p[..., 1:] * cc) / twoA if p.ndim > 1 else \
        (a0 + bb * p[0] + cc * p[1]) / twoA


def hexagon_domain_of(p, frame: LocalFrame, tol: float = 1e-12) -> HexDomain:
    """Classify a point (relative to a node at the origin) into D1..D6.

    Points on shared sub-domain edges go to the lower-numbered domain;
    points outside the hexagon return OUTSIDE.
    """
    p = np.asarray(p, dtype=float)
    for dom in _DOMAIN_ORDER:
        L = barycentric(frame.domain_triangle(dom), p)
        if np.all(L >= -tol):
            return dom
    return HexDomain.OUTSIDE


def classify_points(points: np.ndarray, frame: LocalFrame, tol: float = 1e-12) -> np.ndarray:
    """Vectorized hexagon classification; returns domain numbers (0 = outside)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(points), dtype=int)
    unassigned = np.ones(len(points), dtype=bool)
    for dom in _DOMAIN_ORDER:
        if not unassigned.any():
            break
        L = barycentric(frame.domain_triangle(dom), points)
        inside = np.all(L >= -tol, axis=1) & unassigned
        out[inside] = dom.value
        unassigned &= ~inside
    return out
