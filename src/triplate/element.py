"""Multiresolution plate-bending element: stiffness and load integrals.

Element degrees of freedom are (w, thx, thy) per grid node in the fixed
s-major node order.  Curvatures are kappa = -(w_xx, w_yy, 2 w_xy); the
moment-curvature law is M = D_b kappa with the isotropic bending matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import OutsideElement, QuadratureFailure
from .geometry import (
    LocalFrame,
    SubTriangle,
    barycentric,
    grid_indices,
    grid_size,
    node_ordinal,
    node_position,
    subtriangle_partition,
)
from .quadrature import triangle_rule
from .shapefn import subtriangle_basis

_LOCATE_TOL = 1e-12


@dataclass
class PlateMaterial:
    """Isotropic thin-plate material: Young's modulus, thickness, Poisson ratio."""

    E: float
    t: float
    nu: float

    def __post_init__(self):
        if self.E <= 0 or self.t <= 0:
            raise ValueError("material requires E > 0 and t > 0")
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
    quadrature_degree: int = 5
    _parts: list[SubTriangle] = field(default=None, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("resolution m must be >= 1")

    @classmethod
    def from_vertices(cls, v1, v2, v3, m: int, material: PlateMaterial,
                      quadrature_degree: int = 5) -> "MRElement":
        from .geometry import canonicalize_triangle

        return cls(canonicalize_triangle(v1, v2, v3), m, material,
                   quadrature_degree)

    @property
    def node_count(self) -> int:
        return grid_size(self.m)

    @property
    def dof_count(self) -> int:
        return 3 * self.node_count

    def nodes(self) -> list[tuple[int, int]]:
        return grid_indices(self.m)

    def node_positions_local(self) -> np.ndarray:
        return np.array([node_position(self.frame, self.m, idx) for idx in self.nodes()])

    def node_positions_global(self) -> np.ndarray:
        return self.frame.to_global(self.node_positions_local())

    def partition(self) -> list[SubTriangle]:
        if self._parts is None:
            self._parts = subtriangle_partition(self.frame, self.m)
        return self._parts

    def dof_slice(self, idx: tuple[int, int]) -> slice:
        k = node_ordinal(self.m, idx)
        return slice(3 * k, 3 * k + 3)


def _cell_quadrature(elem: MRElement, tri: SubTriangle, degree: int):
    if degree < 2:
        # the stiffness integrand is quadratic; lower rules are not exact
        raise QuadratureFailure(
            f"element integrals need quadrature degree >= 2, got {degree}")
    bary, w = triangle_rule(degree)
    pts = bary @ tri.vertices
    if tri.area <= 0.0:
        raise QuadratureFailure("degenerate sub-triangle")
    return pts, w * tri.area


def _cell_B(elem: MRElement, tri: SubTriangle, pts: np.ndarray) -> np.ndarray:
    """(npts, 3, 9) curvature matrix of the cell's nine local dofs."""
    triples = subtriangle_basis(elem.frame, elem.m, tri, pts)
    n = len(pts)
    B = np.empty((n, 3, 9))
    for c, triple in enumerate(triples):
        for comp, f in enumerate(triple.functions()):
            col = 3 * c + comp
            B[:, 0, col] = -f.hess[:, 0]
            B[:, 1, col] = -f.hess[:, 1]
            B[:, 2, col] = -2.0 * f.hess[:, 2]
    return B


def _cell_values(elem: MRElement, tri: SubTriangle, pts: np.ndarray) -> np.ndarray:
    """(npts, 9) deflection-interpolation row of the cell's nine local dofs."""
    triples = subtriangle_basis(elem.frame, elem.m, tri, pts)
    n = len(pts)
    N = np.empty((n, 9))
    for c, triple in enumerate(triples):
        for comp, f in enumerate(triple.functions()):
            N[:, 3 * c + comp] = f.value
    return N


def _cell_dofs(m: int, cells: list[SubTriangle]) -> np.ndarray:
    """(n_cells, 9) element dofs of each cell's nine local dofs."""
    k = np.array([[node_ordinal(m, idx) for idx in tri.corner_nodes]
                  for tri in cells])
    return (3 * k[:, :, None] + np.arange(3)).reshape(len(cells), 9)


def _per_cell(elem: MRElement, degree: int, integral) -> np.ndarray:
    """integral(tri, pts, weights) of every cell, stacked in partition order.

    Cells of equal orientation are translates of each other, so the
    integral is computed once per orientation, on its first cell.
    """
    cells = elem.partition()
    by_orientation = {}
    for tri in cells:
        if tri.orientation not in by_orientation:
            by_orientation[tri.orientation] = integral(
                tri, *_cell_quadrature(elem, tri, degree))
    return np.array([by_orientation[tri.orientation] for tri in cells])


def element_stiffness(elem: MRElement, degree: int | None = None) -> sp.csr_matrix:
    """Element bending stiffness (3n x 3n CSR), assembled from its cells.

    The integrand per cell is quadratic (second derivatives of cubics),
    so the default degree-5 rule is exact.  Each entry is summed over its
    cells in partition order.
    """
    degree = elem.quadrature_degree if degree is None else degree
    D = bending_rigidity(elem.material)

    def cell_stiffness(tri, pts, wq):
        B = _cell_B(elem, tri, pts)
        kc = np.einsum("q,qai,ab,qbj->ij", wq, B, D, B)
        return 0.5 * (kc + kc.T)

    kc = _per_cell(elem, degree, cell_stiffness)
    dofs = _cell_dofs(elem.m, elem.partition())
    n = elem.dof_count
    key = (dofs[:, :, None] * n + dofs[:, None, :]).ravel()
    uniq, slot = np.unique(key, return_inverse=True)
    row, col = np.divmod(uniq, n)
    # bincount adds in input order; the cell matrices are exactly
    # symmetric, so K is too
    return sp.csr_matrix((np.bincount(slot, weights=kc.ravel()), col,
                          np.searchsorted(row, np.arange(n + 1))), shape=(n, n))


def element_load_uniform(elem: MRElement, q: float, degree: int | None = None) -> np.ndarray:
    """Consistent load vector for a uniform transverse pressure q."""
    degree = elem.quadrature_degree if degree is None else degree
    n = elem.dof_count
    if q == 0.0:
        return np.zeros(n)
    fc = _per_cell(elem, degree,
                   lambda tri, pts, wq: q * (wq @ _cell_values(elem, tri, pts)))
    dofs = _cell_dofs(elem.m, elem.partition())
    return np.bincount(dofs.ravel(), weights=fc.ravel(), minlength=n)


def locate_subtriangle(elem: MRElement, p_local, all_containing: bool = False):
    """Sub-triangle(s) whose closure contains the local point p.

    With all_containing=False returns the first match in partition order.
    """
    p = np.asarray(p_local, dtype=float)
    tol = _LOCATE_TOL * elem.frame.a
    found = []
    for tri in elem.partition():
        L = barycentric(tri.vertices, p)
        # scale-free containment: tolerance on barycentric coordinates
        if np.all(L >= -1e-9):
            if not all_containing:
                return tri
            found.append(tri)
    if not found:
        raise OutsideElement(f"point {p} lies outside the element")
    return found


def element_load_point(elem: MRElement, P: float, p_local) -> np.ndarray:
    """Consistent load vector for a transverse point load P at local p."""
    tri = locate_subtriangle(elem, p_local)
    pts = np.atleast_2d(np.asarray(p_local, dtype=float))
    N = _cell_values(elem, tri, pts)[0]
    f = np.zeros(elem.dof_count)
    f[_cell_dofs(elem.m, [tri])[0]] = P * N
    return f
