"""Direct solution of the assembled plate problem and field recovery."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import GlobalSystem, apply_boundary_conditions, node_rotation
from .element import bending_rigidity, locate_subtriangle, _cell_B
from .errors import NotConverged, OutsideModel, SingularSystem
from .geometry import barycentric, node_ordinal
from .shapefn import subtriangle_basis

_RESIDUAL_BOUND = 1e-10
_PIVOT_RATIO_BOUND = 1e-14


@dataclass
class MomentTriple:
    """Bending moments (Mx, My, Mxy) in global axes."""

    mx: float
    my: float
    mxy: float


@dataclass
class Solution:
    """Solved dof vector (full, global components) plus solve metadata."""

    system: GlobalSystem
    dofs: np.ndarray
    residual: float

    def node_dofs(self, node: int) -> np.ndarray:
        return self.dofs[3 * node: 3 * node + 3]


def solve_system(system: GlobalSystem) -> Solution:
    """Factor and solve the reduced system; expand to the full dof vector.

    Near-singularity (missing constraints leaving rigid modes) is detected
    from the LU pivot ratio; a backward-stable factorization would
    otherwise return an arbitrarily large null-space component without
    complaint.
    """
    if system.K_red is None:
        system = apply_boundary_conditions(system)
    K = system.K_red.tocsc()
    rhs = system.rhs_red
    if K.shape[0] == 0:
        return Solution(system, np.zeros(system.n_dofs), 0.0)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return Solution(system, np.zeros(system.n_dofs), 0.0)
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        raise SingularSystem(f"stiffness factorization failed: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    ratio = float(pivots.min() / pivots.max()) if pivots.max() > 0 else 0.0
    if ratio <= _PIVOT_RATIO_BOUND:
        raise SingularSystem(
            f"stiffness matrix is numerically singular (pivot ratio "
            f"{ratio:.1e}); are enough dofs constrained?")
    a_red = lu.solve(rhs)
    if not np.all(np.isfinite(a_red)):
        raise SingularSystem("solver returned non-finite values")
    residual = float(np.linalg.norm(K @ a_red - rhs))
    scale = float(spla.norm(K, np.inf)) * float(np.linalg.norm(a_red)) + rhs_norm
    if residual > _RESIDUAL_BOUND * scale:
        raise NotConverged(
            f"residual {residual:.3e} exceeds {_RESIDUAL_BOUND:.0e} "
            f"* (|K| |a| + |rhs|)")
    full = system.C @ a_red
    return Solution(system, np.asarray(full), residual)


def reactions(sol: Solution) -> np.ndarray:
    """Constraint reactions on all dofs (zero on free dofs up to roundoff)."""
    return sol.system.K @ sol.dofs - sol.system.rhs


def _containing_elements(system: GlobalSystem, p: np.ndarray) -> list[int]:
    out = []
    for e, elem in enumerate(system.model.elements):
        L = barycentric(elem.frame.local_vertices(), elem.frame.to_local(p))
        if np.all(L >= -1e-9):
            out.append(e)
    return out


def _element_local_dofs(sol: Solution, e: int) -> np.ndarray:
    """Element dof vector in frame-local components, cell-scatter order."""
    system = sol.system
    lam = node_rotation(system.model.elements[e].frame)
    return (sol.dofs.reshape(-1, 3)[system.element_nodes[e]] @ lam.T).ravel()


def field_eval(sol: Solution, p) -> tuple[float, float, float]:
    """Deflection and rotations (w, thx, thy) at a global point.

    Rotations are read from the interpolant gradient (thx = dw/dy,
    thy = -dw/dx) and reported in global axes.  On shared edges the first
    containing element is used; the deflection field is continuous there.
    """
    p = np.asarray(p, dtype=float)
    els = _containing_elements(sol.system, p)
    if not els:
        raise OutsideModel(f"point {p.tolist()} lies outside the model")
    e = els[0]
    elem = sol.system.model.elements[e]
    a = _element_local_dofs(sol, e)
    p_loc = elem.frame.to_local(p)
    tri = locate_subtriangle(elem, p_loc)
    triples = subtriangle_basis(elem.frame, elem.m, tri, p_loc)
    w = 0.0
    grad = np.zeros(2)
    for c, triple in enumerate(triples):
        k = node_ordinal(elem.m, tri.corner_nodes[c])
        coeffs = a[3 * k: 3 * k + 3]
        for comp, f in enumerate(triple.functions()):
            w += coeffs[comp] * float(f.value)
            grad += coeffs[comp] * np.asarray(f.grad, dtype=float)
    th_loc = np.array([grad[1], -grad[0]])
    R = elem.frame.rotation_matrix()
    th_glob = R @ th_loc
    return float(w), float(th_glob[0]), float(th_glob[1])


def moment_eval(sol: Solution, p) -> MomentTriple:
    """Bending moments at a global point, averaged over incident cells.

    Curvatures are discontinuous across cells; at points on cell edges or
    nodes the moment is averaged per element over all cells whose closure
    contains the point, then across the containing elements.
    """
    p = np.asarray(p, dtype=float)
    els = _containing_elements(sol.system, p)
    if not els:
        raise OutsideModel(f"point {p.tolist()} lies outside the model")
    collected = []
    for e in els:
        elem = sol.system.model.elements[e]
        D = bending_rigidity(elem.material)
        a = _element_local_dofs(sol, e)
        p_loc = elem.frame.to_local(p)
        tris = locate_subtriangle(elem, p_loc, all_containing=True)
        per_elem = []
        for tri in tris:
            B = _cell_B(elem, tri, np.atleast_2d(p_loc))[0]
            a_cell = np.concatenate([
                a[3 * node_ordinal(elem.m, idx): 3 * node_ordinal(elem.m, idx) + 3]
                for idx in tri.corner_nodes])
            kappa = B @ a_cell
            m_loc = D @ kappa
            R = elem.frame.rotation_matrix()
            Mmat = np.array([[m_loc[0], m_loc[2]], [m_loc[2], m_loc[1]]])
            Mg = R @ Mmat @ R.T
            per_elem.append(np.array([Mg[0, 0], Mg[1, 1], Mg[0, 1]]))
        collected.append(np.mean(per_elem, axis=0))
    mx, my, mxy = np.mean(collected, axis=0)
    return MomentTriple(float(mx), float(my), float(mxy))


def normalize_coefficient(value: float, kind: str, L: float, q: float,
                          rigidity: float) -> float:
    """Dimensionless reporting coefficients.

    deflection: 100 * w * D / (q L^4); moment: 10 * M / (q L^2).
    """
    if q == 0.0 or L <= 0.0:
        raise ZeroDivisionError("normalization requires q != 0 and L > 0")
    if kind == "deflection":
        return 100.0 * value * rigidity / (q * L**4)
    if kind == "moment":
        return 10.0 * value / (q * L**2)
    raise ValueError(f"unknown coefficient kind {kind!r}")
