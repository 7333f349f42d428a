"""Direct solution of the assembled plate problem and field recovery."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (GlobalSystem, _owning_element, apply_boundary_conditions,
                       node_rotations)
from .element import _corner_dofs, _curvatures, bending_rigidity, locate_subtriangle
from .errors import NotConverged, SingularSystem
from .shapefn import subtriangle_basis

_RESIDUAL_BOUND = 1e-10
_PIVOT_RATIO_BOUND = 1e-14
#: the moment matrix [[Mx, Mxy], [Mxy, My]] from (Mx, My, Mxy), and back
#: from the flattened matrix
_MOMENT_MATRIX = np.array([[0, 2], [2, 1]])
_MOMENT_TRIPLE = np.array([0, 3, 1])


@dataclass
class MomentTriple:
    """Bending moments (Mx, My, Mxy) in global axes."""

    mx: float
    my: float
    mxy: float


@dataclass(frozen=True)
class Solution:
    """Solved dof vector (full, global components) plus solve metadata.

    The probes read each element's frame-local dofs and bending rigidity,
    built on the first probe and kept; the solution is frozen and its dofs
    are read-only (writing into them raises), so those cannot go stale.
    It also keeps the site of the last point probed (`_site`).
    """

    system: GlobalSystem
    dofs: np.ndarray
    residual: float

    def __post_init__(self):
        self.dofs.flags.writeable = False

    def node_dofs(self, node: int) -> np.ndarray:
        return self.dofs[3 * node: 3 * node + 3]

    @cached_property
    def _local_dofs(self) -> list[np.ndarray]:
        """Each element's dof vector in frame-local components, cell-scatter
        order, built on the first probe."""
        by_node = self.dofs.reshape(-1, 3)
        blocks = node_rotations(self.system.element_stack[1])
        return [(by_node[nodes] @ lam.T).ravel()
                for lam, nodes in zip(blocks, self.system.element_nodes)]

    @cached_property
    def _rigidity(self) -> list[np.ndarray]:
        """Each element's bending rigidity matrix D, built on the first
        moment probe."""
        return [bending_rigidity(elem.material) for elem in self.system.model.elements]


def _inf_norm(K) -> float:
    """Largest absolute row sum of the CSR matrix K, which has an entry:
    one reduceat over its nonempty rows, as scipy sums a CSR's rows.
    `apply_boundary_conditions` sorts the columns of K_red's rows, so this
    has the bits of `spla.norm` of its CSC copy."""
    rows = np.flatnonzero(np.diff(K.indptr))
    return float(np.add.reduceat(np.abs(K.data), K.indptr[rows]).max())


def _pivots(U) -> np.ndarray:
    """Absolute values of the diagonal of the CSC upper factor U (n, n).

    SuperLU stores each column's diagonal entry last; where the row
    indices of those entries confirm it (they are 0, ..., n - 1), they
    are read from there, at a fraction of the cost of `U.diagonal()`,
    and otherwise from `U.diagonal()`.  Both give the same bits.
    """
    last = U.indptr[1:] - 1
    if last[0] >= 0 and np.array_equal(U.indices[last], np.arange(len(last))):
        return np.abs(U.data[last])
    return np.abs(U.diagonal())


def solve_system(system: GlobalSystem) -> Solution:
    """Factor and solve the reduced system; expand to the full dof vector.

    Near-singularity (missing constraints leaving rigid modes) is detected
    from the LU pivot ratio over the diagonal of U (`_pivots`); a
    backward-stable factorization would otherwise return an arbitrarily
    large null-space component without complaint.  The check runs before
    a zero load returns the zero solution, so an unconstrained model
    raises with or without a load.
    """
    if system.K_red is None:
        system = apply_boundary_conditions(system)
    K = system.K_red.tocsc()
    rhs = system.rhs_red
    if K.shape[0] == 0:
        return Solution(system, np.zeros(system.n_dofs), 0.0)
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        raise SingularSystem(f"stiffness factorization failed: {exc}") from exc
    pivots = _pivots(lu.U)
    ratio = float(pivots.min() / pivots.max()) if pivots.max() > 0 else 0.0
    if ratio <= _PIVOT_RATIO_BOUND:
        raise SingularSystem(
            f"stiffness matrix is numerically singular (pivot ratio "
            f"{ratio:.1e}); are enough dofs constrained?")
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return Solution(system, np.zeros(system.n_dofs), 0.0)
    a_red = lu.solve(rhs)
    if not np.all(np.isfinite(a_red)):
        raise SingularSystem("solver returned non-finite values")
    residual = float(np.linalg.norm(K @ a_red - rhs))
    scale = _inf_norm(system.K_red) * float(np.linalg.norm(a_red)) + rhs_norm
    if residual > _RESIDUAL_BOUND * scale:
        raise NotConverged(
            f"residual {residual:.3e} exceeds {_RESIDUAL_BOUND:.0e} "
            f"* (|K| |a| + |rhs|)")
    full = system.C @ a_red
    return Solution(system, np.asarray(full), residual)


def reactions(sol: Solution) -> np.ndarray:
    """Constraint reactions on all dofs (zero on free dofs up to roundoff)."""
    return sol.system.K @ sol.dofs - sol.system.rhs


def _site(sol: Solution, p) -> tuple:
    """Where the global point p lies: its owning elements, p in each one's
    local axes (`_owning_element`) and a dict, filled on first use, of
    what the probes read of each owning element there (`_cells`).

    Each solution keeps the site of the last point it probed, keyed by the
    point's float64 bytes, so the probes at one point look it up, locate
    it and evaluate each owning element's cells there once.  The key is
    the whole point and the model is fixed with the system, so a site
    cannot go stale; a point that no element holds raises and is not
    kept.
    """
    p = np.asarray(p, dtype=float).reshape(2)
    key = p.tobytes()
    site = sol.__dict__.get("_site")
    if site is None or site[0] != key:
        site = (key, *_owning_element(sol.system.element_stack, p), {})
        sol.__dict__["_site"] = site
    return site[1:]


def _cells(sol: Solution, cells: dict, e: int, p_loc: np.ndarray) -> tuple:
    """(element dofs (k, 9), curvature matrices (k, 3, 9), cell 0's
    values (9,) and gradients (9, 2) as lists) of the k cells
    `locate_subtriangle` finds at the local point p_loc of element e,
    kept in the site's cells.  The first probe of the element at the
    point locates them and evaluates them all in one basis call, with the
    gradient and the Hessian; a cell's bits depend neither on its batch
    nor on the derivatives asked for, so every probe reads what a call of
    its own would give."""
    if e not in cells:
        elem = sol.system.model.elements[e]
        vertices, corners, down = locate_subtriangle(elem, p_loc)
        value, grad, hess = subtriangle_basis(elem.frame, elem.m, vertices, down, p_loc)
        cells[e] = (_corner_dofs(elem.m, corners), _curvatures(hess)[:, 0],
                    value[0].ravel().tolist(), grad[0].reshape(9, 2).tolist())
    return cells[e]


def field_eval(sol: Solution, p) -> tuple[float, float, float]:
    """Deflection and rotations (w, thx, thy) at a global point.

    Rotations are read from the interpolant gradient (thx = dw/dy,
    thy = -dw/dx) and reported in global axes.  On shared edges the first
    containing element is used: the deflection field is continuous there,
    but the rotations, from owner 0's cell gradient, are not (the element
    is non-conforming).  The field reads cell 0 of the cells the site
    keeps (`_cells`), so it makes a basis call only where no probe at the
    point has evaluated that element yet.
    """
    owners, local, cells = _site(sol, p)
    e = owners[0]
    dofs, _, value, grad = _cells(sol, cells, e, local[0])
    w = dwdx = dwdy = 0.0        # Python floats, summed in cell-dof order
    for coef, v, (gx, gy) in zip(sol._local_dofs[e][dofs[0]].tolist(), value, grad):
        w, dwdx, dwdy = w + coef * v, dwdx + coef * gx, dwdy + coef * gy
    th_loc = np.array([dwdy, -dwdx])
    th_glob = sol.system.element_stack[1][e] @ th_loc
    return float(w), float(th_glob[0]), float(th_glob[1])


def moment_eval(sol: Solution, p) -> MomentTriple:
    """Bending moments at a global point, averaged over incident cells.

    Curvatures are discontinuous across cells; at points on cell edges or
    nodes the moment is averaged per element over all cells whose closure
    contains the point, then across the containing elements.  It reads
    the curvature matrices the site keeps (`_cells`), so it makes a basis
    call only for an element no probe at the point has evaluated yet:
    after a field, the second owner on a shared edge.  One stacked
    product per step rounds each cell as its own products would.
    """
    owners, local, cells = _site(sol, p)
    collected = []
    for e, p_loc in zip(owners, local):
        dofs, B, _, _ = _cells(sol, cells, e, p_loc)
        R = sol.system.element_stack[1][e]
        kappa = np.matmul(B, sol._local_dofs[e][dofs][:, :, None])
        m_loc = np.matmul(sol._rigidity[e], kappa)[:, :, 0]
        Mg = R @ m_loc.take(_MOMENT_MATRIX, axis=1) @ R.T
        collected.append(Mg.reshape(-1, 4).take(_MOMENT_TRIPLE, axis=1).sum(axis=0)
                         / len(Mg))
    mx, my, mxy = (np.array(collected).sum(axis=0) / len(collected)).tolist()
    return MomentTriple(mx, my, mxy)


def normalize_coefficient(value: float, kind: str, L: float, q: float,
                          rigidity: float) -> float:
    """Dimensionless reporting coefficients.

    deflection: 100 * w * D / (q L^4); moment: 10 * M / (q L^2).
    """
    if not (math.isfinite(L) and math.isfinite(q)):
        raise ValueError(f"normalization requires finite L and q, got L={L!r}, q={q!r}")
    if q == 0.0 or L <= 0.0:
        raise ZeroDivisionError("normalization requires q != 0 and L > 0")
    if kind == "deflection":
        return 100.0 * value * rigidity / (q * L**4)
    if kind == "moment":
        return 10.0 * value / (q * L**2)
    raise ValueError(f"unknown coefficient kind {kind!r}")
