"""Shape functions of the hexagon-supported multiresolution plate basis.

Every grid node carries three functions: a deflection function and two
rotation functions (conventions: thx pairs with dw/dy, thy with -dw/dx).
On each of the six hexagon sub-domains around the node, the functions are
the cubic plate-bending polynomials of the local vertex occupied by that
node, written in the area coordinates of the sub-domain triangle.  At
resolution m, node (r, s) uses the same functions scaled by 1/m around
its grid position; the rotation functions are additionally divided by m
so the nodal dw/dy, -dw/dx interpretation survives the scaling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideDomain
from .geometry import (
    CONTAIN_TOL,
    HexDomain,
    LocalFrame,
    SubTriangle,
    barycentric_coeffs,
    classify_points,
    grid_indices,
    node_position,
    subtriangle_partition,
)


@dataclass
class ShapeEval:
    """Value and derivatives of one scalar shape function.

    value: (...,), grad: (..., 2), hess: (..., 3) as (dxx, dyy, dxy).
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    @staticmethod
    def zeros(shape) -> "ShapeEval":
        return ShapeEval(np.zeros(shape), np.zeros(shape + (2,)), np.zeros(shape + (3,)))


@dataclass
class BasisTriple:
    """The (deflection, rotation-x, rotation-y) functions of one node."""

    w: ShapeEval
    thx: ShapeEval
    thy: ShapeEval

    def functions(self) -> tuple[ShapeEval, ShapeEval, ShapeEval]:
        return self.w, self.thx, self.thy


def _exponent_table() -> np.ndarray:
    """Exponents of (L1, L2, L3) in every term, indexed [i0, family, term, var].

    i0 is the local vertex (0-based) of the node; the families are N, Nx,
    Ny.  Nx and Ny have three terms and are padded to five; the padded
    terms get coefficient 0 and contribute +-0 to each sum.
    """
    table = np.zeros((3, 3, 5, 3), dtype=np.intp)
    for i0 in range(3):
        j0, k0 = (i0 + 1) % 3, (i0 + 2) % 3
        n_terms = table[i0, 0]
        n_terms[0, i0] = 1
        n_terms[1, [i0, j0]] = 2, 1
        n_terms[2, [i0, k0]] = 2, 1
        n_terms[3, [i0, j0]] = 1, 2
        n_terms[4, [i0, k0]] = 1, 2
        for rot_terms in table[i0, 1:]:
            rot_terms[0, [i0, j0]] = 2, 1
            rot_terms[1, [i0, k0]] = 2, 1
            rot_terms[2] = 1
    return table


_EXPONENTS = _exponent_table()

# Every term contributes ten products, one per output channel:
#   0     value                 ((coef * L0^e0) * L1^e1) * L2^e2
#   1-3   d2/dLa dLb, ab = 01, 02, 12
#                               ((coef * ea La^(ea-1)) * eb Lb^(eb-1)) * Lo^eo
#   4-6   d/dLa                 (coef * ea La^(ea-1)) * (Lo1^eo1 * Lo2^eo2)
#   7-9   d2/dLa2               (coef * ea (ea-1) La^(ea-2)) * (Lo1^eo1 * Lo2^eo2)
# o is the remaining variable, o1 < o2 the two others.  Channels 0-3 take
# the form ((coef * x) * y) * z, channels 4-9 (coef * x) * (y * z); the
# factor kind (0 power, 1 first, 2 second derivative) and variable of
# x, y and z per channel:
_FACTOR_KIND = np.array([[0, 1, 1, 1, 1, 1, 1, 2, 2, 2],
                         [0, 1, 1, 1, 0, 0, 0, 0, 0, 0],
                         [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]])
_FACTOR_VAR = np.array([[0, 0, 0, 1, 0, 1, 2, 0, 1, 2],
                        [1, 1, 2, 2, 1, 0, 0, 1, 0, 0],
                        [2, 2, 1, 0, 2, 2, 1, 2, 2, 1]])
# Each domain's factor table holds the rows 0, 1, 2, L, L*L, 2L per
# variable.  For e = 0, 1, 2 the power L^e reads rows 1, 3, 4, the first
# derivative e L^(e-1) rows 0, 1, 5 and the second e (e-1) L^(e-2) rows
# 0, 0, 2, so a zero exponent gives ones and a negative one zeros.
_FACTOR_ROW = np.array([[1, 3, 4], [0, 1, 5], [0, 0, 2]])
# [x/y/z, i0, family, term, channel] -> position row * 3 + variable of
# that factor in one domain's (6, 3) table
_FACTOR_INDEX = np.moveaxis(
    _FACTOR_ROW[_FACTOR_KIND, _EXPONENTS[..., _FACTOR_VAR]] * 3 + _FACTOR_VAR, 3, 0)
# channel of each entry of the symmetric 3x3 second-derivative matrix
_HESS_CHANNELS = [7, 1, 2, 1, 8, 3, 2, 3, 9]


def _coefficients(i0: np.ndarray, bb: np.ndarray, cc: np.ndarray) -> np.ndarray:
    """Term coefficients (c, 3, 5) of each domain's (N, Nx, Ny) families."""
    c = len(i0)
    rows = np.arange(c)
    g = np.stack([bb, cc], axis=1)
    gj = g[rows, :, (i0 + 1) % 3]
    gk = g[rows, :, (i0 + 2) % 3]
    coef = np.zeros((c, 3, 5))
    coef[:, 0] = [1.0, 1.0, 1.0, -1.0, -1.0]
    coef[:, 1:, 0] = -gk
    coef[:, 1:, 1] = gj
    coef[:, 1:, 2] = 0.5 * (gj - gk)
    return coef


def _eval_domains(domains, frame: LocalFrame, points: np.ndarray,
                  check: bool = False):
    """Evaluate the nodal families of several hexagon domains of a frame.

    points: (c, n, 2), node-relative coordinates for each domain.  With
    check set, a point outside its domain raises OutsideDomain.
    """
    i0 = np.array([frame.domain_center_vertex(d) - 1 for d in domains])
    return _eval_triangles(frame.domain_triangles(domains), i0, points,
                           [d.name for d in domains] if check else None)


def _eval_triangles(triangles: np.ndarray, i0: np.ndarray, points: np.ndarray,
                    names=None):
    """Evaluate the nodal families of stacked domain triangles in one pass.

    triangles: (c, 3, 2) vertices of each domain, in the coordinates of
    its points (c, n, 2); i0: (c,) local vertex (0-based) the node
    occupies.  Returns value (c, 3, n), grad (c, 3, n, 2) and hess
    (c, 3, n, 3) of the (N, Nx, Ny) families.  Given one name per domain,
    a point outside its domain raises OutsideDomain naming it.  Each
    product keeps its factor order and the terms are summed one at a time
    in term order from +0, so the result is rounded exactly as a
    term-by-term monomial evaluation rounds it.
    """
    a0, bb, cc, twoA = barycentric_coeffs(triangles)
    L = (a0[:, None] + points[..., :1] * bb[:, None]
         + points[..., 1:] * cc[:, None]) / twoA[:, None, None]
    if names is not None:
        outside = np.any(L < -CONTAIN_TOL, axis=(1, 2))
        if outside.any():
            raise OutsideDomain(
                f"point outside sub-domain {names[int(np.argmax(outside))]}")
    c, n = L.shape[:2]

    Lt = L.transpose(0, 2, 1)
    table = np.empty((c, 6, 3, n))
    table[:, :3] = np.array([0.0, 1.0, 2.0])[:, None, None]
    table[:, 3] = Lt
    np.multiply(Lt, Lt, out=table[:, 4])
    np.multiply(2.0, Lt, out=table[:, 5])
    rows = _FACTOR_INDEX[:, i0] + 6 * 3 * np.arange(c)[:, None, None, None]
    x, y, z = table.reshape(-1, n).take(rows, axis=0)
    coef = _coefficients(i0, bb, cc)[..., None, None]
    terms = np.empty((c, 3, 5, 10, n))
    np.multiply((coef * x[..., :4, :]) * y[..., :4, :], z[..., :4, :],
                out=terms[..., :4, :])
    np.multiply(coef * x[..., 4:, :], y[..., 4:, :] * z[..., 4:, :],
                out=terms[..., 4:, :])
    # + 0.0 turns a -0 first term into +0, as a sum started from zeros
    # does; the accumulator is then never -0, so the +-0 of padded terms
    # and of factors that vanish change nothing
    acc = terms[:, :, 0] + 0.0
    for t in range(1, 5):
        acc += terms[:, :, t]

    # push L-space derivatives through the affine map; each family keeps
    # the (n, 3) @ (3, 1) and "nab,a,b->n" contractions, whose rounding
    # depends on the shape of the operands
    wb = bb / twoA[:, None]
    wc = cc / twoA[:, None]
    dL = np.ascontiguousarray(acc[:, :, 4:7].swapaxes(2, 3))
    grad = np.concatenate([np.matmul(dL, w[:, None, :, None]) for w in (wb, wc)],
                          axis=-1)
    d2L = np.ascontiguousarray(acc[:, :, _HESS_CHANNELS].swapaxes(2, 3))
    d2L = d2L.reshape(c, 3, n, 3, 3)
    hess = np.stack([np.einsum("cfnab,ca,cb->cfn", d2L, u, v)
                     for u, v in ((wb, wb), (wc, wc), (wb, wc))], axis=-1)
    return acc[:, :, 0], grad, hess


def _eval_domain(domain: HexDomain, frame: LocalFrame, points: np.ndarray,
                 check: bool = False):
    """Evaluate the domain's nodal family at points (n, 2) in node-relative coords."""
    value, grad, hess = _eval_domains([domain], frame, points[None], check)
    return tuple(ShapeEval(value[0, f], grad[0, f], hess[0, f]) for f in range(3))


def _as_points(p):
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 1
    return np.atleast_2d(p), scalar


def _squeeze(triple, scalar: bool):
    if not scalar:
        return triple
    return tuple(ShapeEval(f.value[0], f.grad[0], f.hess[0]) for f in triple)


def split_shape_eval(domain: HexDomain, p, frame: LocalFrame):
    """(N, Nx, Ny) of the central node's family on one hexagon sub-domain.

    p is relative to the node; it must lie in the closed sub-domain.
    """
    if domain == HexDomain.OUTSIDE:
        raise OutsideDomain("cannot evaluate on OUTSIDE")
    pts, scalar = _as_points(p)
    triple = _eval_domain(domain, frame, pts, check=True)
    return _squeeze(triple, scalar)


def full_node_eval(p, frame: LocalFrame):
    """(phi, phi_x, phi_y) of the full-node functions at node-relative p.

    Zero (with zero derivatives) outside the hexagonal support.
    """
    pts, scalar = _as_points(p)
    n = len(pts)
    doms = classify_points(pts, frame)
    outs = [ShapeEval.zeros((n,)) for _ in range(3)]
    for dom in HexDomain:
        if dom == HexDomain.OUTSIDE:
            continue
        mask = doms == dom.value
        if not mask.any():
            continue
        triple = _eval_domain(dom, frame, pts[mask])
        for out, f in zip(outs, triple):
            out.value[mask] = f.value
            out.grad[mask] = f.grad
            out.hess[mask] = f.hess
    return _squeeze(tuple(outs), scalar)


def _scale_factors(m: int):
    """Resolution scaling of (value, grad, hess) for the (N, Nx, Ny) families.

    Rotation functions are additionally divided by m, so the nodal
    dw/dy, -dw/dx interpretation survives the scaling.
    """
    return (np.array([1.0, 1.0 / m, 1.0 / m]), np.array([m, 1.0, 1.0]),
            np.array([m * m, m, m], dtype=float))


def _scale_triple(triple, m: int) -> BasisTriple:
    """Apply resolution scaling to raw node-relative evaluations."""
    return BasisTriple(*(ShapeEval(f.value * vf, f.grad * gf, f.hess * hf)
                         for f, vf, gf, hf in zip(triple, *_scale_factors(m))))


def basis_eval(frame: LocalFrame, m: int, idx: tuple[int, int], p) -> BasisTriple:
    """Basis triple of grid node idx at resolution m, evaluated at local p.

    p is in element-local coordinates; evaluation and integration are
    meant to stay inside the element, which clips boundary-node supports
    implicitly.
    """
    pts, scalar = _as_points(p)
    q = m * (pts - node_position(frame, m, idx))
    scaled = _scale_triple(full_node_eval(q, frame), m)
    return BasisTriple(*_squeeze(scaled.functions(), scalar))


def subtriangle_basis(frame: LocalFrame, m: int, tri: SubTriangle, p) -> list[BasisTriple]:
    """Basis triples of the three corners of a sub-triangle, from within it.

    Evaluation is forced onto the hexagon sub-domain each corner presents
    to this cell, so points on cell edges get that cell's polynomial.
    """
    pts, scalar = _as_points(p)
    nodes = np.array([node_position(frame, m, idx) for idx in tri.corner_nodes])
    q = m * (pts - nodes[:, None])
    value, grad, hess = _eval_domains(tri.corner_domains, frame, q, check=True)
    vf, gf, hf = _scale_factors(m)
    value = value * vf[:, None]
    grad = grad * gf[:, None, None]
    hess = hess * hf[:, None, None]
    at = 0 if scalar else slice(None)
    return [BasisTriple(*(ShapeEval(value[c, f, at], grad[c, f, at], hess[c, f, at])
                          for f in range(3)))
            for c in range(3)]


def nesting_residual(frame: LocalFrame, m: int, idx: tuple[int, int],
                     component: str = "w", degree: int = 5) -> float:
    """Diagnostic: least-squares residual of projecting a resolution-m basis
    function onto the span of the resolution-2m basis.

    Returns the relative weighted-L2 residual over the element.  The two
    spans are generally not nested; this reports how far from nested they
    are and asserts nothing.
    """
    from .quadrature import triangle_rule

    comp = {"w": 0, "thx": 1, "thy": 2}[component]
    m2 = 2 * m
    bary, wts = triangle_rule(degree)
    pts_list = []
    w_list = []
    for tri in subtriangle_partition(frame, m2):
        pts_list.append(bary @ tri.vertices)
        w_list.append(wts * tri.area)
    pts = np.vstack(pts_list)
    wq = np.concatenate(w_list)

    target = basis_eval(frame, m, idx, pts).functions()[comp].value
    cols = []
    for fine_idx in grid_indices(m2):
        triple = basis_eval(frame, m2, fine_idx, pts)
        for f in triple.functions():
            cols.append(f.value)
    A = np.stack(cols, axis=1)
    sw = np.sqrt(wq)
    coef, *_ = np.linalg.lstsq(A * sw[:, None], target * sw, rcond=None)
    resid = target - A @ coef
    num = np.sqrt(float(np.dot(wq, resid**2)))
    den = np.sqrt(float(np.dot(wq, target**2)))
    return num / den if den > 0 else num
