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

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutsideDomain
from .geometry import (
    _CELL_I0,
    _CELL_NAMES,
    _CELL_UV,
    CONTAIN_TOL,
    HexDomain,
    LocalFrame,
    barycentric_coeffs,
    classify_points,
    domain_triangles_of,
    grid_indices,
    node_position,
    subtriangle_partition,
    triangle_areas,
)
from .quadrature import triangle_rule


@dataclass
class ShapeEval:
    """Value and derivatives of one scalar shape function.

    value: (...,), grad: (..., 2), hess: (..., 3) as (dxx, dyy, dxy);
    a derivative the evaluation did not ask for is None.
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


#: the rows 0, 1, 2 that head every domain's factor table
_TABLE_HEAD = np.array([0.0, 1.0, 2.0])[:, None, None]

#: per (grad, hess) asked for, the channels evaluated (value and the
#: ((coef * x) * y) * z channels first, the gradient's next): their
#: _FACTOR_INDEX rows and the places of the _HESS_CHANNELS among them
_PLANS = {(g, h): (_FACTOR_INDEX[..., ch],
                   np.array([ch.index(c) for c in _HESS_CHANNELS if h], dtype=np.intp))
          for g in (False, True) for h in (False, True)
          for ch in [[0] + [1, 2, 3] * h + [4, 5, 6] * g + [7, 8, 9] * h]}


#: patterns `_gather_rows` keeps: an entry of c domains holds 3 * c * 15 *
#: (1 to 10 channels) intp, at most 173 KB for the 48 domains of the
#: assembly's largest call and 65 KB for a probe's 18, so at most 11 MB
GATHER_TABLE_BOUND = 64


@lru_cache(maxsize=GATHER_TABLE_BOUND)
def _gather_rows(grad: bool, hess: bool, i0: tuple) -> np.ndarray:
    """The rows (3, c, 3, 5, channels) of c stacked domains' factor tables,
    flattened to (c * 18, n), that the x, y and z factor of every term and
    channel of the `_PLANS` of (grad, hess) reads, for domains whose nodes
    occupy the local vertices i0 (c,).  Read-only; the kernel of every
    call pattern reads them from here."""
    rows = (_PLANS[grad, hess][0][:, list(i0)]
            + 6 * 3 * np.arange(len(i0))[:, None, None, None])
    rows.flags.writeable = False
    return rows


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


def _domains(triangles: np.ndarray, i0: np.ndarray) -> tuple:
    """What the kernel derives from c stacked domain triangles (c, 3, 2)
    alone, i0 (c,) being the local vertex (0-based) the node occupies:
    `barycentric_coeffs` (a0, bb, cc, twoA), i0 and the `_coefficients`
    (c, 3, 5, 1, 1)."""
    a0, bb, cc, twoA = barycentric_coeffs(triangles)
    return a0, bb, cc, twoA, i0, _coefficients(i0, bb, cc)[..., None, None]


def _eval_triangles(domains: tuple, points: np.ndarray, names=None, *,
                    grad: bool = True, hess: bool = True):
    """The basis kernel: the (N, Nx, Ny) families of c stacked domain
    triangles, given by their `_domains`, at points (c, n, 2) in one pass.

    Returns value (c, 3, n), grad (c, 3, n, 2) and hess (c, 3, n, 3); a
    derivative not asked for is not computed and comes back as None.
    Given names, a callable that names domain i, a point outside its
    domain raises OutsideDomain naming the first such domain; the name is
    built only then.  The factor-table rows each term reads depend only
    on (grad, hess, i0), and `_gather_rows` keeps them.  Each product
    keeps its factor order and the terms are summed one at a time in term
    order from +0, so every result is rounded exactly as a term-by-term
    monomial evaluation rounds it.
    """
    a0, bb, cc, twoA, i0, coef = domains
    L = (a0[:, None] + points[..., :1] * bb[:, None]
         + points[..., 1:] * cc[:, None]) / twoA[:, None, None]
    if names is not None:
        outside = L < -CONTAIN_TOL
        if outside.any():
            first = int(np.argmax(outside.any(axis=(1, 2))))
            raise OutsideDomain(f"point outside sub-domain {names(first)}")
    c, n = L.shape[:2]

    Lt = L.transpose(0, 2, 1)
    table = np.empty((c, 6, 3, n))
    table[:, :3] = _TABLE_HEAD
    table[:, 3] = Lt
    np.multiply(Lt, Lt, out=table[:, 4])
    np.multiply(2.0, Lt, out=table[:, 5])
    j = 1 + 3 * hess            # channels of the first form; the gradient's next
    x, y, z = table.reshape(-1, n).take(_gather_rows(grad, hess, tuple(i0.tolist())),
                                        axis=0)
    terms = np.empty(x.shape)
    np.multiply((coef * x[..., :j, :]) * y[..., :j, :], z[..., :j, :],
                out=terms[..., :j, :])
    np.multiply(coef * x[..., j:, :], y[..., j:, :] * z[..., j:, :],
                out=terms[..., j:, :])
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
    g = h = None
    if grad:
        dL = np.ascontiguousarray(acc[:, :, j:j + 3].swapaxes(2, 3))
        g = np.concatenate([np.matmul(dL, w[:, None, :, None]) for w in (wb, wc)],
                           axis=-1)
    if hess:
        d2L = np.ascontiguousarray(acc[:, :, _PLANS[grad, hess][1]].swapaxes(2, 3))
        d2L = d2L.reshape(c, 3, n, 3, 3)
        h = np.empty((c, 3, n, 3))
        for i, (u, v) in enumerate(((wb, wb), (wc, wc), (wb, wc))):
            h[..., i] = np.einsum("cfnab,ca,cb->cfn", d2L, u, v)
    return acc[:, :, 0], g, h


def _eval_domain(domain: HexDomain, frame: LocalFrame, points: np.ndarray,
                 check: bool = False):
    """Evaluate the domain's nodal family at points (n, 2) in node-relative coords."""
    i0 = np.array([frame.domain_center_vertex(domain) - 1])
    names = (lambda i: domain.name) if check else None
    value, grad, hess = _eval_triangles(_domains(frame.domain_triangles([domain]), i0),
                                        points[None], names)
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


#: the deflection family N among (N, Nx, Ny)
_IS_N = np.array([True, False, False])


def _scale_factors(m):
    """Resolution scaling of (value, grad, hess) for the (N, Nx, Ny) families,
    each (..., 3) for a resolution m of shape (...).

    Rotation functions are additionally divided by m, so the nodal
    dw/dy, -dw/dx interpretation survives the scaling.
    """
    m = np.asarray(m, dtype=float)[..., None]
    grad = np.where(_IS_N, m, 1.0)
    return np.where(_IS_N, 1.0, 1.0 / m), grad, m * grad


#: resolutions `_resolution_scale` keeps, 3 * 24 bytes of factors each
SCALE_TABLE_BOUND = 64


@lru_cache(maxsize=SCALE_TABLE_BOUND)
def _resolution_scale(m) -> tuple:
    """`_scale_factors` of one resolution m, a float, shaped (1, 1, 3, 1)
    for the value and (1, 1, 3, 1, 1) for the gradient and the Hessian, to
    scale `cells_basis` arrays indexed [cell, corner, family, point];
    read-only."""
    vf, gf, hf = _scale_factors(m)
    entry = (vf[None, None, :, None], gf[None, None, :, None, None],
             hf[None, None, :, None, None])
    for f in entry:
        f.flags.writeable = False
    return entry


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


class LRUTable:
    """A bounded table of read-only entries, least recently used first.

    `find(key)` returns the entry of one key, or None.  `get(keys, build)`
    returns the entry of each key, and builds all the keys it misses with
    one `build(missing)` call, which returns their entries in order, each
    a tuple of arrays that the table makes read-only.  It then evicts the least recently used entries beyond `bound`, but never
    one of its own keys: a call with more distinct keys than `bound` keeps
    them all, until the next call that builds.  `misses` counts the keys
    built since the last `clear`.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self.misses = 0
        self._entries = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.misses = 0

    def find(self, key):
        """The entry of the key, now the most recently used, or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def get(self, keys, build) -> list:
        entries = self._entries
        distinct = dict.fromkeys(keys)
        missing = [key for key in distinct if self.find(key) is None]
        if missing:
            built = build(missing)
            for entry in built:
                for a in entry:
                    a.flags.writeable = False
            entries.update(zip(missing, built))
            self.misses += len(missing)
            for _ in range(len(entries) - max(self.bound, len(distinct))):
                entries.popitem(last=False)
        return [entries[key] for key in keys]


#: the `_build_shapes` entry of each frame shape (a, h, b) met: 1024, or
#: the shapes of the latest call that builds if those are more
_shape_domains = LRUTable(1024)


def _build_shapes(shapes) -> list:
    """`_domains` (6, ...) of the corner domains of the up cell, then the
    down cell, of frames of each shape (a, h, b), all from one `_domains`
    call and each with the bits of building it alone, as copies.

    They depend on the shape alone, as the kernel takes node-relative
    points scaled by m.  A `LocalFrame` has a, h > 0 and a finite b, so
    two keys compare equal exactly when their bits do.
    """
    a, h, b = np.array(shapes).T
    u = np.stack([a, np.zeros_like(a)], axis=-1)[:, None, None, None]
    v = np.stack([a * (1.0 - h / b), h], axis=-1)[:, None, None, None]
    triangles = domain_triangles_of(_CELL_UV, u, v)
    domains = _domains(triangles.reshape(-1, 3, 2), np.tile(_CELL_I0.ravel(), len(shapes)))
    return [tuple(d.copy() for d in entry)
            for entry in zip(*(d.reshape((len(shapes), 6) + d.shape[1:]) for d in domains))]


#: row 3 down + corner of a cell's corner domains in a shape's entry
_CELL_ROWS = np.arange(6).reshape(2, 3)


def _cell_domains(frames, down: np.ndarray) -> tuple:
    """`_domains` (3k, ...) of the corners of k cells of the frames with
    orientations down (k,), read from the `_shape_domains` of each
    distinct frame shape of the call: corner c of a cell of the j-th shape
    is row 6 j + 3 down + c of their concatenation."""
    shapes = {}
    index = [shapes.setdefault((f.a, f.h, f.b), len(shapes)) for f in frames]
    kept = _shape_domains.get(shapes, _build_shapes)
    if len(kept) == 1 and len(down) == 1:
        # one cell's corners are three consecutive rows: views, no copy
        row = 3 * int(down[0])
        return tuple(d[row:row + 3] for d in kept[0])
    rows = _CELL_ROWS[down]
    if len(kept) == 1:
        domains = kept[0]
    else:
        domains = [np.concatenate(d) for d in zip(*kept)]
        rows = rows + 6 * np.array(index)[:, None]
    rows = rows.ravel()
    return tuple(d.take(rows, axis=0) for d in domains)


def cells_basis(frames, ms, vertices, down, points, *, grad: bool = True,
                hess: bool = True):
    """Scaled (N, Nx, Ny) families of the three corners of k cells, each
    from within its own cell, in one kernel call.

    frames: the element frame of each cell; ms: the resolution of each
    cell (k,), or one resolution of all; vertices (k, 3, 2): the cells'
    corner positions, in corner order; down (k,): each cell's orientation;
    points (k, n, 2): element-local points of each cell, or (1, n, 2):
    the same points of every cell, broadcast against the vertices.
    Returns value (k, 3, 3, n), grad (k, 3, 3, n, 2) and hess
    (k, 3, 3, n, 3), indexed [cell, corner, family, point]; grad or hess
    set False comes back as None.  Evaluation is forced onto the hexagon
    sub-domain each corner presents to its cell, so points on cell edges
    get that cell's polynomial; a point outside it raises OutsideDomain.
    The kernel reads the constants kept once per frame shape
    (`_shape_domains`), the scale factors kept per resolution
    (`_resolution_scale`; one per cell or one for all take the same
    entries) and the gather rows kept per call pattern (`_gather_rows`);
    a domain's name is looked up only for a point outside it.  Its
    results do not depend on how many domains share a call: each cell
    gets the bits of evaluating it alone.
    `element._fill_basis` calls it directly; the probes and point loads go
    through `subtriangle_basis`.
    """
    points = np.asarray(points, dtype=float)
    k, n = len(vertices), points.shape[1]
    down = np.asarray(down, dtype=np.intp)
    if np.ndim(ms) == 0:
        vf, gf, hf = _resolution_scale(float(ms))
        rel = ms * (points[:, None] - vertices[:, :, None])
    else:
        ms = np.asarray(ms, dtype=float)
        vf, gf, hf = (np.concatenate(f) for f in zip(*map(_resolution_scale, ms.tolist())))
        rel = ms[:, None, None, None] * (points[:, None] - vertices[:, :, None])
    value, g, h = _eval_triangles(_cell_domains(frames, down), rel.reshape(3 * k, n, 2),
                                  lambda i: _CELL_NAMES[down[i // 3], i % 3],
                                  grad=grad, hess=hess)
    return (value.reshape(k, 3, 3, n) * vf,
            g if g is None else g.reshape(k, 3, 3, n, 2) * gf,
            h if h is None else h.reshape(k, 3, 3, n, 3) * hf)


def subtriangle_basis(frame: LocalFrame, m: int, vertices, down, p, *,
                      grad: bool = True, hess: bool = True) -> tuple:
    """`cells_basis` of k cells of one element, with vertices (k, 3, 2) and
    orientations down (k,), all at the same local points p (n, 2), or at
    one point (2,) as n = 1, passed once as (1, n, 2): value (k, 3, 3, n),
    grad (k, 3, 3, n, 2) and hess (k, 3, 3, n, 3), or None for a
    derivative not asked for.  The probes and the point loads reach the
    kernel through this entry; the assembly calls `cells_basis` directly.
    """
    vertices = np.asarray(vertices)
    return cells_basis([frame] * len(vertices), m, vertices, down,
                       np.asarray(p, dtype=float).reshape(1, -1, 2), grad=grad, hess=hess)


def nesting_residual(frame: LocalFrame, m: int, idx: tuple[int, int],
                     component: str = "w") -> float:
    """Diagnostic: least-squares residual of projecting a resolution-m basis
    function onto the span of the resolution-2m basis.

    Returns the relative weighted-L2 residual over the element.  The
    normal equations and the residual norm integrate products of two
    cubics over each fine cell, so a degree-6 rule makes them exact.  The
    two spans are generally not nested; this reports how far from nested
    they are and asserts nothing.
    """
    comp = {"w": 0, "thx": 1, "thy": 2}[component]
    m2 = 2 * m
    bary, wts = triangle_rule(6)
    cells = subtriangle_partition(frame, m2)
    pts = np.matmul(bary, cells).reshape(-1, 2)
    wq = (wts * triangle_areas(cells)[:, None]).ravel()

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
