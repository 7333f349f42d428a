"""Cell and element location against the scans they replaced.

`locate_subtriangle` tests at most 18 cells picked by grid arithmetic.
It must return the same cells, in the same order, as the full scan over
all m*m cells, kept below as the reference: at grid nodes (one to six
incident cells), on cell edges, inside cells, in the 1e-9 tolerance band
just outside the element and outside it, on random, skewed (b > h) and
rotated frames.  `assembly._owning_element` tests every element of a
model in one stacked closure test; it must return the elements the
per-element scan it replaced returns, and the point in each one's local
axes with the bits of that element's `to_local`.
"""
import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import triplate.element
import triplate.geometry
import triplate.shapefn
import triplate.solve
from triplate import (CASES, MRElement, Model, OutsideElement, OutsideModel,
                      apply_boundary_conditions, assemble, benchmark_case,
                      build_equivalent_mono, canonicalize_triangle,
                      element_load_point, field_eval, grid_indices,
                      moment_eval, node_position, solve_system,
                      subtriangle_partition)
from triplate.assembly import _element_stack, _owning_element
from triplate.element import (_WINDOW, _WINDOW_CORNERS, _WINDOW_DOWN, _window_cells,
                              locate_subtriangle)
from triplate.geometry import barycentric, partition_corners

from conftest import random_triangle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import LATTICE, PROBE_CASE, PROBE_M, probe_pool  # noqa: E402


# The full scan that the grid window replaced, one closure test per cell,
# kept as the reference it must reproduce.
def scan_locate_subtriangle(elem: MRElement, p_local, first_only: bool = False):
    """Vertices, corners and down-cell mask of every cell whose closure
    contains the local point p, in partition order; with first_only, of
    the first such cell alone."""
    p = np.asarray(p_local, dtype=float)
    cells = elem.partition()
    corners, down = partition_corners(elem.m)
    found = []
    for c, vertices in enumerate(cells):
        L = barycentric(vertices, p)
        # scale-free containment: tolerance on barycentric coordinates
        if np.all(L >= -1e-9):
            found.append(c)
            if first_only:
                break
    if not found:
        raise OutsideElement(f"point {p} lies outside the element")
    return cells[found], corners[found], down[found]


# The per-element scan that the stacked element lookup replaced, kept word
# for word as the reference it must reproduce.
def scan_owning_element(model: Model, p):
    """Every element whose closure holds the global point p, in model order."""
    p = np.asarray(p, dtype=float)
    found = []
    # skip a non-finite point: its local coordinates would be NaN
    elements = model.elements if np.all(np.isfinite(p)) else []
    for e, elem in enumerate(elements):
        L = barycentric(elem.frame.local_vertices(), elem.frame.to_local(p))
        if np.all(L >= -1e-9):
            found.append(e)
    if not found:
        raise OutsideModel(f"point {p.tolist()} lies outside every element")
    return found


FIXED_VERTICES = [
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],            # b == h
    [(0.0, 0.0), (1.0, 0.0), (0.9, 0.2)],            # b = 10 h
    [(0.3, -0.2), (-0.4, 1.1), (-1.2, -0.7)],        # rotated, b > h
    [(2.0, 1.0), (2.0 + math.cos(2.1), 1.0 + math.sin(2.1)),
     (2.0 + math.cos(3.147), 1.0 + math.sin(3.147))],  # rotated equilateral
]

# element-side offsets, as barycentric coordinates of the element: inside
# the 1e-9 cell band and just past it (a side cell is m times smaller),
# then clearly outside
OFFSETS = (1e-13, 1e-11, 1e-10, 9e-10, 2e-9, 1e-8, 1e-3, 0.4, 3.0)


def probe_points(frame, m, rng):
    """Local points of every kind the locator must agree on."""
    cells = subtriangle_partition(frame, m)
    pts = [node_position(frame, m, idx) for idx in grid_indices(m)]
    for c, v in enumerate(cells):
        i, t = c % 3, rng.uniform(0.05, 0.95)
        pts.append((1.0 - t) * v[i] + t * v[(i + 1) % 3])
    # nodes and edge points after a round trip through global axes, which
    # moves them off by rounding, to either side
    pts += [frame.to_local(frame.to_global(p)) for p in pts]
    for v in cells:
        w = rng.uniform(0.05, 1.0, 3)
        pts.append(w / w.sum() @ v)
    for d in OFFSETS:
        for side in range(3):
            for t in (0.0, 0.37, 1.0):
                L = np.empty(3)
                L[side] = -d
                L[(side + 1) % 3] = t * (1.0 + d)
                L[(side + 2) % 3] = (1.0 - t) * (1.0 + d)
                pts.append(L @ frame.local_vertices())
    pts += [np.array(p) for p in
            [(-50.0, 3.0), (1e6, -1e6), (1e300, 1e300), (-1e308, 1e308)]]
    return pts


def frame_for(m, rng):
    """A fixed frame at odd m, a random one at even m."""
    if m % 2:
        return canonicalize_triangle(*FIXED_VERTICES[m // 2 % len(FIXED_VERTICES)])
    return canonicalize_triangle(*random_triangle(rng))


def _located(locate, elem, p, *args):
    try:
        return locate(elem, p, *args)
    except OutsideElement:
        return OutsideElement


def _same_cells(got, want):
    """Equal cell arrays: vertex bytes, corner nodes and orientation."""
    (gv, gc, gd), (wv, wc, wd) = got, want
    return (gv.shape == wv.shape and gv.tobytes() == wv.tobytes()
            and gc.tolist() == wc.tolist() and gd.tolist() == wd.tolist())


def _scanned(elem, p, first_only=False):
    # the scan's barycentric test overflows on far points; it still
    # reports them outside
    with np.errstate(over="ignore", invalid="ignore"):
        return _located(scan_locate_subtriangle, elem, p, first_only)


@pytest.mark.parametrize("m", range(1, 9))
def test_same_cells_as_full_scan(m, rng, unit_material):
    frame = frame_for(m, rng)
    elem = MRElement(frame, m, unit_material)
    incident = set()
    for p in probe_points(frame, m, rng):
        want = _scanned(elem, p)
        got = _located(locate_subtriangle, elem, p)
        if want is OutsideElement:
            assert got is want
        else:
            assert _same_cells(got, want)
            # row 0 is the scan's first match
            assert _same_cells([a[:1] for a in got], _scanned(elem, p, True))
            incident.add(len(want[0]))
    # corner nodes and cell interiors have one cell, edge points two,
    # side nodes three, inner nodes six
    assert incident == ({1}, {1, 2, 3}, {1, 2, 3, 6})[min(m, 3) - 1]


@pytest.mark.parametrize("p", [(math.nan, 0.2), (0.2, math.nan),
                               (math.inf, 0.0), (0.0, -math.inf),
                               (math.inf, -math.inf), (1e308, 1e308),
                               (-3.0, 0.1), (0.5, 40.0)])
def test_non_finite_and_far_points_are_outside(p, unit_material):
    elem = MRElement(canonicalize_triangle(*FIXED_VERTICES[2]), 5,
                     unit_material)
    assert _scanned(elem, p) is OutsideElement
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideElement):
            locate_subtriangle(elem, p)


@pytest.mark.parametrize("m", [1, 3, 6])
def test_point_load_bytes_match_full_scan(m, rng, unit_material, monkeypatch):
    elem = MRElement(canonicalize_triangle(*random_triangle(rng)), m,
                     unit_material)
    pts = [p for p in probe_points(elem.frame, m, rng)
           if _scanned(elem, p) is not OutsideElement]
    got = [element_load_point(elem, 2.5, p) for p in pts]
    monkeypatch.setattr(triplate.element, "locate_subtriangle",
                        scan_locate_subtriangle)
    want = [element_load_point(elem, 2.5, p) for p in pts]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_probe_bytes_match_full_scan(monkeypatch):
    model = benchmark_case("skew-60").build(4)
    sol = solve_system(apply_boundary_conditions(assemble(model)))
    pts = []
    for el in model.elements:
        for v in el.partition():
            pts += list(el.frame.to_global([v[0], v.mean(axis=0),
                                            v[1:].mean(axis=0)]))

    def probe():
        out = []
        for p in pts:
            mom = moment_eval(sol, p)
            out += [*field_eval(sol, p), mom.mx, mom.my, mom.mxy]
        return np.array(out)

    got = probe()
    monkeypatch.setattr(triplate.solve, "locate_subtriangle",
                        scan_locate_subtriangle)
    assert got.tobytes() == probe().tobytes()


def test_probes_build_no_partition(monkeypatch):
    model = benchmark_case("square-ss").build(48)
    sol = solve_system(apply_boundary_conditions(assemble(model)))

    def no_partition(*args, **kwargs):
        raise AssertionError("a probe built an element's cell partition")

    for module in (triplate.element, triplate.geometry, triplate.shapefn):
        monkeypatch.setattr(module, "subtriangle_partition", no_partition)
    elem = model.elements[0]
    node = node_position(elem.frame, 48, (30, 10))
    for p in (node, (node + node_position(elem.frame, 48, (31, 11))) / 2,
              node + [0.003, 0.001], elem.frame.to_local((0.5, 0.5))):
        g = elem.frame.to_global(p)
        assert all(map(math.isfinite, field_eval(sol, g)))
        assert math.isfinite(moment_eval(sol, g).mx)
        assert np.count_nonzero(element_load_point(elem, 1.0, p)) > 0
    assert not hasattr(elem, "_parts")
    assert "_parts" not in {f.name for f in dataclasses.fields(MRElement)}


@pytest.mark.parametrize("where", ["node", "interior"])
def test_cost_does_not_grow_with_m(where, unit_material, monkeypatch):
    m = 64
    frame = canonicalize_triangle(*FIXED_VERTICES[2])
    elem = MRElement(frame, m, unit_material)
    calls = []

    def counting_barycentric(vertices, p):
        calls.append(1)
        return barycentric(vertices, p)

    monkeypatch.setattr(triplate.element, "barycentric", counting_barycentric)
    if where == "node":
        p, incident = node_position(frame, m, (40, 20)), 6
    else:
        p, incident = elem.partition()[3000].mean(axis=0), 1
    vertices, corners, down = locate_subtriangle(elem, p)
    assert len(calls) == 1
    assert len(vertices) == len(corners) == len(down) == incident


# The grid test of the window cells that the edge-class table replaced,
# kept as the reference it must reproduce.
def grid_window_cells(m, r0, s0):
    """Orientations and corner offsets of the window cells around the base
    node (r0, s0) that lie in the grid of resolution m."""
    r, s = (np.array([r0, s0]) + _WINDOW).T
    keep = (s >= 0) & (s < m) & (r >= s + _WINDOW_DOWN) & (r < m)
    return _WINDOW_DOWN[keep], _WINDOW_CORNERS[keep]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 9])
def test_window_classes_equal_the_grid_test(m):
    # every base node the lookup can reach, -2 to m + 1 on both axes
    for r0, s0 in np.ndindex(m + 4, m + 4):
        got = _window_cells(m, r0 - 2, s0 - 2)
        for g, w in zip(got, grid_window_cells(m, r0 - 2, s0 - 2), strict=True):
            assert (g.dtype, g.shape, g.tolist()) == (w.dtype, w.shape, w.tolist())
            assert not g.flags.writeable


def stacked_scan(elem, p):
    """`scan_locate_subtriangle` with every cell's closure test in one
    stacked `barycentric` call, which rounds each cell as if alone."""
    cells = elem.partition()
    corners, down = partition_corners(elem.m)
    found = np.flatnonzero((barycentric(cells, p) >= -1e-9).all(axis=1))
    assert len(found)
    return cells[found], corners[found], down[found]


def test_lookup_bytes_equal_scan_on_probe_pool():
    # every probe-grid pool point in each owning element: nodes, points
    # on the shared diagonal and inside cells; every 25th also against
    # the cell-by-cell scan itself
    model = CASES[PROBE_CASE].build(PROBE_M)
    stack = _element_stack(model.elements)
    pool = probe_pool()
    points = [(x / LATTICE, y / LATTICE) for kind in ("node", "edge", "interior")
              for x, y in pool[kind]]
    assert len(points) == 1369
    incident = set()
    for i, p in enumerate(points):
        owners, local = _owning_element(stack, p)
        for e, p_loc in zip(owners, local):
            elem = model.elements[e]
            got = locate_subtriangle(elem, p_loc)
            assert _same_cells(got, stacked_scan(elem, p_loc))
            if i % 25 == 0:
                assert _same_cells(got, scan_locate_subtriangle(elem, p_loc))
            incident.add(len(got[0]))
    # cell interiors and points on the shared diagonal have one cell in
    # each owning element, side nodes three and inner nodes six
    assert incident == {1, 3, 6}


def element_probe_points(model):
    """Global points of every kind the element lookup must agree on: all
    element nodes (model corners and shared-edge nodes among them), points
    along every element side, the same moved 1e-10 off the side to either
    side, far and non-finite points."""
    pts = [p for el in model.elements for p in el.node_positions_global()]
    for el in model.elements:
        v = el.frame.global_vertices()
        for i in range(3):
            p1, p2 = v[i], v[(i + 1) % 3]
            d = p2 - p1
            normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)
            for t in (0.0, 0.37, 0.5, 1.0):
                p = p1 + t * d
                pts += [p, p + 1e-10 * normal, p - 1e-10 * normal]
    pts += [np.array(p) for p in [(50.0, -3.0), (-1e3, 1e3), (math.nan, 0.2),
                                  (0.2, math.nan), (math.inf, 0.0),
                                  (-math.inf, math.inf)]]
    return pts


def stacked_owning_element(model: Model, p):
    owners, local = _owning_element(_element_stack(model.elements), p)
    assert len(local) == len(owners)
    for e, p_loc in zip(owners, local):
        want = model.elements[e].frame.to_local(p)
        assert (p_loc.shape, p_loc.tobytes()) == (want.shape, want.tobytes())
    return owners


def _owners(lookup, model, p):
    try:
        return lookup(model, p)
    except OutsideModel:
        return OutsideModel


@pytest.mark.parametrize("name", list(CASES))
def test_stacked_element_lookup_matches_scan(name):
    model = CASES[name].build(3)
    glob = model.elements[0].frame.to_global
    loads = [(*glob(p), 1.0) for p in ((0.2, 0.1), (0.4, 0.0))]
    twin = build_equivalent_mono(Model(elements=model.elements, uniform_q=1.0,
                                       point_loads=loads, bcs=model.bcs)).model
    for mdl, counts in ((model, {1, 2}), (twin, {1, 2, 3, 6})):
        pts = element_probe_points(mdl) + [np.array(load[:2]) for load in loads]
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in pts:
                got = _owners(stacked_owning_element, mdl, p)
                assert got == _owners(scan_owning_element, mdl, p)
                seen.add(OutsideModel if got is OutsideModel else len(got))
        assert seen >= counts | {OutsideModel}
