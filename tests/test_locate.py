"""Cell location: the O(1) grid window against the full scan it replaced.

`locate_subtriangle` tests at most 18 cells picked by grid arithmetic.
It must return the same cells, in the same order, as the full scan over
all m*m cells, kept below word for word as the reference: at grid nodes
(one to six incident cells), on cell edges, inside cells, in the 1e-9
tolerance band just outside the element and outside it, on random,
skewed (b > h) and rotated frames.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import triplate.element
import triplate.geometry
import triplate.shapefn
import triplate.solve
from triplate import (MRElement, OutsideElement, apply_boundary_conditions,
                      assemble, benchmark_case, canonicalize_triangle,
                      element_load_point, field_eval, grid_indices,
                      moment_eval, node_position, solve_system,
                      subtriangle_partition)
from triplate.element import locate_subtriangle
from triplate.geometry import barycentric

from conftest import random_triangle


# The full scan that the grid window replaced, kept word for word as the
# reference it must reproduce.
def scan_locate_subtriangle(elem: MRElement, p_local, all_containing: bool = False):
    """Sub-triangle(s) whose closure contains the local point p.

    With all_containing=False returns the first match in partition order.
    """
    p = np.asarray(p_local, dtype=float)
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
    for c, tri in enumerate(cells):
        v = tri.vertices
        i, t = c % 3, rng.uniform(0.05, 0.95)
        pts.append((1.0 - t) * v[i] + t * v[(i + 1) % 3])
    # nodes and edge points after a round trip through global axes, which
    # moves them off by rounding, to either side
    pts += [frame.to_local(frame.to_global(p)) for p in pts]
    for tri in cells:
        w = rng.uniform(0.05, 1.0, 3)
        pts.append(w / w.sum() @ tri.vertices)
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


def _located(locate, elem, p, all_containing):
    try:
        return locate(elem, p, all_containing)
    except OutsideElement:
        return OutsideElement


def _same_cell(got, want):
    """Equal cells: vertex bytes, orientation, corner nodes and domains."""
    return (got.vertices.tobytes() == want.vertices.tobytes()
            and (got.orientation, got.corner_nodes, got.corner_domains)
            == (want.orientation, want.corner_nodes, want.corner_domains))


def _scanned(elem, p):
    # the scan's barycentric test overflows on far points; it still
    # reports them outside
    with np.errstate(over="ignore", invalid="ignore"):
        return _located(scan_locate_subtriangle, elem, p, True)


@pytest.mark.parametrize("m", range(1, 9))
def test_same_cells_as_full_scan(m, rng, unit_material):
    frame = frame_for(m, rng)
    elem = MRElement(frame, m, unit_material)
    incident = set()
    for p in probe_points(frame, m, rng):
        # the scan's first match is the head of its list of matches
        want = _scanned(elem, p)
        first = _located(locate_subtriangle, elem, p, False)
        every = _located(locate_subtriangle, elem, p, True)
        if want is OutsideElement:
            assert first is every is OutsideElement
        else:
            assert _same_cell(first, want[0])
            assert len(every) == len(want)
            assert all(_same_cell(g, w) for g, w in zip(every, want))
            incident.add(len(want))
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
        for all_containing in (False, True):
            with pytest.raises(OutsideElement):
                locate_subtriangle(elem, p, all_containing)


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
        for tri in el.partition():
            v = tri.vertices
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
        p, incident = elem.partition()[3000].vertices.mean(axis=0), 1
    for all_containing in (False, True):
        calls.clear()
        found = locate_subtriangle(elem, p, all_containing)
        assert len(calls) == 1
    assert len(found) == incident
