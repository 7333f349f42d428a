"""Constants that the probes and the basis filler keep between calls.

The kernel constants of a cell's corner domains depend on the frame's
shape (a, h, b) alone, and one bounded table keeps them per shape
(`shapefn._shape_domains`), both orientations together; frames keep none.
The shapes one kernel call misses are built together.  The cell integrals
of the assembly sit in a table of their own (`element._integral_table`),
which a test that counts kernel calls or shape misses of an assembly
empties first (`empty_integral_table`).
Each assembled system keeps its element stack (`GlobalSystem.element_stack`)
and each solution its elements' frame-local dofs (`Solution._local_dofs`).
What the kernel reads per call pattern sits in two small tables: the
factor-table rows per (grad, hess, corner pattern) (`shapefn._gather_rows`)
and the resolution scale factors per m (`shapefn._resolution_scale`).
The kept constants must give the bits of building them anew, be built
once, never be shared where they differ, be read-only and never exceed
their bound.
"""
import dataclasses
import itertools

import numpy as np
import pytest

import triplate.assembly
import triplate.shapefn
from triplate import (CASES, Solution, apply_boundary_conditions, assemble,
                      benchmark_case, build_equivalent_mono, canonicalize_triangle,
                      field_eval, moment_eval, solve_system, subtriangle_partition)
from triplate.geometry import _CELL_I0, _CELL_SHAPES, partition_corners
from triplate.shapefn import (GATHER_TABLE_BOUND, SCALE_TABLE_BOUND, _PLANS, _build_shapes,
                              _domains, _eval_triangles, _gather_rows, _resolution_scale,
                              _scale_factors, _shape_domains, cells_basis,
                              subtriangle_basis)

from conftest import random_triangle

FRAME_VERTICES = [
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],            # b == h
    [(0.0, 0.0), (1.0, 0.0), (0.9, 0.2)],            # b = 10 h
    [(0.3, -0.2), (-0.4, 1.1), (-1.2, -0.7)],        # rotated, b > h
]


def fresh_cells_basis(frames, ms, vertices, down, points):
    """`cells_basis` with its domain constants built anew from the
    `domain_triangles` of each corner's hexagon domain, with nothing kept."""
    k, n = points.shape[:2]
    ms = np.asarray(ms)
    domains = [_CELL_SHAPES[int(d)][1] for d in down]
    triangles = np.array([f.domain_triangles(ds) for f, ds in zip(frames, domains)])
    i0 = np.array([f.domain_center_vertex(d) - 1 for f, ds in zip(frames, domains)
                   for d in ds])
    rel = ms[:, None, None, None] * (points[:, None] - vertices[:, :, None])
    names = [d.name for ds in domains for d in ds]
    value, grad, hess = _eval_triangles(_domains(triangles.reshape(3 * k, 3, 2), i0),
                                        rel.reshape(3 * k, n, 2), names.__getitem__)
    vf, gf, hf = (f[:, None, :, None] for f in _scale_factors(ms))
    return (value.reshape(k, 3, 3, n) * vf, grad.reshape(k, 3, 3, n, 2) * gf[..., None],
            hess.reshape(k, 3, 3, n, 3) * hf[..., None])


def cell_points(vertices, rng):
    """(k, 9, 2): each cell's vertices, edge midpoints and a point 0.3 of
    the way along each edge, and three interior points."""
    edges = vertices[:, [1, 2, 0]] - vertices
    inside = np.matmul(rng.dirichlet([1.0, 1.0, 1.0], size=(len(vertices), 3)), vertices)
    return np.concatenate([vertices, vertices + 0.5 * edges, vertices + 0.3 * edges,
                           inside], axis=1)


def assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def mixed_cells(rng):
    """Cells of both orientations from frames of several shapes at m = 1,
    3 and 8, interleaved: (frames, ms, vertices, down) of each cell."""
    cells = []
    for verts in FRAME_VERTICES + [random_triangle(rng) for _ in range(2)]:
        frame = canonicalize_triangle(*verts)
        for m in (1, 3, 8):
            _, down = partition_corners(m)
            pick = [0, int(np.argmax(down))] if m > 1 else [0]
            pick += list(rng.integers(m * m, size=3))
            vertices = subtriangle_partition(frame, m)[pick]
            cells += [(frame, m, v, d) for v, d in zip(vertices, down[pick])]
    order = rng.permutation(len(cells))
    return [list(x) for x in zip(*(cells[i] for i in order))]


def test_cached_constants_bytes_equal_fresh_triangles(rng, monkeypatch):
    frames, ms, vertices, down = mixed_cells(rng)
    vertices = np.array(vertices)
    points = cell_points(vertices, rng)
    assert set(ms) == {1, 3, 8} and set(down) == {False, True}
    want = fresh_cells_basis(frames, ms, vertices, down, points)
    built = []
    monkeypatch.setattr(triplate.shapefn, "_domains",
                        lambda triangles, i0: built.append(len(i0))
                        or _domains(triangles, i0))
    _shape_domains.clear()
    # first call builds the constants of every shape, all in one `_domains`
    # call, the second reads them; one cell at a time reads them with
    # other cells absent
    for _ in range(2):
        assert_same_bytes(cells_basis(frames, ms, vertices, down, points), want)
    assert built == [6 * len({(f.a, f.h, f.b) for f in frames})] == [30]
    for i in range(0, len(frames), 7):
        got = cells_basis(frames[i:i + 1], ms[i:i + 1], vertices[i:i + 1],
                          down[i:i + 1], points[i:i + 1])
        assert_same_bytes(got, [w[i:i + 1] for w in want])


def test_constants_from_several_passes_bytes_equal_fresh(rng):
    # constants built by separate one-cell calls, read together by one call
    # that takes every cell, give the bits of building them anew
    frames, ms, vertices, down = mixed_cells(rng)
    vertices = np.array(vertices)
    points = cell_points(vertices, rng)
    _shape_domains.clear()
    for i in range(0, len(frames), 4):
        cells_basis(frames[i:i + 1], ms[i:i + 1], vertices[i:i + 1], down[i:i + 1],
                    points[i:i + 1])
    assert _shape_domains.misses > 1
    assert_same_bytes(cells_basis(frames, ms, vertices, down, points),
                      fresh_cells_basis(frames, ms, vertices, down, points))
    # each shape was built once, by whichever call met it first
    assert _shape_domains.misses == len({(f.a, f.h, f.b) for f in frames})


@pytest.mark.parametrize("grad, hess", [(False, False), (True, False), (False, True)])
def test_kernel_bytes_do_not_depend_on_derivatives_asked(grad, hess, rng):
    frames, ms, vertices, down = mixed_cells(rng)
    vertices = np.array(vertices)
    points = cell_points(vertices, rng)
    full = cells_basis(frames, ms, vertices, down, points)
    part = cells_basis(frames, ms, vertices, down, points, grad=grad, hess=hess)
    assert_same_bytes(part[:1], full[:1])
    for asked, got, want in ((grad, part[1], full[1]), (hess, part[2], full[2])):
        if asked:
            assert_same_bytes([got], [want])
        else:
            assert got is None
    one = subtriangle_basis(frames[0], ms[0], vertices[:1], down[:1], points[0],
                            grad=grad, hess=hess)
    for got, want, asked in zip(one, full, (True, grad, hess)):
        if asked:
            assert_same_bytes([got], [want[:1]])
        else:
            assert got is None


def test_frames_of_other_shape_get_other_constants():
    a, b = (canonicalize_triangle(*v) for v in FRAME_VERTICES[:2])
    _shape_domains.clear()
    for frame in (a, b):
        cells = subtriangle_partition(frame, 3)[:1]
        cells_basis([frame], [3], cells, [False], cells.mean(axis=1)[:, None])
    assert _shape_domains.misses == 2
    kept = _shape_domains.get([(a.a, a.h, a.b), (b.a, b.h, b.b)], _build_shapes)
    assert _shape_domains.misses == 2
    assert not np.array_equal(kept[0][1], kept[1][1])
    # a frame given a new shape reads the entry of that shape, not its old one
    a.b = 3.0 * a.b
    cells = subtriangle_partition(a, 3)[:1]
    got = cells_basis([a], [3], cells, [False], cells.mean(axis=1)[:, None])
    assert _shape_domains.misses == 3
    assert_same_bytes(got, fresh_cells_basis([a], [3], cells, [False],
                                             cells.mean(axis=1)[:, None]))


def test_kept_constants_are_read_only():
    for kept in _shape_domains.get([(1.0, 0.5, 2.0)], _build_shapes)[0]:
        with pytest.raises(ValueError, match="read-only"):
            kept.flat[0] = 1.0


def test_twin_keeps_one_entry_per_distinct_shape(rng, empty_integral_table):
    # only the first element of each distinct shape is evaluated, and its
    # entry holds both orientations though a one-cell element asks for the
    # up cell alone; the frames keep nothing
    twin = build_equivalent_mono(CASES["skew-60"].build(4)).model
    shapes = {(el.frame.a, el.frame.h, el.frame.b) for el in twin.elements}
    assert 1 < len(shapes) < len(twin.elements)
    _shape_domains.clear()
    assemble(twin)
    assert len(_shape_domains) == len(shapes)
    assert _shape_domains.misses == len(shapes)
    for elem in twin.elements:
        assert set(vars(elem.frame)) == {"a", "h", "b", "origin", "rotation"}
    # a frame asked for the up cell, the down cell or both, in any order,
    # reads one entry, with the bits of building each cell alone
    frame = canonicalize_triangle(*random_triangle(rng))
    cells = subtriangle_partition(frame, 3)[[0, 3]]
    _, down = partition_corners(3)
    assert down[[0, 3]].tolist() == [False, True]
    points = cell_points(cells, rng)
    misses = _shape_domains.misses
    for pick in ([0], [1], [0], [1, 0], [0, 1]):
        got = cells_basis([frame] * len(pick), 3, cells[pick], down[[0, 3]][pick],
                          points[pick])
        assert_same_bytes(got, fresh_cells_basis([frame] * len(pick), [3] * len(pick),
                                                 cells[pick], down[[0, 3]][pick],
                                                 points[pick]))
    assert _shape_domains.misses == misses + 1


def probe_points(sol, rng, count):
    """Global points spread over every element of the solved model."""
    pts = []
    for elem in sol.system.model.elements:
        w = rng.dirichlet([1.0, 1.0, 1.0], size=count // len(sol.system.model.elements))
        pts += list(elem.frame.to_global(w @ elem.frame.local_vertices()))
    return pts


def test_probes_after_the_first_rebuild_nothing(rng, monkeypatch):
    model = benchmark_case("skew-60").build(4)
    sol = solve_system(apply_boundary_conditions(assemble(model)))
    p0 = probe_points(sol, rng, 2)[0]
    field_eval(sol, p0)
    moment_eval(sol, p0)
    local = sol._local_dofs
    built = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            built.append(name)
            return original(*args, **kwargs)
        return wrapper

    for module, name in ((triplate.shapefn, "_domains"),
                         (triplate.assembly, "_element_stack")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    pts = probe_points(sol, rng, 50)
    assert len(pts) == 50
    misses = _shape_domains.misses
    for p in pts:
        field_eval(sol, p)
        moment_eval(sol, p)
    assert built == []
    assert _shape_domains.misses == misses
    assert sol._local_dofs is local
    # the wrappers do count: a new system of the same elements (whose basis
    # and kernel constants are kept) builds its element stack, once
    again = solve_system(apply_boundary_conditions(assemble(model)))
    field_eval(again, p0)
    moment_eval(again, p0)
    assert built == ["_element_stack"]


def test_solutions_of_one_system_keep_their_own_local_dofs(rng):
    sol = solve_system(apply_boundary_conditions(assemble(CASES["square-ss"].build(3))))
    twice = Solution(sol.system, 2.0 * sol.dofs, sol.residual)
    for p in probe_points(sol, rng, 6):
        w, thx, thy = field_eval(sol, p)
        assert field_eval(twice, p) == pytest.approx((2 * w, 2 * thx, 2 * thy), rel=1e-12)
    assert len(sol._local_dofs) == len(twice._local_dofs) == len(sol.system.element_nodes)
    for mine, other in zip(sol._local_dofs, twice._local_dofs):
        assert np.array_equal(2.0 * mine, other)


def test_solution_dofs_cannot_change_under_the_kept_local_dofs():
    sol = solve_system(apply_boundary_conditions(assemble(CASES["square-ss"].build(2))))
    field_eval(sol, (0.3, 0.2))
    with pytest.raises(ValueError, match="read-only"):
        sol.dofs[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.dofs = np.zeros_like(sol.dofs)


def fresh_gather_rows(grad, hess, i0):
    """The factor-table rows the kernel read before it kept them: each
    domain's plan rows at its i0, offset by its own table."""
    return (_PLANS[grad, hess][0][:, np.array(i0)]
            + 6 * 3 * np.arange(len(i0))[:, None, None, None])


def test_kept_gather_rows_are_read_only_and_equal_fresh(rng):
    # one mixed call and three probe-sized ones per (grad, hess): every
    # pattern is kept once, read-only, with the rows built anew
    frames, ms, vertices, down = mixed_cells(rng)
    vertices = np.array(vertices)
    points = cell_points(vertices, rng)
    flags = list(itertools.product((False, True), repeat=2))
    _gather_rows.cache_clear()
    for grad, hess in flags:
        for k in (1, 3, 6, len(frames)):
            cells_basis(frames[:k], ms[:k], vertices[:k], down[:k], points[:k],
                        grad=grad, hess=hess)
    assert _gather_rows.cache_info().currsize == 4 * len(flags)
    for (grad, hess), k in itertools.product(flags, (1, 3, 6, len(frames))):
        i0 = tuple(_CELL_I0[np.array(down[:k], dtype=np.intp)].ravel().tolist())
        kept = _gather_rows(grad, hess, i0)
        with pytest.raises(ValueError, match="read-only"):
            kept.flat[0] = 0
        assert_same_bytes([kept], [fresh_gather_rows(grad, hess, i0)])
    # every lookup above read an entry a kernel call had kept
    assert _gather_rows.cache_info().misses == 4 * len(flags)


def test_kept_scale_factors_are_read_only_and_serve_per_cell_resolutions(rng):
    # the assembly passes one resolution per cell, the probes one for all:
    # both read the entry of each resolution and give the same bytes
    frames, ms, vertices, down = mixed_cells(rng)
    vertices = np.array(vertices)
    points = cell_points(vertices, rng)
    _resolution_scale.cache_clear()
    got = cells_basis(frames, np.array(ms), vertices, down, points)
    assert _resolution_scale.cache_info().currsize == 3
    for m in (1, 3, 8):
        entry = _resolution_scale(float(m))
        shapes = [(1, 1, 3, 1), (1, 1, 3, 1, 1), (1, 1, 3, 1, 1)]
        for kept, fresh, shape in zip(entry, _scale_factors(m), shapes, strict=True):
            with pytest.raises(ValueError, match="read-only"):
                kept.flat[0] = 0.0
            assert_same_bytes([kept], [fresh.reshape(shape)])
    assert_same_bytes(got, fresh_cells_basis(frames, ms, vertices, down, points))
    for i, m in enumerate(ms):
        one = cells_basis(frames[i:i + 1], m, vertices[i:i + 1], down[i:i + 1],
                          points[i:i + 1])
        assert_same_bytes(one, [g[i:i + 1] for g in got])
    assert _resolution_scale.cache_info().misses == 3


def test_kept_tables_never_exceed_their_bound(rng):
    patterns = (p for r in itertools.count(1) for p in itertools.product(range(3), repeat=r))
    _gather_rows.cache_clear()
    for i0 in itertools.islice(patterns, GATHER_TABLE_BOUND + 10):
        _gather_rows(True, True, i0)
        assert _gather_rows.cache_info().currsize <= GATHER_TABLE_BOUND
    _resolution_scale.cache_clear()
    for m in range(1, SCALE_TABLE_BOUND + 11):
        _resolution_scale(float(m))
        assert _resolution_scale.cache_info().currsize <= SCALE_TABLE_BOUND
    assert _gather_rows.cache_info().currsize == GATHER_TABLE_BOUND
    assert _resolution_scale.cache_info().currsize == SCALE_TABLE_BOUND
    # full tables still give the bits of building everything anew
    frames, ms, vertices, down = mixed_cells(rng)
    vertices = np.array(vertices)
    points = cell_points(vertices, rng)
    assert_same_bytes(cells_basis(frames, ms, vertices, down, points),
                      fresh_cells_basis(frames, ms, vertices, down, points))
