"""Canonical frames, refinement grids and hexagon sub-domain geometry."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from triplate import (CASES, CollinearVertices, HexDomain, IndexOutOfGrid,
                      barycentric, build_equivalent_mono, canonicalize_triangle,
                      grid_indices,
                      grid_size, node_ordinal, node_position,
                      subtriangle_partition)
from triplate.geometry import (_CELL_SHAPES, _DOMAIN_TABLE, FrameStack, LocalFrame,
                               barycentric_coeffs,
                               canonicalize_triangles, classify_points,
                               grid_index_arrays, grid_ordinal,
                               hexagon_domain_of, partition_corners,
                               triangle_areas)

from conftest import random_triangle


def _shoelace(verts):
    e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
    return 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])


class TestCanonicalFrame:
    def test_roundtrip_random(self, rng):
        for _ in range(20):
            verts = random_triangle(rng)
            frame = canonicalize_triangle(*verts)
            pts = rng.uniform(-3.0, 3.0, (7, 2))
            assert_allclose(frame.to_global(frame.to_local(pts)), pts,
                            atol=1e-12)

    def test_vertices_are_a_relabeling(self, rng):
        for _ in range(20):
            verts = random_triangle(rng)
            frame = canonicalize_triangle(*verts)
            got = frame.global_vertices()
            # same vertex set, any order
            dist = np.linalg.norm(got[:, None, :] - verts[None, :, :], axis=2)
            assert (dist.min(axis=1) < 1e-9).all()
            assert_allclose(frame.area, _shoelace(verts), rtol=1e-12)

    def test_shape_parameters(self, rng):
        for _ in range(20):
            frame = canonicalize_triangle(*random_triangle(rng))
            assert frame.a > 0 and frame.h > 0
            assert frame.b >= frame.h * (1 - 1e-12)
            local = frame.local_vertices()
            assert_allclose(local[0], [0.0, 0.0])
            assert_allclose(local[1], [frame.a, 0.0])
            assert local[2, 1] == pytest.approx(frame.h)

    def test_orientation_fixed(self):
        # clockwise input is reversed, counterclockwise kept
        ccw = canonicalize_triangle([0, 0], [1, 0], [0, 1])
        cw = canonicalize_triangle([0, 0], [0, 1], [1, 0])
        assert_allclose(sorted(ccw.global_vertices().tolist()),
                        sorted(cw.global_vertices().tolist()))

    @pytest.mark.parametrize("verts", [
        ([0, 0], [1, 1], [2, 2]),
        ([0, 0], [1, 0], [2, 0]),
        ([0, 0], [0, 0], [1, 1]),
    ])
    def test_collinear_rejected(self, verts):
        with pytest.raises(CollinearVertices):
            canonicalize_triangle(*verts)

    @pytest.mark.parametrize("a, h, b", [
        (math.inf, 1.0, 2.0), (math.nan, 1.0, 2.0), (1.0, math.inf, math.inf),
        (1.0, math.nan, 2.0), (0.0, 1.0, 2.0), (1.0, -1.0, 2.0),
    ])
    def test_non_finite_or_non_positive_sides_rejected(self, a, h, b):
        with pytest.raises(ValueError, match="frame requires finite a > 0 and h > 0"):
            LocalFrame(a, h, b)

    @pytest.mark.parametrize("b", [math.inf, math.nan, 0.5])
    def test_bad_intercept_rejected(self, b):
        with pytest.raises(ValueError, match="frame requires finite b >= h"):
            LocalFrame(1.0, 1.0, b)


def assert_frames_match(triangles):
    """The stacked canonicalization agrees with canonicalize_triangle."""
    verts, a, h, b, rotation = canonicalize_triangles(np.asarray(triangles))
    for i, tri in enumerate(triangles):
        want = canonicalize_triangle(*tri)
        scale = max(float(np.abs(tri).max()), want.a)
        assert_array_equal(verts[i, 0], want.origin)
        assert_allclose([a[i], h[i]], [want.a, want.h], rtol=1e-14,
                        atol=1e-15 * scale)
        # b = h a / (a - x3) amplifies rounding by b / h near a right angle
        # at v2
        assert b[i] == pytest.approx(want.b, rel=1e-14 * want.b / want.h)
        turn = rotation[i] - want.rotation
        assert abs(np.angle(np.exp(1j * turn))) <= 1e-14   # +-pi are one angle
        # the relabeled vertices are the frame's, in local node order
        assert_allclose(verts[i], want.global_vertices(), rtol=0,
                        atol=1e-14 * scale)


class TestStackedCanonicalFrames:
    def test_random_triangles_both_orientations(self, rng):
        tris = rng.uniform(-3.0, 3.0, (400, 3, 2))
        e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert (cross < -0.05).any() and (cross > 0.05).any()
        assert_frames_match(tris[np.abs(cross) > 0.05])

    def test_degenerate_triangle_rejected(self):
        tris = np.array([[[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 1], [2, 2]]],
                        dtype=float)
        with pytest.raises(CollinearVertices):
            canonicalize_triangles(tris)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


class TestFrameStack:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rows_bytes_equal_frame_methods(self, name, rng):
        # assemble takes node positions, rotation matrices and side
        # vertices from the stack: each row must have the bits of its
        # frame's own methods, on the model and its conventional twin
        model = CASES[name].build(4)
        frames = [el.frame for el in
                  model.elements + build_equivalent_mono(model).model.elements]
        stack = FrameStack.of(frames)
        local = stack.local_vertices()
        corners = stack.to_global(local)
        pts = rng.uniform(-2.0, 2.0, (len(frames), 5, 2))
        moved = stack.to_global(pts)
        for e, f in enumerate(frames):
            c, s = math.cos(f.rotation), math.sin(f.rotation)
            for got, want in ((stack.R[e], np.array([[c, -s], [s, c]])),
                              (stack.R[e], f.rotation_matrix()),
                              (stack.origin[e], f.origin),
                              ([stack.a[e, 0], stack.h[e, 0], stack.b[e, 0]],
                               [f.a, f.h, f.b]),
                              (local[e], f.local_vertices()),
                              (corners[e], f.global_vertices()),
                              (moved[e], f.to_global(pts[e]))):
                assert _bits(got) == _bits(want)
        # rotated frames, and more than the quarter turns, are covered
        assert len({f.rotation % (math.pi / 2) for f in frames}) > 1


class TestGrid:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_sizes_and_ordering(self, m):
        idxs = grid_indices(m)
        assert len(idxs) == grid_size(m) == (m + 1) * (m + 2) // 2
        for k, (r, s) in enumerate(idxs):
            assert m >= r >= s >= 0
            assert node_ordinal(m, (r, s)) == k

    def test_corner_positions(self, random_frame_factory):
        frame = random_frame_factory()
        for m in (1, 3):
            local = frame.local_vertices()
            assert_allclose(node_position(frame, m, (0, 0)), local[0],
                            atol=1e-12)
            assert_allclose(node_position(frame, m, (m, 0)), local[1],
                            atol=1e-12)
            assert_allclose(node_position(frame, m, (m, m)), local[2],
                            atol=1e-12)

    @pytest.mark.parametrize("bad", [(1, 2), (4, 0), (-1, 0), (2, -1)])
    def test_bad_index_rejected(self, bad):
        with pytest.raises(IndexOutOfGrid):
            node_ordinal(3, bad)
        with pytest.raises(IndexOutOfGrid):
            node_position(canonicalize_triangle([0, 0], [1, 0], [0, 1]),
                          3, bad)

    def test_bad_resolution_rejected(self):
        with pytest.raises(IndexOutOfGrid):
            grid_indices(0)
        with pytest.raises(IndexOutOfGrid):
            grid_index_arrays(0)
        with pytest.raises(IndexOutOfGrid):
            partition_corners(0)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 48])
    def test_index_arrays_match_grid(self, m):
        r, s = grid_index_arrays(m)
        assert list(zip(r.tolist(), s.tolist())) == grid_indices(m)
        assert grid_ordinal(m, r, s).tolist() == list(range(grid_size(m)))


def loop_partition(m):
    """(corners, down) of every cell by the row loop: row s holds its m-s
    up cells (r,s), (r+1,s), (r+1,s+1), then its m-s-1 down cells (r,s),
    (r+1,s+1), (r,s+1)."""
    cells = []
    for s in range(m):
        cells += [(((r, s), (r + 1, s), (r + 1, s + 1)), False) for r in range(s, m)]
        cells += [(((r, s), (r + 1, s + 1), (r, s + 1)), True) for r in range(s + 1, m)]
    return cells


class TestPartition:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_counts_and_area(self, m, random_frame_factory):
        frame = random_frame_factory()
        cells = subtriangle_partition(frame, m)
        _, down = partition_corners(m)
        assert cells.shape == (m * m, 3, 2)
        assert np.count_nonzero(~down) == m * (m + 1) // 2
        assert np.count_nonzero(down) == m * (m - 1) // 2
        areas = triangle_areas(cells)
        assert areas.tolist() == [_shoelace(v) for v in cells]
        assert sum(areas) == pytest.approx(frame.area, rel=1e-12)

    def test_corners_match_grid(self, random_frame_factory):
        frame = random_frame_factory()
        m = 3
        corners, _ = partition_corners(m)
        for vertices, nodes in zip(subtriangle_partition(frame, m), corners.tolist()):
            for corner, idx in zip(vertices, nodes):
                assert_allclose(corner, node_position(frame, m, tuple(idx)),
                                atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_closed_form_corners_match_partition(self, m, random_frame_factory):
        frame = random_frame_factory()
        cells = subtriangle_partition(frame, m)
        corners, down = partition_corners(m)
        loop = loop_partition(m)
        assert corners.tolist() == [[list(n) for n in nodes] for nodes, _ in loop]
        assert down.tolist() == [d for _, d in loop]
        for vertices, (nodes, d) in zip(cells, loop):
            want = np.array([node_position(frame, m, n) for n in nodes])
            assert vertices.tobytes() == want.tobytes()
            # each corner sees the cell as its hexagon domain scaled by 1/m:
            # the cell's vertices, relative to the corner and times m, are
            # the domain's, one to one
            for corner, dom in zip(nodes, _CELL_SHAPES[d][1]):
                shifted = m * (vertices - node_position(frame, m, corner))
                dist = np.linalg.norm(shifted[:, None] - frame.domain_triangle(dom),
                                      axis=-1)
                assert sorted(dist.argmin(axis=1).tolist()) == [0, 1, 2]
                assert dist.min(axis=1).max() < 1e-12 * max(frame.a, frame.h)

    def test_partition_covers_interior(self, rng, random_frame_factory):
        frame = random_frame_factory()
        cells = subtriangle_partition(frame, 4)
        verts = frame.local_vertices()
        for _ in range(30):
            lam = rng.dirichlet([1.0, 1.0, 1.0])
            p = lam @ verts
            hits = sum(bool(np.all(barycentric(v, p) >= -1e-9)) for v in cells)
            assert hits >= 1


class TestBarycentric:
    def test_vertices_and_sum(self, rng):
        verts = random_triangle(rng)
        L = barycentric(verts, verts)
        assert_allclose(L, np.eye(3), atol=1e-12)
        pts = rng.uniform(-1.0, 1.0, (10, 2))
        assert_allclose(barycentric(verts, pts).sum(axis=1), 1.0, atol=1e-12)

    def test_linear_reproduction(self, rng):
        verts = random_triangle(rng)
        coef = rng.uniform(-1.0, 1.0, 3)
        vals = coef[0] + verts @ coef[1:]
        for p in rng.uniform(-1.0, 1.0, (10, 2)):
            L = barycentric(verts, p)
            assert L @ vals == pytest.approx(coef[0] + p @ coef[1:],
                                             abs=1e-12)

    def test_stacked_input_rounds_as_one_triangle(self, rng):
        # the one-triangle formulas, as barycentric_coeffs had them before
        # it took stacked input
        def single(verts):
            x, y = verts[:, 0], verts[:, 1]
            j, k = [1, 2, 0], [2, 0, 1]
            a0 = x[j] * y[k] - x[k] * y[j]
            return a0, y[j] - y[k], x[k] - x[j], float(a0.sum())

        stacked = np.array([random_triangle(rng) for _ in range(12)])
        got = barycentric_coeffs(stacked)
        for i, verts in enumerate(stacked):
            want = single(verts)
            for g_stack, g_one, w in zip(got[:3], barycentric_coeffs(verts)[:3],
                                         want[:3]):
                assert g_stack[i].tobytes() == g_one.tobytes() == w.tobytes()
            assert got[3][i] == barycentric_coeffs(verts)[3] == want[3]

    @pytest.mark.parametrize("k", [1, 3, 18])
    def test_stacked_triangles_at_one_point_round_as_one(self, k, rng):
        stacked = np.array([random_triangle(rng) for _ in range(k)])
        for p in [*rng.uniform(-1.0, 1.0, (4, 2)), stacked[0, 1]]:
            got = barycentric(stacked, p)
            assert got.shape == (k, 3)
            want = np.array([barycentric(verts, p) for verts in stacked])
            assert got.tobytes() == want.tobytes()

    def test_vertex_axis_takes_round_as_coordinate_takes(self, rng):
        # the form barycentric_coeffs had before it took the vertex axis
        # twice: x and y each taken at the successor and the predecessor
        def four_takes(vertices):
            x, y = vertices[..., 0], vertices[..., 1]
            j, k = np.array([1, 2, 0]), np.array([2, 0, 1])
            xj, xk = x.take(j, axis=-1), x.take(k, axis=-1)
            yj, yk = y.take(j, axis=-1), y.take(k, axis=-1)
            a0 = xj * yk - xk * yj
            return a0, yj - yk, xk - xj, a0.sum(axis=-1)

        # signed zeros and equal coordinates, whose differences are zeros
        zeros = np.array([[-0.0, 0.0], [1.0, -0.0], [-0.0, 1.0]])
        frame = canonicalize_triangle(*random_triangle(rng))
        for verts in (random_triangle(rng), zeros,
                      np.array([random_triangle(rng) for _ in range(12)]),
                      np.array([random_triangle(rng) for _ in range(12)]).reshape(3, 4, 3, 2),
                      subtriangle_partition(frame, 5), zeros[None]):
            for got, want in zip(barycentric_coeffs(verts), four_takes(verts), strict=True):
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


class TestHexagonDomains:
    def test_domain_triangles_round_as_one_domain(self, rng):
        doms = [d for d in HexDomain if d != HexDomain.OUTSIDE]
        for _ in range(10):
            frame = canonicalize_triangle(*random_triangle(rng))
            stacked = frame.domain_triangles(doms)
            for dom, got in zip(doms, stacked):
                coeffs, _ = _DOMAIN_TABLE[dom]
                want = np.array([cu * frame.u + cv * frame.v
                                 for cu, cv in coeffs])
                assert got.tobytes() == want.tobytes()
                assert frame.domain_triangle(dom).tobytes() == want.tobytes()

    def test_centroids_classify_to_own_domain(self, random_frame_factory):
        frame = random_frame_factory()
        for dom in HexDomain:
            if dom == HexDomain.OUTSIDE:
                continue
            centroid = frame.domain_triangle(dom).mean(axis=0)
            assert hexagon_domain_of(centroid, frame) == dom

    def test_far_point_outside(self, random_frame_factory):
        frame = random_frame_factory()
        far = np.array([100.0 * frame.a, 100.0 * frame.h])
        assert hexagon_domain_of(far, frame) == HexDomain.OUTSIDE

    def test_vectorized_matches_scalar(self, rng, random_frame_factory):
        frame = random_frame_factory()
        pts = rng.uniform(-2.0 * frame.a, 2.0 * frame.a, (40, 2))
        nums = classify_points(pts, frame)
        for p, n in zip(pts, nums):
            assert hexagon_domain_of(p, frame).value == n

    def test_domain_triangles_tile_the_hexagon(self, random_frame_factory):
        # the six sub-domains share only edges: total area is six cells
        frame = random_frame_factory()
        total = sum(_shoelace(frame.domain_triangle(d))
                    for d in HexDomain if d != HexDomain.OUTSIDE)
        assert total == pytest.approx(6.0 * frame.area, rel=1e-12)
