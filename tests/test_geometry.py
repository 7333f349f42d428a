"""Canonical frames, refinement grids and hexagon sub-domain geometry."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from triplate import (CollinearVertices, HexDomain, IndexOutOfGrid,
                      barycentric, canonicalize_triangle, grid_indices,
                      grid_size, node_ordinal, node_position,
                      subtriangle_partition)
from triplate.geometry import (_DOMAIN_TABLE, barycentric_coeffs,
                               canonicalize_triangles, classify_points,
                               hexagon_domain_of)

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


class TestPartition:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_counts_and_area(self, m, random_frame_factory):
        frame = random_frame_factory()
        tris = subtriangle_partition(frame, m)
        assert len(tris) == m * m
        ups = [t for t in tris if t.orientation == "up"]
        downs = [t for t in tris if t.orientation == "down"]
        assert len(ups) == m * (m + 1) // 2
        assert len(downs) == m * (m - 1) // 2
        assert sum(t.area for t in tris) == pytest.approx(frame.area,
                                                          rel=1e-12)

    def test_corners_match_grid(self, random_frame_factory):
        frame = random_frame_factory()
        m = 3
        for tri in subtriangle_partition(frame, m):
            for corner, idx in zip(tri.vertices, tri.corner_nodes):
                assert_allclose(corner, node_position(frame, m, idx),
                                atol=1e-12)

    def test_partition_covers_interior(self, rng, random_frame_factory):
        frame = random_frame_factory()
        tris = subtriangle_partition(frame, 4)
        verts = frame.local_vertices()
        for _ in range(30):
            lam = rng.dirichlet([1.0, 1.0, 1.0])
            p = lam @ verts
            hits = sum(bool(np.all(barycentric(t.vertices, p) >= -1e-9))
                       for t in tris)
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
