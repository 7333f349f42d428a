"""Element stiffness and load vectors: invariants and analytic oracles."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from triplate import (CollinearVertices, MRElement, PlateMaterial,
                      QuadratureFailure, bending_rigidity, element_load_point,
                      element_load_uniform, element_stiffness, grid_indices,
                      node_ordinal, node_position)

from conftest import random_triangle


def local_field_dofs(elem, fun, grad):
    """Element-local dof vector interpolating w = fun(x, y)."""
    out = []
    for idx in grid_indices(elem.m):
        x, y = node_position(elem.frame, elem.m, idx)
        gx, gy = grad(x, y)
        out.extend([fun(x, y), gy, -gx])
    return np.asarray(out)


def triangle_area_moments(verts):
    """(A, Sx, Sy): area and first moments of a triangle."""
    e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
    A = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    cx, cy = verts.mean(axis=0)
    return A, A * cx, A * cy


class TestStiffness:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_symmetric_psd_with_three_rigid_modes(self, m, element_factory):
        elem = element_factory(m=m)
        K = element_stiffness([elem]).toarray()
        assert_allclose(K, K.T, atol=1e-12 * np.abs(K).max())
        lam = np.linalg.eigvalsh(K)
        scale = lam[-1]
        assert lam[0] > -1e-12 * scale
        assert int((lam < 1e-9 * scale).sum()) == 3

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rigid_modes_annihilated(self, m, element_factory, rng):
        elem = element_factory(m=m)
        K = element_stiffness([elem]).toarray()
        c0, c1, c2 = rng.uniform(-1.0, 1.0, 3)
        d = local_field_dofs(elem, lambda x, y: c0 + c1 * x + c2 * y,
                             lambda x, y: (c1, c2))
        assert_allclose(K @ d, 0.0, atol=1e-11 * np.abs(K).max())

    @pytest.mark.parametrize("kappa", [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.7, -0.4, 1.3),
    ])
    def test_energy_of_constant_curvature(self, kappa, element_factory):
        # w = -(kx x^2 + ky y^2 + kxy x y)/2 has curvature vector
        # (kx, ky, 2*(kxy/2)...) per (-w_xx, -w_yy, -2 w_xy)
        kx, ky, kxy = kappa
        elem = element_factory(m=2)
        K = element_stiffness([elem]).toarray()
        d = local_field_dofs(
            elem,
            lambda x, y: -0.5 * (kx * x * x + ky * y * y + kxy * x * y),
            lambda x, y: (-(kx * x + 0.5 * kxy * y),
                          -(ky * y + 0.5 * kxy * x)))
        vec = np.array([kx, ky, kxy])
        D = bending_rigidity(elem.material)
        expected = 0.5 * elem.frame.area * (vec @ D @ vec)
        assert 0.5 * d @ K @ d == pytest.approx(expected, rel=1e-10)

    def test_quadrature_degree_invariance(self, element_factory):
        elem = element_factory(m=2)
        K5 = element_stiffness([elem], degree=5).toarray()
        K9 = element_stiffness([elem], degree=9).toarray()
        assert_allclose(K5, K9, atol=1e-12 * np.abs(K5).max())

    def test_kept_basis_is_per_degree(self, element_factory):
        """An element evaluated at one degree and then another gives what a
        fresh element gives at the second degree, bit for bit."""
        elem = element_factory(m=3)
        element_stiffness([elem], degree=5)
        element_load_uniform([elem], 1.0, degree=5)
        fresh = MRElement(elem.frame, elem.m, elem.material)
        for degree in (2, 5):
            K, f = element_stiffness([elem], degree), element_load_uniform([elem], 1.0, degree)
            K0 = element_stiffness([fresh], degree)
            f0 = element_load_uniform([fresh], 1.0, degree)
            assert K.data.tobytes() == K0.data.tobytes()
            assert f.tobytes() == f0.tobytes()
            fresh = MRElement(elem.frame, elem.m, elem.material)
        assert not np.array_equal(element_stiffness([elem], 2).data,
                                  element_stiffness([elem], 5).data)

    def test_new_material_gives_its_own_stiffness(self, element_factory):
        # the kept cell matrices depend on D: a material reassigned, or
        # changed in place, after a stiffness call must not read them
        elem = element_factory(m=3)
        element_stiffness([elem])
        element_load_uniform([elem], 1.0)
        for change in ("reassign", "in place"):
            if change == "reassign":
                elem.material = PlateMaterial(E=3.0, t=0.5, nu=0.2)
            else:
                elem.material.nu = 0.25
            fresh = MRElement(elem.frame, elem.m, PlateMaterial(
                elem.material.E, elem.material.t, elem.material.nu))
            assert element_stiffness([elem]).data.tobytes() == \
                element_stiffness([fresh]).data.tobytes()
            assert element_load_uniform([elem], 1.0).tobytes() == \
                element_load_uniform([fresh], 1.0).tobytes()

    def test_degree_one_rule_rejected(self, element_factory):
        # the curvature integrand is quadratic: a degree-1 rule is inexact
        elem = element_factory(m=2)
        with pytest.raises(QuadratureFailure, match="degree >= 2"):
            element_stiffness([elem], degree=1)
        with pytest.raises(QuadratureFailure, match="degree >= 2"):
            element_load_uniform([elem], 1.0, degree=1)

    def test_coupling_only_between_cell_mates(self, element_factory):
        elem = element_factory(m=3)
        K = element_stiffness([elem]).toarray()

        def block(i, j):
            return K[elem.dof_slice(i), elem.dof_slice(j)]

        # nodes two grid steps apart share no cell: exact structural zero
        assert np.all(block((0, 0), (2, 0)) == 0.0)
        assert np.all(block((0, 0), (3, 3)) == 0.0)
        assert np.all(block((1, 0), (3, 2)) == 0.0)
        # neighbors couple
        assert np.abs(block((0, 0), (1, 0))).max() > 0.0
        assert np.abs(block((1, 0), (2, 1))).max() > 0.0


class TestLoads:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_uniform_load_totals(self, m, element_factory, rng):
        elem = element_factory(m=m)
        q = 1.7
        f = element_load_uniform([elem], q)
        verts = elem.frame.local_vertices()
        A, Sx, Sy = triangle_area_moments(verts)
        assert f[0::3].sum() == pytest.approx(q * A, rel=1e-12)
        # virtual work of a linear field equals the exact load functional
        c0, c1, c2 = rng.uniform(-1.0, 1.0, 3)
        d = local_field_dofs(elem, lambda x, y: c0 + c1 * x + c2 * y,
                             lambda x, y: (c1, c2))
        assert f @ d == pytest.approx(q * (c0 * A + c1 * Sx + c2 * Sy),
                                      rel=1e-11)

    def test_zero_pressure_shortcut(self, element_factory):
        elem = element_factory(m=2)
        assert np.all(element_load_uniform([elem], 0.0) == 0.0)

    def test_point_load_at_node_is_kronecker(self, element_factory):
        elem = element_factory(m=2)
        idx = (1, 1)
        p = node_position(elem.frame, elem.m, idx)
        f = element_load_point(elem, 2.5, p)
        expected = np.zeros(elem.dof_count)
        expected[3 * node_ordinal(elem.m, idx)] = 2.5
        assert_allclose(f, expected, atol=1e-10)

    def test_point_load_virtual_work(self, element_factory, rng):
        elem = element_factory(m=3)
        lam = rng.dirichlet([2.0, 2.0, 2.0])
        p = lam @ elem.frame.local_vertices()
        P = 1.3
        f = element_load_point(elem, P, p)
        c0, c1, c2 = rng.uniform(-1.0, 1.0, 3)
        d = local_field_dofs(elem, lambda x, y: c0 + c1 * x + c2 * y,
                             lambda x, y: (c1, c2))
        assert f @ d == pytest.approx(P * (c0 + c1 * p[0] + c2 * p[1]),
                                      rel=1e-11)


class TestConstruction:
    def test_collinear_vertices_rejected(self, unit_material):
        with pytest.raises(CollinearVertices):
            MRElement.from_vertices([0, 0], [1, 1], [2, 2], 2, unit_material)

    @pytest.mark.parametrize("m", [0, -1, np.int64(0), 2.5, 2.0, np.float64(3.0), "2"])
    def test_resolution_below_one_rejected(self, m, unit_material):
        with pytest.raises(ValueError):
            MRElement.from_vertices([0, 0], [1, 0], [0, 1], m, unit_material)

    @pytest.mark.parametrize("m", [np.int64(2), np.int32(3)])
    def test_numpy_integer_resolution_accepted(self, m, unit_material):
        elem = MRElement.from_vertices([0, 0], [1, 0], [0, 1], m, unit_material)
        assert elem.node_count == (m + 1) * (m + 2) // 2
        assert element_stiffness([elem]).shape == (3 * elem.node_count,) * 2

    @pytest.mark.parametrize("E, t, nu", [
        (-1.0, 1.0, 0.3), (1.0, 0.0, 0.3), (1.0, 1.0, 0.5), (1.0, 1.0, -0.1),
        (np.nan, 1.0, 0.3), (1.0, np.nan, 0.3), (1.0, 1.0, np.nan),
        (np.inf, 1.0, 0.3), (1.0, np.inf, 0.3), (1.0, 1.0, np.inf),
    ])
    def test_material_validation(self, E, t, nu):
        with pytest.raises(ValueError):
            PlateMaterial(E=E, t=t, nu=nu)

    @pytest.mark.parametrize("m", [1, 2, 5, 48])
    def test_node_positions_are_node_position_bits(self, m, element_factory):
        elem = element_factory(m=m)
        expected = np.array([node_position(elem.frame, m, idx)
                             for idx in grid_indices(m)])
        assert elem.node_positions_local().tobytes() == expected.tobytes()

    def test_node_counts(self, element_factory):
        elem = element_factory(m=4)
        assert elem.node_count == 15
        assert elem.dof_count == 45
        assert elem.node_positions_global().shape == (15, 2)

    def test_rigidity_value(self, unit_material):
        # E t^3 / (12 (1 - nu^2)) with the benchmark numbers is exactly 1
        assert unit_material.rigidity == pytest.approx(1.0, rel=1e-12)
        D = bending_rigidity(unit_material)
        assert_allclose(D, [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0],
                            [0.0, 0.0, 0.35]], atol=1e-12)
