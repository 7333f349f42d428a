"""Direct solve, field evaluation and reporting helpers."""
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from triplate import (BCKind, OutsideModel, PlateMaterial, SingularSystem,
                      apply_boundary_conditions, assemble, field_eval,
                      moment_eval, normalize_coefficient, solve_system)

from test_assembly import square_model


def solved_square(m, unit_material, **kwargs):
    model = square_model(m, unit_material, **kwargs)
    return solve_system(apply_boundary_conditions(assemble(model)))


class TestSolve:
    def test_zero_load_gives_zero_solution(self, unit_material):
        sol = solved_square(2, unit_material, q=0.0)
        assert np.all(sol.dofs == 0.0)
        assert sol.residual == 0.0

    def test_unconstrained_load_is_singular(self, unit_material):
        model = square_model(2, unit_material, edges=[])
        with pytest.raises(SingularSystem):
            solve_system(apply_boundary_conditions(assemble(model)))

    def test_constrained_dofs_stay_zero(self, unit_material):
        sol = solved_square(2, unit_material, kind=BCKind.CLAMPED)
        for n, (x, y) in enumerate(sol.system.node_coords):
            on_edge = (min(x, y) < 1e-9) or (max(x, y) > 1 - 1e-9)
            if on_edge:
                assert_allclose(sol.node_dofs(n), 0.0, atol=1e-15)

    def test_unit_system_scaling(self, unit_material):
        # deflections scale with 1/D; a very stiff plate must solve cleanly
        soft = solved_square(2, unit_material, kind=BCKind.CLAMPED)
        stiff_mat = PlateMaterial(E=unit_material.E * 1e12, t=1.0, nu=0.3)
        stiff = solved_square(2, stiff_mat, kind=BCKind.CLAMPED)
        w_soft = field_eval(soft, (0.5, 0.5))[0]
        w_stiff = field_eval(stiff, (0.5, 0.5))[0]
        assert w_stiff == pytest.approx(w_soft * 1e-12, rel=1e-9)


class TestFieldEval:
    def test_nodal_values_match_dofs(self, unit_material):
        sol = solved_square(2, unit_material)
        for n, p in enumerate(sol.system.node_coords):
            got = np.array(field_eval(sol, p))
            assert_allclose(got, sol.node_dofs(n), atol=1e-10)

    def test_diagonal_mirror_symmetry(self, unit_material, rng):
        # the model and load are symmetric under (x, y) -> (y, x), so the
        # spliced solution must be too
        sol = solved_square(2, unit_material)
        for _ in range(8):
            x, y = rng.uniform(0.05, 0.95, 2)
            assert field_eval(sol, (x, y))[0] == pytest.approx(
                field_eval(sol, (y, x))[0], rel=1e-9)

    def test_outside_point_rejected(self, unit_material):
        sol = solved_square(2, unit_material)
        with pytest.raises(OutsideModel):
            field_eval(sol, (2.0, 2.0))
        with pytest.raises(OutsideModel):
            moment_eval(sol, (-0.5, 0.5))

    @pytest.mark.parametrize("point", [(np.inf, 0.0), (-np.inf, 0.5),
                                       (0.5, np.inf), (np.nan, 0.5),
                                       (0.5, np.nan), (np.inf, np.nan)])
    def test_non_finite_point_rejected_without_warning(self, point,
                                                        unit_material):
        sol = solved_square(2, unit_material)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutsideModel):
                field_eval(sol, point)
            with pytest.raises(OutsideModel):
                moment_eval(sol, point)

    def test_superposition(self, unit_material):
        def center_w(loads):
            model = square_model(2, unit_material, q=0.0,
                                 kind=BCKind.CLAMPED)
            model.point_loads = loads
            sol = solve_system(apply_boundary_conditions(assemble(model)))
            return field_eval(sol, (0.5, 0.5))[0]

        a = center_w([(0.3, 0.4, 1.0)])
        b = center_w([(0.6, 0.7, 2.0)])
        both = center_w([(0.3, 0.4, 1.0), (0.6, 0.7, 2.0)])
        assert both == pytest.approx(a + b, rel=1e-10)


class TestMomentEval:
    def test_center_moments_symmetric(self, unit_material):
        sol = solved_square(2, unit_material)
        triple = moment_eval(sol, (0.5, 0.5))
        # square symmetry: Mx = My at the center
        assert triple.mx == pytest.approx(triple.my, rel=1e-9)
        assert abs(triple.mx) > 0.0

    def test_sagging_sign_under_positive_load(self, unit_material):
        sol = solved_square(4, unit_material)
        triple = moment_eval(sol, (0.5, 0.5))
        w = field_eval(sol, (0.5, 0.5))[0]
        # positive pressure and positive deflection go together, and the
        # span center of a simply supported plate is in positive bending
        assert w > 0.0
        assert triple.mx > 0.0 and triple.my > 0.0


class TestNormalization:
    def test_deflection_coefficient(self):
        assert normalize_coefficient(0.004, "deflection", L=1.0, q=1.0,
                                     rigidity=1.0) == pytest.approx(0.4)
        assert normalize_coefficient(0.004, "deflection", L=2.0, q=1.0,
                                     rigidity=1.0) == pytest.approx(0.025)

    def test_moment_coefficient(self):
        assert normalize_coefficient(0.048, "moment", L=1.0, q=1.0,
                                     rigidity=1.0) == pytest.approx(0.48)

    def test_invalid_arguments(self):
        with pytest.raises(ZeroDivisionError):
            normalize_coefficient(1.0, "deflection", L=1.0, q=0.0,
                                  rigidity=1.0)
        with pytest.raises(ZeroDivisionError):
            normalize_coefficient(1.0, "moment", L=0.0, q=1.0, rigidity=1.0)
        with pytest.raises(ValueError):
            normalize_coefficient(1.0, "torsion", L=1.0, q=1.0, rigidity=1.0)
