"""Direct solve, field evaluation and reporting helpers."""
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from triplate import (CASES, BCKind, OutsideModel, PlateMaterial, SingularSystem,
                      apply_boundary_conditions, assemble, benchmark_case, field_eval,
                      moment_eval, normalize_coefficient, solve_system)
import triplate.solve
from triplate.assembly import _owning_element
from triplate.element import _corner_dofs, locate_subtriangle
from triplate.shapefn import subtriangle_basis

from test_assembly import square_model


def solved_square(m, unit_material, **kwargs):
    model = square_model(m, unit_material, **kwargs)
    return solve_system(apply_boundary_conditions(assemble(model)))


def registry_systems():
    for name in CASES:
        for m in (1, 3, 8):
            yield f"{name} m={m}", apply_boundary_conditions(assemble(CASES[name].build(m)))


class TestResidualScale:
    """The residual check's scale reads |K_red|_inf of the CSR K_red, with
    the bits `spla.norm` gives on its CSC copy."""

    def test_bits_equal_spla_norm_on_every_registry_system(self):
        seen = 0
        for where, system in registry_systems():
            K = system.K_red
            if K.shape[0] == 0:
                continue
            # the first row of K emptied: its entries set to zero and dropped
            gapped = K.copy()
            gapped.data[:gapped.indptr[1]] = 0.0
            gapped.eliminate_zeros()
            assert gapped.indptr[1] == 0
            for A in (K, gapped) if gapped.nnz else (K,):
                want = float(spla.norm(A.tocsc(), np.inf))
                assert triplate.solve._inf_norm(A) == want, where
            seen += 1
        assert seen >= 3 * len(CASES) - 2


def column_ends_reversed(U):
    """The CSC matrix U with each column's entries stored in reverse order,
    so that a column's diagonal entry comes first, not last."""
    counts = np.diff(U.indptr)
    col = np.repeat(np.arange(U.shape[1]), counts)
    order = U.indptr[col] + U.indptr[col + 1] - 1 - np.arange(U.nnz)
    return sp.csc_matrix((U.data[order], U.indices[order], U.indptr), shape=U.shape)


class ReversedFactor:
    """A SuperLU factorization whose U stores each column in reverse."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)

    @property
    def U(self):
        return column_ends_reversed(self.lu.U)


class TestPivots:
    """The pivot guard reads U's diagonal from the last stored entry of
    each column where the row indices confirm SuperLU's layout, and from
    `U.diagonal()` otherwise, with the same bits either way."""

    def test_column_ends_hold_the_diagonal_on_every_registry_system(self):
        seen = 0
        for where, system in registry_systems():
            if system.K_red.shape[0] == 0:
                continue
            U = spla.splu(system.K_red.tocsc()).U
            last = U.indptr[1:] - 1
            assert np.array_equal(U.indices[last], np.arange(U.shape[0])), where
            want = np.abs(U.diagonal())
            assert triplate.solve._pivots(U).tobytes() == want.tobytes(), where
            seen += 1
        assert seen >= 3 * len(CASES) - 2

    def test_other_layouts_read_the_diagonal(self):
        U = spla.splu(apply_boundary_conditions(assemble(CASES["skew-60"].build(3)))
                      .K_red.tocsc()).U
        # the diagonal first in each column, and a first column left empty
        gapped = U.copy()
        gapped.data[:gapped.indptr[1]] = 0.0
        gapped.eliminate_zeros()
        for other in (column_ends_reversed(U), gapped):
            last = other.indptr[1:] - 1
            assert not np.array_equal(other.indices[last], np.arange(U.shape[0]))
            want = np.abs(other.diagonal())
            assert triplate.solve._pivots(other).tobytes() == want.tobytes()
        assert triplate.solve._pivots(column_ends_reversed(U)).tobytes() == \
            np.abs(U.diagonal()).tobytes()

    def test_solve_bits_and_singularity_with_either_layout(self, unit_material,
                                                          monkeypatch):
        system = apply_boundary_conditions(assemble(CASES["circle-ss"].build(3)))
        free = apply_boundary_conditions(assemble(square_model(2, unit_material,
                                                               edges=[])))
        want = solve_system(system)
        splu = spla.splu
        monkeypatch.setattr(triplate.solve.spla, "splu", lambda K: ReversedFactor(splu(K)))
        got = solve_system(system)
        assert (got.dofs.tobytes(), got.residual) == (want.dofs.tobytes(), want.residual)
        with pytest.raises(SingularSystem):
            solve_system(free)


class TestSolve:
    def test_zero_load_gives_zero_solution(self, unit_material):
        sol = solved_square(2, unit_material, q=0.0)
        assert np.all(sol.dofs == 0.0)
        assert sol.residual == 0.0

    def test_unconstrained_load_is_singular(self, unit_material):
        model = square_model(2, unit_material, edges=[])
        with pytest.raises(SingularSystem):
            solve_system(apply_boundary_conditions(assemble(model)))

    def test_unconstrained_zero_load_is_singular(self, unit_material):
        # a zero load is no reason to skip the pivot check
        model = square_model(2, unit_material, q=0.0, edges=[])
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

    @pytest.mark.parametrize("name", ["square-ss", "skew-60", "circle-ss"])
    @pytest.mark.parametrize("m", [3, 8])
    def test_deflection_continuous_across_shared_edges(self, name, m):
        # field_eval reads w from the first owning element; every other
        # owner's first cell must give the same w there, from its own dofs
        sol = solve_system(apply_boundary_conditions(assemble(CASES[name].build(m))))
        elements = sol.system.model.elements
        scale = np.abs(sol.dofs[0::3]).max()
        shared = 0
        for elem in elements:
            cells = elem.partition()
            local = [*elem.node_positions_local(),
                     *(0.5 * (cells + cells[:, [1, 2, 0]])).reshape(-1, 2)]
            for p in elem.frame.to_global(np.array(local)):
                owners, p_locs = _owning_element(sol.system.element_stack, p)
                if len(owners) < 2:
                    continue
                shared += 1
                w = field_eval(sol, p)[0]
                for e, p_loc in zip(owners[1:], p_locs[1:]):
                    other = elements[e]
                    vertices, corners, down = locate_subtriangle(other, p_loc)
                    value = subtriangle_basis(other.frame, other.m, vertices[:1], down[:1],
                                              p_loc, grad=False, hess=False)[0]
                    dofs = sol._local_dofs[e][_corner_dofs(other.m, corners[:1])[0]]
                    assert abs(value.ravel() @ dofs - w) <= 1e-12 * scale
        assert shared > 0

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

    @pytest.mark.parametrize("name, m", [("skew-60", 4), ("circle-ss", 3)])
    def test_incident_cells_bytes_equal_one_cell_evaluation(self, name, m):
        # one kernel call for all cells that meet a point gives each cell
        # the bits of evaluating it alone
        seen = set()
        for elem in benchmark_case(name).build(m).elements:
            cells = elem.partition()
            pts = [*elem.node_positions_local(),
                   *(0.5 * (v + v[[1, 2, 0]]) for v in cells[:6]),
                   *(v.mean(axis=0) for v in cells[-4:])]
            for p in np.vstack(pts):
                vertices, _, down = locate_subtriangle(elem, p)
                got = subtriangle_basis(elem.frame, elem.m, vertices, down, p)
                alone = [subtriangle_basis(elem.frame, elem.m, v[None], [d], p)
                         for v, d in zip(vertices, down)]
                for g, want in zip(got, map(np.concatenate, zip(*alone)), strict=True):
                    assert (g.shape, g.tobytes()) == (want.shape, want.tobytes())
                seen.add(len(vertices))
        assert seen == {1, 2, 3, 6}

    def test_one_kernel_call_per_containing_element(self, unit_material, kernel_calls):
        sol = solved_square(4, unit_material)
        calls = kernel_calls
        calls.clear()
        # the centre is a node on the shared diagonal, where three cells of
        # each element meet: one call per element, three domains per cell
        moment_eval(sol, (0.5, 0.5))
        assert calls == [3 * 3, 3 * 3]

    def test_probes_reach_the_kernel_through_subtriangle_basis(self, unit_material,
                                                              monkeypatch):
        # perfbench's tracer times the basis layer by wrapping the
        # subtriangle_basis name of triplate.solve; the probes must call
        # the kernel through it.  Cells evaluated per call at the centre
        # node, where three cells of each element meet:
        sol = solved_square(4, unit_material)
        cells = []
        original = triplate.solve.subtriangle_basis

        def counting(frame, m, vertices, *args, **kwargs):
            cells.append(len(vertices))
            return original(frame, m, vertices, *args, **kwargs)

        monkeypatch.setattr(triplate.solve, "subtriangle_basis", counting)
        moment_eval(sol, (0.5, 0.5))
        assert cells == [3, 3]
        # at a new node, the field evaluates all three cells of the first
        # element, and the moment only those of the second
        cells.clear()
        field_eval(sol, (0.25, 0.25))
        moment_eval(sol, (0.25, 0.25))
        assert cells == [3, 3]


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

    @pytest.mark.parametrize("L, q", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan),
                                      (1.0, -np.inf)])
    def test_non_finite_length_or_load_rejected(self, L, q):
        for kind in ("deflection", "moment"):
            with pytest.raises(ValueError, match="requires finite L and q"):
                normalize_coefficient(1.0, kind, L=L, q=q, rigidity=1.0)
