"""Conventional per-cell assembly as an exactness oracle."""
import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import triplate.assembly
import triplate.element
import triplate.shapefn
from triplate import (CASES, BCKind, EquivalenceReport, MRElement,
                      PermutationNotFound, PlateMaterial, apply_boundary_conditions,
                      assemble, benchmark_case, bending_rigidity, build_equivalent_mono,
                      canonicalize_triangle, equivalence_check, oracle, solve_system)

from test_assembly import square_model
from test_geometry import assert_frames_match


class TestMonoTwin:
    def test_one_cell_per_subtriangle(self, unit_material):
        model = square_model(3, unit_material)
        mono = build_equivalent_mono(model)
        assert len(mono.model.elements) == 2 * 3 * 3
        assert all(e.m == 1 for e in mono.model.elements)
        assert len(mono.triangles) == len(mono.model.elements)
        # loads and constraints carry over
        assert mono.model.uniform_q == model.uniform_q
        assert len(mono.model.bcs) == len(model.bcs)

    def test_scale_one_twin_is_identity(self, unit_material):
        model = square_model(1, unit_material)
        mono = build_equivalent_mono(model)
        assert len(mono.model.elements) == 2
        report = equivalence_check(model, mono)
        assert report.max_K_diff < 1e-13
        assert report.max_solution_diff < 1e-13

    def test_node_tables_coincide(self, unit_material):
        model = square_model(2, unit_material)
        mono = build_equivalent_mono(model)
        multi_nodes = assemble(model).n_nodes
        mono_nodes = assemble(mono.model).n_nodes
        assert multi_nodes == mono_nodes == 9


class TestEquivalence:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stiffness_and_solution_match(self, m, unit_material):
        report = equivalence_check(square_model(m, unit_material))
        assert report.ok
        assert report.max_K_diff < 1e-12
        assert report.max_solution_diff < 1e-11
        assert report.dof_count == 3 * report.node_count
        assert report.mono_element_count == 2 * m * m

    def test_mismatched_twin_rejected(self, unit_material):
        model = square_model(2, unit_material)
        shifted = square_model(2, unit_material)
        for e, elem in enumerate(shifted.elements):
            verts = elem.frame.global_vertices() + np.array([10.0, 0.0])
            shifted.elements[e] = MRElement.from_vertices(
                *verts, elem.m, unit_material)
        wrong_twin = build_equivalent_mono(shifted)
        with pytest.raises(PermutationNotFound):
            equivalence_check(model, wrong_twin)

    def test_node_count_mismatch_rejected(self, unit_material):
        model = square_model(2, unit_material)
        bigger = build_equivalent_mono(square_model(3, unit_material))
        with pytest.raises(PermutationNotFound):
            equivalence_check(model, bigger)

    def test_report_verdict_logic(self):
        good = EquivalenceReport(node_count=4, dof_count=12,
                                 mono_element_count=2, max_K_diff=1e-12,
                                 max_solution_diff=1e-12)
        assert good.ok
        bad_K = EquivalenceReport(node_count=4, dof_count=12,
                                  mono_element_count=2, max_K_diff=1e-6,
                                  max_solution_diff=0.0)
        assert not bad_K.ok
        bad_sol = EquivalenceReport(node_count=4, dof_count=12,
                                    mono_element_count=2, max_K_diff=0.0,
                                    max_solution_diff=1e-6)
        assert not bad_sol.ok


class TestStackedFrames:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_registry_twin(self, name):
        model = benchmark_case(name).build(3)
        mono = build_equivalent_mono(model)
        assert_frames_match(mono.triangles)
        # the twin's elements carry these frames
        for elem, tri in zip(mono.model.elements, mono.triangles):
            assert_allclose(elem.frame.global_vertices(),
                            canonicalize_triangle(*tri).global_vertices(),
                            rtol=0, atol=1e-14)


def _system_diff(reference, other):
    """Largest relative K and rhs differences after matching node tables."""
    perm = oracle._node_permutation(reference, other)
    dof_perm = 3 * np.repeat(perm, 3) + np.tile([0, 1, 2], len(perm))
    K = other.K.tocsr()[np.argsort(dof_perm)][:, np.argsort(dof_perm)]
    rhs = np.zeros_like(reference.rhs)
    rhs[dof_perm] = other.rhs
    dK = abs(reference.K - K).max() / abs(reference.K).max()
    drhs = np.abs(reference.rhs - rhs).max() / np.abs(reference.rhs).max()
    return dK, drhs


class TestStackedTwin:
    @pytest.mark.parametrize("name, m", [("skew-60", 12), ("circle-ss", 3)])
    def test_matches_per_element_assembly(self, name, m):
        """The stacked twin is the generic assembly of its m = 1 elements,
        with a second material and point loads (one inside a cell, one on
        a grid node)."""
        model = benchmark_case(name).build(m)
        elem = model.elements[0]
        loads = [(*elem.frame.global_vertices().mean(axis=0), 2.0),
                 (*elem.node_positions_global()[4], -1.5)]
        stiffer = dataclasses.replace(model.elements[1],
                                      material=PlateMaterial(30.0, 1.0, 0.2))
        model = dataclasses.replace(model, point_loads=loads,
                                    elements=[elem, stiffer])
        mono = build_equivalent_mono(model)
        dK, drhs = _system_diff(assemble(mono.model),
                                oracle._assemble_twin(mono))
        assert dK < 1e-13
        assert drhs < 1e-13

    def test_point_loads_equivalent(self, unit_material):
        model = square_model(3, unit_material, q=0.0, kind=BCKind.CLAMPED)
        model.point_loads = [(0.3, 0.4, 1.0), (2 / 3, 1 / 3, 2.0)]
        report = equivalence_check(model)
        assert report.ok
        assert report.max_solution_diff < 1e-12

    @pytest.mark.parametrize("name", ["skew-60", "circle-ss"])
    def test_rotated_cells_at_m32(self, name):
        report = equivalence_check(benchmark_case(name).build(32))
        assert report.ok
        assert report.mono_element_count == 2 * 32 * 32


def same_system_bytes(got, want):
    return all((g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
               for g, w in ((got.K.data, want.K.data), (got.K.indices, want.K.indices),
                            (got.K.indptr, want.K.indptr), (got.rhs, want.rhs)))


@pytest.fixture
def cell_table_cleared():
    """Empties the oracle's cell-integral table (`oracle._cell_table`)
    before the test and after it, so that a patched `_cell_integrals` or
    `_distinct_cell_integrals` is called and leaves nothing."""
    oracle._cell_table.clear()
    yield
    oracle._cell_table.clear()


def twin_over_every_cell(mono, monkeypatch):
    """`_assemble_twin` with `_cell_integrals` run over every cell."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_distinct_cell_integrals", oracle._cell_integrals)
        return oracle._assemble_twin(mono)


def cell_keys(mono):
    """The bytes of each twin cell's canonical shape (a, h, b)."""
    return [row.tobytes() for row in np.column_stack(mono.frames[1:4])]


@pytest.mark.usefixtures("cell_table_cleared")
class TestDistinctCells:
    """The twin evaluates each bit-distinct cell once and gathers the
    integrals back; the result is that of evaluating every cell."""

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("m", [3, 4])
    def test_bytes_equal_every_cell(self, name, m, monkeypatch):
        # at m = 3 the circle twins' 18 cells are all distinct, at m = 4
        # every twin has half as many distinct cells as cells
        mono = build_equivalent_mono(CASES[name].build(m))
        assert same_system_bytes(oracle._assemble_twin(mono),
                                 twin_over_every_cell(mono, monkeypatch))

    @pytest.mark.parametrize("name", list(CASES))
    def test_point_load_in_a_recurring_cell(self, name, monkeypatch):
        # the load goes into the gathered row of one cell whose shape other
        # cells share; a write into a shared row would move their loads too
        model = CASES[name].build(4)
        keys = cell_keys(build_equivalent_mono(model))
        e = next(i for i, key in enumerate(keys) if keys.count(key) > 1)
        mono = build_equivalent_mono(model)
        x, y = mono.triangles[e].mean(axis=0)
        for q in (0.0, model.uniform_q):
            loaded = dataclasses.replace(model, uniform_q=q, point_loads=[(x, y, 0.7)])
            mono = build_equivalent_mono(loaded)
            assert same_system_bytes(oracle._assemble_twin(mono),
                                     twin_over_every_cell(mono, monkeypatch))

    def test_cells_one_ulp_apart_keep_their_own(self, monkeypatch, unit_material):
        a = np.array([1.0, np.nextafter(1.0, 2.0), 1.0])
        local = np.zeros((3, 3, 2))
        local[:, 1, 0] = a
        local[:, 2] = [0.4, 0.8]
        D = np.repeat(bending_rigidity(unit_material)[None], 3, axis=0)
        calls = []
        original = oracle._cell_integrals
        monkeypatch.setattr(oracle, "_cell_integrals",
                            lambda local, *args: calls.append(len(local))
                            or original(local, *args))
        kc, f = oracle._distinct_cell_integrals(local, D, 1.0)
        assert calls == [2]
        for i in range(3):
            want = original(local[i:i + 1], D[i:i + 1], 1.0)
            assert kc[i].tobytes() == want[0][0].tobytes()
            assert f[i].tobytes() == want[1][0].tobytes()
        assert kc[0].tobytes() == kc[2].tobytes() != kc[1].tobytes()
        # the rows are copies: writing into one leaves its equal
        f[0] += 1.0
        assert not np.array_equal(f[0], f[2])


def report_bits(report):
    """The fields of an EquivalenceReport, floats as their exact hex."""
    return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(report)]


def old_max_K_diff(model, mono):
    """`max_K_diff` as the twin's permuted CSR, `K - K_mono` and `.tocoo()`
    give it."""
    sys_multi, sys_mono = assemble(model), oracle._assemble_twin(mono)
    perm = oracle._node_permutation(sys_multi, sys_mono)
    dof_perm = 3 * np.repeat(perm, 3) + np.tile([0, 1, 2], len(perm))
    K = sys_mono.K
    rows = dof_perm[np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))]
    K_mono = sp.csr_matrix((K.data, (rows, dof_perm[K.indices])), shape=K.shape)
    dK = (sys_multi.K - K_mono).tocoo()
    scale = max(np.abs(sys_multi.K.data).max(), 1e-300)
    return float(abs(dK.data).max() / scale) if dK.nnz else 0.0


class TestCellTable:
    """The oracle keeps the integrals of every cell it integrated, keyed by
    the bytes of (local, D, q); what it gives back must not depend on what
    the table holds."""

    @pytest.mark.parametrize("hard_ss", [False, True], ids=["soft", "hard"])
    def test_warm_report_equals_cold(self, hard_ss, cell_table_cleared):
        models = [CASES[name].build(m, hard_ss=hard_ss)
                  for name in sorted(CASES) for m in (1, 2, 3, 4, 6, 8)]
        cold = []
        for model in models:
            oracle._cell_table.clear()
            cold.append(report_bits(equivalence_check(model)))
        for model in models:
            equivalence_check(model)
        # the warm pass finds every cell kept, some of them from other models
        misses = oracle._cell_table.misses
        assert [report_bits(equivalence_check(model)) for model in models] == cold
        assert oracle._cell_table.misses == misses

    @pytest.mark.parametrize("solved", [False, True], ids=["oracle-solves", "callers-solution"])
    def test_faulty_integrals_fail_once_cleared(self, solved, monkeypatch, cell_table_cleared):
        model = benchmark_case("skew-60").build(4)
        solution = solve(model) if solved else None
        assert equivalence_check(model, solution=solution).ok
        original = oracle._cell_integrals

        def faulty(local, D, q):
            kc, f = original(local, D, q)
            return kc * (1.0 + 1e-6), f

        monkeypatch.setattr(oracle, "_cell_integrals", faulty)
        # the warm table hides the fault, which is why a test that patches
        # the cell integrals clears it
        assert equivalence_check(model, solution=solution).ok
        oracle._cell_table.clear()
        report = equivalence_check(model, solution=solution)
        assert not report.ok
        assert report.max_K_diff > report.tolerance

    @pytest.mark.parametrize("cells", [slice(None), [0, 0, 0]], ids=["all", "one-distinct"])
    def test_entries_read_only_and_rows_writable_copies(self, cells, cell_table_cleared):
        local, D = (x[cells] for x in twin_cells("circle-ss", 4))
        kc, f = oracle._distinct_cell_integrals(local, D, 1.0)
        kept = [a for entry in oracle._cell_table._entries.values() for a in entry]
        assert len(kept) == 2 * len(oracle._cell_table) > 0
        assert not any(a.flags.writeable for a in kept)
        assert kc.flags.writeable and f.flags.writeable
        assert not any(np.shares_memory(x, a) for x in (kc, f) for a in kept)
        want = kc.tobytes(), f.tobytes()
        kc += 1.0
        f += 1.0
        again = oracle._distinct_cell_integrals(local, D, 1.0)
        assert (again[0].tobytes(), again[1].tobytes()) == want

    def test_integrates_only_the_missing_cells(self, monkeypatch, rng, cell_table_cleared):
        local, D = random_cells(rng, 40)
        calls = []
        original = oracle._cell_integrals
        monkeypatch.setattr(oracle, "_cell_integrals",
                            lambda local, *args: calls.append(len(local))
                            or original(local, *args))
        oracle._distinct_cell_integrals(local[1::3], D[1::3], 1.0)
        kc, f = oracle._distinct_cell_integrals(local, D, 1.0)
        assert calls == [13, 27]
        want = original(local, D, 1.0)
        assert kc.tobytes() == want[0].tobytes()
        assert f.tobytes() == want[1].tobytes()

    def test_two_loads_two_entries(self, cell_table_cleared):
        local, D = twin_cells("square-ss", 4)
        distinct = len(np.unique(np.concatenate([local.reshape(-1, 6), D.reshape(-1, 9)],
                                                axis=1), axis=0))
        got = [oracle._distinct_cell_integrals(local, D, q) for q in (1.0, 2.5)]
        assert len(oracle._cell_table) == 2 * distinct
        for q, (kc, f) in zip((1.0, 2.5), got):
            want = oracle._cell_integrals(local, D, q)
            assert kc.tobytes() == want[0].tobytes()
            assert f.tobytes() == want[1].tobytes()
        assert got[0][0].tobytes() == got[1][0].tobytes()
        assert got[0][1].tobytes() != got[1][1].tobytes()

    def test_bounded(self, monkeypatch, rng):
        bound = 8
        monkeypatch.setattr(oracle, "_cell_table", triplate.shapefn.LRUTable(bound))
        local, D = random_cells(rng, 60)
        latest = 0
        # fresh cells every call, so that every call integrates; the last
        # call repeats cells of the one before and integrates none
        for start, stop in [(0, 5), (5, 17), (17, 20), (20, 40), (40, 42), (42, 51), (45, 48)]:
            cells = np.r_[start:stop, start:stop]
            misses = oracle._cell_table.misses
            kc, f = oracle._distinct_cell_integrals(local[cells], D[cells], 1.0)
            if oracle._cell_table.misses > misses:
                latest = stop - start
            assert len(oracle._cell_table) <= max(bound, latest)
            want = oracle._cell_integrals(local[cells], D[cells], 1.0)
            assert kc.tobytes() == want[0].tobytes()
            assert f.tobytes() == want[1].tobytes()
        assert latest == len(oracle._cell_table) == 9


class TestOneBuildComparison:
    """`max_K_diff` from one sparse build of both sides' entries is the
    figure of subtracting the permuted twin's CSR, bit for bit."""

    @pytest.mark.parametrize("hard_ss", [False, True], ids=["soft", "hard"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bits_equal_subtraction(self, name, hard_ss):
        for m in (1, 2, 3, 4, 6, 8, 12):
            model = CASES[name].build(m, hard_ss=hard_ss)
            mono = build_equivalent_mono(model)
            got = equivalence_check(model, mono).max_K_diff
            assert got.hex() == old_max_K_diff(model, mono).hex()

    def test_point_load_model(self, unit_material):
        model = square_model(3, unit_material, q=0.0, kind=BCKind.CLAMPED)
        model.point_loads = [(0.3, 0.4, 1.0), (2 / 3, 1 / 3, 2.0)]
        mono = build_equivalent_mono(model)
        got = equivalence_check(model, mono).max_K_diff
        assert got.hex() == old_max_K_diff(model, mono).hex()


def twin_cells(name, m):
    """The canonical local vertices (n, 3, 2) and rigidities (n, 3, 3) of
    the cells of a registry model's conventional twin."""
    mono = build_equivalent_mono(CASES[name].build(m))
    _, a, h, b, _ = mono.frames
    local = np.zeros((len(a), 3, 2))
    local[:, 1, 0] = a
    local[:, 2] = np.stack([a * (1.0 - h / b), h], axis=-1)
    return local, np.array([bending_rigidity(e.material) for e in mono.model.elements])


def random_cells(rng, n=300):
    """n canonical cells (0, 0), (a, 0), (x, h) with 0 <= x < a, as
    `canonicalize_triangles` gives them, of random shape, size and
    isotropic rigidity."""
    a = rng.uniform(0.2, 2.0, n)
    local = np.zeros((n, 3, 2))
    local[:, 1, 0] = a
    local[:, 2] = a[:, None] * np.column_stack([rng.uniform(0.0, 1.0, n),
                                                rng.uniform(0.2, 1.5, n)])
    D = np.array([bending_rigidity(PlateMaterial(E, t, nu)) for E, t, nu in
                  zip(rng.uniform(1.0, 30.0, n), rng.uniform(0.1, 1.0, n),
                      rng.uniform(0.0, 0.45, n))])
    return local, D


def nodal_dofs(local, w, w_x, w_y):
    """(n, 9) dofs of a field with value w and slopes w_x, w_y, functions of
    (x, y): (w, thx = dw/dy, thy = -dw/dx) at each vertex."""
    x, y = local[..., 0], local[..., 1]
    dofs = [np.broadcast_to(v, x.shape) for v in (w(x, y), w_y(x, y), -w_x(x, y))]
    return np.stack(dofs, axis=-1).reshape(-1, 9)


RIGID_MODES = [(lambda x, y: 1.0, lambda x, y: 0.0, lambda x, y: 0.0),
               (lambda x, y: x, lambda x, y: 1.0, lambda x, y: 0.0),
               (lambda x, y: y, lambda x, y: 0.0, lambda x, y: 1.0)]
# (w, w_x, w_y, curvatures -(w_xx, w_yy, 2 w_xy))
CONSTANT_CURVATURES = [
    (lambda x, y: x * x / 2, lambda x, y: x, lambda x, y: 0.0, [-1.0, 0.0, 0.0]),
    (lambda x, y: y * y / 2, lambda x, y: 0.0, lambda x, y: y, [0.0, -1.0, 0.0]),
    (lambda x, y: x * y, lambda x, y: y, lambda x, y: x, [0.0, 0.0, -2.0])]


@pytest.fixture(params=["random"] + sorted(CASES))
def cells(request, rng):
    """Seeded random cells, then the twin cells of each registry model."""
    if request.param == "random":
        return random_cells(rng)
    return twin_cells(request.param, 4)


class TestCellIntegrals:
    """The oracle's cell integrals against closed-form plate states, with
    no reference to either code path."""

    def test_rigid_modes_are_stress_free(self, cells):
        local, D = cells
        kc, _ = oracle._cell_integrals(local, D, 1.0)
        norm = np.linalg.norm(kc, ord=2, axis=(1, 2))
        for mode in RIGID_MODES:
            a = nodal_dofs(local, *mode)
            force = np.linalg.norm(np.einsum("nij,nj->ni", kc, a), axis=1)
            assert np.all(force <= 1e-13 * norm * np.linalg.norm(a, axis=1))

    def test_constant_curvature_energy(self, cells):
        local, D = cells
        kc, _ = oracle._cell_integrals(local, D, 1.0)
        area = 0.5 * local[:, 1, 0] * local[:, 2, 1]
        # fields about each centroid: small nodal values cancel less in a^T K a
        centred = local - local.mean(axis=1, keepdims=True)
        for *field, kappa in CONSTANT_CURVATURES:
            a = nodal_dofs(centred, *field)
            energy = np.einsum("ni,nij,nj->n", a, kc, a)
            assert_allclose(energy, area * np.einsum("i,nij,j->n", kappa, D, kappa),
                            rtol=1e-13, atol=0)

    def test_deflection_loads_sum_to_the_cell_load(self, cells):
        local, D = cells
        _, f = oracle._cell_integrals(local, D, 2.5)
        area = 0.5 * local[:, 1, 0] * local[:, 2, 1]
        assert_allclose(f[:, ::3].sum(axis=1), 2.5 * area, rtol=1e-13, atol=0)

    def test_bytes_equal_each_cell_alone(self, cells):
        local, D = cells
        kc, f = oracle._cell_integrals(local, D, 1.5)
        for i in range(len(local)):
            alone = oracle._cell_integrals(local[i:i + 1], D[i:i + 1], 1.5)
            assert alone[0].tobytes() == kc[i].tobytes()
            assert alone[1].tobytes() == f[i].tobytes()


@pytest.fixture
def kernel_tables_cleared():
    """Empties the tables that keep what the basis kernel gave
    (`element._integral_table`, `shapefn._shape_domains`) before the test
    and after it, so that a patched kernel is called and leaves nothing."""
    tables = (triplate.element._integral_table, triplate.shapefn._shape_domains)
    for table in tables:
        table.clear()
    yield
    for table in tables:
        table.clear()


def solve(model):
    return solve_system(apply_boundary_conditions(assemble(model)))


def scaled_K(system):
    return dataclasses.replace(system, K=system.K * (1.0 + 1e-6))


def scaled_rhs(system):
    return dataclasses.replace(system, rhs=system.rhs * (1.0 + 1e-6))


def bumped_free_pair(system):
    """K[r, s] and K[s, r] + 1e-6 max|K| for the w dofs r, s of the first
    two nodes whose w the boundary conditions leave free."""
    C = apply_boundary_conditions(system).C
    r, s = 3 * np.flatnonzero(np.diff(C.indptr)[::3])[:2]
    bump = 1e-6 * abs(system.K).max()
    pair = sp.coo_matrix(([bump, bump], ([r, s], [s, r])), shape=system.K.shape)
    return dataclasses.replace(system, K=(system.K + pair).tocsr())


class TestMutationsFail:
    """The check must fail when either side is slightly wrong."""

    @pytest.mark.parametrize("solved", [False, True], ids=["oracle-solves", "callers-solution"])
    def test_one_twin_rotation_perturbed(self, solved):
        model = benchmark_case("skew-60").build(4)
        mono = build_equivalent_mono(model)
        solution = solve(model) if solved else None
        assert equivalence_check(model, mono, solution=solution).ok
        rotation = mono.frames.rotation.copy()
        rotation[5] += 1e-6
        bad = dataclasses.replace(
            mono, frames=mono.frames._replace(rotation=rotation))
        report = equivalence_check(model, bad, solution=solution)
        assert not report.ok
        assert report.max_K_diff > report.tolerance

    def test_one_element_matrix_scaled(self, monkeypatch):
        model = benchmark_case("circle-ss").build(3)
        mono = build_equivalent_mono(model)
        assert equivalence_check(model, mono).ok
        original = triplate.assembly.element_stiffness
        calls = []

        def scaled(elements, degree=None):
            # element 1's diagonal block times 1 + 1e-6, as D K D with
            # D = sqrt(1 + 1e-6) on that block's dofs and 1 elsewhere
            calls.append(elements)
            K = original(elements, degree)
            d = np.ones(K.shape[0])
            start = elements[0].dof_count
            d[start:start + elements[1].dof_count] = np.sqrt(1.0 + 1e-6)
            D = sp.diags(d)
            return (D @ K @ D).tocsr()

        monkeypatch.setattr(triplate.assembly, "element_stiffness", scaled)
        report = equivalence_check(model, mono)
        assert calls == [model.elements]
        assert not report.ok
        assert report.max_K_diff > report.tolerance

    def test_basis_kernel_fault(self, monkeypatch, kernel_tables_cleared):
        """The oracle's cells do not call the basis kernel, so a fault in
        it moves only the multiresolution side."""
        model = benchmark_case("skew-60").build(4)
        original = triplate.shapefn._eval_triangles

        def faulty(*args, **kwargs):
            value, grad, hess = original(*args, **kwargs)
            return value, grad, None if hess is None else hess * (1.0 + 1e-6)

        # every module that holds the kernel gets the fault
        for module in [m for name, m in sys.modules.items() if name.startswith("triplate")]:
            if getattr(module, "_eval_triangles", None) is original:
                monkeypatch.setattr(module, "_eval_triangles", faulty)
        report = equivalence_check(model)
        assert not report.ok
        assert report.max_K_diff > report.tolerance

    @pytest.mark.parametrize("solved", [False, True], ids=["oracle-solves", "callers-solution"])
    @pytest.mark.parametrize("mutate", [scaled_K, bumped_free_pair, scaled_rhs])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_twin_system_perturbed_at_m8(self, name, mutate, solved, monkeypatch):
        model = benchmark_case(name).build(8)
        mono = build_equivalent_mono(model)
        solution = solve(model) if solved else None
        assert equivalence_check(model, mono, solution=solution).ok
        original = oracle._assemble_twin
        monkeypatch.setattr(oracle, "_assemble_twin", lambda mono: mutate(original(mono)))
        assert not equivalence_check(model, mono, solution=solution).ok

    @pytest.mark.parametrize("solved", [False, True], ids=["oracle-solves", "callers-solution"])
    @pytest.mark.parametrize("name, hard_ss", [("circle-ss", False), ("circle-clamped", False),
                                               ("square-ss", True), ("skew-60", True)])
    def test_twin_bc_direction_rotated_at_m8(self, name, hard_ss, solved, monkeypatch):
        # the twin's reduction fixes every single rotation direction turned
        # by 1e-6 rad; K and rhs agree, so only the solutions can tell.
        # Clamped edges fix both directions, which no turn moves
        model = benchmark_case(name).build(8, hard_ss=hard_ss)
        mono = build_equivalent_mono(model)
        solution = solve(model) if solved else None
        assert equivalence_check(model, mono, solution=solution).ok
        fixed = triplate.assembly._fixed_directions
        reduce = oracle.apply_boundary_conditions
        c, s = math.cos(1e-6), math.sin(1e-6)

        def turned(bc):
            dirs = fixed(bc)
            return dirs @ np.array([[c, s], [-s, c]]) if len(dirs) == 1 else dirs

        def twin_turned(system, bcs=None):
            if system.model is not mono.model:
                return reduce(system, bcs)
            with monkeypatch.context() as patch:
                patch.setattr(triplate.assembly, "_fixed_directions", turned)
                return reduce(system, bcs)

        monkeypatch.setattr(oracle, "apply_boundary_conditions", twin_turned)
        report = equivalence_check(model, mono, solution=solution)
        assert not report.ok
        assert report.max_K_diff <= report.tolerance < report.max_solution_diff


class TestCallerSolution:
    """The check reads the multiresolution dofs from a caller's solution
    only when it solves the model's own K and rhs, bit for bit."""

    def test_same_report_as_the_own_solve(self):
        model = benchmark_case("skew-60").build(4)
        assert equivalence_check(model, solution=solve(model)) == equivalence_check(model)

    @pytest.mark.parametrize("m, hard_ss", [(4, False), (3, True)])
    def test_solution_of_another_system_rejected(self, m, hard_ss):
        model = benchmark_case("square-ss").build(3)
        other = solve(benchmark_case("square-ss").build(m, hard_ss=hard_ss))
        with pytest.raises(ValueError, match="another model"):
            equivalence_check(model, solution=other)

    def test_solution_reduced_with_other_conditions_rejected(self):
        model = benchmark_case("square-clamped").build(4)
        other = solve_system(apply_boundary_conditions(assemble(model), model.bcs[:2]))
        with pytest.raises(ValueError, match="other boundary conditions"):
            equivalence_check(model, solution=other)

    def test_copied_condition_list_accepted(self):
        model = benchmark_case("square-clamped").build(4)
        solution = solve_system(apply_boundary_conditions(assemble(model), list(model.bcs)))
        assert equivalence_check(model, solution=solution).ok

    @pytest.mark.parametrize("field", ["K", "rhs"])
    def test_one_ulp_off_rejected(self, field):
        model = benchmark_case("square-ss").build(3)
        solution = solve(model)
        system = solution.system
        if field == "K":
            K = system.K.copy()
            K.data[0] = np.nextafter(K.data[0], np.inf)
            bad = dataclasses.replace(system, K=K)
        else:
            rhs = system.rhs.copy()
            rhs[-1] = np.nextafter(rhs[-1], np.inf)
            bad = dataclasses.replace(system, rhs=rhs)
        with pytest.raises(ValueError, match="K or rhs differs"):
            equivalence_check(model, solution=dataclasses.replace(solution, system=bad))
