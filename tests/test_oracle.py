"""Conventional per-cell assembly as an exactness oracle."""
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import triplate.assembly
from triplate import (CASES, BCKind, EquivalenceReport, MRElement,
                      PermutationNotFound, PlateMaterial, assemble,
                      benchmark_case, build_equivalent_mono,
                      canonicalize_triangle, equivalence_check, oracle)

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


class TestMutationsFail:
    """The check must fail when either side is slightly wrong."""

    def test_one_twin_rotation_perturbed(self):
        model = benchmark_case("skew-60").build(4)
        mono = build_equivalent_mono(model)
        assert equivalence_check(model, mono).ok
        rotation = mono.frames.rotation.copy()
        rotation[5] += 1e-6
        bad = dataclasses.replace(
            mono, frames=mono.frames._replace(rotation=rotation))
        report = equivalence_check(model, bad)
        assert not report.ok
        assert report.max_K_diff > report.tolerance

    def test_one_element_matrix_scaled(self, monkeypatch):
        model = benchmark_case("circle-ss").build(3)
        mono = build_equivalent_mono(model)
        assert equivalence_check(model, mono).ok
        original = triplate.assembly.element_stiffness

        def scaled(elem, degree=None):
            K = original(elem, degree)
            return K * (1.0 + 1e-6) if elem is model.elements[1] else K

        monkeypatch.setattr(triplate.assembly, "element_stiffness", scaled)
        report = equivalence_check(model, mono)
        assert not report.ok
        assert report.max_K_diff > report.tolerance

