"""Multi-element models: splicing, constraints, transformations, balance."""
import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from triplate import (BCKind, BoundaryCondition, EmptyEdge, MRElement, Model,
                      NodeMismatch, apply_boundary_conditions, assemble,
                      bending_rigidity, node_ordinal, reactions, solve_system)
from triplate.assembly import _merge_nodes, node_rotation
from triplate.element import _cell_B, _cell_quadrature

SQUARE_EDGES = [((0, 0), (1, 0)), ((1, 0), (1, 1)),
                ((1, 1), (0, 1)), ((0, 1), (0, 0))]


def square_model(m, unit_material, kind=BCKind.SIMPLY_SUPPORTED, q=1.0,
                 edges=SQUARE_EDGES, hard=False):
    elements = [
        MRElement.from_vertices([0, 0], [1, 0], [1, 1], m, unit_material),
        MRElement.from_vertices([0, 0], [1, 1], [0, 1], m, unit_material),
    ]
    bcs = [BoundaryCondition(edge=np.array(e, dtype=float), kind=kind,
                             hard=hard) for e in edges]
    return Model(elements=elements, uniform_q=q, bcs=bcs)


def rotated_square_model(m, unit_material, angle, shift):
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])

    def mov(p):
        return R @ np.asarray(p, dtype=float) + shift

    elements = [
        MRElement.from_vertices(mov([0, 0]), mov([1, 0]), mov([1, 1]),
                                m, unit_material),
        MRElement.from_vertices(mov([0, 0]), mov([1, 1]), mov([0, 1]),
                                m, unit_material),
    ]
    bcs = [BoundaryCondition(edge=np.array([mov(e[0]), mov(e[1])]),
                             kind=BCKind.SIMPLY_SUPPORTED)
           for e in SQUARE_EDGES]
    return Model(elements=elements, uniform_q=1.0, bcs=bcs), mov


def dense_path_stiffness(model):
    """Global K built the dense way: each element matrix accumulated cell by
    cell in partition order, rotated as T^T (T^T K^T)^T with a kron-built T,
    then scattered as full (3n)^2 blocks."""
    rows, cols, data = [], [], []
    system = assemble(model)
    for elem, ids in zip(model.elements, system.element_nodes):
        degree = model.quadrature_degree
        D = bending_rigidity(elem.material)
        n = elem.dof_count
        K = np.zeros((n, n))
        cell_k = {}
        for tri in elem.partition():
            if tri.orientation not in cell_k:
                pts, wq = _cell_quadrature(elem, tri, degree)
                B = _cell_B(elem, tri, pts)
                kc = np.einsum("q,qai,ab,qbj->ij", wq, B, D, B)
                cell_k[tri.orientation] = 0.5 * (kc + kc.T)
            dofs = [3 * node_ordinal(elem.m, idx) + c
                    for idx in tri.corner_nodes for c in range(3)]
            K[np.ix_(dofs, dofs)] += cell_k[tri.orientation]
        K = 0.5 * (K + K.T)
        T = sp.kron(sp.identity(elem.node_count, format="csr"),
                    node_rotation(elem.frame), format="csr")
        K_g = T.T @ (T.T @ K.T).T
        gdof = np.repeat(ids * 3, 3) + np.tile([0, 1, 2], elem.node_count)
        rows.append(np.repeat(gdof, n))
        cols.append(np.tile(gdof, n))
        data.append(np.asarray(K_g).ravel())
    shape = (system.n_dofs, system.n_dofs)
    return sp.coo_matrix((np.concatenate(data), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=shape).tocsr()


class TestSplicing:
    def test_shared_edge_nodes_merge(self, unit_material):
        system = assemble(square_model(2, unit_material))
        # 3x3 point grid: 2 x 6 element nodes minus 3 shared on the diagonal
        assert system.n_nodes == 9
        assert system.n_dofs == 27
        coords = set(map(tuple, np.round(system.node_coords, 9)))
        expected = {(i / 2, j / 2) for i in range(3) for j in range(3)}
        assert coords == expected

    def test_mismatched_scales_rejected(self, unit_material):
        elements = [
            MRElement.from_vertices([0, 0], [1, 0], [1, 1], 2, unit_material),
            MRElement.from_vertices([0, 0], [1, 1], [0, 1], 1, unit_material),
        ]
        with pytest.raises(NodeMismatch):
            assemble(Model(elements=elements, uniform_q=1.0))

    def test_hanging_node_rejected(self, unit_material):
        # second triangle's corner sits mid-edge of the first one's side
        elements = [
            MRElement.from_vertices([0, 0], [1, 0], [0, 1], 1, unit_material),
            MRElement.from_vertices([1, 0], [1, 1], [0.5, 0.5], 1,
                                    unit_material),
        ]
        with pytest.raises(NodeMismatch):
            assemble(Model(elements=elements, uniform_q=1.0))

    def test_assembly_deterministic(self, unit_material):
        s1 = assemble(square_model(2, unit_material))
        s2 = assemble(square_model(2, unit_material))
        assert (s1.K != s2.K).nnz == 0
        assert_allclose(s1.rhs, s2.rhs, atol=0.0)
        assert_allclose(s1.node_coords, s2.node_coords, atol=0.0)

    def test_global_stiffness_symmetric(self, unit_material):
        K = assemble(square_model(3, unit_material)).K
        assert abs(K - K.T).max() < 1e-12 * abs(K).max()

    def test_stores_only_cell_couplings(self, unit_material):
        m = 8
        K = assemble(square_model(m, unit_material)).K
        assert K.nnz <= 81 * m * m * 2

    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_dense_path_bit_for_bit(self, m, unit_material):
        model, _ = rotated_square_model(m, unit_material, 0.3,
                                        np.array([0.7, -0.2]))
        assert all(math.sin(el.frame.rotation) != 0.0
                   for el in model.elements)
        K = assemble(model).K
        assert np.array_equal(K.toarray(),
                              dense_path_stiffness(model).toarray())


def test_merge_joins_chains_to_lowest_index():
    """Points within tol of a neighbour merge transitively, and every
    cluster is represented by its lowest point index."""
    coords = np.array([[5.0, 0.0], [1.2, 0.0], [0.0, 0.0], [0.6, 0.0],
                       [5.5, 0.0], [9.0, 0.0]])
    assert _merge_nodes(coords, 1.0).tolist() == [0, 1, 1, 1, 0, 5]
    assert _merge_nodes(coords, 0.1).tolist() == [0, 1, 2, 3, 4, 5]


class TestConstraints:
    @pytest.mark.parametrize("kind, hard, fixed_per_node", [
        (BCKind.CLAMPED, False, 3),
        (BCKind.SIMPLY_SUPPORTED, False, 1),
        (BCKind.SIMPLY_SUPPORTED, True, 2),
        (BCKind.SYMMETRY, False, 1),
        (BCKind.FREE, False, 0),
    ])
    def test_free_dof_counts(self, unit_material, kind, hard, fixed_per_node):
        model = square_model(2, unit_material, kind=kind,
                             edges=[((0, 0), (1, 0))], hard=hard)
        system = apply_boundary_conditions(assemble(model))
        # bottom edge carries 3 of the 9 nodes
        assert system.n_free == 27 - 3 * fixed_per_node

    def test_full_boundary_clamped_leaves_center(self, unit_material):
        model = square_model(2, unit_material, kind=BCKind.CLAMPED)
        system = apply_boundary_conditions(assemble(model))
        # 8 boundary nodes fully fixed, one interior node left
        assert system.n_free == 3

    def test_zero_length_edge_pins_one_node(self, unit_material):
        model = square_model(2, unit_material, kind=BCKind.CLAMPED,
                             edges=[((0, 0), (0, 0))])
        system = apply_boundary_conditions(assemble(model))
        assert system.n_free == 27 - 3

    def test_empty_edge_rejected(self, unit_material):
        model = square_model(2, unit_material,
                             edges=[((5.0, 5.0), (6.0, 5.0))])
        with pytest.raises(EmptyEdge):
            apply_boundary_conditions(assemble(model))

    def test_duplicate_constraints_collapse(self, unit_material):
        # corner nodes sit on two clamped edges; constraints must not
        # double-count
        model = square_model(2, unit_material, kind=BCKind.CLAMPED)
        system = apply_boundary_conditions(assemble(model))
        assert system.C.shape == (27, 3)
        # reduction matrix columns are unit vectors onto free dofs
        assert_allclose(np.asarray(abs(system.C).sum(axis=0)).ravel(), 1.0)


class TestObjectivity:
    def test_model_rotation_invariance(self, unit_material):
        from triplate import field_eval

        base = square_model(2, unit_material)
        sol0 = solve_system(apply_boundary_conditions(assemble(base)))
        w0 = field_eval(sol0, (0.5, 0.5))[0]
        for angle in (0.3, -1.1):
            model, mov = rotated_square_model(2, unit_material, angle,
                                              np.array([0.7, -0.2]))
            sol = solve_system(apply_boundary_conditions(assemble(model)))
            w = field_eval(sol, mov((0.5, 0.5)))[0]
            assert w == pytest.approx(w0, rel=1e-10)


class TestBalance:
    def test_reactions_balance_total_load(self, unit_material):
        model = square_model(2, unit_material, kind=BCKind.CLAMPED)
        model.point_loads = [(0.3, 0.4, 2.0)]
        sol = solve_system(apply_boundary_conditions(assemble(model)))
        r = reactions(sol)
        total_load = 1.0 * 1.0 + 2.0
        assert r[0::3].sum() == pytest.approx(-total_load, rel=1e-10)
        # no spurious reactions on free dofs
        free = np.asarray(abs(sol.system.C).sum(axis=1)).ravel() > 0
        assert np.abs(r[free]).max() < 1e-10 * np.abs(r).max()

    def test_uniform_rhs_total(self, unit_material):
        system = assemble(square_model(3, unit_material, q=2.5))
        assert system.rhs[0::3].sum() == pytest.approx(2.5, rel=1e-12)

    def test_point_load_rhs_total(self, unit_material):
        model = square_model(2, unit_material, q=0.0)
        model.point_loads = [(0.25, 0.5, 1.5), (0.5, 0.5, -0.5)]
        system = assemble(model)
        # virtual work against the unit-deflection rigid vector
        assert system.rhs[0::3].sum() == pytest.approx(1.0, rel=1e-11)
