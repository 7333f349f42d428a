"""Multi-element models: splicing, constraints, transformations, balance."""
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from triplate import (BCKind, BoundaryCondition, DimensionMismatch, EmptyEdge,
                      MRElement, Model, NodeMismatch, OutsideDomain, OutsideModel, QuadratureFailure,
                      apply_boundary_conditions, assemble, bending_rigidity,
                      node_ordinal, reactions, solve_system)
import triplate.assembly
import triplate.element
from triplate import PlateMaterial, benchmark_case, build_equivalent_mono, triangle_rule
from triplate.assembly import (_PAIR_TOL, _element_stack, _merge_nodes,
                               _owning_element, _segment_distance)
from triplate.bench import CASES
from triplate.cli import CONFIG_SCHEMA
from triplate.element import (_FIRST_CELLS, QUADRATURE_DEGREE, _cell_quadrature,
                              _curvatures, _fill_basis, _first_cells, _integral_table,
                              _partition_dofs,
                              element_load_point, element_load_uniform,
                              element_stiffness)
from triplate.geometry import LocalFrame, grid_positions, partition_corners
from triplate.shapefn import cells_basis, subtriangle_basis

SQUARE_EDGES = [((0, 0), (1, 0)), ((1, 0), (1, 1)),
                ((1, 1), (0, 1)), ((0, 1), (0, 0))]


def node_rotation(frame):
    """One frame's 3x3 global-to-local node block, written out from
    math.cos and math.sin: the reference the stacked blocks must match."""
    c, s = math.cos(frame.rotation), math.sin(frame.rotation)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


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
        degree = QUADRATURE_DEGREE
        D = bending_rigidity(elem.material)
        n = elem.dof_count
        K = np.zeros((n, n))
        cell_k = {}
        corners, down = partition_corners(elem.m)
        for vertices, nodes, d in zip(elem.partition(), corners.tolist(), down.tolist()):
            if d not in cell_k:
                pts, wq = _cell_quadrature(vertices[None], degree)
                B = _curvatures(subtriangle_basis(elem.frame, elem.m, vertices[None], [d],
                                                  pts[0], grad=False)[2])[0]
                kc = np.einsum("q,qai,ab,qbj->ij", wq[0], B, D, B)
                cell_k[d] = 0.5 * (kc + kc.T)
            dofs = [3 * node_ordinal(elem.m, tuple(idx)) + c
                    for idx in nodes for c in range(3)]
            K[np.ix_(dofs, dofs)] += cell_k[d]
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


def per_element_assemble(model):
    """Global K, rhs, node table and element nodes the element-by-element
    way: each element's own CSR transformation T and two sparse products
    T^T (K T), its stored triples appended in element order, its loads
    added to the global rhs one element at a time."""
    all_coords = np.vstack([el.node_positions_global() for el in model.elements])
    if model.merge_tolerance is not None:
        tol = model.merge_tolerance
    else:
        lo, hi = all_coords.min(axis=0), all_coords.max(axis=0)
        tol = 1e-9 * float(np.linalg.norm(hi - lo))
    uniq, inverse = np.unique(_merge_nodes(all_coords, tol), return_inverse=True)
    element_nodes = np.split(inverse, np.cumsum([el.node_count for el in model.elements])[:-1])

    def transformation(elem):
        n = elem.dof_count
        cols = np.repeat(np.arange(0, n, 3), 9) + np.tile([0, 1, 2], n)
        return sp.csr_matrix((np.tile(node_rotation(elem.frame).ravel(), elem.node_count),
                              cols, np.arange(0, 3 * n + 1, 3)), shape=(n, n))

    n_dofs = 3 * len(uniq)
    gdofs = [(3 * ids[:, None] + np.arange(3)).ravel() for ids in element_nodes]
    rows, cols, data = [], [], []
    rhs = np.zeros(n_dofs)
    for elem, gdof in zip(model.elements, gdofs):
        T = transformation(elem)
        K_g = (T.T @ (element_stiffness([elem], QUADRATURE_DEGREE) @ T)).tocoo()
        rows.append(gdof[K_g.row])
        cols.append(gdof[K_g.col])
        data.append(K_g.data)
        rhs[gdof] += T.T @ element_load_uniform([elem], model.uniform_q,
                                                QUADRATURE_DEGREE)
    for (x, y, P) in model.point_loads:
        p = np.array([x, y])
        owners, _ = _owning_element(_element_stack(model.elements), p)
        e = owners[0]
        elem = model.elements[e]
        rhs[gdofs[e]] += transformation(elem).T @ element_load_point(
            elem, P, elem.frame.to_local(p))
    K = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_dofs, n_dofs)).tocsr()
    return K, rhs, all_coords[uniq], element_nodes


def edge_conformity_scan(system):
    """The first (element, side) with nodes on it that are not its own, and
    those nodes, by a scan of every node for every side; None if none."""
    for e, elem in enumerate(system.model.elements):
        corners = elem.frame.global_vertices()
        for i in range(3):
            dist = _segment_distance(system.node_coords, corners[i], corners[(i + 1) % 3])
            on_side = np.nonzero(dist <= system.merge_tol)[0]
            foreign = [int(n) for n in on_side if n not in system.element_nodes[e]]
            if foreign:
                return e, i, foreign
    return None


def two_material_model(q=1.0, loads=()):
    model = benchmark_case("skew-60").build(3)
    soft = PlateMaterial(E=3.0, t=0.5, nu=0.2)
    elements = [model.elements[0], MRElement(model.elements[1].frame, 3, soft)]
    return Model(elements=elements, uniform_q=q, point_loads=list(loads),
                 bcs=model.bcs)


# a point on the shared node (1, 0) of skew-60 at m = 3, and points inside cells
_POINT_LOADS = [(1.0, 0.0, 0.7), (0.77, 0.31, -1.5), (0.5, 0.2, 2.0)]

_BYTE_MODELS = {f"{name} m={m}{' twin' * twin}":
                (lambda name=name, m=m, twin=twin:
                 build_equivalent_mono(CASES[name].build(m)).model if twin
                 else CASES[name].build(m))
                for name in CASES for m in (1, 3, 8) for twin in (False, True)}
_BYTE_MODELS["two materials"] = two_material_model
_BYTE_MODELS["two materials twin"] = lambda: build_equivalent_mono(two_material_model()).model
_BYTE_MODELS["point loads"] = lambda: two_material_model(loads=_POINT_LOADS)
_BYTE_MODELS["point loads, q = 0"] = lambda: two_material_model(q=0.0, loads=_POINT_LOADS)
_BYTE_MODELS["point loads twin"] = lambda: build_equivalent_mono(
    two_material_model(loads=_POINT_LOADS)).model
# the byte comparison also runs at the scale perfbench/refs freezes
_FROZEN_MODELS = {f"{name} m=48": (lambda name=name: CASES[name].build(48))
                  for name in ("square-ss", "skew-60")}


class TestMatchesPerElementAssembly:
    @pytest.mark.parametrize("name", list(_BYTE_MODELS) + list(_FROZEN_MODELS))
    def test_bytes_equal_per_element_loop(self, name):
        build = {**_BYTE_MODELS, **_FROZEN_MODELS}[name]
        system = assemble(build())
        K, rhs, node_coords, element_nodes = per_element_assemble(build())
        for got, want in ((system.K.data, K.data), (system.K.indices, K.indices),
                          (system.K.indptr, K.indptr), (system.rhs, rhs),
                          (system.node_coords, node_coords),
                          (np.concatenate(system.element_nodes),
                           np.concatenate(element_nodes))):
            assert (got.dtype, got.shape, got.tobytes()) == \
                (want.dtype, want.shape, want.tobytes())
        assert [len(ids) for ids in system.element_nodes] == \
            [len(ids) for ids in element_nodes]

    @pytest.mark.parametrize("twin", [False, True])
    def test_one_basis_call_per_element_orientation(self, twin, monkeypatch,
                                                    kernel_calls, empty_integral_table):
        # the basis is evaluated once per distinct (shape bits, m,
        # orientation), inside one basis-kernel call per chunk of them: no
        # per-element subtriangle_basis call, ceil(jobs / chunk) kernel
        # calls of three domains per pair.  The skew-60 m = 8 twin has 128
        # one-cell elements of 33 bitwise-distinct shapes; the elements of
        # one shape (and material) share one set of kept arrays
        model = benchmark_case("skew-60").build(8)
        if twin:
            model = build_equivalent_mono(model).model
        one_cell_calls, domains = [], kernel_calls
        monkeypatch.setattr(triplate.element, "subtriangle_basis",
                            lambda *args: one_cell_calls.append(args))
        domains.clear()
        assemble(model)
        shapes = {(np.array([el.frame.a, el.frame.h, el.frame.b]).tobytes(), el.m)
                  for el in model.elements}
        jobs = sum(2 if m > 1 else 1 for _, m in shapes)
        assert (len(model.elements), len(shapes), jobs) == \
            ((128, 33, 33) if twin else (2, 2, 4))
        assert one_cell_calls == []
        assert len(domains) == math.ceil(jobs / triplate.element._CHUNK) \
            == (3 if twin else 1)
        assert sum(domains) == 3 * jobs == (99 if twin else 12)
        domains.clear()
        assemble(model)
        kept = _fill_basis(model.elements, QUADRATURE_DEGREE)
        assert domains == []
        assert len({id(k) for k in kept}) == len(shapes)
        assert all(len(k.K) == (2 if el.m > 1 else 1)
                   for el, k in zip(model.elements, kept))

    @pytest.mark.parametrize("degree", [2, 5])
    def test_batched_basis_bytes_equal_one_cell_evaluation(self, degree):
        # the elements of every byte model in the chunks the filler takes:
        # mixed m, frames and materials share kernel calls
        elements = [el for build in _BYTE_MODELS.values() for el in build().elements]
        assert {el.m for el in elements} == {1, 3, 8}
        jobs = [(elem, down) for elem in elements
                for down in ((False, True) if elem.m > 1 else (False,))]
        chunk = triplate.element._CHUNK
        assert len(jobs) > chunk
        batched = [_first_cells(jobs[i:i + chunk], degree)
                   for i in range(0, len(jobs), chunk)]
        batched = dict(zip(((id(elem), down) for elem, down in jobs),
                           zip(*(np.concatenate(a) for a in zip(*batched)))))
        for elem in elements:
            cells = elem.partition()
            corners, down_mask = partition_corners(elem.m)
            for down in ((False, True) if elem.m > 1 else (False,)):
                # the first cell of this orientation in partition order
                c = int(np.argmax(down_mask == down))
                vertices = cells[c]
                assert corners[c].tolist() == _FIRST_CELLS[int(down)].tolist()
                assert vertices.tobytes() == grid_positions(
                    elem.frame, elem.m, *_FIRST_CELLS[int(down)].T).tobytes()
                # one cell's rule, as a single cell computes it
                bary, w = triangle_rule(degree)
                pts = bary @ vertices
                e1, e2 = vertices[1] - vertices[0], vertices[2] - vertices[0]
                wq = w * (0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0]))
                value, _, hess = subtriangle_basis(elem.frame, elem.m, vertices[None],
                                                   [down], pts)
                N = value[0].reshape(9, -1).T
                B = hess[0].reshape(9, -1, 3).transpose(1, 2, 0) \
                    * np.array([-1.0, -1.0, -2.0])[:, None]
                for got, want in zip(batched[id(elem), down], (wq, N, B)):
                    assert (got.dtype, got.shape, got.tobytes()) == \
                        (want.dtype, want.shape, want.tobytes())

    def test_batched_basis_keeps_its_checks(self, unit_material):
        elements = [MRElement.from_vertices([0, 0], [1, 0], [1, 1], m, unit_material)
                    for m in (1, 2)]
        with pytest.raises(QuadratureFailure, match="degree >= 2"):
            _fill_basis(elements, 1)
        # cells of area 0.5 * (1e-200 / 2)^2 underflow to zero
        tiny = MRElement(LocalFrame(1e-200, 1e-200, 1e-200), 2, unit_material)
        with pytest.raises(QuadratureFailure, match="degenerate sub-triangle"):
            _fill_basis(elements + [tiny], QUADRATURE_DEGREE)

    def test_stacked_evaluation_checks_each_cell(self, unit_material):
        # a point outside the domains of the second (down) cell of a stack
        # raises, naming one of that cell's domains
        elem = MRElement.from_vertices([0, 0], [1, 0], [1, 1], 2, unit_material)
        _, down = partition_corners(elem.m)
        assert down[[0, elem.m]].tolist() == [False, True]
        cells = elem.partition()[[0, elem.m]]
        pts = np.stack([cells[0].mean(axis=0), [10.0, 10.0]])[:, None]
        with pytest.raises(OutsideDomain, match="sub-domain D[246]$"):
            cells_basis([elem.frame] * 2, [2, 2], cells, [False, True], pts)

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 9])
    def test_cell_stiffness_bytes_equal_einsum(self, degree):
        # element_stiffness sums w_q B_qai D_ab B_qbj over (q, a, b) as
        # explicit products; the four-operand einsum it replaced is the
        # byte reference
        elements = []
        for case in CASES.values():
            model = case.build(3)
            elements += model.elements + build_equivalent_mono(model).model.elements
            elements += [MRElement(el.frame, 48, el.material) for el in model.elements]

        def einsum_stiffness(elem):
            # from the rule and curvature matrices of each orientation's
            # first cell, as the filler evaluates them
            D = bending_rigidity(elem.material)
            orientations = (False, True) if elem.m > 1 else (False,)
            wqs, _, Bs = _first_cells([(elem, down) for down in orientations], degree)
            kc = np.array([np.einsum("q,qai,ab,qbj->ij", wq, B, D, B)
                           for wq, B in zip(wqs, Bs)])
            kc = 0.5 * (kc + kc.transpose(0, 2, 1))
            _, orientation, slot, indices, indptr = _partition_dofs(elem.m)
            n = elem.dof_count
            return sp.csr_matrix((np.bincount(slot, weights=kc[orientation].ravel()),
                                  indices, indptr), shape=(n, n))

        for elem in elements:
            got = element_stiffness([elem], degree)
            want = einsum_stiffness(elem)
            for g, w in ((got.data, want.data), (got.indices, want.indices),
                         (got.indptr, want.indptr)):
                assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())

    def test_twin_assembly_memory_is_bounded(self):
        # the basis kernel holds about 1.2 KB per (domain, point) in each of
        # several temporaries, so kernel calls are kept to a few cells.  The
        # square-ss m = 32 twin (2048 one-cell elements) peaked at 14.6 MB
        # under tracemalloc, at 17.7 MB once every cell frame kept its
        # kernel constants of both orientations (about 1.5 KB a frame), at
        # 16.6 MB once a frame kept only its up cell's, the one a one-cell
        # element asks for, at 11.4 MB once only the first element of each
        # of its 334 distinct shapes is evaluated and keeps them, and at
        # 10.6 MB once each shape keeps only its cell stiffness and load
        # row, and at 11.1 MB once one table keeps the kernel constants of
        # both orientations per shape in place of the frames; 128 cells per
        # call took 24 MB and all 2048 in one call 288 MB
        mono = build_equivalent_mono(benchmark_case("square-ss").build(32)).model
        assert len(mono.elements) == 2048
        tracemalloc.start()
        try:
            assemble(mono)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("m_left, m_right", [(2, 1), (3, 2), (2, 4), (6, 3), (1, 32)])
    def test_conformity_reports_first_side_as_scan(self, m_left, m_right,
                                                   unit_material, monkeypatch):
        elements = [
            MRElement.from_vertices([0, 0], [1, 0], [1, 1], m_left, unit_material),
            MRElement.from_vertices([0, 0], [1, 1], [0, 1], m_right, unit_material),
        ]
        check = triplate.assembly._check_edge_conformity
        monkeypatch.setattr(triplate.assembly, "_check_edge_conformity",
                            lambda system, corners, inverse, counts: None)
        system = assemble(Model(elements=elements, uniform_q=1.0))
        e, i, foreign = edge_conformity_scan(system)
        with pytest.raises(NodeMismatch) as err:
            check(system, np.array([el.frame.global_vertices() for el in elements]),
                  np.concatenate(system.element_nodes),
                  [el.node_count for el in elements])
        assert str(err.value) == (
            f"element {e} side {i}: nodes {foreign} lie on the side but do not "
            "match its grid (differing m across a shared edge?)")


def mixed_sequence(unit_material):
    """Elements of m = 2, 1, 3, 1, 2 and 3, two materials and shapes met
    more than once, the resolutions interleaved."""
    soft = PlateMaterial(E=3.0, t=0.5, nu=0.2)
    skew = benchmark_case("skew-60").build(3).elements
    twin = build_equivalent_mono(benchmark_case("circle-ss").build(2)).model.elements
    return [MRElement(skew[0].frame, 2, unit_material), twin[0],
            MRElement(skew[1].frame, 3, soft), twin[1],
            MRElement(skew[0].frame, 2, unit_material),
            MRElement(skew[1].frame, 3, unit_material), twin[0]]


class TestStackedElementMatrices:
    """`element_stiffness` and `element_load_uniform` of a sequence hold the
    blocks of each element alone, in sequence order."""

    @pytest.mark.parametrize("which", ["mixed", "twin", "model"])
    def test_blocks_bytes_equal_each_element_alone(self, which, unit_material):
        elements = {"mixed": lambda: mixed_sequence(unit_material),
                    "twin": lambda: build_equivalent_mono(
                        CASES["skew-60"].build(3)).model.elements,
                    "model": lambda: CASES["circle-ss"].build(4).elements}[which]()
        K = element_stiffness(elements)
        n = sum(el.dof_count for el in elements)
        assert K.shape == (n, n) and K.indptr[-1] == K.nnz
        start = 0
        for elem in elements:
            alone = element_stiffness([elem])
            stop = start + elem.dof_count
            lo, hi = K.indptr[start], K.indptr[stop]
            assert same_bytes((K.data[lo:hi], alone.data),
                              ((K.indices[lo:hi] - start).astype(alone.indices.dtype),
                               alone.indices),
                              ((K.indptr[start:stop + 1] - lo).astype(alone.indptr.dtype),
                               alone.indptr))
            start = stop
        assert K.indices.dtype == K.indptr.dtype == element_stiffness(elements[:1]).indices.dtype

    @pytest.mark.parametrize("q", [0.0, 1.7])
    def test_loads_bytes_equal_each_element_alone(self, q, unit_material):
        elements = mixed_sequence(unit_material)
        f = element_load_uniform(elements, q)
        alone = np.concatenate([element_load_uniform([elem], q) for elem in elements])
        assert same_bytes((f, alone))
        assert (q == 0.0) == (not f.any())

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_one_call_each_per_model(self, q, monkeypatch):
        twin = build_equivalent_mono(CASES["circle-ss"].build(3)).model
        twin.uniform_q = q
        calls = []
        for name in ("element_stiffness", "element_load_uniform"):
            original = getattr(triplate.assembly, name)
            monkeypatch.setattr(triplate.assembly, name,
                                lambda elements, *args, name=name, original=original:
                                calls.append((name, elements)) or original(elements, *args))
        assemble(twin)
        assert [(name, elements is twin.elements) for name, elements in calls] == \
            [("element_stiffness", True), ("element_load_uniform", True)]


def same_bytes(*pairs):
    return all((g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
               for g, w in pairs)


class TestSharedCellIntegrals:
    """Elements share kept cell integrals only when every input of them is
    bitwise equal: frame shape, m and material."""

    @pytest.mark.parametrize("name", ["square-ss", "skew-60", "circle-ss"])
    def test_shared_twin_bytes_equal_each_filled_alone(self, name, empty_integral_table):
        twin = build_equivalent_mono(CASES[name].build(4)).model
        shared = _fill_basis(twin.elements, QUADRATURE_DEGREE)
        alone = []
        for elem in twin.elements:
            _integral_table.clear()
            alone.append(_fill_basis([elem], QUADRATURE_DEGREE)[0])
        assert len({id(k) for k in alone}) == len(twin.elements) > \
            len({id(k) for k in shared})
        assert same_bytes(*((s.K, a.K) for s, a in zip(shared, alone)),
                          *((s.f, a.f) for s, a in zip(shared, alone)))

    def test_equal_shapes_of_other_material_keep_their_own(self, unit_material,
                                                           empty_integral_table):
        frame = LocalFrame(1.0, 0.8, 1.1)
        soft = PlateMaterial(E=3.0, t=0.5, nu=0.2)
        elements = [MRElement(frame, 3, mat) for mat in (unit_material, soft, unit_material)]
        kept = _fill_basis(elements, QUADRATURE_DEGREE)
        assert kept[0] is kept[2] and kept[1] is not kept[0]
        shared = element_stiffness([elements[1]]).data
        _integral_table.clear()
        alone = MRElement(LocalFrame(1.0, 0.8, 1.1), 3, soft)
        assert same_bytes((shared, element_stiffness([alone]).data))
        assert not np.array_equal(kept[0].K, kept[1].K)

    def test_shapes_one_ulp_apart_keep_their_own(self, unit_material, empty_integral_table):
        frames = [LocalFrame(a, 0.8, 1.1) for a in (1.0, np.nextafter(1.0, 2.0))]
        elements = [MRElement(frame, 1, unit_material) for frame in frames]
        kept = _fill_basis(elements, QUADRATURE_DEGREE)
        assert kept[0] is not kept[1]
        shared = [element_stiffness([elem]).data for elem in elements]
        for got, frame in zip(shared, frames):
            _integral_table.clear()
            alone = MRElement(LocalFrame(frame.a, frame.h, frame.b), 1, unit_material)
            assert same_bytes((got, element_stiffness([alone]).data))
        assert not np.array_equal(kept[0].K, kept[1].K)


class TestIntegralTable:
    """One bounded table keeps the cell integrals of every key filled, for
    every model of the process."""

    @pytest.mark.parametrize("twin", [False, True])
    def test_equal_model_assembles_without_kernel_calls(self, twin, kernel_calls):
        def build():
            model = CASES["circle-ss"].build(6)
            return build_equivalent_mono(model).model if twin else model

        first = assemble(build())
        kernel_calls.clear()
        again = assemble(build())
        assert kernel_calls == []
        assert same_bytes((first.K.data, again.K.data), (first.rhs, again.rhs))

    def test_more_keys_than_the_bound_fill_in_one_pass(self, monkeypatch, kernel_calls,
                                                        unit_material,
                                                        empty_integral_table):
        twin = build_equivalent_mono(benchmark_case("skew-60").build(8)).model
        want = assemble(twin)
        unbounded = _fill_basis(twin.elements, QUADRATURE_DEGREE)
        _integral_table.clear()
        monkeypatch.setattr(_integral_table, "bound", 4)
        _fill_basis([MRElement(LocalFrame(1.0, 0.8, b), 1, unit_material)
                     for b in (1.1, 1.2, 1.3, 1.4)], QUADRATURE_DEGREE)
        kernel_calls.clear()
        got = assemble(twin)
        # 33 keys of one orientation each: one pass, no refill per element
        assert len(kernel_calls) == math.ceil(33 / triplate.element._CHUNK) == 3
        assert len(_integral_table) == 33
        kept = _fill_basis(twin.elements, QUADRATURE_DEGREE)
        assert len(kernel_calls) == 3
        assert same_bytes((got.K.data, want.K.data), (got.K.indices, want.K.indices),
                          (got.K.indptr, want.K.indptr), (got.rhs, want.rhs),
                          *((k.K, u.K) for k, u in zip(kept, unbounded)),
                          *((k.f, u.f) for k, u in zip(kept, unbounded)))
        # the next fill evicts down to the bound, least recently used first:
        # the twin keeps the last three keys its fill read
        _fill_basis([MRElement(LocalFrame(1.0, 0.8, 1.5), 1, unit_material)],
                    QUADRATURE_DEGREE)
        assert len(_integral_table) == 4
        firsts = {}
        for elem in twin.elements:
            firsts.setdefault(triplate.element._basis_key(elem), elem)
        kernel_calls.clear()
        _fill_basis(list(firsts.values())[-3:], QUADRATURE_DEGREE)
        assert kernel_calls == []
        _fill_basis(list(firsts.values())[:1], QUADRATURE_DEGREE)
        assert kernel_calls == [3]

    def test_entries_are_read_only(self, unit_material):
        elem = MRElement(LocalFrame(1.0, 0.8, 1.1), 2, unit_material)
        for a in _fill_basis([elem], QUADRATURE_DEGREE)[0]:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0

    def test_evicted_entry_refills_with_its_bytes(self, monkeypatch, kernel_calls,
                                                  unit_material, empty_integral_table):
        monkeypatch.setattr(_integral_table, "bound", 2)
        elements = [MRElement(LocalFrame(1.0, 0.8, b), 2, unit_material)
                    for b in (1.1, 1.2, 1.3)]
        first = _fill_basis(elements[:1], QUADRATURE_DEGREE)[0]
        _fill_basis(elements[1:2], QUADRATURE_DEGREE)
        # a read makes the first the most recently used: the third evicts
        # the second
        element_stiffness([elements[0]])
        kernel_calls.clear()
        _fill_basis(elements[2:], QUADRATURE_DEGREE)
        assert _fill_basis(elements[:1], QUADRATURE_DEGREE)[0] is first
        assert len(kernel_calls) == 1
        # the second evicts the third, then the third the first, which
        # refills with its bytes
        _fill_basis(elements[1:2], QUADRATURE_DEGREE)
        _fill_basis(elements[2:], QUADRATURE_DEGREE)
        kernel_calls.clear()
        again = _fill_basis(elements[:1], QUADRATURE_DEGREE)[0]
        assert len(kernel_calls) == 1 and again is not first
        assert same_bytes((again.K, first.K), (again.f, first.f))
        assert len(_integral_table) == 2


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
        with pytest.raises(NodeMismatch, match=re.escape(
                "element 1 side 0: nodes [4] lie on the side but do not "
                "match its grid (differing m across a shared edge?)")):
            assemble(Model(elements=elements, uniform_q=1.0))

    def test_hanging_node_rejected(self, unit_material):
        # second triangle's corner sits mid-edge of the first one's side
        elements = [
            MRElement.from_vertices([0, 0], [1, 0], [0, 1], 1, unit_material),
            MRElement.from_vertices([1, 0], [1, 1], [0.5, 0.5], 1,
                                    unit_material),
        ]
        with pytest.raises(NodeMismatch, match=re.escape(
                "element 0 side 1: nodes [4] lie on the side but do not "
                "match its grid (differing m across a shared edge?)")):
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


@pytest.mark.parametrize("x, y", [(np.inf, 0.5), (-np.inf, 0.5), (0.5, np.inf),
                                  (np.nan, 0.5), (0.5, np.nan)])
def test_non_finite_point_load_rejected_without_warning(x, y, unit_material):
    model = square_model(2, unit_material)
    model.point_loads = [(x, y, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideModel, match="outside every element"):
            assemble(model)


@pytest.mark.parametrize("q, loads, named", [
    (np.nan, [], "uniform_q must be finite, got nan"),
    (np.inf, [], "uniform_q must be finite, got inf"),
    (1.0, [(0.3, 0.2, np.nan)], r"point load P at \(0.3, 0.2\) must be finite, got nan"),
    (0.0, [(0.3, 0.2, 1.0), (0.5, 0.5, -np.inf)], "got -inf"),
])
def test_non_finite_load_rejected_before_assembly(q, loads, named, unit_material,
                                                  kernel_calls):
    # without the check the solver would factor K and only then report
    # non-finite values
    model = square_model(2, unit_material, q=q)
    model.point_loads = loads
    with pytest.raises(ValueError, match=named):
        assemble(model)
    assert kernel_calls == []


def test_merge_joins_chains_to_lowest_index():
    """Points within tol of a neighbour merge transitively, and every
    cluster is represented by its lowest point index."""
    coords = np.array([[5.0, 0.0], [1.2, 0.0], [0.0, 0.0], [0.6, 0.0],
                       [5.5, 0.0], [9.0, 0.0]])
    assert _merge_nodes(coords, 1.0).tolist() == [0, 1, 1, 1, 0, 5]
    assert _merge_nodes(coords, 0.1).tolist() == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_merge_tolerance_not_finite_positive_rejected(tol, unit_material):
    # -1 and inf would merge every node into one, NaN none
    model = square_model(2, unit_material)
    model.merge_tolerance = tol
    with pytest.raises(ValueError, match="merge_tolerance"):
        assemble(model)


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_merge_tolerance_none_or_positive_merges_shared_nodes(tol, unit_material):
    model = square_model(2, unit_material)
    model.merge_tolerance = tol
    assert assemble(model).n_nodes == 9


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


    @pytest.mark.parametrize("kind, free", [
        (BCKind.SIMPLY_SUPPORTED, 27 - 1), (BCKind.FREE, 27)])
    def test_zero_length_edge_pins_w_or_nothing(self, unit_material, kind, free):
        for hard in (False, True):
            model = square_model(2, unit_material, kind=kind,
                                 edges=[((0, 0), (0, 0))], hard=hard)
            assert apply_boundary_conditions(assemble(model)).n_free == free

    def test_zero_length_symmetry_edge_rejected(self):
        # its normal, the slope a symmetry edge fixes, is undefined
        with pytest.raises(DimensionMismatch, match="zero length"):
            BoundaryCondition(np.array([(0.5, 0.5), (0.5, 0.5)]), BCKind.SYMMETRY)
        with pytest.raises(DimensionMismatch, match="zero length"):
            BoundaryCondition([(0, 0), (0, 0)], "symmetry")

    def test_kinds_take_their_config_names(self):
        names = CONFIG_SCHEMA["properties"]["bcs"]["items"]["properties"]["kind"]["enum"]
        assert sorted(kind.value for kind in BCKind) == sorted(names)
        for name in names:
            bc = BoundaryCondition([(0, 0), (1, 0)], name)
            assert bc.kind is BCKind(name) and bc.kind.value == name

    def test_parallel_directions_keep_one_rotation(self, unit_material):
        # at the corner (0, 0) the symmetry edge fixes (1, 0) and the hard
        # simply supported edge (0, -1) -> (-1, 0): parallel, so the node
        # keeps one rotation column, the unit normal to the first direction
        system = assemble(square_model(2, unit_material))
        corner = int(np.argmin(np.linalg.norm(system.node_coords, axis=1)))
        sym = BoundaryCondition([(0, 0), (1, 0)], BCKind.SYMMETRY)
        hard = BoundaryCondition([(0, 1), (0, 0)], BCKind.SIMPLY_SUPPORTED, hard=True)
        for bcs, normal in (([sym, hard], (0.0, 1.0)), ([hard, sym], (0.0, -1.0))):
            C = apply_boundary_conditions(system, bcs).C
            rows = C[3 * corner:3 * corner + 3].toarray()
            # w is held: the node has exactly one column, on its rotations
            cols = np.flatnonzero(np.any(rows != 0.0, axis=0))
            assert len(cols) == 1
            assert rows[:, cols[0]].tolist() == [0.0, *normal]

    def test_circle_radius_nodes_keep_normal_rotation(self):
        # symmetry on both radius edges: a node on one of them keeps w and
        # the rotation normal to the edge's tangent; at the centre the two
        # tangents cross and both rotations are fixed
        system = apply_boundary_conditions(assemble(CASES["circle-ss"].build(3)))
        coords, C = system.node_coords, system.C.toarray()
        x, y, tol = coords[:, 0], coords[:, 1], system.merge_tol
        on_x = np.flatnonzero((np.abs(y) <= tol) & (x > tol) & (x < 0.99))
        on_y = np.flatnonzero((np.abs(x) <= tol) & (y > tol) & (y < 0.99))
        assert len(on_x) == len(on_y) == 2
        for nodes, thx_thy in ((on_x, (-0.0, 1.0)), (on_y, (-1.0, 0.0))):
            for n in nodes:
                rows = C[3 * n:3 * n + 3]
                cols = np.flatnonzero(np.any(rows != 0.0, axis=0))
                assert len(cols) == 2
                assert rows[:, cols[0]].tolist() == [1.0, 0.0, 0.0]
                assert rows[1:, cols[1]].tolist() == list(thx_thy)
        centre = int(np.argmin(np.linalg.norm(coords, axis=1)))
        assert C[3 * centre].tolist().count(1.0) == 1
        assert not C[3 * centre + 1:3 * centre + 3].any()


def _reference_reduction(system, bcs):
    """C, K_red and rhs_red by the per-node loop the arrays replaced: one
    constraint tuple per node and fixed dof or rotation direction, a
    greedy drop of directions parallel to one already kept, then one
    Python pass over the nodes."""
    constraints = []
    for bc in bcs:
        dist = _segment_distance(system.node_coords, bc.edge[0], bc.edge[1])
        p1, p2 = bc.edge
        d = p2 - p1
        L = float(np.linalg.norm(d))
        t = d / L if L > 0 else np.array([1.0, 0.0])
        for n in np.nonzero(dist <= system.merge_tol)[0]:
            n = int(n)
            if bc.kind == BCKind.CLAMPED:
                constraints += [(n, "w", None), (n, "rot", np.array([1.0, 0.0])),
                                (n, "rot", np.array([0.0, 1.0]))]
            elif bc.kind == BCKind.SIMPLY_SUPPORTED:
                constraints.append((n, "w", None))
                if bc.hard and L > 0:
                    constraints.append((n, "rot", np.array([t[1], -t[0]])))
            elif bc.kind == BCKind.SYMMETRY:
                constraints.append((n, "rot", t.copy()))
    fix_w, rot_dirs = set(), {}
    for n, component, direction in constraints:
        if component == "w":
            fix_w.add(n)
        else:
            dirs = rot_dirs.setdefault(n, [])
            u = direction / np.linalg.norm(direction)
            if not any(abs(abs(u @ v) - 1.0) <= _PAIR_TOL for v in dirs):
                dirs.append(u)
    rows, cols, vals = [], [], []
    col = 0
    for n in range(system.n_nodes):
        if n not in fix_w:
            rows.append(3 * n)
            cols.append(col)
            vals.append(1.0)
            col += 1
        dirs = rot_dirs.get(n, [])
        if len(dirs) == 0:
            for comp in (1, 2):
                rows.append(3 * n + comp)
                cols.append(col)
                vals.append(1.0)
                col += 1
        elif len(dirs) == 1:
            u = dirs[0]
            rows.extend([3 * n + 1, 3 * n + 2])
            cols.extend([col, col])
            vals.extend([-u[1], u[0]])
            col += 1
    C = sp.coo_matrix((vals, (rows, cols)), shape=(system.n_dofs, col)).tocsr()
    return C, (C.T @ system.K @ C).tocsr(), C.T @ system.rhs


def _csr_bytes(A):
    return (A.shape, A.indptr.dtype.str, A.indices.dtype.str, A.data.dtype.str,
            A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes())


def _assert_reduction_bytes(system, bcs):
    reduced = apply_boundary_conditions(system, bcs)
    C, K_red, rhs_red = _reference_reduction(system, bcs)
    assert _csr_bytes(reduced.C) == _csr_bytes(C)
    assert _csr_bytes(reduced.K_red) == _csr_bytes(K_red)
    assert reduced.K_red.has_canonical_format
    assert reduced.rhs_red.tobytes() == rhs_red.tobytes()


class TestReductionBytes:
    """The array reduction against the per-node loop kept above."""

    @pytest.mark.parametrize("hard_ss", [False, True])
    @pytest.mark.parametrize("name", list(CASES))
    def test_registry_cases(self, name, hard_ss):
        case = CASES[name]
        for m in sorted({1, 3} | {m for m in case.default_ms if m <= 16}):
            system = assemble(case.build(m, hard_ss=hard_ss))
            _assert_reduction_bytes(system, system.model.bcs)

    def test_mixed_edge_pairs(self, unit_material):
        kinds = [(BCKind.CLAMPED, False), (BCKind.SIMPLY_SUPPORTED, False),
                 (BCKind.SIMPLY_SUPPORTED, True), (BCKind.SYMMETRY, False),
                 (BCKind.FREE, False)]
        bottom, left, diagonal = ((0, 0), (1, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 1))
        edge_pairs = [(bottom, left), (bottom, bottom[::-1]), (bottom, diagonal),
                      (diagonal, ((1, 1), (1, 1))), (((0, 0), (0, 0)), left),
                      (((0, 0), (0.5, 0)), ((1, 0), (1, 1)))]
        system = assemble(square_model(3, unit_material))
        checked = 0
        for edges in edge_pairs:
            for pair in itertools.product(kinds, repeat=2):
                if any(k == BCKind.SYMMETRY and e[0] == e[1]
                       for e, (k, _) in zip(edges, pair)):
                    continue
                bcs = [BoundaryCondition(np.array(e, dtype=float), k, hard=hard)
                       for e, (k, hard) in zip(edges, pair)]
                _assert_reduction_bytes(system, bcs)
                checked += 1
        assert checked == 6 * 25 - 2 * 5
        _assert_reduction_bytes(system, [])


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
