"""Mesh plans (`assembly.MeshPlan`, `assembly._mesh_table`): a system
assembled from a kept plan has the bytes of one assembled from nothing,
only a checked mesh keeps a plan, and the table stays within its bound."""
import dataclasses

import numpy as np
import pytest

import triplate.assembly
from triplate import (CASES, MRElement, Model, NodeMismatch, assemble,
                      build_equivalent_mono)
from triplate.assembly import MESH_TABLE_BOUND, _mesh_table
from triplate.oracle import _assemble_twin

from digests import point_load_sites

SCALES = (1, 2, 3, 4, 6, 8, 12, 48)


def system_bytes(system) -> list:
    """dtype, shape and bytes of K (data, indices, indptr), rhs, node_coords
    and each element's nodes, and the merge tolerance with its type."""
    arrays = [system.K.data, system.K.indices, system.K.indptr, system.rhs,
              system.node_coords, *system.element_nodes]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays] + \
        [(type(system.merge_tol), system.merge_tol)]


def cold_and_warm(model):
    """The system of model assembled with the mesh table emptied, and again
    from the plan that assembly kept."""
    _mesh_table.clear()
    cold = assemble(model)
    assert _mesh_table.misses == len(_mesh_table) == 1
    warm = assemble(model)
    assert _mesh_table.misses == 1
    return cold, warm


def assert_warm_equals_cold(model):
    cold, warm = cold_and_warm(model)
    assert system_bytes(warm) == system_bytes(cold)
    # the warm system shares the kept, read-only arrays of the cold one
    assert warm.node_coords is cold.node_coords
    assert all(np.shares_memory(w, c) for w, c in zip(warm.element_nodes, cold.element_nodes))
    for system in (cold, warm):
        assert not any(a.flags.writeable for a in (system.node_coords, *system.element_nodes))


@pytest.mark.parametrize("m", SCALES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_registry_warm_bytes_equal_cold(name, m):
    for hard_ss in (False, True):
        model = CASES[name].build(m, hard_ss=hard_ss)
        assert_warm_equals_cold(model)
        assert_warm_equals_cold(build_equivalent_mono(model).model)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_point_load_models_warm_bytes_equal_cold(name, m):
    """The point-load models of `tests/digests.py`: one load P = 0.7 at each
    kind of site, no uniform load, and their twins."""
    model = CASES[name].build(m)
    for x, y in point_load_sites(model).values():
        loaded = dataclasses.replace(model, uniform_q=0.0, point_loads=[(x, y, 0.7)])
        assert_warm_equals_cold(loaded)
        assert_warm_equals_cold(build_equivalent_mono(loaded).model)


def test_kept_arrays_refuse_writes():
    system = assemble(CASES["square-ss"].build(2))
    with pytest.raises(ValueError, match="read-only"):
        system.node_coords[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        system.element_nodes[1][0] = 0


def moved_origin(model, e: int, axis: int):
    """model with element e's origin one ulp up along axis."""
    elements = list(model.elements)
    frame = elements[e].frame
    origin = frame.origin.copy()
    origin[axis] = np.nextafter(origin[axis], np.inf)
    elements[e] = dataclasses.replace(elements[e],
                                      frame=dataclasses.replace(frame, origin=origin))
    return dataclasses.replace(model, elements=elements)


@pytest.mark.parametrize("change", ["origin x", "origin y", "merge tolerance"])
def test_other_mesh_inputs_miss(change, mesh_table_cleared):
    model = CASES["skew-60"].build(3)
    assemble(model)
    if change == "merge tolerance":
        other = dataclasses.replace(model, merge_tolerance=1e-7)
    else:
        other = moved_origin(model, 1, "xy".index(change[-1]))
    system = assemble(other)
    assert mesh_table_cleared.misses == len(mesh_table_cleared) == 2
    assert system_bytes(system) == system_bytes(cold_and_warm(other)[0])


def test_materials_and_loads_do_not_miss(mesh_table_cleared):
    """Stiffness and loads are computed on every call: a kept plan serves
    the same mesh under other materials, loads and conditions."""
    model = CASES["square-ss"].build(4)
    assemble(model)
    soft = dataclasses.replace(model.elements[0].material, E=3.0)
    other = dataclasses.replace(
        model, uniform_q=-2.5, point_loads=[(0.3, 0.2, 1.0)], bcs=[],
        elements=[dataclasses.replace(model.elements[0], material=soft),
                  model.elements[1]])
    warm = assemble(other)
    assert mesh_table_cleared.misses == 1
    assert system_bytes(warm) == system_bytes(cold_and_warm(other)[0])


def test_given_tolerance_keeps_its_own_type(mesh_table_cleared):
    """A given tolerance keys by its float64 bytes, and each system reports
    its own model's value."""
    model = CASES["square-ss"].build(2)
    for tol in (1e-6, np.float64(1e-6)):
        merge_tol = assemble(dataclasses.replace(model, merge_tolerance=tol)).merge_tol
        assert type(merge_tol) is type(tol) and merge_tol == tol
    assert mesh_table_cleared.misses == 1


def unit_square(m: int, shift: float, unit_material) -> Model:
    elements = [
        MRElement.from_vertices([shift, 0], [shift + 1, 0], [shift + 1, 1], m, unit_material),
        MRElement.from_vertices([shift, 0], [shift + 1, 1], [shift, 1], m, unit_material),
    ]
    return Model(elements=elements, uniform_q=1.0)


def test_table_keeps_its_bound(unit_material, mesh_table_cleared):
    assert mesh_table_cleared.bound == MESH_TABLE_BOUND
    for k in range(MESH_TABLE_BOUND + 6):
        assemble(unit_square(1, float(k), unit_material))
        assert len(mesh_table_cleared) == min(k + 1, MESH_TABLE_BOUND)
    assert mesh_table_cleared.misses == MESH_TABLE_BOUND + 6


def test_evicted_plan_rebuilds_its_bytes(unit_material, monkeypatch, mesh_table_cleared):
    monkeypatch.setattr(mesh_table_cleared, "bound", 2)
    models = [unit_square(m, 0.0, unit_material) for m in (2, 3, 4)]
    first = assemble(models[0])
    for model in models[1:]:
        assemble(model)
    assert len(mesh_table_cleared) == 2
    again = assemble(models[0])
    assert mesh_table_cleared.misses == 4
    assert again.node_coords is not first.node_coords
    assert system_bytes(again) == system_bytes(first)


def mismatched_scales(unit_material) -> Model:
    elements = [MRElement.from_vertices([0, 0], [1, 0], [1, 1], 2, unit_material),
                MRElement.from_vertices([0, 0], [1, 1], [0, 1], 1, unit_material)]
    return Model(elements=elements, uniform_q=1.0)


def hanging_node(unit_material) -> Model:
    elements = [MRElement.from_vertices([0, 0], [1, 0], [0, 1], 1, unit_material),
                MRElement.from_vertices([1, 0], [1, 1], [0.5, 0.5], 1, unit_material)]
    return Model(elements=elements, uniform_q=1.0)


@pytest.mark.parametrize("build, error", [
    (mismatched_scales, NodeMismatch),
    (hanging_node, NodeMismatch),
    (lambda mat: dataclasses.replace(CASES["square-ss"].build(2), merge_tolerance=-1.0),
     ValueError),
    (lambda mat: dataclasses.replace(CASES["square-ss"].build(2), merge_tolerance=np.nan),
     ValueError),
])
def test_mesh_that_raises_keeps_no_plan(build, error, unit_material, mesh_table_cleared):
    model = build(unit_material)
    for _ in range(2):
        with pytest.raises(error):
            assemble(model)
    assert len(mesh_table_cleared) == mesh_table_cleared.misses == 0


def test_plan_of_an_unchecked_mesh_poisons_until_cleared(unit_material, monkeypatch,
                                                         mesh_table_cleared):
    """Why every test that patches a mesh helper empties the table: with
    `_check_edge_conformity` patched out, a non-conforming mesh keeps a
    plan, and later assemblies of that mesh take it unchecked."""
    model = mismatched_scales(unit_material)
    with monkeypatch.context() as patch:
        patch.setattr(triplate.assembly, "_check_edge_conformity", lambda *args: None)
        assemble(model)
    assemble(model)
    mesh_table_cleared.clear()
    with pytest.raises(NodeMismatch):
        assemble(model)


def test_plan_hit_searches_no_pairs(monkeypatch, mesh_table_cleared):
    """A cold assembly searches pairs twice, for the merge and for the
    conformity check; a plan hit not at all."""
    calls = []
    original = triplate.assembly.pairs_within
    monkeypatch.setattr(triplate.assembly, "pairs_within",
                        lambda *args: calls.append(len(args[0])) or original(*args))
    model = CASES["circle-ss"].build(3)
    assemble(model)
    assert len(calls) == 2
    assemble(model)
    assert len(calls) == 2


class Forbidden:
    def __getattr__(self, name):
        raise AssertionError(f"the mesh table was read: {name}")


@pytest.mark.parametrize("name", ["skew-60", "circle-ss"])
def test_oracle_twin_reads_no_plan(name, monkeypatch):
    """The oracle's own twin assembly merges its nodes itself: it stays
    independent of the plans of the multiresolution path."""
    mono = build_equivalent_mono(CASES[name].build(3))
    kept = _assemble_twin(mono)
    monkeypatch.setattr(triplate.assembly, "_mesh_table", Forbidden())
    with pytest.raises(AssertionError, match="mesh table was read"):
        assemble(mono.model)
    twin = _assemble_twin(mono)
    assert system_bytes(twin) == system_bytes(kept)
