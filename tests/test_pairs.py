"""The grid pair search `geometry.pairs_within` against scipy's k-d tree,
kept here as the reference: the node merge, the side search of the
conformity check and the oracle's node match."""
import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_array_equal
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from triplate import CASES, PermutationNotFound, assemble, build_equivalent_mono
from triplate.assembly import _merge_nodes, _merge_tolerance, _node_coords
from triplate.geometry import FrameStack, pairs_within
from triplate.oracle import _assemble_twin, _node_permutation


def kdtree_pairs(coords, tol):
    return set(map(tuple, cKDTree(coords).query_pairs(tol, output_type="ndarray").tolist()))


def grid_pairs(coords, tol):
    i, j = pairs_within(coords, coords, tol)
    return set(zip(i[i < j].tolist(), j[i < j].tolist()))


def kdtree_merge(coords, tol):
    """Each point's lowest-index point of its connected component of the
    k-d tree's pairs within tol."""
    n = len(coords)
    pairs = cKDTree(coords).query_pairs(tol, output_type="ndarray")
    graph = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    label = connected_components(graph, directed=False)[1]
    low = np.full(label.max() + 1, n)
    np.minimum.at(low, label, np.arange(n))
    return low[label]


def assert_matches_kdtree(coords, tol, centers=None, radii=None):
    assert grid_pairs(coords, tol) == kdtree_pairs(coords, tol)
    assert_array_equal(_merge_nodes(coords, tol), kdtree_merge(coords, tol))
    if centers is not None:
        i, j = pairs_within(centers, coords, radii)
        assert np.all(np.diff(i) >= 0)
        near = cKDTree(coords).query_ball_point(centers, radii)
        assert [sorted(j[i == c].tolist()) for c in range(len(centers))] == \
            [sorted(ids) for ids in near]


def model_and_twin_coords(case, m):
    """Node coords and merge tolerance of a registry model and of its twin,
    as `assemble` and `oracle._assemble_twin` merge them."""
    model = case.build(m)
    ms = np.array([el.m for el in model.elements])
    coords = _node_coords(FrameStack.of([el.frame for el in model.elements]), ms,
                          (ms + 1) * (ms + 2) // 2)
    mono = build_equivalent_mono(model)
    twin = mono.frames.vertices.reshape(-1, 2)
    return [(coords, _merge_tolerance(model, coords)),
            (twin, _merge_tolerance(mono.model, twin))]


@pytest.mark.parametrize("name", sorted(CASES))
def test_merge_of_every_model_and_twin(name):
    case = CASES[name]
    for m in sorted({1, 3, 32, 48} | set(case.default_ms)):
        for coords, tol in model_and_twin_coords(case, m):
            assert_matches_kdtree(coords, tol)


def test_seeded_clouds_on_the_tolerance():
    """Coordinates on a grid of 0.25 (distances exactly at tol) or rounded
    to 0.1 (distances a rounding off tol), with duplicates, single points
    and collinear clouds; centers with their own radii besides."""
    rng = np.random.default_rng(23)
    kinds = set()
    for round_ in range(300):
        n = int(rng.integers(1, 60))
        if round_ % 2:
            coords = rng.integers(0, 12, (n, 2)) * 0.25
        else:
            coords = np.round(rng.random((n, 2)) * 3.0, 1)
        if round_ % 3 == 0:
            coords[:, 1] = coords[0, 1]
            kinds.add("collinear")
        if round_ % 5 == 0:
            coords = np.concatenate([coords, coords[rng.integers(0, n, n // 2 + 1)]])
        kinds.add("duplicates" if len(np.unique(coords, axis=0)) < len(coords) else "distinct")
        kinds.add("single" if len(coords) == 1 else "many")
        tol = float(rng.choice([0.1, 0.25, 0.3, 0.5, 2 ** 0.5 / 4, 0.75, 1.0]))
        centers = np.round(rng.random((8, 2)) * 3.0, 1)
        radii = np.round(rng.random(8), 1) + np.where(rng.random(8) < 0.5, 0.25, 0.0)
        assert_matches_kdtree(coords, tol, centers, radii)
    assert kinds == {"collinear", "duplicates", "distinct", "single", "many"}


@pytest.mark.parametrize("shift", [0.0, 1e12, -1e12])
@pytest.mark.parametrize("tol", [1e-300, 0.25, 5.0, 1e13])
def test_extreme_tolerances_and_offsets(shift, tol):
    """tol 1e-300 takes duplicates only and tol above the span every pair;
    the cell keys fit in int64 at either, with coordinates far off 0."""
    coords = _node_coords(FrameStack.of([el.frame for el in CASES["skew-60"].build(4).elements]),
                          np.array([4, 4]), np.array([15, 15]))
    coords = np.concatenate([coords, coords[:5], [[1.0, 0.25]]]) + shift
    assert_matches_kdtree(coords, tol, coords[::3] + 0.125, np.full(len(coords[::3]), tol))
    if tol == 1e-300:
        i, j = pairs_within(coords, coords, tol)
        assert np.all(coords[i] == coords[j])
    if tol == 1e13:
        assert len(grid_pairs(coords, tol)) == len(coords) * (len(coords) - 1) // 2


def test_one_point_and_no_points():
    one = np.array([[2.0, -1.0]])
    for tol in (0.0, 1e-300, 1.0):
        assert [x.tolist() for x in pairs_within(one, one, tol)] == [[0], [0]]
    assert [len(x) for x in pairs_within(np.zeros((0, 2)), one, 1.0)] == [0, 0]
    assert [len(x) for x in pairs_within(one, np.zeros((0, 2)), 1.0)] == [0, 0]


def systems(name, m):
    model = CASES[name].build(m)
    return assemble(model), _assemble_twin(build_equivalent_mono(model))


@pytest.mark.parametrize("name", sorted(CASES))
def test_node_permutation_is_the_nearest_node(name):
    for m in (1, 3, 8):
        multi, mono = systems(name, m)
        nearest = cKDTree(multi.node_coords).query(mono.node_coords)[1]
        assert_array_equal(_node_permutation(multi, mono), nearest)


def test_node_permutation_rejects_mismatched_tables():
    multi, mono = systems("skew-60", 3)
    tol = max(multi.merge_tol, mono.merge_tol)
    moved = mono.node_coords.copy()
    moved[4] += [0.0, 0.5 * tol]
    mono.node_coords = moved
    assert_array_equal(_node_permutation(multi, mono),
                       cKDTree(multi.node_coords).query(moved)[1])
    for node, new in [(4, moved[4] + [2.0 * tol, 0.0]), (4, moved[7])]:
        mono.node_coords = moved.copy()
        mono.node_coords[node] = new
        with pytest.raises(PermutationNotFound, match="one-to-one"):
            _node_permutation(multi, mono)
    mono.node_coords = moved + [10.0, 0.0]
    with pytest.raises(PermutationNotFound, match="one-to-one"):
        _node_permutation(multi, mono)
    with pytest.raises(PermutationNotFound, match="node counts differ"):
        _node_permutation(multi, systems("skew-60", 4)[1])
