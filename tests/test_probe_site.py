"""The probe site: each solution keeps where it last probed.

`field_eval` and `moment_eval` keep, per solution, the site of the last
point probed (`solve._site`): the point's owning elements, its local
coordinates in each and, filled on first use, the cells located there.
A probe must give the bytes it gives with the site cleared before every
call, raise where it raised, and look a point up and locate it once per
point, not once per probe call.  The first probe to read an owning
element evaluates every cell of it that holds the point in one kernel
call, and the site keeps cell 0's value and gradient and every cell's
curvatures, so a field and moment pair makes one kernel call per owning
element, and a probe makes none for an element evaluated there before.
"""
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import triplate.solve
from triplate import (CASES, MomentTriple, OutsideModel, Solution,
                      apply_boundary_conditions, assemble, field_eval, moment_eval,
                      solve_system)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import LATTICE, PROBE_CASE, PROBE_M, probe_pool  # noqa: E402


def solved(name, m):
    return solve_system(apply_boundary_conditions(assemble(CASES[name].build(m))))


def outcome(call, sol, p, clear=False):
    """The bytes of call(sol, p), or the type and message it raised; with
    clear, the solution's site is dropped first."""
    if clear:
        sol.__dict__.pop("_site", None)
    try:
        out = call(sol, p)
    except OutsideModel as exc:
        return type(exc), str(exc)
    if isinstance(out, MomentTriple):
        out = (out.mx, out.my, out.mxy)
    assert all(type(v) is float for v in out)
    return np.array(out).tobytes()


def pair_outcomes(sol, points, clear):
    return [outcome(call, sol, p, clear) for p in points
            for call in (field_eval, moment_eval)]


def case_points(model):
    """Global element nodes (corners among them), cell centroids and cell
    edge midpoints of every element, a NaN and an outside point."""
    pts = []
    for elem in model.elements:
        cells = elem.partition()
        local = [*elem.node_positions_local(), *cells.mean(axis=1),
                 *(0.5 * (cells + cells[:, [1, 2, 0]])).reshape(-1, 2)]
        pts += list(elem.frame.to_global(np.array(local)))
    return pts + [np.array([np.nan, 0.2]), np.array([50.0, -3.0])]


def test_pool_bytes_equal_cleared_site():
    sol = solved(PROBE_CASE, PROBE_M)
    pool = probe_pool()
    points = [(x / LATTICE, y / LATTICE) for kind in ("node", "edge", "interior")
              for x, y in pool[kind]]
    assert len(points) == 1369
    assert pair_outcomes(sol, points, False) == pair_outcomes(sol, points, True)


def test_pool_one_kernel_call_per_owning_element(monkeypatch):
    # every probe-grid point, on nodes, on the shared diagonal and inside
    # cells: a pair at a fresh point evaluates each owning element's cells
    # in one call, owner 0's from the field; repeated, nothing calls
    sol = solved(PROBE_CASE, PROBE_M)
    calls = []
    original = triplate.solve.subtriangle_basis

    def counting(frame, m, vertices, *args, **kwargs):
        calls.append((frame, len(vertices)))
        return original(frame, m, vertices, *args, **kwargs)

    monkeypatch.setattr(triplate.solve, "subtriangle_basis", counting)
    pool = probe_pool()
    elements = sol.system.model.elements
    owners_seen = Counter()
    for kind in ("node", "edge", "interior"):
        for x, y in pool[kind]:
            p = (x / LATTICE, y / LATTICE)
            sol.__dict__.pop("_site", None)
            calls.clear()
            field_eval(sol, p)
            moment_eval(sol, p)
            owners, _, cells = sol.__dict__["_site"][1:]
            assert calls == [(elements[e].frame, len(cells[e][0])) for e in owners]
            owners_seen[len(owners)] += 1
            calls.clear()
            field_eval(sol, p)
            moment_eval(sol, p)
            assert calls == []
    # the 25 nodes and 144 edge points of the shared diagonal have two
    # owning elements
    assert owners_seen == {1: 625 - 25 + 600, 2: 25 + 144}


@pytest.mark.parametrize("name", list(CASES))
def test_registry_bytes_equal_cleared_site(name):
    sol = solved(name, 3)
    points = case_points(sol.system.model)
    got = pair_outcomes(sol, points, False)
    assert got == pair_outcomes(sol, points, True)
    assert sum(isinstance(o, tuple) for o in got) == 4


def test_interleavings_bytes_equal_cleared_site():
    sol = solved("square-ss", 4)
    reference = Solution(sol.system, sol.dofs, sol.residual)
    # inside a cell, a node on the shared diagonal, a point on it and a
    # second point in p's cell
    p, q, r, s = (0.31, 0.12), (0.5, 0.5), (0.3, 0.3), (0.33, 0.14)
    sequences = [[(field_eval, p), (moment_eval, p), (field_eval, q), (moment_eval, q),
                  (field_eval, p), (moment_eval, p)],
                 [(moment_eval, p), (field_eval, p)],
                 [(moment_eval, q), (field_eval, q), (moment_eval, r), (field_eval, r)],
                 [(moment_eval, q)] * 3,
                 [(field_eval, r)] * 2 + [(moment_eval, r)],
                 # kept curvatures serve neither another point of the cell
                 # nor another owning element
                 [(field_eval, p), (moment_eval, s)],
                 [(field_eval, r), (moment_eval, r)],
                 [(field_eval, p), (field_eval, s), (moment_eval, p)]]
    for seq in sequences:
        for call, point in seq:
            assert outcome(call, sol, point) == outcome(call, reference, point, True)


def test_other_solution_never_reads_the_site():
    sol = solved("square-ss", 3)
    twice = Solution(sol.system, 2.0 * sol.dofs, sol.residual)
    for p in [(0.31, 0.12), (0.5, 0.5), (0.0, 0.0)]:
        w, mom = field_eval(sol, p), moment_eval(sol, p)
        # a site that would fail any probe reading it: no owning element
        key = np.asarray(p, dtype=float).tobytes()
        sol.__dict__["_site"] = (key, [], np.zeros((0, 2)), {})
        # doubling the dofs doubles every product and sum exactly
        assert field_eval(twice, p) == tuple(2.0 * v for v in w)
        assert moment_eval(twice, p) == MomentTriple(2.0 * mom.mx, 2.0 * mom.my,
                                                     2.0 * mom.mxy)
        assert twice.__dict__["_site"][0] == key
        with pytest.raises(IndexError):
            field_eval(sol, p)
        sol.__dict__.pop("_site")


def test_point_is_its_two_coordinates():
    sol = solved("square-ss", 3)
    want = [outcome(call, sol, (0.3, 0.2)) for call in (field_eval, moment_eval)]
    for p in ([0.3, 0.2], np.array([[0.3, 0.2]]), np.array([[0.3], [0.2]])):
        assert [outcome(call, sol, p, True) for call in (field_eval, moment_eval)] == want
    for call in (field_eval, moment_eval):
        with pytest.raises(ValueError):
            call(sol, (0.3, 0.2, 0.1))


@pytest.mark.parametrize("p", [(np.nan, 0.2), (0.2, np.inf), (50.0, -3.0), (-0.5, 0.5)])
def test_point_outside_raises_and_keeps_nothing(p):
    sol = solved("square-ss", 3)
    for call in (field_eval, moment_eval):
        with pytest.raises(OutsideModel):
            call(sol, p)
        assert "_site" not in sol.__dict__
    field_eval(sol, (0.3, 0.2))
    kept = sol.__dict__["_site"]
    for call in (field_eval, moment_eval):
        with pytest.raises(OutsideModel):
            call(sol, p)
        assert sol.__dict__["_site"] is kept


@pytest.mark.parametrize("p, owners", [((0.31, 0.12), 1), ((0.5, 0.5), 2),
                                       ((0.3, 0.3), 2), ((1.0, 0.0), 1)])
def test_one_lookup_per_pair_one_locate_per_element(p, owners, monkeypatch):
    sol = solved("square-ss", 4)
    lookups, locates = [], Counter()
    lookup, locate = triplate.solve._owning_element, triplate.solve.locate_subtriangle

    def counting_lookup(*args):
        lookups.append(1)
        return lookup(*args)

    def counting_locate(elem, p_loc):
        locates[id(elem)] += 1
        return locate(elem, p_loc)

    monkeypatch.setattr(triplate.solve, "_owning_element", counting_lookup)
    monkeypatch.setattr(triplate.solve, "locate_subtriangle", counting_locate)
    field_eval(sol, p)
    # a field reads the first owning element alone
    assert (len(lookups), sum(locates.values())) == (1, 1)
    moment_eval(sol, p)
    moment_eval(sol, p)
    field_eval(sol, p)
    assert len(lookups) == 1
    assert len(locates) == owners and set(locates.values()) == {1}
    # a new point is looked up and located anew
    moment_eval(sol, (0.7, 0.1))
    assert len(lookups) == 2 and sum(locates.values()) == owners + 1


@pytest.mark.parametrize("p, field, moment", [((0.31, 0.12), [3], []),
                                              ((0.5, 0.5), [9], [9])])
def test_field_kernel_call_serves_the_moment(p, field, moment, kernel_calls):
    # three domains per cell: inside a cell the moment reads the field's
    # cell; at the diagonal node the field evaluates owner 0's three cells
    # and the moment owner 1's three
    sol = solved("square-ss", 4)
    kernel_calls.clear()
    field_eval(sol, p)
    assert kernel_calls == field
    moment_eval(sol, p)
    assert kernel_calls == field + moment


def test_moment_first_then_field_then_no_call(kernel_calls):
    sol = solved("square-ss", 4)
    kernel_calls.clear()
    moment_eval(sol, (0.5, 0.5))
    assert kernel_calls == [9, 9]
    # the field reads owner 0's cell 0 from the moment's call
    field_eval(sol, (0.5, 0.5))
    assert kernel_calls == [9, 9]
    moment_eval(sol, (0.5, 0.5))
    moment_eval(sol, (0.5, 0.5))
    field_eval(sol, (0.5, 0.5))
    assert kernel_calls == [9, 9]


@pytest.mark.parametrize("p", [(0.31, 0.12), (0.5, 0.5), (0.3, 0.3)])
def test_repeated_moments_make_no_call(p, kernel_calls):
    sol = solved("square-ss", 4)
    first = moment_eval(sol, p)
    kernel_calls.clear()
    assert moment_eval(sol, p) == first
    assert moment_eval(sol, p) == first
    assert kernel_calls == []
