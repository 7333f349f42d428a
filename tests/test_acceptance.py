"""Acceptance checklist for the multiresolution plate package.

One test per criterion, each printing a single scorecard line

    criterion N: PASS/FAIL - detail

before asserting, so `pytest tests/test_acceptance.py -v -s` reads as a
report.  Criteria 1-5 compare the benchmark probes against the stored
reference coefficient tables at their stated tolerances, criterion 6
checks the refinable/conventional equivalence rows, criterion 7 re-runs
the basis and operator property suite compactly, and criterion 8 checks
node-count parity and prints the dof-count report.

A FAIL here is a finding, not a broken test: the detail line carries the
measured values so the disagreement with the stored reference tables is
visible.  See the benchmark registry docstrings for provenance of the
reference sequences.
"""
import time

import numpy as np
import pytest

from triplate import (BCKind, BoundaryCondition, MRElement, Model,
                      PlateMaterial, apply_boundary_conditions, assemble,
                      basis_eval, canonicalize_triangle, element_load_point,
                      element_load_uniform, element_stiffness, field_eval,
                      grid_indices, node_ordinal, node_position, reactions,
                      run_benchmark, run_case, solve_system)

from conftest import random_triangle
from test_shapefn import cell_interpolate, field_dofs

MATERIAL = PlateMaterial(E=10.92, t=1.0, nu=0.3)


@pytest.fixture(scope="module")
def rows():
    return run_benchmark()["rows"]


def _verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def probe_rows(rows, case, quantity):
    return [r for r in rows
            if r["case"] == case and r["quantity"] == quantity]


def _fmt(rs):
    return ", ".join(f"m={r['m']}: {r['value']:.4f} vs ref {r['expected']}"
                     f" [{r['status']}]" for r in rs)


def _all_ok(rs, n_expected):
    return len(rs) == n_expected and all(r["status"] == "ok" for r in rs)


def test_criterion_1_square_ss_deflection(rows):
    rs = probe_rows(rows, "square-ss", "deflection_center_100wD_qL4")
    t0 = time.perf_counter()
    run_case("square-ss", check_equivalence=False)
    elapsed = time.perf_counter() - t0
    ok = _all_ok(rs, 4) and elapsed < 5.0
    assert _verdict(
        1, ok, _fmt(rs) + f"; runtime {elapsed:.2f}s (limit 5s)")


def test_criterion_2_square_clamped_deflection(rows):
    rs = probe_rows(rows, "square-clamped", "deflection_center_100wD_qL4")
    assert _verdict(2, _all_ok(rs, 4), _fmt(rs))


def test_criterion_3_square_moments(rows):
    mid = probe_rows(rows, "square-ss", "moment_center_10M_qL2")
    edge = probe_rows(rows, "square-clamped", "moment_edge_middle_10M_qL2")
    ok = _all_ok(mid, 4) and _all_ok(edge, 4)
    assert _verdict(3, ok, "ss center " + _fmt(mid)
                    + "; clamped edge " + _fmt(edge))


def test_criterion_4_skew_deflection(rows):
    rs = probe_rows(rows, "skew-60", "deflection_center_100wD_qL4")
    assert _verdict(4, _all_ok(rs, 3), _fmt(rs) + "; analytic 0.7945")


def test_criterion_5_circle_quadrant(rows):
    clamped = probe_rows(rows, "circle-clamped", "deflection_center_wD_qr4")
    ss_w = probe_rows(rows, "circle-ss", "deflection_center_wD_qr4")
    ss_m = probe_rows(rows, "circle-ss", "moment_center_M_qr2")
    primary = _all_ok(clamped, 2) and _all_ok(ss_w, 2) and _all_ok(ss_m, 2)

    # fallback: straight-chord model at m=12 against the analytic disk
    # row, 2% relative
    analytic = {"clamped w": 0.0156, "ss w": 0.0637, "ss Mx": 0.20625}
    r12c = run_case("circle-clamped", ms=(12,), check_equivalence=False)
    r12s = run_case("circle-ss", ms=(12,), check_equivalence=False)
    measured = {
        "clamped w": r12c[0]["value"],
        "ss w": [r for r in r12s
                 if r["quantity"].startswith("deflection")][0]["value"],
        "ss Mx": [r for r in r12s
                  if r["quantity"].startswith("moment")][0]["value"],
    }
    fallback = all(abs(measured[k] - analytic[k]) <= 0.02 * abs(analytic[k])
                   for k in analytic)
    fb_txt = ", ".join(f"{k}={measured[k]:.5f} vs {analytic[k]}"
                       for k in analytic)
    detail = ("primary " + _fmt(clamped + ss_w + ss_m)
              + f"; fallback m=12 {fb_txt} "
              + ("within" if fallback else "outside") + " 2%")
    assert _verdict(5, primary or fallback, detail)


def test_criterion_6_refinable_conventional_equivalence(rows):
    rs = [r for r in rows if r["quantity"] == "equivalence_max_diff"]
    ok = _all_ok(rs, 15)
    worst = max(r["value"] for r in rs)
    assert _verdict(
        6, ok,
        f"{len(rs)} case/scale pairs, worst combined diff {worst:.2e}"
        " (tol 1e-9)")


def _square_models():
    def build(rot=0.0, shift=(0.0, 0.0)):
        c, s = np.cos(rot), np.sin(rot)
        R = np.array([[c, -s], [s, c]])
        pt = lambda p: R @ np.asarray(p, float) + shift
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        els = [MRElement.from_vertices(pt((0, 0)), pt((1, 0)), pt((1, 1)),
                                       2, MATERIAL),
               MRElement.from_vertices(pt((0, 0)), pt((1, 1)), pt((0, 1)),
                                       2, MATERIAL)]
        bcs = [BoundaryCondition(np.array([pt(a), pt(b)]), BCKind.CLAMPED)
               for a, b in zip(corners, corners[1:] + corners[:1])]
        return Model(elements=els, uniform_q=1.0, bcs=bcs), pt((0.5, 0.5))
    return build


def _criterion7_checks(rng):
    frame = canonicalize_triangle([0.0, 0.0], [1.1, 0.0], [0.4, 0.9])
    m = 3
    nodes = grid_indices(m)
    pos = np.array([node_position(frame, m, idx) for idx in nodes])

    def kronecker():
        for k, idx in enumerate(nodes):
            t = basis_eval(frame, m, idx, pos)
            delta = np.zeros(len(pos))
            delta[k] = 1.0
            assert np.allclose(t.w.value, delta, atol=1e-10)
            assert np.allclose(t.w.grad, 0.0, atol=1e-10)
            assert np.allclose(t.thx.value, 0.0, atol=1e-10)
            assert np.allclose(t.thx.grad[:, 1], delta, atol=1e-10)
            assert np.allclose(t.thy.value, 0.0, atol=1e-10)
            assert np.allclose(t.thy.grad[:, 0], -delta, atol=1e-10)

    def partition_of_unity():
        lam = rng.dirichlet([2.0, 2.0, 2.0], size=30)
        pts = lam @ frame.local_vertices()
        total = sum(basis_eval(frame, m, idx, pts).w.value for idx in nodes)
        assert np.allclose(total, 1.0, atol=1e-11)

    def continuity():
        from triplate import subtriangle_partition
        dofs = rng.standard_normal(3 * len(nodes))
        tris = subtriangle_partition(frame, m)
        pairs = [(ta, tb, sorted(set(ta.corner_nodes) & set(tb.corner_nodes)))
                 for i, ta in enumerate(tris) for tb in tris[i + 1:]
                 if len(set(ta.corner_nodes) & set(tb.corner_nodes)) == 2]
        for ta, tb, shared in pairs:
            p1 = node_position(frame, m, shared[0])
            p2 = node_position(frame, m, shared[1])
            t = (p2 - p1) / np.linalg.norm(p2 - p1)
            p = 0.37 * p1 + 0.63 * p2
            va, ga, _ = cell_interpolate(frame, m, ta, dofs, p)
            vb, gb, _ = cell_interpolate(frame, m, tb, dofs, p)
            assert abs(va[0] - vb[0]) < 1e-11
            assert abs(ga[0] @ t - gb[0] @ t) < 1e-10

    def derivative_consistency():
        idx, h = (1, 1), 1e-6
        base = pos[node_ordinal(m, idx)] + np.array([0.021, 0.013])
        t = basis_eval(frame, m, idx, base[None, :])
        for comp_i, f in enumerate(t.functions()):
            for d in range(2):
                e = np.zeros(2)
                e[d] = h
                fp = basis_eval(frame, m, idx,
                                (base + e)[None, :]).functions()[comp_i]
                fm = basis_eval(frame, m, idx,
                                (base - e)[None, :]).functions()[comp_i]
                fd = (fp.value[0] - fm.value[0]) / (2 * h)
                assert abs(f.grad[0, d] - fd) < 2e-6

    def quadratic_reproduction():
        from triplate import subtriangle_partition
        fun = lambda x, y: x * x + 0.5 * x * y - y * y + x
        grad = lambda x, y: (2 * x + 0.5 * y + 1.0, 0.5 * x - 2 * y)
        dofs = field_dofs(frame, m, fun, grad)
        for tri in subtriangle_partition(frame, m):
            p = np.mean([node_position(frame, m, c)
                         for c in tri.corner_nodes], axis=0)
            val, g, hess = cell_interpolate(frame, m, tri, dofs, p)
            assert abs(val[0] - fun(*p)) < 1e-10
            assert np.allclose(g[0], grad(*p), atol=1e-9)
            assert np.allclose(hess[0], [2.0, -2.0, 0.5], atol=1e-8)

    def stiffness_spectrum():
        elem = MRElement.from_vertices(*random_triangle(rng), 2, MATERIAL)
        K = element_stiffness(elem).toarray()
        assert np.allclose(K, K.T, atol=1e-12 * np.abs(K).max())
        w = np.linalg.eigvalsh(K)
        assert w[0] > -1e-10 * w[-1]
        assert np.sum(w < 1e-9 * w[-1]) == 3

    def bandedness():
        elem = MRElement.from_vertices(*random_triangle(rng), 3, MATERIAL)
        K = element_stiffness(elem).toarray()
        block = lambda i, j: K[elem.dof_slice(i), elem.dof_slice(j)]
        assert np.all(block((0, 0), (2, 0)) == 0.0)
        assert np.all(block((0, 0), (3, 3)) == 0.0)
        assert np.abs(block((0, 0), (1, 0))).max() > 0.0

    def load_totals():
        elem = MRElement.from_vertices(*random_triangle(rng), 2, MATERIAL)
        q = 1.3
        f = element_load_uniform(elem, q)
        assert abs(f[0::3].sum() - q * elem.frame.area) < 1e-12 * q
        idx = (1, 1)
        fp = element_load_point(elem, 2.5,
                                node_position(elem.frame, elem.m, idx))
        target = np.zeros(elem.dof_count)
        target[3 * node_ordinal(elem.m, idx)] = 2.5
        assert np.allclose(fp, target, atol=1e-10)

    def rotation_invariance():
        build = _square_models()
        base, center = build()
        rot, center_r = build(rot=0.7, shift=(0.4, -1.2))
        w0 = field_eval(solve_system(apply_boundary_conditions(
            assemble(base))), center)[0]
        w1 = field_eval(solve_system(apply_boundary_conditions(
            assemble(rot))), center_r)[0]
        assert abs(w1 - w0) < 1e-9 * abs(w0)

    def reaction_balance():
        build = _square_models()
        model, _ = build()
        model.point_loads = [(0.3, 0.4, 2.0)]
        sol = solve_system(apply_boundary_conditions(assemble(model)))
        r = reactions(sol)
        assert abs(r[0::3].sum() + 3.0) < 1e-10 * 3.0
        unconstrained = np.asarray(
            abs(sol.system.C).sum(axis=1)).ravel() > 0
        assert np.abs(r[unconstrained]).max() < 1e-10 * np.abs(r).max()

    return [kronecker, partition_of_unity, continuity,
            derivative_consistency, quadratic_reproduction,
            stiffness_spectrum, bandedness, load_totals,
            rotation_invariance, reaction_balance]


def test_criterion_7_property_suite():
    rng = np.random.default_rng(20250817)
    failures = []
    checks = _criterion7_checks(rng)
    for check in checks:
        try:
            check()
        except AssertionError:
            failures.append(check.__name__)
    ok = not failures
    detail = (f"all {len(checks)} property checks pass" if ok
              else "failing: " + ", ".join(failures))
    assert _verdict(7, ok, detail)


def test_criterion_8_node_count_parity(rows):
    rs = [r for r in rows if r["quantity"] == "node_count_vs_conventional"]
    ok = _all_ok(rs, 15)
    print("dof-count report (refinable model vs per-cell conventional "
          "assembly):")
    for r in rs:
        nodes = int(r["value"])
        print(f"  {r['case']:<15} m={r['m']:<3} rl={r['rl']:<5} "
              f"nodes={nodes:<4} dofs={3 * nodes:<5} "
              f"conventional nodes={int(r['expected'])} [{r['status']}]")
    assert _verdict(8, ok, f"{len(rs)} case/scale pairs, node counts match"
                    if ok else f"parity violated in {len(rs)} rows")
