"""Acceptance checklist for the multiresolution plate package.

One test per criterion, each printing a single scorecard line

    criterion N: PASS/FAIL - detail

before asserting, so `pytest tests/test_acceptance.py -v -s` reads as a
report.  Criteria 1-5 check that each benchmark probe converges to the
plate the model describes: the probe is run at m = 16, 32 and 64, its
error must shrink at each doubling, and the Aitken delta-squared limit of
the three values must lie within the criterion's tolerance of a value
from outside ``triplate`` (the Navier series, a cited constant, or the
reference solver in ``plate_reference.py``, which has to pass its own
self-check first).  Criterion 6 checks the refinable/conventional
equivalence rows, criterion 7 re-runs the basis and operator property
suite compactly, and criterion 8 checks node-count parity and prints the
dof-count report.

Criteria 1-5 do not compare against the reference sequences stored in
the benchmark registry (``ProbeSpec.expected``).  No file gives a source
for those rows, and they are not values this element reaches: the
stored square deflections approach the limits from below while the
element's come from above, the skew rows are not monotone, and the
circle rows are disk values that the straight-chord (octagon) model
cannot reach.  The detail lines still print them with their status.  If
a source is ever added that shows the paper's element giving those rows
on these meshes, the program is at fault and criteria 1-4 should go back
to them.

A FAIL here is a finding, not a broken test: the detail line carries the
measured values.  Criterion 5 fails on the centre moment of circle-ss,
because ``moment_eval`` recovers the moment at the model corner (0, 0)
from too few cells.
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

import plate_reference
from conftest import partition_cells, random_triangle
from test_shapefn import cell_interpolate, field_dofs

MATERIAL = PlateMaterial(E=10.92, t=1.0, nu=0.3)

#: scales of the convergence sequences for criteria 1-5
SEQUENCE_MS = (16, 32, 64)


@pytest.fixture(scope="module")
def rows():
    return run_benchmark()["rows"]


@pytest.fixture(scope="module")
def sequences():
    """Probe values at SEQUENCE_MS, keyed by (case, quantity)."""
    out = {}
    for name in ("square-ss", "square-clamped", "skew-60", "circle-clamped",
                 "circle-ss"):
        for r in run_case(name, ms=SEQUENCE_MS, check_equivalence=False):
            out.setdefault((name, r["quantity"]), []).append(r["value"])
    return out


@pytest.fixture(scope="module")
def reference():
    """The reference solver module, once it has passed its self-check."""
    failures = plate_reference.self_check_failures()
    if failures:
        pytest.fail("reference solver fails its self-check: "
                    + "; ".join(failures))
    return plate_reference


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


def _converges(values, exact, tol, source):
    """Whether a probe sequence converges to ``exact``, and its report.

    The error must shrink at each doubling of m and the Aitken limit of
    the sequence must lie within ``tol`` of ``exact``."""
    errors = [abs(v - exact) for v in values]
    shrinking = all(a > b for a, b in zip(errors, errors[1:]))
    limit = plate_reference.aitken(*values)
    ok = shrinking and abs(limit - exact) <= tol
    text = ("m=" + "/".join(map(str, SEQUENCE_MS)) + " "
            + ", ".join(f"{v:.5f}" for v in values)
            + f" -> Aitken {limit:.6f} vs {exact:.6f}"
            + f" ({source}, tol {tol:.2g})"
            + ("" if shrinking else ", error not shrinking"))
    return ok, text


def test_criterion_1_square_ss_deflection(rows, sequences):
    quantity = "deflection_center_100wD_qL4"
    navier_w, _ = plate_reference.navier_square_ss()
    ok, text = _converges(sequences["square-ss", quantity], 100 * navier_w,
                          0.0005, "Navier series")
    t0 = time.process_time()
    run_case("square-ss", check_equivalence=False)
    elapsed = time.process_time() - t0
    stored = _fmt(probe_rows(rows, "square-ss", quantity))
    assert _verdict(1, ok and elapsed < 5.0,
                    f"{text}; stored rows {stored}; "
                    f"runtime {elapsed:.2f}s CPU (limit 5s)")


def test_criterion_2_square_clamped_deflection(rows, sequences):
    quantity = "deflection_center_100wD_qL4"
    ok, text = _converges(sequences["square-clamped", quantity],
                          100 * plate_reference.CLAMPED_SQUARE_W, 0.0005,
                          "Taylor & Govindjee 2004")
    stored = _fmt(probe_rows(rows, "square-clamped", quantity))
    assert _verdict(2, ok, f"{text}; stored rows {stored}")


def test_criterion_3_square_moments(rows, sequences):
    _, navier_mx = plate_reference.navier_square_ss()
    mid_ok, mid = _converges(
        sequences["square-ss", "moment_center_10M_qL2"], 10 * navier_mx,
        0.002, "Navier series")
    edge_ok, edge = _converges(
        sequences["square-clamped", "moment_edge_middle_10M_qL2"],
        10 * plate_reference.CLAMPED_SQUARE_EDGE_M, 0.002,
        "Timoshenko & Woinowsky-Krieger")
    stored_mid = _fmt(probe_rows(rows, "square-ss", "moment_center_10M_qL2"))
    stored_edge = _fmt(probe_rows(rows, "square-clamped",
                                  "moment_edge_middle_10M_qL2"))
    assert _verdict(3, mid_ok and edge_ok,
                    f"ss center {mid}; clamped edge {edge}; stored rows "
                    f"ss center {stored_mid}; clamped edge {stored_edge}")


def test_criterion_4_skew_deflection(rows, sequences, reference):
    quantity = "deflection_center_100wD_qL4"
    ok, text = _converges(sequences["skew-60", quantity],
                          100 * reference.skew_morley(), 0.001,
                          "Morley reference solve")
    stored = _fmt(probe_rows(rows, "skew-60", quantity))
    assert _verdict(4, ok, f"{text}; stored rows {stored}")


def test_criterion_5_circle_quadrant(rows, sequences, reference):
    # the straight-chord model is the octagon inscribed in the unit circle
    ss_w, ss_mx = reference.octagon_navier_p1()
    checks = [
        ("clamped w", ("circle-clamped", "deflection_center_wD_qr4"),
         reference.octagon_clamped_morley(), "octagon, Morley"),
        ("ss w", ("circle-ss", "deflection_center_wD_qr4"), ss_w,
         "octagon, Navier splitting"),
        ("ss Mx", ("circle-ss", "moment_center_M_qr2"), ss_mx,
         "octagon, Navier splitting"),
    ]
    parts, failed = [], []
    for label, key, exact, source in checks:
        ok, text = _converges(sequences[key], exact, 0.02 * abs(exact),
                              source)
        parts.append(f"{label} {text}; stored rows "
                     + _fmt(probe_rows(rows, *key)))
        if not ok:
            failed.append(label)
    if "ss Mx" in failed:
        parts.append("ss Mx is sampled at the model corner (0, 0), where"
                     " moment_eval's corner-vertex recovery averages the"
                     " vertex curvature of one cell per element")
    assert _verdict(5, not failed, "; ".join(parts))


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
        dofs = rng.standard_normal(3 * len(nodes))
        cells = partition_cells(frame, m)
        pairs = [(ta, tb, sorted(set(ta[1]) & set(tb[1])))
                 for i, ta in enumerate(cells) for tb in cells[i + 1:]
                 if len(set(ta[1]) & set(tb[1])) == 2]
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
        fun = lambda x, y: x * x + 0.5 * x * y - y * y + x
        grad = lambda x, y: (2 * x + 0.5 * y + 1.0, 0.5 * x - 2 * y)
        dofs = field_dofs(frame, m, fun, grad)
        for cell in partition_cells(frame, m):
            p = np.mean([node_position(frame, m, c) for c in cell[1]], axis=0)
            val, g, hess = cell_interpolate(frame, m, cell, dofs, p)
            assert abs(val[0] - fun(*p)) < 1e-10
            assert np.allclose(g[0], grad(*p), atol=1e-9)
            assert np.allclose(hess[0], [2.0, -2.0, 0.5], atol=1e-8)

    def stiffness_spectrum():
        elem = MRElement.from_vertices(*random_triangle(rng), 2, MATERIAL)
        K = element_stiffness([elem]).toarray()
        assert np.allclose(K, K.T, atol=1e-12 * np.abs(K).max())
        w = np.linalg.eigvalsh(K)
        assert w[0] > -1e-10 * w[-1]
        assert np.sum(w < 1e-9 * w[-1]) == 3

    def bandedness():
        elem = MRElement.from_vertices(*random_triangle(rng), 3, MATERIAL)
        K = element_stiffness([elem]).toarray()
        block = lambda i, j: K[elem.dof_slice(i), elem.dof_slice(j)]
        assert np.all(block((0, 0), (2, 0)) == 0.0)
        assert np.all(block((0, 0), (3, 3)) == 0.0)
        assert np.abs(block((0, 0), (1, 0))).max() > 0.0

    def load_totals():
        elem = MRElement.from_vertices(*random_triangle(rng), 2, MATERIAL)
        q = 1.3
        f = element_load_uniform([elem], q)
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
