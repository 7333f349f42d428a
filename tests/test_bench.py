"""Benchmark registry, result rows, and frozen regression values.

The reference sequences stored with each case have no recorded source
and are not values this element reaches: its probes converge to the
exact plate solutions, which the acceptance suite checks against
independent values (see the ``triplate.bench`` docstring).  Probe rows
therefore carry status "mismatch" where measured values depart from the
stored references; the measured values themselves are pinned here so
that numerical behavior cannot drift silently.
"""
import pytest

import triplate.solve
from triplate import UnknownCase, bench
from triplate.bench import benchmark_case, rl_label, run_benchmark, run_case


class TestLabels:
    @pytest.mark.parametrize("m, label", [
        (1, "1x3"), (2, "2x3"), (3, "2x5"), (4, "3x5"), (5, "3x7"),
        (6, "4x7"), (8, "5x9"), (12, "7x13"), (16, "9x17"),
    ])
    def test_rl_label(self, m, label):
        assert rl_label(m) == label
        # the label factors the node count
        p, q = map(int, label.split("x"))
        assert p * q == (m + 1) * (m + 2) // 2

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            rl_label(0)


class TestRegistry:
    def test_known_cases(self):
        assert set(bench.CASES) == {"square-ss", "square-clamped", "skew-60",
                                    "circle-clamped", "circle-ss"}
        for case in bench.CASES.values():
            assert case.default_ms
            for probe in case.probes:
                # every default scale has a stored reference value
                assert set(case.default_ms) <= set(probe.expected)

    def test_unknown_case_rejected(self):
        with pytest.raises(UnknownCase):
            benchmark_case("triangular-ufo")
        with pytest.raises(UnknownCase):
            run_case("also-not-a-case")


# measured values of this implementation, frozen as regression pins
PINNED = {
    ("square-ss", 2, "deflection_center_100wD_qL4"): 0.51392952,
    ("square-ss", 2, "moment_center_10M_qL2"): 0.702356345,
    ("square-ss", 4, "deflection_center_100wD_qL4"): 0.439482183,
    ("square-ss", 4, "moment_center_10M_qL2"): 0.561204946,
    ("square-clamped", 2, "deflection_center_100wD_qL4"): 0.130208333,
    ("square-clamped", 2, "moment_edge_middle_10M_qL2"): -0.21875,
    ("square-clamped", 4, "deflection_center_100wD_qL4"): 0.140591541,
    ("square-clamped", 4, "moment_edge_middle_10M_qL2"): -0.435023695,
    ("skew-60", 8, "deflection_center_100wD_qL4"): 0.79513909,
    ("circle-clamped", 3, "deflection_center_wD_qr4"): 0.0127244905,
    ("circle-clamped", 6, "deflection_center_wD_qr4"): 0.0124292446,
    ("circle-ss", 3, "deflection_center_wD_qr4"): 0.0405956437,
    ("circle-ss", 3, "moment_center_M_qr2"): 0.0916017271,
    ("circle-ss", 6, "deflection_center_wD_qr4"): 0.0392840197,
    ("circle-ss", 6, "moment_center_M_qr2"): 0.0809645861,
}


class TestResultRows:
    @pytest.mark.parametrize("name, ms", [
        ("square-ss", (2, 4)),
        ("square-clamped", (2, 4)),
        ("skew-60", (8,)),
        ("circle-clamped", (3, 6)),
        ("circle-ss", (3, 6)),
    ])
    def test_measured_values_pinned(self, name, ms):
        rows = run_case(name, ms=ms, check_equivalence=False)
        for row in rows:
            key = (row["case"], row["m"], row["quantity"])
            assert key in PINNED
            assert row["value"] == pytest.approx(PINNED[key], abs=2e-8,
                                                 rel=1e-6)
            assert row["rl"] == rl_label(row["m"])
            # probe status honestly reflects the stored reference
            within = abs(row["value"] - row["expected"]) <= row["tolerance"]
            assert row["status"] == ("ok" if within else "mismatch")

    def test_skew_matches_reference_at_larger_scales(self):
        rows = run_case("skew-60", ms=(12,), check_equivalence=False)
        assert rows[0]["status"] == "ok"
        assert rows[0]["value"] == pytest.approx(0.7931208228, abs=1e-7)

    def test_unlisted_scale_is_informational(self):
        rows = run_case("square-ss", ms=(3,), check_equivalence=False)
        assert all(r["status"] == "info" for r in rows)
        assert all(r["expected"] is None for r in rows)

    def test_equivalence_rows(self):
        rows = run_case("square-ss", ms=(2,))
        by_quantity = {r["quantity"]: r for r in rows}
        eq = by_quantity["equivalence_max_diff"]
        assert eq["status"] == "ok"
        assert eq["value"] < bench.EQUIVALENCE_TOL
        parity = by_quantity["node_count_vs_conventional"]
        assert parity["status"] == "ok"
        assert parity["value"] == parity["expected"] == 9.0

    def test_hard_support_stiffens(self):
        soft = run_case("square-ss", ms=(2,), check_equivalence=False)
        hard = run_case("square-ss", ms=(2,), hard_ss=True,
                        check_equivalence=False)
        assert hard[0]["value"] < soft[0]["value"]

    def test_run_benchmark_bundles_cases(self):
        report = run_benchmark(["square-ss", "skew-60"], ms=(2,),
                               check_equivalence=False)
        cases = {r["case"] for r in report["rows"]}
        assert cases == {"square-ss", "skew-60"}
        assert all(r["m"] == 2 for r in report["rows"])


class TestOracleSolves:
    @pytest.mark.parametrize("name", sorted(bench.CASES))
    def test_two_factorizations_per_scale(self, name, monkeypatch):
        """The oracle takes the probe solve: one LU for the model and one
        for its conventional twin per (case, m)."""
        spla = triplate.solve.spla
        calls = []

        class Counting:
            def __getattr__(self, attr):
                return getattr(spla, attr)

            def splu(self, *args, **kwargs):
                calls.append(args[0].shape)
                return spla.splu(*args, **kwargs)

        monkeypatch.setattr(triplate.solve, "spla", Counting())
        ms = benchmark_case(name).default_ms[:2]
        run_case(name, ms=ms)
        assert len(calls) == 2 * len(ms)
