"""Command line interface: subcommands, formats, exit codes."""
import csv
import io
import json
import warnings
from pathlib import Path

import pytest

from triplate import cli

DEMO_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))

SQUARE_CONFIG = {
    "material": {"E": 10.92, "t": 1.0, "nu": 0.3},
    "elements": [
        {"vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], "m": 2},
        {"vertices": [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]], "m": 2},
    ],
    "loads": {"uniform_q": 1.0},
    "bcs": [
        {"edge": [[0.0, 0.0], [1.0, 0.0]], "kind": "simply_supported"},
        {"edge": [[1.0, 0.0], [1.0, 1.0]], "kind": "simply_supported"},
        {"edge": [[1.0, 1.0], [0.0, 1.0]], "kind": "simply_supported"},
        {"edge": [[0.0, 1.0], [0.0, 0.0]], "kind": "simply_supported"},
    ],
    "probes": [{"x": 0.5, "y": 0.5, "quantity": "deflection"}],
    "reporting": {"reference_length": 1.0},
}


@pytest.fixture
def config_path(tmp_path):
    def write(cfg, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)
    return write


class TestSolve:
    def test_table_output(self, config_path, capsys):
        assert cli.main(["solve", config_path(SQUARE_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "deflection" in out
        assert "0.51393" in out  # normalized, 6 significant digits

    def test_json_output(self, config_path, capsys):
        assert cli.main(["solve", config_path(SQUARE_CONFIG),
                         "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dof_counts"] == {"nodes": 9, "total": 27, "free": 19}
        probe = report["probes"][0]
        assert probe["normalized"] == pytest.approx(0.51392952, abs=1e-7)
        assert report["elements"][0]["rl_label"] == "2x3"

    def test_out_file_and_determinism(self, config_path, tmp_path, capsys):
        cfg = config_path(SQUARE_CONFIG)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["solve", cfg, "--out", str(out1)]) == 0
        assert cli.main(["solve", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["probes"][0]["quantity"] == "deflection"
        # the plain-text table still goes to stdout
        assert "deflection" in capsys.readouterr().out

    def test_zero_load_probes_are_zero(self, config_path, capsys):
        cfg = dict(SQUARE_CONFIG, loads={"uniform_q": 0.0})
        del cfg["reporting"]
        assert cli.main(["solve", config_path(cfg), "--format",
                         "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["probes"][0]["value"] == 0.0
        assert report["probes"][0]["normalized"] is None

    def test_schema_violation_exits_2(self, config_path, capsys):
        bad = {"material": {"E": 1.0, "t": 1.0}, "elements": []}
        assert cli.main(["solve", config_path(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_collinear_geometry_exits_2(self, config_path, capsys):
        bad = dict(SQUARE_CONFIG)
        bad["elements"] = [
            {"vertices": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], "m": 2}]
        assert cli.main(["solve", config_path(bad)]) == 2
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("loads", [{"uniform_q": float("nan")},
                                       {"point_loads": [{"x": 0.5, "y": 0.2,
                                                         "P": float("inf")}]}])
    def test_non_finite_load_exits_2(self, loads, config_path, capsys):
        # json reads NaN and Infinity, and the schema's "number" admits them
        cfg = {**SQUARE_CONFIG, "loads": loads}
        assert cli.main(["solve", config_path(cfg)]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "bench", "verify"])
    def test_quadrature_degree_flag_is_gone(self, command, config_path,
                                            capsys):
        # the cell rule is fixed; argparse rejects the retired flag
        args = [] if command == "bench" else [config_path(SQUARE_CONFIG)]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *args, "--quadrature-degree", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quadrature-degree" \
            in capsys.readouterr().err

    def test_quadrature_degree_key_exits_2(self, config_path, capsys):
        bad = dict(SQUARE_CONFIG, solver={"quadrature_degree": 5})
        assert cli.main(["solve", config_path(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ")
        assert "'quadrature_degree' was unexpected" in err
        assert "(at solver)" in err

    @pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_point_load_exits_2_without_warning(self, x,
                                                           config_path,
                                                           capsys):
        # Python's json reads and writes Infinity and NaN, and the schema's
        # "number" type accepts them
        cfg = dict(SQUARE_CONFIG, loads={"uniform_q": 1.0, "point_loads": [
            {"x": x, "y": 0.5, "P": 1.0}]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", config_path(cfg)]) == 2
        assert "lies outside every element" in capsys.readouterr().err

    def test_every_kind_name_solves(self, config_path, capsys):
        bcs = [dict(b, kind=kind) for b, kind in zip(
            SQUARE_CONFIG["bcs"], ["clamped", "symmetry", "free", "simply_supported"])]
        cfg = dict(SQUARE_CONFIG, bcs=bcs)
        assert cli.main(["solve", config_path(cfg), "--format", "json"]) == 0
        # bottom: 3 nodes fully fixed; right (symmetry) and left (simply
        # supported): 2 more nodes each lose their normal slope or their w
        report = json.loads(capsys.readouterr().out)
        assert report["dof_counts"]["free"] == 27 - 9 - 2 - 2

    def test_zero_length_symmetry_edge_exits_2(self, config_path, capsys):
        cfg = dict(SQUARE_CONFIG, bcs=SQUARE_CONFIG["bcs"] + [
            {"edge": [[0.0, 0.0], [0.0, 0.0]], "kind": "symmetry"}])
        assert cli.main(["solve", config_path(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: symmetry edge [[0.0, 0.0], [0.0, 0.0]]")
        assert "zero length" in err

    def test_unconstrained_load_exits_2(self, config_path, capsys):
        cfg = dict(SQUARE_CONFIG, bcs=[])
        assert cli.main(["solve", config_path(cfg)]) == 2
        assert "singular" in capsys.readouterr().err


class TestBench:
    def test_csv_table_and_exit_code(self, capsys):
        # skew-60 at scale 12 agrees with its stored reference: exit 0
        assert cli.main(["bench", "skew-60", "--m", "12"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(cli.CSV_HEADER)
        assert rows[1][0] == "skew-60"
        assert rows[1][2] == "7x13"
        assert {r[7] for r in rows[1:]} == {"ok"}

    def test_reference_mismatch_exits_1(self, capsys):
        assert cli.main(["bench", "square-ss", "--m", "2"]) == 1
        out = capsys.readouterr().out
        statuses = [r[7] for r in list(csv.reader(io.StringIO(out)))[1:]]
        assert "mismatch" in statuses

    def test_alias_expansion(self, capsys):
        assert cli.main(["bench", "square", "--m", "2",
                         "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        cases = {row["case"] for row in report["rows"]}
        assert cases == {"square-ss", "square-clamped"}
        assert all("rl_label" in row for row in report["rows"])

    def test_unknown_case_exits_2(self, capsys):
        assert cli.main(["bench", "hexagonal-drum"]) == 2
        assert "unknown case" in capsys.readouterr().err

    def test_bad_scale_list_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["bench", "square-ss", "--m", "2,four"])
        assert err.value.code == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        cli.main(["bench", "skew-60", "--m", "12", "--out", str(path)])
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows[0] == list(cli.CSV_HEADER)
        assert "0 mismatch" in capsys.readouterr().out


class TestVerify:
    def test_equivalence_passes(self, config_path, capsys):
        assert cli.main(["verify", config_path(SQUARE_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_perturbation_hook_fails(self, config_path, capsys):
        assert cli.main(["verify", config_path(SQUARE_CONFIG),
                         "--perturb-k"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestDemoConfigs:
    def test_configs_found(self):
        # an empty glob would leave the parametrized test below unrun
        assert DEMO_CONFIGS

    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.name)
    def test_loads_solves_and_verifies(self, path, capsys):
        # a demo config that drifts from the schema fails here
        cli.load_config(path)
        assert cli.main(["solve", str(path)]) == 0
        assert cli.main(["verify", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out


class TestDev:
    def test_seeded_checks_pass(self, capsys):
        assert cli.main(["dev", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out


class TestConfigSchema:
    def test_shipped_schema_matches_module(self):
        from pathlib import Path
        shipped = json.loads(
            Path(__file__).resolve().parents[1].joinpath(
                "docs", "config_schema.json").read_text())
        assert shipped == cli.CONFIG_SCHEMA

    def test_header_contract(self):
        assert cli.CSV_HEADER == ("case", "m", "rl_label", "quantity",
                                  "value", "expected", "tolerance", "status")

    @pytest.mark.parametrize("mutate", [
        lambda c: c["material"].pop("nu"),
        lambda c: c["elements"][0].update(m=0),
        lambda c: c["bcs"][0].update(kind="welded"),
        lambda c: c["probes"][0].update(quantity="shear"),
        lambda c: c.update(extra_key=1),
    ])
    def test_invalid_configs_rejected(self, mutate, config_path):
        cfg = json.loads(json.dumps(SQUARE_CONFIG))
        mutate(cfg)
        from triplate import ConfigError
        with pytest.raises(ConfigError):
            cli.load_config(config_path(cfg, name="bad.json"))
