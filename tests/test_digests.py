"""The bit-identity digest script (`tests/digests.py`) on one small case."""
import dataclasses
import re

import numpy as np
import pytest

import digests
from triplate import CASES, apply_boundary_conditions, assemble, build_equivalent_mono
from triplate.oracle import _assemble_twin


def run(argv, capsys):
    code = digests.main(argv)
    return code, capsys.readouterr().out.splitlines()


def test_digests_of_square_ss_m2(capsys, tmp_path):
    argv = ["--case", "square-ss", "--m", "2"]
    code, lines = run(argv, capsys)
    assert code == 0
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    items = {name: value for value, name in (line.split("  ", 1) for line in lines)}
    assert [name for name in items if name.startswith("square-ss m=2")] == [
        f"square-ss m=2 {what}" for what in
        ("K", "rhs", "K_red", "rhs_red", "solution", "twin K", "twin rhs",
         "oracle twin K", "oracle twin rhs")] + [
        f"square-ss m=2 point load on {site} {what}"
        for site in ("cell", "cell edge", "grid node", "element edge")
        for what in ("rhs", "solution", "twin rhs", "oracle twin rhs")]
    assert "probe-grid pool" in items and "run_case square-ss m=[2]" in items
    assert "cli bench square-ss --m 2" in items
    assert sum(name.startswith("cli ") for name in items) == 3 * 2 + 1
    K = assemble(CASES["square-ss"].build(2)).K
    assert items["square-ss m=2 K"] == digests.digest(K.data, K.indices, K.indptr)
    # a second run prints the same digests
    assert run(argv, capsys) == (0, lines)

    # --against: nothing differs from the saved run; a changed digest, an
    # item the file lacks and one this run does not print are named, and the
    # exit code is 1
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert run(argv + ["--against", str(saved)], capsys) == (
        0, [f"0 of {len(lines)} items differ from {saved}"])
    changed = "0" * 64 + "  square-ss m=2 K"
    gone = "0" * 64 + "  square-ss m=5 K"
    saved.write_text("\n".join([changed] + lines[1:-1] + [gone]) + "\n")
    code, out = run(argv + ["--against", str(saved)], capsys)
    assert code == 1
    last = lines[-1].split("  ", 1)[1]
    assert out == ["differs: square-ss m=2 K", f"new: {last}",
                   "missing: square-ss m=5 K",
                   f"3 of {len(lines) + 1} items differ from {saved}"]


def test_point_load_sites_and_digests():
    model = CASES["skew-60"].build(3)
    sites = digests.point_load_sites(model)
    assert list(sites) == ["cell", "cell edge", "grid node", "element edge"]
    first, second = (el.frame.to_global(el.frame.local_vertices())
                     for el in model.elements)
    for kind, p in sites.items():
        # barycentric coordinates of each site in the first element
        lam = np.linalg.solve(np.vstack([first.T, np.ones(3)]), [*p, 1.0])
        assert lam.min() > -1e-12
        if kind == "element edge":
            lam2 = np.linalg.solve(np.vstack([second.T, np.ones(3)]), [*p, 1.0])
            assert (np.abs(lam) < 1e-12).sum() == (np.abs(lam2) < 1e-12).sum() == 1
    # each item digests what it names: a point load P = 0.7 and no uniform load
    loaded = dataclasses.replace(model, uniform_q=0.0,
                                 point_loads=[(*sites["grid node"], 0.7)])
    system = apply_boundary_conditions(assemble(loaded))
    items = dict(digests.point_load_digests("skew-60", 3))
    assert len(items) == 16
    assert items["skew-60 m=3 point load on grid node rhs"] == digests.digest(system.rhs)
    twin = assemble(build_equivalent_mono(loaded).model)
    assert items["skew-60 m=3 point load on grid node twin rhs"] == \
        digests.digest(twin.rhs)
    oracle = _assemble_twin(build_equivalent_mono(loaded))
    assert items["skew-60 m=3 point load on grid node oracle twin rhs"] == \
        digests.digest(oracle.rhs)
    # the deflection functions sum to one, so the w rows hold P
    assert abs(system.rhs[0::3].sum() - 0.7) < 1e-12


@pytest.mark.parametrize("name, m", [("square-ss", 2), ("skew-60", 1)])
def test_upstream_keeps_matrices_and_loads(name, m, capsys):
    code, lines = run(["--case", name, "--m", str(m), "--upstream"], capsys)
    assert code == 0
    items = {item: value for value, item in (line.split("  ", 1) for line in lines)}
    every = dict(digests.model_digests(name, m)) | dict(digests.point_load_digests(name, m))
    # every matrix and load vector, and no solution, probe, report or CLI item
    assert items == {item: value for item, value in every.items()
                     if not item.endswith(" solution")}
    assert len(items) == 8 + 4 * 3
    assert all(digests.is_upstream(item) for item in items)
    assert not any(digests.is_upstream(item) for item in
                   ("probe-grid pool", f"run_case {name} m=[{m}]",
                    f"cli bench {name} --m {m}", f"{name} m={m} solution"))
