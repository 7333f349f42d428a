"""The bit-identity digest script (`tests/digests.py`) on one small case."""
import re

import digests
from triplate import CASES, assemble


def test_digests_of_square_ss_m2(capsys):
    argv = ["--case", "square-ss", "--m", "2"]
    assert digests.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    items = {name: value for value, name in (line.split("  ", 1) for line in lines)}
    assert [name for name in items if name.startswith("square-ss m=2")] == [
        f"square-ss m=2 {what}" for what in
        ("K", "rhs", "K_red", "rhs_red", "solution", "twin K", "twin rhs")]
    assert "probe-grid pool" in items and "run_case square-ss m=[2]" in items
    assert "cli bench square-ss --m 2" in items
    assert sum(name.startswith("cli ") for name in items) == 3 * 2 + 1
    K = assemble(CASES["square-ss"].build(2)).K
    assert items["square-ss m=2 K"] == digests.digest(K.data, K.indices, K.indptr)
    # a second run prints the same digests
    assert digests.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines
