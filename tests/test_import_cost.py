"""What a fresh process imports: no scipy.spatial on the solve and oracle
path, and no jsonschema until a config is read."""
import json
import os
import subprocess
import sys
from pathlib import Path

import triplate

CHILD = """
import json, sys
import triplate
from triplate.bench import run_case
# the node merge, the conformity check, the oracle's node match and a
# symmetry BC all run here
rows = run_case("circle-ss", ms=(3,))
spatial = sorted(name for name in sys.modules if name.startswith("scipy.spatial"))
import triplate.cli
schema_at_import = "jsonschema" in sys.modules
try:
    triplate.cli.load_config(sys.argv[1])
    message = None
except triplate.ConfigError as exc:
    message = str(exc)
checks = ("equivalence_max_diff", "node_count_vs_conventional")
print(json.dumps({"checks": [row["status"] for row in rows if row["quantity"] in checks],
                  "spatial": spatial, "schema_at_import": schema_at_import,
                  "message": message, "exit": triplate.cli.main(["solve", sys.argv[1]])}))
"""


def test_fresh_process_skips_spatial_and_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"material": {"E": 1.0, "t": 1.0}, "elements": []}))
    src = str(Path(triplate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(bad)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["checks"] == ["ok", "ok"]
    assert out["spatial"] == []
    assert out["schema_at_import"] is False
    assert out["message"] == f"config {bad}: 'nu' is a required property (at material)"
    assert out["exit"] == 2
    assert proc.stderr == f"error: {out['message']}\n"
