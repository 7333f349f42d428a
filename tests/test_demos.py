"""Smoke test: every demo script runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triplate

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# the circular quadrant takes longer than all the others together
SLOW = {"demo_circular_quadrant.py"}


@pytest.mark.parametrize("script", sorted(
    p.name for p in DEMOS.glob("demo_*.py") if p.name not in SLOW))
def test_demo_runs(script):
    src = str(Path(triplate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
