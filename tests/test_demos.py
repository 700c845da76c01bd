"""Every demo script runs to completion against the package in ``src``.

The demos are the documented entry points into the library API, so a
deleted or renamed name they use fails here. Each runs under ``python -W
error``: the pytest warning filter does not reach a subprocess, and a
warning a demo prints is a fault it would otherwise hide.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout[-3000:], proc.stderr[-3000:])
