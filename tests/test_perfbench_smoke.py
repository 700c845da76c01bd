"""The benchmark's smoke mode runs every workload at tiny shapes.

Its traced runs patch the pipeline's stage names on ``ttflow.harness`` and
check which spans appear, so this also guards the stage wiring of the
harness (for example, that ``gaussian_check`` never goes through
``run_one``).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, (proc.stdout[-3000:], proc.stderr[-3000:])
