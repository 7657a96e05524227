"""Smoke runs of the scripts under scripts/, so they keep up with the package.

Each script runs as its own process on a small input, the way a user runs
it, and must exit 0 and print its table header.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, header", [
    (["convergence_study.py", "--netlists", "diode_dc.cir", "--orders", "1", "2",
      "--ref-order", "3"], "l2 error"),
    (["cost_scaling.py", "--orders", "1", "2", "--steps", "5", "--sections", "4"],
     "st us/solve"),
])
def test_script_runs(argv, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout
