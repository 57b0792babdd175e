"""Smoke runs of the experiment scripts in scripts/ at their smallest sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("condition_vs_elements.py", ["--trials", "1"]),
    ("hybrid_gap.py", ["--trials", "1", "--rf-chains", "4", "6"]),
    ("convergence_trace.py", ["--seeds", "1"]),
])
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
