"""Smoke runs of the experiment scripts in scripts/ and of the shipped
experiment that replaced one of them, at their smallest sizes."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from lisim.config import load_config
from lisim.harness import run_sweep

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("condition_vs_elements.py", ["--trials", "1"]),
    ("convergence_trace.py", ["--seeds", "1"]),
])
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_rf_sweep_runs():
    # the hybrid/digital gap vs the RF-chain count, as a harness sweep
    cfg = load_config(ROOT / "configs" / "rf_sweep.cfg")
    assert (cfg.sweep_variable, cfg.methods, cfg.precoding) == ("n_rf", ("tsvd",), "both")
    rows = run_sweep(replace(cfg, trials=1)).rows
    assert len(rows) == 2 * len(cfg.sweep_values)
    for row in rows:
        assert row.errors == 0 and math.isfinite(row.mean_se) and row.mean_se > 0
