"""Smoke runs of the experiment scripts in scripts/, of the shipped
experiment that replaced one of them and of tests/trial_diff.py, at their
smallest sizes."""

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


def test_trial_diff_finds_identical_dumps_and_a_nudge(tmp_path, capsys):
    # two dumps of the shipped configs at one trial compare identical; a
    # copy with one rate nudged reports that entry, and one with a flipped
    # failure flag fails the comparison; each comparison ends with a
    # summary line
    import numpy as np
    from trial_diff import main
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    assert main(["dump", str(a), "--trials", "1"]) == 0
    assert main(["dump", str(b), "--trials", "1"]) == 0
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    # five arrays per mode and method: two modes, three methods in four
    # configs and one in rf_sweep.cfg
    assert len(lines) == 5 * 2 * (4 * 3 + 1) and all(line.endswith(": identical")
                                                     for line in lines)
    assert summary == "130 of 130 arrays identical"
    with np.load(a) as found:
        arrays = dict(found)
    arrays["default.hybrid.spgm.rate"][0, 0] *= 1 + 1e-9
    np.savez(b, **arrays)
    assert main(["compare", str(a), str(b)]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    nudged = [line for line in lines if not line.endswith(": identical")]
    assert len(nudged) == 1 and nudged[0].startswith(
        "default.hybrid.spgm.rate: largest relative difference 1e-09, 1 of ")
    assert summary == "129 of 130 arrays identical, largest relative difference 1e-09 over the rest"
    arrays["default.hybrid.spgm.failed"][0, 0] ^= True
    np.savez(b, **arrays)
    assert main(["compare", str(a), str(b)]) == 1
