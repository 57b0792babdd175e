"""What the benchmark in perfbench/ reads from the program.

perfbench/spans.py rebinds functions by name and reads the hybrid
alternation cap from `hybrid_factorize`'s signature when it is imported; a
change that breaks either makes every benchmark run fail, so it is checked
here on a one-trial sweep.
"""

import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import pytest

from lisim.harness import load_config, run_sweep
from lisim.transceiver import hybrid_factorize

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402


def test_hybrid_cap_is_the_signature_default():
    default = inspect.signature(hybrid_factorize).parameters["max_alternations"].default
    assert spans.HYBRID_CAP == default


def test_traced_sweep_emits_every_declared_layer_metric():
    # 2 trials x 2 angle errors: one group of four points
    cfg = replace(load_config(ROOT / "configs" / "csi_sweep.cfg"),
                  trials=2, sweep_values=(0.0, 1.0), precoding="both")
    tracer = spans.Tracer()
    with spans.installed(tracer):
        start = perf_counter()
        result = run_sweep(cfg)
        wall = perf_counter() - start
    assert all(row.errors == 0 for row in result.rows)
    # the wrappers change no value: traced rows equal untraced ones apart from wall_ms
    assert [replace(row, wall_ms=0.0) for row in result.rows] == [
        replace(row, wall_ms=0.0) for row in run_sweep(cfg).rows]
    metrics = spans.layer_metrics(tracer, wall)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # the overhead ratio compares traced with untraced chunks in perfbench/run.py
    del declared["trace.overhead_ratio"]
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    # two batched calls per group, one for every precoder and one for every
    # combiner of its points and methods; the tracer counts a trial per
    # sample_paths call, which a group makes once per trial: 2 / 2 = 1.0
    assert metrics["transceiver.hybrid_factorize.calls"][0] == pytest.approx(1.0)
