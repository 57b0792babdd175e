"""lisim sweep benchmark: end-to-end throughput and quality, traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload paper_digital --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Every workload drives the public API only (`load_config` -> `run_sweep`),
serially, in one process, closed loop (the next sweep starts when the
previous one returns), with BLAS pinned to one thread. `--seed` is the
master seed; each sweep gets a seed derived from it, so the same seed gives
the same inputs.

One run does, in order:
1. setup: import `lisim` and `load_config` in fresh interpreters; median;
2. warm-up: sweep chunk 0 (kept as the determinism reference);
3. timed loop for `--seconds`: chunks 1, 2, ..., with a fixed numpy
   calibration kernel timed between chunks (`--trace 1` alternates
   untraced and traced chunks and reports the per-layer split instead);
4. output checks, untimed: chunk 0 again must give the same CSV apart from
   `wall_ms`; a quality sweep and a hybrid sweep at the config's last sweep
   value give the SE metrics; `desk_csi` also runs chunk 0 with
   `parallel=2`, which must match the serial CSV. Every SE must be finite.
A failed check exits non-zero without printing metrics. The last stdout
line is one JSON object: correct, attempted, failed, metrics.

Times are reported at a reference CPU speed: each chunk's rate is scaled by
the calibration kernel's time around it over CALIBRATION_REF_S. On a
shared machine the CPU speed a run gets swings by up to 1.8x for tens of
seconds; the raw figures are printed and kept in the run record.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy is imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
SPEC = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    config: str
    chunk_trials: int          # trials per timed run_sweep call
    quality_trials: int        # channel draws behind se_*_bps
    parallel_check: bool = False
    hybrid_floor: float = 0.0  # minimum hybrid/digital SE ratio


# Why these three (see perfbench/README.md): paper_digital is the dense
# 64x256 reference point and never calls hybrid; paper_hybrid is dominated
# by hybrid_factorize; desk_csi has small matrices, where per-call overhead
# and the angle-error path (perturb_angles, a second assemble_channels) weigh.
WORKLOADS = {
    "paper_digital": Workload("configs/default.cfg", chunk_trials=8, quality_trials=400),
    "paper_hybrid": Workload("configs/power_sweep.cfg", chunk_trials=1, quality_trials=400,
                             hybrid_floor=0.95),
    "desk_csi": Workload("configs/csi_sweep.cfg", chunk_trials=4, quality_trials=1280,
                         parallel_check=True),
}
SETUP_REPEATS = 5
HYBRID_TRIALS = 8     # the per-draw hybrid/digital ratio varies ~0.5%
# The calibration kernel's time in the fast state of the machine the
# baseline was recorded on; rates and set-up times are reported at it.
CALIBRATION_REPS = 40
CALIBRATION_REF_S = 0.0120

SETUP_CODE = """
import sys
from time import perf_counter
t0 = perf_counter()
from lisim.harness import load_config
load_config(sys.argv[1])
print(perf_counter() - t0)
"""


class CheckFailed(Exception):
    """An output check failed; the run prints no metrics."""


def fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def derive_seed(seed: int, stream: int, index: int = 0) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def measure_setup(config: Path) -> list[tuple[float, float]]:
    """(raw seconds, calibration speed) of each fresh-interpreter set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibration_seconds()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)],
                              env=env, capture_output=True, text=True, timeout=120)
        fail_unless(done.returncode == 0, f"setup child failed: {done.stderr.strip()}")
        speed = (before + calibration_seconds()) / 2 / CALIBRATION_REF_S
        times.append((float(done.stdout.strip().splitlines()[-1]), speed))
    return times


def csv_without_wall(result, path: Path) -> list[str]:
    """The CSV `lisim run` would write, with the wall_ms column dropped."""
    from lisim.harness import emit_csv
    emit_csv(result, path)
    lines = path.read_text().splitlines()
    path.unlink()
    return [line.rsplit(",", 1)[0] for line in lines]


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: f"{v.get('name')} {v.get('version')}" for k, v in deps.items()}
    except (TypeError, AttributeError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu": cpu, "seed": seed,
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


class Sweeps:
    """Runs sweeps of one workload and keeps the cell accounting."""

    def __init__(self, cfg, workload: Workload, seed: int):
        self.cfg = cfg
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def chunk(self, index: int):
        return replace(self.cfg, seed=derive_seed(self.seed, 0, index),
                       trials=self.workload.chunk_trials)

    def points(self, cfg) -> int:
        return cfg.trials * len(cfg.sweep_values)

    def run(self, cfg, parallel: int = 1):
        return self.timed_run(cfg, parallel)[0]

    def timed_run(self, cfg, parallel: int = 1):
        """Run one sweep; returns (result, seconds spent in run_sweep)."""
        from lisim.harness import run_sweep
        t0 = perf_counter()
        result = run_sweep(cfg, parallel=parallel)
        seconds = perf_counter() - t0
        modes = 2 if cfg.precoding == "both" else 1
        self.attempted += self.points(cfg) * len(cfg.methods) * modes
        self.failed += sum(row.errors for row in result.rows)
        for row in result.rows:
            fail_unless(math.isfinite(row.mean_se) or row.errors == cfg.trials,
                        f"non-finite SE in {row}")
        return result, seconds


def calibration_seconds() -> float:
    """Time a fixed numpy kernel that does not touch lisim.

    It mixes what a sweep does (small complex SVDs and products, elementwise
    phase work, interpreter overhead), so its time tracks the CPU speed the
    sweep gets on a shared machine.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 48))
    t0 = perf_counter()
    for _ in range(CALIBRATION_REPS):
        s = np.linalg.svd(a, compute_uv=False)
        b = (a * v.conj()[None, :]) @ a
        w = np.exp(1j * np.angle(b[:, 0]))
        float(np.real(np.vdot(w, b @ w))) + s[0]
    return perf_counter() - t0


@dataclass(frozen=True)
class Rate:
    """Points per second of one chunk, raw and at the reference CPU speed."""

    raw: float
    speed: float  # calibration time around the chunk / CALIBRATION_REF_S

    @property
    def normalized(self) -> float:
        return self.raw * self.speed


def throughput(rates: list[Rate], normalized: bool = True) -> float:
    """Points per second over all chunks (chunks hold equal point counts)."""
    return len(rates) / sum(1.0 / (r.normalized if normalized else r.raw) for r in rates)


def timed_loop(sweeps: Sweeps, seconds: float, tracer=None):
    """Run chunks 1, 2, ... for `seconds`, timing the calibration kernel
    between chunks. With a tracer every other chunk is traced.

    Returns (untraced rates, traced rates, traced seconds in run_sweep).
    """
    from spans import installed
    untraced, traced, traced_wall = [], [], 0.0
    before = calibration_seconds()
    index = 1
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not untraced or (tracer and not traced):
        cfg = sweeps.chunk(index)
        trace_this = tracer is not None and index % 2 == 0
        with installed(tracer) if trace_this else nullcontext():
            _, elapsed = sweeps.timed_run(cfg)
        after = calibration_seconds()
        rate = Rate(sweeps.points(cfg) / elapsed, (before + after) / 2 / CALIBRATION_REF_S)
        if trace_this:
            traced.append(rate)
            traced_wall += elapsed
        else:
            untraced.append(rate)
        before = after
        index += 1
    return untraced, traced, traced_wall


def check_outputs(sweeps: Sweeps, reference) -> dict[str, float]:
    """Untimed output checks; returns the quality metrics."""
    cfg, workload = sweeps.cfg, sweeps.workload
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"check-{os.getpid()}.csv"
    ref_csv = csv_without_wall(reference, csv_path)
    again = csv_without_wall(sweeps.run(sweeps.chunk(0)), csv_path)
    fail_unless(again == ref_csv, "same seed gave a different CSV (apart from wall_ms)")
    if workload.parallel_check:
        par = csv_without_wall(sweeps.run(sweeps.chunk(0), parallel=2), csv_path)
        fail_unless(par == ref_csv, "parallel=2 CSV differs from the serial CSV")

    last = (cfg.sweep_values[-1],)
    quality = sweeps.run(replace(cfg, seed=derive_seed(sweeps.seed, 1),
                                 trials=workload.quality_trials, sweep_values=last,
                                 precoding="digital"))
    se = {row.method: row.mean_se for row in quality.rows}
    fail_unless(se["tsvd"] >= se["random"],
                f"tsvd SE {se['tsvd']:.4f} below random {se['random']:.4f}")
    hybrid = sweeps.run(replace(cfg, seed=derive_seed(sweeps.seed, 2), trials=HYBRID_TRIALS,
                                sweep_values=last, precoding="both", methods=("tsvd",)))
    by_mode = {row.precoding: row.mean_se for row in hybrid.rows}
    ratio = by_mode["hybrid"] / by_mode["digital"]
    fail_unless(ratio >= workload.hybrid_floor,
                f"hybrid/digital SE ratio {ratio:.4f} below {workload.hybrid_floor}")
    return {"se_tsvd_bps": se["tsvd"], "se_spgm_bps": se["spgm"], "hybrid_ratio": ratio}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads(SPEC.read_text())
    fail_unless((SRC / "lisim").is_dir(), f"no lisim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from lisim.harness import load_config

    workload = WORKLOADS[name]
    config = ROOT / workload.config
    env = environment(seed)
    print("env " + json.dumps(env), flush=True)
    setup = measure_setup(config)
    sweeps = Sweeps(load_config(config), workload, seed)
    reference = sweeps.run(sweeps.chunk(0))  # warm-up and determinism reference

    tracer = None
    if trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
    rates, traced_rates, traced_wall = timed_loop(sweeps, seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = check_outputs(sweeps, reference)

    if trace:
        metrics = layer_metrics(tracer, traced_wall)
        metrics["trace.overhead_ratio"] = (throughput(rates) / throughput(traced_rates), "ratio")
    else:
        metrics = {
            "trials_per_s": (throughput(rates), "1/s"),
            "setup_s": (statistics.median(raw / speed for raw, speed in setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_rate": (1.0 - sweeps.failed / sweeps.attempted, "ratio"),
            "se_tsvd_bps": (quality["se_tsvd_bps"], "bit/s/Hz"),
            "se_spgm_bps": (quality["se_spgm_bps"], "bit/s/Hz"),
            "hybrid_ratio": (quality["hybrid_ratio"], "ratio"),
        }
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: unit for k, (_, unit) in metrics.items()}
    fail_unless(emitted == declared,
                f"metrics differ from BENCHMARK.json: {sorted(set(emitted) ^ set(declared))}")

    raw = [r.raw for r in rates]
    q = statistics.quantiles(raw, n=4) if len(raw) > 1 else (raw[0],) * 3
    print(f"workload {name}: {len(rates)} timed chunks of {sweeps.points(sweeps.chunk(0))} "
          f"points; raw points/s overall {throughput(rates, normalized=False):.3f}, chunk "
          f"median {statistics.median(raw):.3f}, quartiles {q[0]:.3f}..{q[2]:.3f}; "
          f"median CPU speed factor "
          f"{statistics.median(r.speed for r in rates):.4f}; raw set-up s "
          f"{', '.join(f'{t:.4f}' for t, _ in setup)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:55s} {value:16.6f} {unit}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": trace, "env": env,
              "setup": setup, "chunk_points": sweeps.points(sweeps.chunk(0)),
              "chunks": [(r.raw, r.speed) for r in rates], "metrics": metrics}
    if trace:
        record["traced_chunks"] = [(r.raw, r.speed) for r in traced_rates]
        record["errors"] = {f"{s}.errors.{e}": c for (s, e), c in tracer.errors.items()}
        for (span, exc), count in sorted(tracer.errors.items()):
            print(f"  {span}.errors.{exc} {count}")
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
        tracer.write(spans_path, {"workload": name, "seed": seed, "traced_wall_s": traced_wall})
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    record_path = OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(f"  run record written to {record_path.relative_to(ROOT)}")
    return {"correct": True, "attempted": sweeps.attempted, "failed": sweeps.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Run every workload in its own interpreter; fail if any fails."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} failed", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-loop length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        print(f"missing {SPEC.name}; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
