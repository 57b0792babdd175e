"""Out-of-program span tracing for the lisim sweep benchmark.

The tracer never edits `src/`. It rebinds module attributes to timing
wrappers for the duration of a `with installed(tracer):` block:

- the functions `lisim.harness` imports from `channel`, `passive_bf`,
  `transceiver` and `metrics` (as bound in the harness namespace, so only
  the trial loop's calls are seen);
- `ccm_descent` as imported into `lisim.passive_bf` and `lisim.transceiver`,
  recorded under two names so passive beamforming and hybrid factorization
  stay apart;
- `armijo_step` in `lisim.manifold`, which `ccm_descent` looks up there.

A span is (name, start, end, parent, trial). The trial id is the index of
the `sample_paths` call that opened the trial: a serial `run_sweep` makes
exactly one such call per (sweep value, trial). Spans stay in memory until
the benchmark writes them out.
"""

from __future__ import annotations

import gzip
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from lisim import harness, manifold, passive_bf, transceiver

# Harness-namespace functions on the sweep path, by defining module. The
# oracle-only `build_tsvd_problem` is left out: sweeps never call it.
HARNESS_FUNCTIONS = (
    ("channel", ("sample_paths", "sort_paths_descending", "assemble_channels",
                 "composite_path_vectors", "perturb_angles", "effective_channel")),
    ("passive_bf", ("optimize_tsvd", "optimize_spgm", "random_phases",
                    "coupling_matrix")),
    ("transceiver", ("truncated_svd", "digital_precoder", "digital_combiner",
                     "hybrid_factorize")),
    ("metrics", ("spectral_efficiency", "truncated_condition_number")),
)
CCM_CALLERS = (("passive_bf", passive_bf), ("transceiver", transceiver))

SPAN_NAMES = tuple(
    [f"{mod}.{fn}" for mod, fns in HARNESS_FUNCTIONS for fn in fns]
    + [f"manifold.ccm_descent.{caller}" for caller, _ in CCM_CALLERS]
    + ["manifold.armijo_step"])

# `_run_trial` never passes max_alternations, so the signature default is
# the cap every hybrid call runs under.
HYBRID_CAP = inspect.signature(
    transceiver.hybrid_factorize).parameters["max_alternations"].default


def _complex_macs(channel, *_args, **_kw):
    """R diag(v) G costs N_r * M * N_t complex multiply-accumulates."""
    return "computed.effective_channel.cmacs", channel.r.shape[0] * channel.m * channel.g.shape[1]


def _q_bytes(channel, *_args, **_kw):
    """optimize_spgm materializes an M x M complex128 Q."""
    return "computed.spgm_q.bytes", channel.m ** 2 * 16


def _svd_elements(h, *_args, **_kw):
    return "computed.svd.input_elements", int(np.asarray(h).size)


KERNEL_COUNTS = {
    "channel.effective_channel": _complex_macs,
    "passive_bf.optimize_spgm": _q_bytes,
    "transceiver.truncated_svd": _svd_elements,
    "metrics.truncated_condition_number": _svd_elements,
}


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.trial: list[int] = []
        self._stack: list[int] = []
        self._trial = -1
        self.iters: dict[int, int] = {}       # ccm span -> iterations
        self.stops: Counter = Counter()       # gap | max_iters | other
        self.evals: Counter = Counter()       # f | grad
        self.kernels: Counter = Counter()     # computed.* counts
        self.errors: Counter = Counter()      # (span name, exception type)

    @property
    def trials(self) -> int:
        """Trials opened so far (calls of the wrapped sample_paths)."""
        return self._trial + 1

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self._trial)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = KERNEL_COUNTS.get(name)
        starts_trial = name == "channel.sample_paths"

        def traced(*args, **kwargs):
            if starts_trial:
                self._trial += 1
            if count is not None:
                key, n = count(*args, **kwargs)
                self.kernels[key] += n
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(idx)

        return traced

    def wrap_descent(self, name: str, fn):
        """Wrap ccm_descent: count f/grad evaluations, iterations and stops."""
        inner = self.wrap(name, fn)
        evals = self.evals

        def traced(f, grad_f, v0, cfg):
            def counted_f(v):
                evals["f"] += 1
                return f(v)

            def counted_grad(v):
                evals["grad"] += 1
                return grad_f(v)

            idx = len(self.name)  # the span `inner` opens next
            v, trace = inner(counted_f, counted_grad, v0, cfg)
            iters = len(trace) - 1
            self.iters[idx] = iters
            if iters >= 1 and abs(trace[-1] - trace[-2]) < cfg.epsilon:
                self.stops["gap"] += 1
            elif iters == cfg.max_iters:
                self.stops["max_iters"] += 1
            else:  # line-search exhaustion ends the descent early
                self.stops["other"] += 1
            return v, trace

        return traced

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.name)):
                fh.write(json.dumps([self.name[i], self.start[i], self.end[i],
                                     self.parent[i], self.trial[i]]) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced names for the block; always restore the originals."""
    saved = []

    def bind(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    try:
        for mod, fns in HARNESS_FUNCTIONS:
            for fn in fns:
                bind(harness, fn, tracer.wrap(f"{mod}.{fn}", getattr(harness, fn)))
        for caller, module in CCM_CALLERS:
            bind(module, "ccm_descent", tracer.wrap_descent(
                f"manifold.ccm_descent.{caller}", module.ccm_descent))
        bind(manifold, "armijo_step",
             tracer.wrap("manifold.armijo_step", manifold.armijo_step))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-trial layer split of `wall_s` seconds of traced `run_sweep` time.

    Self time is a span's duration minus its children's; harness self time
    is the traced wall time minus every root span. Raises AssertionError
    if spans do not nest or the split does not add up to the wall time.
    """
    n = len(tracer.name)
    names = np.array(tracer.name, dtype=object)
    start = np.array(tracer.start)
    end = np.array(tracer.end)
    parent = np.array(tracer.parent, dtype=np.int64)
    trial = np.array(tracer.trial, dtype=np.int64)
    dur = end - start
    child = parent >= 0
    if np.any(start[child] < start[parent[child]]) or np.any(end[child] > end[parent[child]]):
        raise AssertionError("a child span leaves its parent's interval")
    self_time = dur.copy()
    np.subtract.at(self_time, parent[child], dur[child])

    trials = tracer.trials
    if trials < 1:
        raise AssertionError("traced run opened no trial")
    root_total = float(dur[~child].sum())
    harness_self = wall_s - root_total
    if abs(self_time.sum() + harness_self - wall_s) > 1e-9 * max(wall_s, 1.0):
        raise AssertionError("span self times plus harness self time != wall time")

    out: dict[str, tuple[float, str]] = {}
    per_trial_ms = 1e3 / trials
    for name in SPAN_NAMES:
        mask = names == name
        out[f"{name}.calls"] = (float(mask.sum()) / trials, "count")
        out[f"{name}.ms"] = (float(dur[mask].sum()) * per_trial_ms, "ms")
        out[f"{name}.self_ms"] = (float(self_time[mask].sum()) * per_trial_ms, "ms")
    out["harness.self_ms"] = (harness_self * per_trial_ms, "ms")
    out["harness.wall_ms"] = (wall_s * per_trial_ms, "ms")

    # Trial extent: first span start to last span end with that trial id.
    first = np.full(trials, np.inf)
    last = np.full(trials, -np.inf)
    ok = trial >= 0
    np.minimum.at(first, trial[ok], start[ok])
    np.maximum.at(last, trial[ok], end[ok])
    trial_ms = (last - first) * 1e3
    out["harness.trial_ms.p50"] = (float(np.percentile(trial_ms, 50)), "ms")
    out["harness.trial_ms.p90"] = (float(np.percentile(trial_ms, 90)), "ms")

    def per_call_iters(mask):
        idx = np.flatnonzero(mask)
        return float(np.mean([tracer.iters[i] for i in idx])) if idx.size else 0.0

    for caller, _ in CCM_CALLERS:
        out[f"manifold.ccm_descent.{caller}.iters"] = (
            per_call_iters(names == f"manifold.ccm_descent.{caller}"), "count")
    ccm_pb = names == "manifold.ccm_descent.passive_bf"
    for method in ("optimize_tsvd", "optimize_spgm"):
        owner = np.zeros(n, dtype=bool)
        owner[ccm_pb] = names[parent[ccm_pb]] == f"passive_bf.{method}"
        out[f"passive_bf.{method}.iters"] = (per_call_iters(owner), "count")

    hybrid = np.flatnonzero(names == "transceiver.hybrid_factorize")
    nested = names == "manifold.ccm_descent.transceiver"
    alternations = np.bincount(parent[nested], minlength=n)[hybrid] if hybrid.size else np.zeros(0)
    out["transceiver.hybrid_factorize.alternations"] = (
        float(alternations.mean()) if hybrid.size else 0.0, "count")
    out["transceiver.hybrid_factorize.cap_hit_ratio"] = (
        float(np.mean(alternations >= HYBRID_CAP)) if hybrid.size else 0.0, "ratio")

    out["manifold.f_evals"] = (tracer.evals["f"] / trials, "count")
    out["manifold.grad_evals"] = (tracer.evals["grad"] / trials, "count")
    for stop in ("gap", "max_iters", "other"):
        out[f"manifold.stop.{stop}"] = (tracer.stops[stop] / trials, "count")
    for key in ("computed.effective_channel.cmacs", "computed.spgm_q.bytes",
                "computed.svd.input_elements"):
        unit = "bytes" if key.endswith("bytes") else "count"
        out[key] = (tracer.kernels[key] / trials, unit)
    raised_out = sum(c for (name, _), c in tracer.errors.items()
                     if not name.startswith("manifold."))
    out["harness.layer_errors"] = (raised_out / trials, "count")
    out["trace.spans"] = (n / trials, "count")
    return out
