"""Seeded Monte-Carlo experiment runner and CSV emission.

A sweep, an `ExperimentConfig` of `lisim.config`, varies one of
{tx_power_dbm, lis_elements, n_streams, n_rf, angle_error_deg} over a value
grid (n_rf sets both RF chain counts). Within a trial every method sees
the same channel realization, and trial t sees the same realization at
every sweep value (paired comparison along both axes). Per-trial seeds are
derived from the master seed and the (sweep index, trial index) pair, so
growing the trial count never reshuffles earlier trials; a method's
designs are keyed by the trial alone where the sweep variable does not
enter them (`_seed_key`). Each draw builds its generator from its key where
it draws (`_stream`), so what an item draws does not depend on what ran
before it.

A run specializes the config once per sweep value (`config._specialize`)
and runs its points, (sweep index, trial index) pairs, in groups that share
a geometry and stream count (`_groups`). A group factors its path sets into
one stacked path core (`_stacks`), and the points with one seed key for a
method share its design, made at a point whose index is that key. Each
method's designs take one batch, which gives one design table
(`_designs`): arrays with a leading design axis, and the digital rate of
every point that shares a design. Every rate, digital or hybrid, is one
form on the true cores with their bases, S = (Q_u^H U_W)^H core (Q_b^H F)
(`spectral_efficiency`). The group's hybrid jobs, one per design
and pair of RF chain counts, take one more batch (`_hybrid_rates`): one
pass over a table of slots, which draws nothing (each slot starts from its
paths' steering vectors), then one stacked rate, each precoder scaled
there to its point's power. `_batched` runs every batch and, on a numerical
failure, reruns each item alone. A group gives per-trial arrays over its
points (`_run_group`); `_run_trials` scatters them into (sweep value, method,
mode, trial) arrays, whose rows `run_sweep` reduces to CSV rows. A point's
values do not depend on its group, so the CSV is the same for any
grouping, serial or parallel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import accumulate
from time import perf_counter

import numpy as np

from .channel import (
    PathCore,
    PathSet,
    path_core,
    perturb_angles,
    sample_paths,
    sort_paths_descending,
    ula_responses,
)
# A sweep builds no dense channel; perfbench/spans.py looks these names up here.
from .channel import (  # noqa: F401
    assemble_channels,
    composite_path_vectors,
    effective_channel,
)
from .config import METHODS, ConfigError, ExperimentConfig, _specialize
# perfbench/run.py imports load_config from here
from .config import load_config  # noqa: F401
from .manifold import RetractionError
from .metrics import CombinerRankError, spectral_efficiency, truncated_condition_number
from .passive_bf import (
    coupling_matrix,
    offdiag_ratio,
    optimize_rate_stack,
    optimize_spgm_stack,
    optimize_tsvd_stack,
    random_phases,
    stream_weights,
)
# Sweeps descend stacks of points; perfbench/spans.py looks these names up here.
from .passive_bf import optimize_spgm, optimize_tsvd  # noqa: F401
from .transceiver import (
    RankError,
    digital_combiner,
    digital_precoder,
    hybrid_factorize,
    truncated_svd,
)

# Byte budget of one group's stacked path-core banks, one bank per design of
# the method with the most designs (points with one seed key share a
# method's design, `_seed_key`): 10 designs of the paper geometry
# (64-antenna ULAs, 16x16 LIS, 7x7 paths), 128 of the desk geometry
# (16-antenna ULAs, 8x8 LIS, 4x4 paths). A group factors its trials' path
# sets and the estimated path sets of its erred points into one core, of
# at most two budgets, and each method's designs read their true and
# estimated rows of it in place wherever the core holds them in order or
# they all sit on one row (`PathCore.__getitem__`); other row lists gather
# one copy, which methods with the same designs share. So it holds its
# core and at most one gathered budget each of true and of estimated rows
# (in a paper group at one power, the core alone): the memory a sweep adds
# stays within a small multiple of the budget, whatever its trial count.
# Every descent round and batched call is paid once per group, and the
# exact-rate descent costs less per point in larger stacks, so a paper
# sweep of up to 10 points (a chunk of either paper workload in perfbench/)
# runs as one group.
GROUP_BYTES = 2 ** 21

# Failures a trial may meet on a bad channel draw; they count in the row's
# `errors`. Any other exception is a bug and propagates out of run_sweep,
# among them passive_bf.StreamCountError, which a config that loads cannot
# meet (n_streams is capped by the path, RF chain and LIS element counts).
NUMERICAL_FAILURES = (RetractionError, RankError, CombinerRankError, FloatingPointError,
                      np.linalg.LinAlgError)


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    method: str
    precoding: str
    mean_se: float
    std_se: float
    mean_cond: float
    mean_offdiag: float
    mean_iters: float
    errors: int
    wall_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


# -- sweep execution --------------------------------------------------------

@dataclass(frozen=True)
class _Point:
    """One (sweep value, trial) pair's path sets."""

    cfg: ExperimentConfig    # specialized for the sweep value
    index: tuple[int, int]   # (sweep index, trial index)
    paths: PathSet
    est_paths: PathSet       # paths itself when there is no angle error


# The sweep variables that do not enter some methods' designs, and those
# methods: an n_rf sweep changes only the hybrid stage, and a power sweep
# only scales the digital stage of the designs that ignore the power.
_SHARED_DESIGNS = {"n_rf": METHODS, "tx_power_dbm": ("spgm", "random")}


def _seed_key(cfg: ExperimentConfig, method: str, sweep_idx: int,
              trial_idx: int) -> tuple[int, int]:
    """The seed key of a point's `method` design, which the points with one
    key share; it seeds only a `random` design's start.

    The channel draw is keyed by the trial index alone so that trial t sees
    the same realization at every sweep value (paired along the sweep axis),
    and angle errors by (sweep, trial). Designs are keyed by (sweep, trial)
    too, unless the sweep variable does not enter the method's design: every
    method in an n_rf sweep, `spgm` and `random` in a power sweep. Those are
    keyed by (0, trial), so their rows are paired along the sweep axis and a
    trial's points share one design, made at the first sweep value. An
    n_streams sweep keeps (sweep, trial) for every method, since its points
    never share a group.
    """
    shared = method in _SHARED_DESIGNS.get(cfg.sweep_variable, ())
    return (0 if shared else sweep_idx, trial_idx)


def _stream(cfg: ExperimentConfig, *spawn_key: int) -> np.random.Generator:
    """The generator of the master seed's stream `spawn_key`: (trial,) for a
    channel draw, (sweep, trial, 1) for an angle error and (seed key, 4)
    for a `random` design's phase start; children 2 and 3 of a seed key are
    unused, since no other design draws. It is the only place a generator
    is built: each is built where it draws."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=spawn_key))


def _draw_point(cfg: ExperimentConfig, specs: tuple[tuple[ExperimentConfig, float], ...],
                sweep_idx: int, trial_idx: int, paths: PathSet | None = None) -> _Point:
    """Draw one (sweep index, trial index) pair's path sets at its sweep
    value's specialization in `specs` (`_specialize`); `paths`, when given,
    is the trial's true path set, drawn already at another value."""
    run_cfg, beta = specs[sweep_idx]
    if paths is None:
        paths = sort_paths_descending(sample_paths(
            _stream(cfg, trial_idx), run_cfg.geometry, run_cfg.budget, run_cfg.p_paths,
            run_cfg.l_paths, run_cfg.bs_lis_distance, run_cfg.lis_ue_distance))
    est_paths = paths
    if beta > 0:   # only angles move: still sorted
        est_paths = perturb_angles(paths, beta, _stream(cfg, sweep_idx, trial_idx, 1))
    return _Point(run_cfg, (sweep_idx, trial_idx), paths, est_paths)


@dataclass(frozen=True)
class _Group:
    """One method's designs in a group: the point each is made at, whose
    index is the design's seed key, the group's points that share it and
    their transmit powers, and its rows of the group's stacked path cores."""

    points: list[_Point]
    sharers: list[list[int]]
    powers: list[list[float]]
    true: PathCore      # of the true path sets
    est: PathCore       # of the estimated path sets; `true` when no point has an error
    erred: np.ndarray   # (T,) bool, the designs with an angle error

    def __getitem__(self, rows: slice) -> _Group:
        true = self.true[rows]
        return _Group(self.points[rows], self.sharers[rows], self.powers[rows], true,
                      true if self.est is self.true else self.est[rows], self.erred[rows])


def _stacks(cfg: ExperimentConfig, specs: tuple[tuple[ExperimentConfig, float], ...],
            tasks: list[tuple[int, int]]) -> tuple[list[_Point], dict[str, _Group]]:
    """The points of the (sweep index, trial index) `tasks` of one group, and
    each method's designs among them. Each design is made at its first
    point, specialized by `specs` for the sweep value of its seed key and
    indexed by that key.

    Each trial's true path set is drawn once, at its first point. One
    `path_core` call factors each trial's path set and the estimated path
    set of each point with an angle error. Each method's designs then take
    their true rows and, when one has an error, their estimated rows
    (`PathCore.__getitem__`): views where the core holds them in order,
    such as every method's rows of a paper group at one power, or where
    they all sit on one row, such as a one-trial group's `tsvd` designs in
    a power sweep; a gathered copy otherwise, which methods with the same
    designs share. Every row is read-only and has the bits of its path
    set's core built alone.
    """
    trials: dict[int, PathSet] = {}   # each trial's true path set
    points = []
    for sweep_idx, trial_idx in tasks:
        points.append(_draw_point(cfg, specs, sweep_idx, trial_idx, trials.get(trial_idx)))
        trials.setdefault(trial_idx, points[-1].paths)
    row = {trial: k for k, trial in enumerate(trials)}
    true_rows = [row[p.index[1]] for p in points]
    paths = list(trials.values())
    est_rows = list(true_rows)
    for i, point in enumerate(points):
        if point.est_paths is not point.paths:
            est_rows[i] = len(paths)
            paths.append(point.est_paths)
    core = path_core(paths, points[0].cfg.geometry, *cfg.gains)
    stacks, gathered = {}, {}
    for method in cfg.methods:
        by_key: dict[tuple[int, int], list[int]] = {}   # the points of each seed key
        for i, point in enumerate(points):
            by_key.setdefault(_seed_key(cfg, method, *point.index), []).append(i)
        sharers = list(by_key.values())
        firsts = tuple(rows[0] for rows in sharers)
        if firsts not in gathered:
            erred = np.array([est_rows[i] != true_rows[i] for i in firsts])
            true = core[[true_rows[i] for i in firsts]]
            est = core[[est_rows[i] for i in firsts]] if erred.any() else true
            gathered[firsts] = true, est, erred
        stacks[method] = _Group(
            [points[i] if key == points[i].index
             else replace(points[i], cfg=specs[key[0]][0], index=key)
             for key, i in zip(by_key, firsts)],
            sharers, [[points[i].cfg.budget.tx_power for i in rows] for rows in sharers],
            *gathered[firsts])
    return points, stacks


def _passive_beamforming(method: str, group: _Group,
                         cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each point's LIS phase entries (T, M) for its estimated core, and its
    optimizer iterations.

    The points share a geometry and stream count, so each optimizer runs on
    the group's stacked core. `tsvd` and `spgm` start from each core row's
    strongest composite path and draw nothing; a `random` design draws its
    phases from child 4 of its seed key (`_stream`), built here.
    """
    points, core = group.points, group.est
    if method == "tsvd":
        gains = cfg.gains
        weights = np.stack([stream_weights(p.est_paths, p.cfg.budget, p.cfg.n_streams,
                                           *gains) for p in points])
        surrogate = optimize_tsvd_stack(core, weights, cfg.descent)
        refined = optimize_rate_stack(core, [p.cfg.budget for p in points],
                                      points[0].cfg.n_streams, cfg.descent, surrogate.points)
        phases, iters = refined.points, surrogate.iters + refined.iters
    elif method == "spgm":
        result = optimize_spgm_stack(core, cfg.descent)
        phases, iters = result.points, result.iters
    else:
        phases = np.stack([random_phases(_stream(cfg, *p.index, 4), core.m) for p in points])
        iters = np.zeros(len(points))
    return phases, np.asarray(iters, dtype=float)


def _batched(run, n: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The results of `run` that succeeded, and each item's success and ms.

    `run` maps a slice of its `n` items to one result for them, and what an
    item draws depends on its seed key alone. The batch runs once and each
    item is charged an equal share of its time. If it meets a numerical
    failure, each item runs alone, on its own slice, and draws what it drew
    in the batch, so only a failing item counts the error; the results are
    then those of the items that succeeded, in order.
    """
    start = perf_counter()
    try:
        found = [run(slice(None))]
    except NUMERICAL_FAILURES:
        found = []
    ms = np.full(n, (perf_counter() - start) * 1e3 / n)
    ok = np.full(n, bool(found))
    if found:
        return found, ok, ms
    for i in range(n):
        start = perf_counter()
        try:
            found.append(run(slice(i, i + 1)))
            ok[i] = True
        except NUMERICAL_FAILURES:
            pass
        ms[i] += (perf_counter() - start) * 1e3
    return found, ok, ms


@dataclass(frozen=True)
class _Designs:
    """Designs in path-core coordinates, as arrays with a leading design
    axis, and the digital rate of each point that shares one of them."""

    se: np.ndarray        # (n,) digital rate of each sharing point, design by design
    owner: np.ndarray     # (n,) the design of each rate
    point: np.ndarray     # (n,) the group's point of each rate
    cond: np.ndarray      # (D,)
    offdiag: np.ndarray   # (D,)
    iters: np.ndarray     # (D,)
    f_target: np.ndarray  # (D, N_t, N_s) Q_b V_c, of no power: each rate scales it
    w_target: np.ndarray  # (D, N_r, N_s) Q_u U_c, the digital combiner
    q_u: np.ndarray       # the true channel Q_u core Q_b^H: (D, N_r, L'),
    core: np.ndarray      # (D, L', P') at the design's phases,
    q_b: np.ndarray       # and (D, N_t, P')


def _concat(tables: list[_Designs]) -> _Designs:
    """The designs of `tables`, in order, as one table."""
    if len(tables) == 1:
        return tables[0]
    joined = {f.name: np.concatenate([getattr(t, f.name) for t in tables])
              for f in fields(_Designs)}
    starts = accumulate([len(t.iters) for t in tables], initial=0)
    joined["owner"] = np.concatenate([t.owner + k for t, k in zip(tables, starts)])
    return _Designs(**joined)


def _designs(method: str, group: _Group, cfg: ExperimentConfig) -> _Designs:
    """The table of the group's designs with `method`, made as one stack.

    The precoder and combiner come from the SVD of the estimated core and
    live in the column spaces Q_b, Q_u of the estimated steering matrices:
    they are the unit lifts Q_b V_c and Q_u U_c, which are also the hybrid
    targets. The digital rate, one for each point that shares a design at
    that point's power, is taken as `_hybrid_rates` takes a hybrid one, on
    the true core with its bases, and the condition number is that of the
    true core.
    """
    phases, iters = _passive_beamforming(method, group, cfg)
    points, true, est = group.points, group.true, group.est
    run_cfg = points[0].cfg
    n_streams = run_cfg.n_streams
    # X(v) of the true cores, taken once for the cores and the coupling; the
    # estimated cores are the true ones when no design has an angle error
    x_true = coupling_matrix(phases, true)
    c_true = true.left @ x_true @ true.right
    svd = truncated_svd(c_true if est is true else est.left @ est.gains(phases) @ est.right,
                        n_streams)
    # with an angle error, cond is that of the true core, whose singular
    # values the estimated core's SVD does not give
    sigma = svd.sigma1.copy()
    sigma[group.erred] = np.linalg.svd(c_true[group.erred], compute_uv=False)[:, :n_streams]
    f_target, w_target = est.q_b @ svd.v1, est.q_u @ digital_combiner(svd)
    owner = np.repeat(np.arange(len(points)), [len(powers) for powers in group.powers])
    f_each = digital_precoder(f_target[owner], np.concatenate(group.powers))
    return _Designs(
        se=spectral_efficiency(c_true[owner], f_each, w_target[owner],
                               run_cfg.budget.noise_power,
                               bases=(true.q_u[owner], true.q_b[owner])),
        owner=owner, point=np.concatenate(group.sharers),
        cond=truncated_condition_number(c_true, n_streams, sigma),
        offdiag=offdiag_ratio(x_true, n_streams), iters=iters,
        f_target=f_target, w_target=w_target, q_u=true.q_u, core=c_true, q_b=true.q_b)


def _hybrid_rates(points: list[_Point], table: _Designs, jobs: np.ndarray, job_of: np.ndarray,
                  sel: slice) -> tuple[np.ndarray, np.ndarray]:
    """The rates of `table` whose job (`job_of`) is one of jobs[sel], and
    their spectral efficiency with their job's hybrid precoder and combiner.

    A job, a row (design, first point) of `jobs`, is a design and the points
    that share it at one pair of RF chain counts. Its analog starts,
    precoder and combiner, hold sqrt(N) times the steering vectors of the
    strongest min(n_rf, P) estimated paths of its first point (L on the UE
    side), and nothing else: they span its targets, so chains beyond the
    paths would add nothing to them, and a job draws nothing. Every slot of
    one (N, n_rf) shape, precoders and combiners alike, takes one
    hybrid_factorize call (a slot's result does not depend on its stack),
    and every rate one stacked rate on the true cores. The targets are unit
    lifts, and each rate's precoder is its job's F_RF F_BB scaled once to
    its point's power (El Ayach et al., IEEE TWC 2014).
    """
    ids = np.arange(len(jobs))[sel]
    entries = np.flatnonzero((ids[0] <= job_of) & (job_of <= ids[-1]))
    run_cfg, firsts = points[0].cfg, [points[i] for i in jobs[ids, 1]]
    f, w = (np.empty((len(ids),) + t.shape[1:], complex) for t in (table.f_target, table.w_target))
    slots: dict[tuple[int, int], list] = {}   # (N, n_rf): its slots' target, angles, product
    for targets, products, angles in (
            (table.f_target, f, [p.est_paths.bs_lis_aod[:p.cfg.n_rf_tx] for p in firsts]),
            (table.w_target, w, [p.est_paths.lis_ue_aoa[:p.cfg.n_rf_rx] for p in firsts])):
        for design, found, product in zip(jobs[ids, 0], angles, products):
            slots.setdefault((len(product), len(found)), []).append(
                (targets[design], found, product))
    for (n, _), batch in slots.items():
        targets, angles, products = zip(*batch)
        start = math.sqrt(n) * ula_responses(np.stack(angles), n,
                                             run_cfg.geometry.spacing_ratio).swapaxes(1, 2)
        f_rf, f_bb = hybrid_factorize(np.stack(targets), start, run_cfg.descent)[:2]
        for product, value in zip(products, f_rf @ f_bb):
            product[:] = value   # F_RF F_BB, into its job's row of f or w
    norm = np.linalg.norm(f, axis=(1, 2))
    if not norm.all():
        raise RankError("degenerate factorization; cannot normalize power")
    job, design = job_of[entries] - ids[0], table.owner[entries]
    power = np.array([points[i].cfg.budget.tx_power for i in table.point[entries]])
    return entries, spectral_efficiency(
        table.core[design], f[job] * (np.sqrt(power) / norm[job])[:, None, None], w[job],
        run_cfg.budget.noise_power, bases=(table.q_u[design], table.q_b[design]))


@dataclass(frozen=True)
class _Trials:
    """Per-trial values, one entry per point, method and mode: arrays (n, M,
    K) over a group's tasks, or (V, M, K, T) over a run's sweep values and
    trials. A failed entry has NaN values apart from its wall time."""

    rate: np.ndarray
    cond: np.ndarray
    offdiag: np.ndarray
    iters: np.ndarray
    wall_ms: np.ndarray
    failed: np.ndarray


def _modes(cfg: ExperimentConfig) -> tuple[str, ...]:
    return ("digital", "hybrid") if cfg.precoding == "both" else (cfg.precoding,)


def _run_group(cfg: ExperimentConfig, specs: tuple[tuple[ExperimentConfig, float], ...],
               tasks: list[tuple[int, int]]) -> _Trials:
    """The values of each (sweep index, trial index) task of one group, at
    its sweep value's specialization in `specs`: arrays (tasks, methods, modes).

    The points and each method's designs come from `_stacks`, and the hybrid
    jobs index the design table, with no seed key. A digital entry's wall
    time is its design's share of its method's batch, split evenly among
    the points that share it, a hybrid entry's that plus its job's share of
    the hybrid batch, split likewise. A failed design fails its points'
    entries in every mode, and a failed job its points' hybrid entries.
    """
    points, stacks = _stacks(cfg, specs, tasks)
    modes = _modes(cfg)
    shape = (len(points), len(cfg.methods), len(modes))
    out = _Trials(*np.full((5,) + shape, math.nan), np.zeros(shape, dtype=bool))
    tables, methods = [], []   # for the hybrid jobs, and each design's method
    for m, method in enumerate(cfg.methods):
        group = stacks[method]
        found, ok, ms = _batched(lambda sel: _designs(method, group[sel], cfg), len(group.points))
        counts = np.array([len(rows) for rows in group.sharers])
        owner = np.repeat(np.arange(len(counts)), counts)
        at = np.concatenate(group.sharers)
        out.wall_ms[at, m] = (ms / counts)[owner, None]
        out.failed[at, m] = ~ok[owner, None]
        for table in found:
            out.cond[table.point, m] = table.cond[table.owner, None]
            out.offdiag[table.point, m] = table.offdiag[table.owner, None]
            out.iters[table.point, m] = table.iters[table.owner, None]
            if modes[0] == "digital":
                out.rate[table.point, m, 0] = table.se
        if modes[-1] == "hybrid":
            tables += found
            methods += [m] * int(ok.sum())
    if not tables:
        return out
    table = _concat(tables)
    at, m = table.point, np.array(methods)[table.owner]
    # a job per design and RF chain counts of its points: (design, first point)
    rf = np.array([(p.cfg.n_rf_tx, p.cfg.n_rf_rx) for p in points])
    _, firsts, job_of = np.unique(np.column_stack([table.owner, rf[at]]), axis=0,
                                  return_index=True, return_inverse=True)
    jobs = np.column_stack([table.owner[firsts], at[firsts]])
    found, ok, ms = _batched(partial(_hybrid_rates, points, table, jobs, job_of), len(jobs))
    k, failed = len(modes) - 1, ~ok[job_of]
    out.wall_ms[at, m, k] += (ms / np.bincount(job_of))[job_of]
    for values in (out.cond, out.offdiag, out.iters):
        values[at[failed], m[failed], k] = math.nan
    out.failed[at[failed], m[failed], k] = True
    for entries, rates in found:
        out.rate[at[entries], m[entries], k] = rates
    return out


def _groups(cfg: ExperimentConfig, specs: tuple[tuple[ExperimentConfig, float], ...],
            tasks: list[tuple[int, int]], parallel: int) -> list[list[tuple[int, int]]]:
    """Split the (sweep index, trial index) tasks into groups whose
    specializations in `specs` share a geometry and stream count, so a
    group's path cores and descents stack.

    Each shape's tasks, taken trial by trial, are cut into runs whose
    stacked path-core banks, one per design of the method with the most
    designs (`_seed_key`), fit GROUP_BYTES, and into at
    least `parallel` runs, so every worker gets a contiguous share. A run
    holds whole trials wherever it has room for all of a trial's values, so
    that it draws and factors each trial once. A group lists its tasks by
    (sweep index, trial index), as `run_sweep` orders them.
    """
    by_shape: dict[tuple, list] = {}
    for task in tasks:
        run_cfg = specs[task[0]][0]
        by_shape.setdefault((run_cfg.geometry, run_cfg.n_streams), []).append(task)
    groups = []
    for (geometry, _), members in by_shape.items():
        bank_bytes = cfg.l_paths * cfg.p_paths * geometry.m * np.dtype(complex).itemsize
        designs = max(len({_seed_key(cfg, method, sweep_idx, trial_idx)
                           for sweep_idx, trial_idx in members}) for method in cfg.methods)
        size = min(max(1, GROUP_BYTES // bank_bytes) * len(members) // designs,
                   -(-len(members) // parallel))
        values = len(members) // len({task[1] for task in members})
        if size >= values:
            size -= size % values
        by_trial = sorted(members, key=lambda task: task[1])
        groups.extend(sorted(by_trial[i:i + size]) for i in range(0, len(members), size))
    return groups


def _run_trials(cfg: ExperimentConfig, parallel: int = 1) -> _Trials:
    """The values of every point of the configured sweep: arrays (sweep
    values, methods, modes, trials), each group's scattered into place.
    Raises ConfigError if `parallel` is below 1 or a sweep value is bad, as
    `load_config` does, before any trial runs."""
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, not {parallel}")
    specs = _specialize(cfg)
    tasks = [(si, ti) for si in range(len(specs)) for ti in range(cfg.trials)]
    groups = _groups(cfg, specs, tasks, parallel)
    # a pool starts all its workers at once: no more than there are groups
    workers = min(parallel, len(groups))
    if workers > 1:
        # imported here: it pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_group = list(pool.map(_run_group, [cfg] * len(groups), [specs] * len(groups),
                                      groups, chunksize=1))
    else:
        per_group = [_run_group(cfg, specs, group) for group in groups]
    shape = (len(specs), len(cfg.methods), len(_modes(cfg)), cfg.trials)
    run = _Trials(*np.empty((5,) + shape), np.empty(shape, dtype=bool))
    for group, found in zip(groups, per_group):
        si, ti = np.array(group).T
        for f in fields(_Trials):
            getattr(run, f.name)[si, :, :, ti] = getattr(found, f.name)
    return run


def run_sweep(cfg: ExperimentConfig, parallel: int = 1) -> SweepResult:
    """Execute the configured sweep; deterministic for fixed config + seed.

    Reduces `_run_trials` to one row per (sweep value, method, mode), and
    raises ConfigError as it does. The result does not depend on `parallel`
    or on how the points are grouped.
    """
    cells = [(value, method, mode) for value in cfg.sweep_values
             for method in cfg.methods for mode in _modes(cfg)]
    return SweepResult(rows=_sweep_rows(cells, _run_trials(cfg, parallel)))


def _row_stats(values: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean and population std of the kept entries of each row of each
    of `values` (k, rows, n), by `keep` (rows, n); NaN for a row that keeps
    none.

    The rows that keep one count of entries are reduced as the rows of one
    C-ordered 2-D array: numpy sums each row pairwise along its contiguous
    axis, as it sums the row's kept entries alone, so each mean and std has
    the bits of np.mean and np.std of them (a transposed layout sums
    sequentially and moves last bits, and so does a 3-D layout).
    """
    mean, std = np.full(values.shape[:2], math.nan), np.full(values.shape[:2], math.nan)
    counts = keep.sum(axis=1)
    for count in set(counts.tolist()) - {0}:
        rows = np.flatnonzero(counts == count)
        block = np.ascontiguousarray(values[:, rows][:, keep[rows]]).reshape(-1, count)
        mean[:, rows] = block.mean(axis=1).reshape(len(values), -1)
        std[:, rows] = block.std(axis=1).reshape(len(values), -1)
    return mean, std


def _sweep_rows(cells: list[tuple[float, str, str]], trials: _Trials) -> tuple[SweepRow, ...]:
    """One CSV row per (sweep value, method, mode) cell from its entries of
    `trials`, one row of each array with its leading axes flattened: the
    mean and std of its good rates and the means of their condition
    numbers, off-diagonal ratios and iterations (NaN without a good entry),
    its count of failed entries and the mean wall time of all."""
    good = ~trials.failed.reshape(len(cells), -1)
    values = np.stack([trials.rate, trials.cond, trials.offdiag, trials.iters])
    (se, cond, offdiag, iters), (std_se, *_) = _row_stats(values.reshape(4, len(cells), -1),
                                                          good)
    wall = _row_stats(trials.wall_ms.reshape(1, len(cells), -1), np.ones_like(good))[0][0]
    errors = (~good).sum(axis=1)
    return tuple(SweepRow(*cell, *stats) for cell, *stats in zip(
        cells, se.tolist(), std_se.tolist(), cond.tolist(), offdiag.tolist(), iters.tolist(),
        errors.tolist(), wall.tolist()))


def emit_csv(result: SweepResult, path) -> None:
    """Write the sweep result with a fixed column order and 12+ digit floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            # each field named, not a loop over fields(SweepRow): the member
            # check of tests/test_imports.py counts only named reads
            writer.writerow([
                format(row.sweep_value, ".12g"), row.method, row.precoding,
                format(row.mean_se, ".12e"), format(row.std_se, ".12e"),
                format(row.mean_cond, ".12e"), format(row.mean_offdiag, ".12e"),
                format(row.mean_iters, ".12e"), str(row.errors),
                format(row.wall_ms, ".12e")])

