"""Seeded Monte-Carlo experiment runner and CSV emission.

A sweep varies one of {tx_power_dbm, lis_elements, n_streams, n_rf,
angle_error_deg} over a value grid (n_rf sets both RF chain counts). Within
a trial every method sees the same channel realization, and trial t sees
the same realization at every sweep value (paired comparison along both
axes). Per-trial seeds are derived from the master seed and the (sweep
index, trial index) pair, so growing the trial count never reshuffles
earlier trials; a method's starts are keyed by the trial alone where the
sweep variable does not enter its design (`_seed_key`).

A run specializes the config once per sweep value (`_specialize`) and runs
its points, (sweep index, trial index) pairs, in groups that share a
geometry and stream count (`_groups`). A group factors its path sets into
one stacked path core (`_stacks`), and the points with one seed key for a
method share its design. Each method's designs take one batch, which gives
one design table (`_designs`): arrays with a leading design axis, and the
digital rate of every point that shares a design. The group's hybrid jobs,
index rows (design, RF chain count) into the table of all its designs,
take one more batch (`_hybrid_rates`). `_batched` runs every batch and, on
a numerical failure, reruns each item alone from its saved generator
state. A group gives per-trial arrays over its points (`_run_group`);
`_run_trials` scatters them into (sweep value, method, mode, trial) arrays,
whose rows `run_sweep` reduces to CSV rows. A point's values do not depend
on its group, so the CSV is the same for any grouping, serial or parallel.
"""

from __future__ import annotations

import csv
import math
from copy import deepcopy
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import accumulate
from time import perf_counter

import numpy as np

from .channel import (
    ArrayGeometry,
    LinkBudget,
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
from .manifold import DescentConfig, RetractionError
from .metrics import CombinerRankError, spectral_efficiency, truncated_condition_number
from .passive_bf import (
    coupling_matrix,
    offdiag_ratio,
    optimize_rate_stack,
    optimize_spgm_stack,
    optimize_tsvd_stack,
    random_phases,
    stream_weights,
    tsvd_objective,
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
from .units import dbi_to_amplitude, dbm_to_watt, thermal_noise_dbm

SWEEP_VARIABLES = ("tx_power_dbm", "lis_elements", "n_streams", "n_rf", "angle_error_deg")
METHODS = ("tsvd", "spgm", "random")
PRECODING_MODES = ("digital", "hybrid", "both")
CSV_COLUMNS = ("sweep_value", "method", "precoding", "mean_se", "std_se",
               "mean_cond", "mean_offdiag", "mean_iters", "errors", "wall_ms")

ORACLE_STATE_LIMIT = 10 ** 7

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
# meet (n_streams is capped by the path and RF chain counts).
NUMERICAL_FAILURES = (RetractionError, RankError, CombinerRankError, FloatingPointError,
                      np.linalg.LinAlgError)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep experiment."""

    geometry: ArrayGeometry = ArrayGeometry(n_tx=64, n_rx=64, lis_y=16, lis_z=16)
    budget: LinkBudget = LinkBudget()
    n_streams: int = 4
    n_rf_tx: int = 6
    n_rf_rx: int = 6
    p_paths: int = 7
    l_paths: int = 7
    bs_pos: tuple[float, float, float] = (2.0, 0.0, 10.0)
    lis_pos: tuple[float, float, float] = (0.0, 148.0, 10.0)
    ue_pos: tuple[float, float, float] = (5.0, 150.0, 1.8)
    tx_gain_dbi: float = 24.5
    rx_gain_dbi: float = 0.0
    sweep_variable: str = "tx_power_dbm"
    sweep_values: tuple[float, ...] = (30.0,)
    trials: int = 100
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    precoding: str = "digital"
    descent: DescentConfig = field(default_factory=DescentConfig)

    def __post_init__(self):
        if self.n_streams < 1:
            raise ConfigError("n_streams must be >= 1")
        if self.n_streams > min(self.n_rf_tx, self.n_rf_rx):
            raise ConfigError("n_streams must not exceed min(n_rf_tx, n_rf_rx)")
        if self.n_rf_tx > self.geometry.n_tx or self.n_rf_rx > self.geometry.n_rx:
            raise ConfigError("RF chain counts must not exceed the antenna counts of their side")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.bs_lis_distance == 0 or self.lis_ue_distance == 0:
            raise ConfigError("bs_pos and ue_pos must differ from lis_pos")
        if not self.sweep_values:
            raise ConfigError("sweep_values must be non-empty")
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.sweep_variable!r}")
        if self.precoding not in PRECODING_MODES:
            raise ConfigError(f"unknown precoding mode {self.precoding!r}")
        bad = set(self.methods) - set(METHODS)
        if bad or not self.methods:
            raise ConfigError(f"methods must be a non-empty subset of {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError("methods must not repeat")
        if self.n_streams > min(self.p_paths, self.l_paths):
            raise ConfigError("n_streams must not exceed min(p_paths, l_paths)")
        try:
            finite = all(0.0 < gain < math.inf for gain in self.gains)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("tx_gain_dbi and rx_gain_dbi must give a positive, finite amplitude")

    @property
    def gains(self) -> tuple[float, float]:
        """The linear amplitudes of the transmit and receive antenna gains."""
        return dbi_to_amplitude(self.tx_gain_dbi), dbi_to_amplitude(self.rx_gain_dbi)

    @property
    def bs_lis_distance(self) -> float:
        return math.dist(self.bs_pos, self.lis_pos)

    @property
    def lis_ue_distance(self) -> float:
        return math.dist(self.lis_pos, self.ue_pos)


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


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


# -- configuration file parsing ---------------------------------------------

_INT_KEYS = {"n_tx", "n_rx", "lis_y", "lis_z", "r_t", "r_r", "n_streams",
             "p_paths", "l_paths", "trials", "seed", "descent_max_iters"}
_FLOAT_KEYS = {"spacing_ratio", "tx_power_dbm", "noise_dbm", "bandwidth_hz",
               "tx_gain_dbi", "rx_gain_dbi", "rician_mu_db",
               "pathloss_a", "pathloss_b", "shadow_sigma_db", "descent_epsilon"}
_POS_KEYS = {"bs_pos", "lis_pos", "ue_pos"}
_LIST_KEYS = {"sweep_values", "methods"}
_STR_KEYS = {"sweep_variable", "precoding"}


def _parse_scalar(key, raw, lineno):
    try:
        value = int(raw) if key in _INT_KEYS else float(raw)
        if key.endswith("_dbm"):
            dbm_to_watt(value)   # a power no float holds overflows here, named
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {raw!r}")
    except OverflowError:
        raise ConfigError(f"line {lineno}: {key!r} = {raw} is out of range")
    if not math.isfinite(value):
        raise ConfigError(f"line {lineno}: {key!r} must be finite, not {raw!r}")
    return value


def load_config(path) -> ExperimentConfig:
    """Parse a flat key/value config file and apply the default setup.

    Lines look like `key = value`; `#` starts a comment. Positions are
    `x,y,z` meter triples, powers in dBm, gains in dBi, angles in degrees.
    """
    raw: dict[str, object] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in raw:
                raise ConfigError(f"line {lineno}: {key!r} is set twice")
            if key in _INT_KEYS or key in _FLOAT_KEYS:
                raw[key] = _parse_scalar(key, value, lineno)
            elif key in _POS_KEYS:
                parts = value.split(",")
                if len(parts) != 3:
                    raise ConfigError(f"line {lineno}: {key} needs an x,y,z triple")
                raw[key] = tuple(_parse_scalar(key, p.strip(), lineno) for p in parts)
            elif key in _LIST_KEYS:
                items = [p.strip() for p in value.split(",") if p.strip()]
                if not items:
                    raise ConfigError(f"line {lineno}: {key} must be non-empty")
                if key == "sweep_values":
                    raw[key] = tuple(_parse_scalar(key, p, lineno) for p in items)
                else:
                    raw[key] = tuple(items)
            elif key in _STR_KEYS:
                raw[key] = value
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")

    # every default is the dataclasses' own, apart from the noise floor: the
    # thermal floor of the bandwidth
    base = ExperimentConfig()
    g, b = base.geometry, base.budget
    sweep_variable = raw.get("sweep_variable", base.sweep_variable)
    sweep_values = raw.get("sweep_values", base.sweep_values)
    # a power sweep sets the transmit power at every point, so the config's
    # own power is the one-value default sweep or a conflict
    if sweep_variable == "tx_power_dbm" and "tx_power_dbm" in raw:
        if "sweep_values" in raw:
            raise ConfigError("a tx_power_dbm sweep takes its powers from sweep_values; "
                              "drop tx_power_dbm or sweep another variable")
        sweep_values = (raw["tx_power_dbm"],)
    try:
        geometry = ArrayGeometry(
            n_tx=raw.get("n_tx", g.n_tx), n_rx=raw.get("n_rx", g.n_rx),
            lis_y=raw.get("lis_y", g.lis_y), lis_z=raw.get("lis_z", g.lis_z),
            spacing_ratio=raw.get("spacing_ratio", g.spacing_ratio))
        bandwidth = raw.get("bandwidth_hz", b.bandwidth_hz)
        noise_dbm = raw.get("noise_dbm", thermal_noise_dbm(bandwidth))
        budget = LinkBudget(
            a_intercept=raw.get("pathloss_a", b.a_intercept),
            b_exponent=raw.get("pathloss_b", b.b_exponent),
            shadow_sigma=raw.get("shadow_sigma_db", b.shadow_sigma),
            rician_mu=raw.get("rician_mu_db", b.rician_mu),
            bandwidth_hz=bandwidth,
            noise_power=dbm_to_watt(noise_dbm),
            tx_power=dbm_to_watt(raw["tx_power_dbm"]) if "tx_power_dbm" in raw else b.tx_power)
        descent = DescentConfig(
            epsilon=raw.get("descent_epsilon", base.descent.epsilon),
            max_iters=raw.get("descent_max_iters", base.descent.max_iters))
        cfg = ExperimentConfig(
            geometry=geometry, budget=budget,
            n_streams=raw.get("n_streams", base.n_streams),
            n_rf_tx=raw.get("r_t", base.n_rf_tx), n_rf_rx=raw.get("r_r", base.n_rf_rx),
            p_paths=raw.get("p_paths", base.p_paths), l_paths=raw.get("l_paths", base.l_paths),
            bs_pos=raw.get("bs_pos", base.bs_pos),
            lis_pos=raw.get("lis_pos", base.lis_pos),
            ue_pos=raw.get("ue_pos", base.ue_pos),
            tx_gain_dbi=raw.get("tx_gain_dbi", base.tx_gain_dbi),
            rx_gain_dbi=raw.get("rx_gain_dbi", base.rx_gain_dbi),
            sweep_variable=sweep_variable,
            sweep_values=sweep_values,
            trials=raw.get("trials", base.trials),
            seed=raw.get("seed", base.seed),
            methods=raw.get("methods", base.methods),
            precoding=raw.get("precoding", base.precoding),
            descent=descent)
        _specialize(cfg)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# -- sweep execution --------------------------------------------------------

def _apply_sweep(cfg: ExperimentConfig, value: float) -> tuple[ExperimentConfig, float]:
    """Specialize the config for one sweep value; returns (config, angle error rad).
    ConfigError names the variable and value for any bad one, also a power with no budget."""
    try:
        if not math.isfinite(value):
            raise ConfigError("sweep values must be finite")
        if cfg.sweep_variable == "tx_power_dbm":
            return replace(cfg, budget=replace(cfg.budget, tx_power=dbm_to_watt(value))), 0.0
        if cfg.sweep_variable == "angle_error_deg":
            if value < 0:
                raise ConfigError("sweep values must be non-negative")
            return cfg, math.radians(value)
        count = int(value)
        if count != value:
            raise ConfigError("sweep values must be integers")
        if cfg.sweep_variable == "n_streams":
            return replace(cfg, n_streams=count), 0.0
        if cfg.sweep_variable == "n_rf":
            return replace(cfg, n_rf_tx=count, n_rf_rx=count), 0.0
        if count < 1 or count % cfg.geometry.lis_y:
            raise ConfigError("sweep values must be positive multiples of lis_y")
        return replace(cfg, geometry=replace(cfg.geometry, lis_z=count // cfg.geometry.lis_y)), 0.0
    except (ValueError, OverflowError) as exc:
        reason = "out of range" if isinstance(exc, OverflowError) else exc
        raise ConfigError(f"{cfg.sweep_variable} sweep value {value:g}: {reason}") from exc


def _specialize(cfg: ExperimentConfig) -> tuple[tuple[ExperimentConfig, float], ...]:
    """`_apply_sweep` of each sweep value, in order, shared by a run's points."""
    return tuple(_apply_sweep(cfg, value) for value in cfg.sweep_values)


@dataclass(frozen=True)
class _Point:
    """One (sweep value, trial) pair's path sets and method generators."""

    cfg: ExperimentConfig    # specialized for the sweep value
    index: tuple[int, int]   # (sweep index, trial index)
    keys: dict[str, tuple[int, int]]      # `_seed_key` of each method
    paths: PathSet
    est_paths: PathSet       # paths itself when there is no angle error
    rngs: dict[str, np.random.Generator]  # one per method, seeded by its key
                                          # and shared by the points of that key


# The sweep variables that do not enter some methods' designs, and those
# methods: an n_rf sweep changes only the hybrid stage, and a power sweep
# only scales the digital stage of the designs that ignore the power.
_SHARED_DESIGNS = {"n_rf": METHODS, "tx_power_dbm": ("spgm", "random")}


def _seed_key(cfg: ExperimentConfig, method: str, sweep_idx: int,
              trial_idx: int) -> tuple[int, int]:
    """The seed key of a point's `method` starts.

    The channel draw is keyed by the trial index alone so that trial t sees
    the same realization at every sweep value (paired along the sweep axis),
    and angle errors by (sweep, trial). Method starts are keyed by (sweep,
    trial) too, unless the sweep variable does not enter the method's
    design: every method in an n_rf sweep, `spgm` and `random` in a power
    sweep. Their starts are keyed by (0, trial), so their rows are paired
    along the sweep axis and a trial's points share one design, made at the
    first sweep value. An n_streams sweep keeps (sweep, trial) for every
    method, since its points never share a group.
    """
    shared = method in _SHARED_DESIGNS.get(cfg.sweep_variable, ())
    return (0 if shared else sweep_idx, trial_idx)


def _draw_point(cfg: ExperimentConfig, specs: tuple[tuple[ExperimentConfig, float], ...],
                sweep_idx: int, trial_idx: int, paths: PathSet | None = None,
                generators: dict[tuple[str, tuple[int, int]], np.random.Generator] | None = None
                ) -> _Point:
    """Seed one (sweep index, trial index) pair and draw its path sets at
    its sweep value's specialization in `specs` (`_specialize`); `paths`,
    when given, is the trial's true path set, drawn already at another value.

    A method's generator is child 2 + its index in METHODS of its seed
    key's sequence, so its draws do not depend on which other methods the
    config lists. `generators`, when given, maps (method, seed key) to the
    method generators of earlier points and gains this point's: points with
    one seed key for a method share one generator, built once, as they
    share the design that draws from it."""
    run_cfg, beta = specs[sweep_idx]
    if paths is None:
        chan_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial_idx,)))
        paths = sort_paths_descending(sample_paths(
            chan_rng, run_cfg.geometry, run_cfg.budget, run_cfg.p_paths, run_cfg.l_paths,
            run_cfg.bs_lis_distance, run_cfg.lis_ue_distance))

    # child k of a key's seed sequence, as its spawn() would give it
    def child(key: tuple[int, int], k: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=key + (k,)))

    index = (sweep_idx, trial_idx)
    est_paths = paths
    if beta > 0:
        est_paths = perturb_angles(paths, beta, child(index, 1))   # only angles move: still sorted
    keys = {method: _seed_key(cfg, method, *index) for method in run_cfg.methods}
    generators = {} if generators is None else generators
    rngs = {}
    for method in run_cfg.methods:
        if (method, keys[method]) not in generators:
            generators[method, keys[method]] = child(keys[method], 2 + METHODS.index(method))
        rngs[method] = generators[method, keys[method]]
    return _Point(run_cfg, index, keys, paths, est_paths, rngs)


@dataclass(frozen=True)
class _Group:
    """One method's designs in a group: the point each is made at, the
    group's points that share it and their transmit powers, and its rows of
    the group's stacked path cores."""

    points: list[_Point]
    sharers: list[list[int]]
    powers: list[list[float]]
    true: PathCore      # of the true path sets
    est: PathCore       # of the estimated path sets; `true` when no point has an error
    erred: np.ndarray   # (T,) bool, the designs with an angle error

    def __getitem__(self, rows: slice) -> _Group:
        return _Group(self.points[rows], self.sharers[rows], self.powers[rows], self.true[rows],
                      self.est[rows], self.erred[rows])


def _stacks(cfg: ExperimentConfig, specs: tuple[tuple[ExperimentConfig, float], ...],
            points: list[_Point], trials: dict[int, PathSet]) -> dict[str, _Group]:
    """Each method's designs in the group of `points`, whose true path sets
    are among `trials` (trial index -> path set). Each design is made at its
    first point, specialized by `specs` for the sweep value of its seed key.

    One `path_core` call factors each trial's path set and the estimated
    path set of each point with an angle error. Each method's designs then
    take their true rows and, when one has an error, their estimated rows
    (`PathCore.__getitem__`): views where the core holds them in order,
    such as every method's rows of a paper group at one power, or where
    they all sit on one row, such as a one-trial group's `tsvd` designs in
    a power sweep; a gathered copy otherwise, which methods with the same
    designs share. Every row is read-only and has the bits of its path
    set's core built alone.
    """
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
            by_key.setdefault(point.keys[method], []).append(i)
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
    return stacks


def _passive_beamforming(method: str, group: _Group,
                         cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each point's LIS phase entries (T, M) for its estimated core, and its
    optimizer iterations.

    The points share a geometry and stream count, so each optimizer runs on
    the group's stacked core; each point's generator draws its start.
    """
    points, core = group.points, group.est
    rngs = [p.rngs[method] for p in points]
    if method == "tsvd":
        gains = cfg.gains
        weights = np.stack([stream_weights(p.est_paths, p.cfg.budget, p.cfg.n_streams,
                                           *gains) for p in points])
        surrogate = optimize_tsvd_stack(core, weights, cfg.descent, rngs)
        refined = optimize_rate_stack(core, [p.cfg.budget for p in points],
                                      points[0].cfg.n_streams, cfg.descent, surrogate.points)
        phases, iters = refined.points, surrogate.iters + refined.iters
    elif method == "spgm":
        result = optimize_spgm_stack(core, cfg.descent, rngs)
        phases, iters = result.points, result.iters
    else:
        phases = np.stack([random_phases(rng, core.m) for rng in rngs])
        iters = np.zeros(len(points))
    return phases, np.asarray(iters, dtype=float)


def _batched(run, rngs: list[np.random.Generator]) -> tuple[list, np.ndarray, np.ndarray]:
    """The results of `run` that succeeded, and each item's success and ms.

    `run` maps a slice of the items to one result for them, and item i draws
    only from rngs[i]. The batch runs once and each item is charged an
    equal share of its time. If it meets a numerical failure, each item
    runs alone, on its own slice, from the state its generator had before
    the batch, so only a failing item counts the error; the results are
    then those of the items that succeeded, in order.
    """
    states = [rng.bit_generator.state for rng in rngs]
    start = perf_counter()
    try:
        found = [run(slice(None))]
    except NUMERICAL_FAILURES:
        found = []
    ms = np.full(len(rngs), (perf_counter() - start) * 1e3 / len(rngs))
    ok = np.full(len(rngs), bool(found))
    if found:
        return found, ok, ms
    for i, (rng, state) in enumerate(zip(rngs, states)):
        start = perf_counter()
        rng.bit_generator.state = state
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
    power: np.ndarray     # (D,) transmit power of the design's point
    f_target: np.ndarray  # (D, N_t, N_s) Q_b V_c scaled to `power`
    w_target: np.ndarray  # (D, N_r, N_s) Q_u U_c
    q_u: np.ndarray       # the true channel Q_u core Q_b^H: (D, N_r, L'),
    core: np.ndarray      # (D, L', P') at the design's phases,
    q_b: np.ndarray       # and (D, N_t, P')


def _concat(tables: list[_Designs]) -> _Designs:
    """The designs of `tables`, in order, as one table."""
    if len(tables) == 1:
        return tables[0]
    joined = {f.name: np.concatenate([getattr(t, f.name) for t in tables])
              for f in fields(_Designs)}
    starts = accumulate([len(t.power) for t in tables], initial=0)
    joined["owner"] = np.concatenate([t.owner + k for t, k in zip(tables, starts)])
    return _Designs(**joined)


def _designs(method: str, group: _Group, cfg: ExperimentConfig) -> _Designs:
    """The table of the group's designs with `method`, made as one stack.

    The precoder and combiner come from the SVD of the estimated core and
    live in the column spaces Q_b, Q_u of the estimated steering matrices;
    the hybrid targets are their lifts, the precoder's at the design's
    power. The digital rate, one for each point that shares a design at
    that point's power, is that of the true core written in those bases,
    (Q_u^est^H Q_u) core (Q_b^H Q_b^est), and the condition number that of
    the true core.
    """
    phases, iters = _passive_beamforming(method, group, cfg)
    points, true, est = group.points, group.true, group.est
    run_cfg = points[0].cfg
    n_streams = run_cfg.n_streams
    # X(v) of the true cores, taken once for the cores and the coupling; the
    # estimated cores are the true ones when no design has an angle error
    x_true = coupling_matrix(phases, true)
    erred = group.erred
    x_est = est.gains(phases) if erred.any() else x_true
    c_est = est.left @ x_est @ est.right
    svd = truncated_svd(c_est, n_streams)
    w_core = digital_combiner(svd)
    # with an angle error, rate and cond are those of the true core, whose
    # singular values the estimated core's SVD does not give
    c_true, c_seen, sigma = c_est, c_est, svd.sigma1
    if erred.any():
        c_true, c_seen, sigma = true.left @ x_true @ true.right, c_est.copy(), sigma.copy()
        to_u = est.q_u[erred].conj().swapaxes(1, 2) @ true.q_u[erred]
        to_b = true.q_b[erred].conj().swapaxes(1, 2) @ est.q_b[erred]
        c_seen[erred] = to_u @ c_true[erred] @ to_b
        sigma[erred] = np.linalg.svd(c_true[erred], compute_uv=False)[:, :n_streams]
    owner = np.repeat(np.arange(len(points)), [len(powers) for powers in group.powers])
    f_each = digital_precoder(replace(svd, v1=svd.v1[owner]), np.concatenate(group.powers))
    power = np.array([p.cfg.budget.tx_power for p in points])
    return _Designs(
        se=spectral_efficiency(c_seen[owner], f_each, w_core[owner], run_cfg.budget.noise_power),
        owner=owner, point=np.concatenate(group.sharers),
        cond=truncated_condition_number(c_true, n_streams, sigma),
        offdiag=offdiag_ratio(x_true, n_streams), iters=iters, power=power,
        f_target=est.q_b @ digital_precoder(svd, power), w_target=est.q_u @ w_core,
        q_u=true.q_u, core=c_true, q_b=true.q_b)


def _hybrid_rates(points: list[_Point], table: _Designs, jobs: np.ndarray, job_of: np.ndarray,
                  rngs: list[np.random.Generator], sel: slice) -> tuple[np.ndarray, np.ndarray]:
    """The rates of `table` whose job (`job_of`) is one of jobs[sel], and
    their spectral efficiency with their job's hybrid precoder and combiner.

    A job, a row (design, RF chain count, first point) of `jobs`, is a
    design and the points that share it at one RF chain count. Its analog
    starts, precoder and combiner, hold sqrt(N) times the steering vectors
    of the strongest min(n_rf, P) estimated paths of its first point, then
    random chains from its generator rngs[job]. Every slot of one (N, n_rf)
    shape, precoders and combiners alike, takes one hybrid_factorize call,
    each precoder normalized to its design's power (a slot's result does not
    depend on its stack), and each RF chain count one stacked rate on the
    true cores. Each point rescales its job's digital precoder to its own
    power: the factorization is scale-equivariant, so this is the precoder
    factored at that power, up to rounding.
    """
    ids = np.arange(len(jobs))[sel]
    entries = np.flatnonzero((ids[0] <= job_of) & (job_of <= ids[-1]))
    count_of = jobs[job_of[entries], 1]   # the RF chain count of each rate
    by_shape: dict[tuple[int, int], tuple[list, list, list]] = {}  # targets, starts, norms
    places = []   # per RF chain count, its jobs and the places of their slots
    for count in sorted(set(jobs[ids, 1].tolist())):
        ks = ids[jobs[ids, 1] == count]
        designs, run_cfg = jobs[ks, 0], points[jobs[ks[0], 2]].cfg
        geometry, est = run_cfg.geometry, [points[i].est_paths for i in jobs[ks, 2]]
        place = []
        for n, n_rf, angles, targets, norms in (
                (geometry.n_tx, run_cfg.n_rf_tx, [p.bs_lis_aod for p in est],
                 table.f_target[designs], table.power[designs].tolist()),
                (geometry.n_rx, run_cfg.n_rf_rx, [p.lis_ue_aoa for p in est],
                 table.w_target[designs], [None] * len(ks))):
            angles = np.stack(angles)[:, :n_rf]
            steering = math.sqrt(n) * ula_responses(angles, n, geometry.spacing_ratio)
            chains = [np.exp(1j * rngs[k].uniform(0.0, 2.0 * np.pi, (n_rf - angles.shape[1], n)))
                      for k in ks]
            start = np.concatenate([steering, np.stack(chains)], axis=1).swapaxes(1, 2)
            batch = by_shape.setdefault(start.shape[1:], ([], [], []))
            place.append((start.shape[1:], slice(len(batch[2]), len(batch[2]) + len(ks))))
            batch[0].append(targets)
            batch[1].append(start)
            batch[2].extend(norms)
        places.append((count, ks, place))
    run_cfg = points[0].cfg
    factored = {shape: hybrid_factorize(np.concatenate(targets), np.concatenate(starts),
                                        run_cfg.descent, norms)[:2]
                for shape, (targets, starts, norms) in by_shape.items()}
    rates = np.empty(len(entries))
    for count, ks, ((f_shape, f_at), (w_shape, w_at)) in places:
        f_rf, f_bb = (a[f_at] for a in factored[f_shape])
        w_rf, w_bb = (a[w_at] for a in factored[w_shape])
        mine = np.flatnonzero(count_of == count)
        slot, design = np.searchsorted(ks, job_of[entries[mine]]), table.owner[entries[mine]]
        scale = np.sqrt(np.array([points[i].cfg.budget.tx_power
                                  for i in table.point[entries[mine]]]) / table.power[design])
        rates[mine] = spectral_efficiency(
            table.core[design], f_rf[slot] @ (f_bb[slot] * scale[:, None, None]),
            (w_rf @ w_bb)[slot], run_cfg.budget.noise_power,
            bases=(table.q_u[design], table.q_b[design]))
    return entries, rates


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

    A design's first hybrid job draws from the generator the design drew
    from, at the state the design left it in, any other from a copy of that
    state. A digital entry's wall time is its design's share of its
    method's batch, split evenly among the points that share it, a hybrid
    entry's that plus its job's share of the hybrid batch, split likewise.
    A failed design fails its points' entries in every mode, and a failed
    job its points' hybrid entries.
    """
    trials: dict[int, PathSet] = {}   # each trial's true path set
    generators = {}                   # each (method, seed key)'s generator
    points = []
    for sweep_idx, trial_idx in tasks:
        points.append(_draw_point(cfg, specs, sweep_idx, trial_idx, trials.get(trial_idx),
                                  generators))
        trials.setdefault(trial_idx, points[-1].paths)
    stacks = _stacks(cfg, specs, points, trials)
    modes = _modes(cfg)
    shape = (len(points), len(cfg.methods), len(modes))
    out = _Trials(*np.full((5,) + shape, math.nan), np.zeros(shape, dtype=bool))
    tables, methods, rngs = [], [], []   # for the hybrid jobs: each design's method, generator
    for m, method in enumerate(cfg.methods):
        group = stacks[method]
        found, ok, ms = _batched(lambda sel: _designs(method, group[sel], cfg),
                                 [p.rngs[method] for p in group.points])
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
            rngs += [group.points[d].rngs[method] for d in np.flatnonzero(ok)]
    if not tables:
        return out
    table = _concat(tables)
    at, m = table.point, np.array(methods)[table.owner]
    rf_index: dict[tuple[int, int], int] = {}   # each RF chain count's index
    rf = np.array([rf_index.setdefault((p.cfg.n_rf_tx, p.cfg.n_rf_rx), len(rf_index))
                   for p in points])
    # a job per design and RF chain count of its points: (design, count, first point)
    keys, firsts, job_of = np.unique(table.owner * len(points) + rf[at], return_index=True,
                                     return_inverse=True)
    jobs = np.column_stack([*np.divmod(keys, len(points)), at[firsts]])
    job_rngs = [rngs[d] if new else deepcopy(rngs[d])
                for d, new in zip(jobs[:, 0], np.diff(jobs[:, 0], prepend=-1) != 0)]
    found, ok, ms = _batched(partial(_hybrid_rates, points, table, jobs, job_of, job_rngs),
                             job_rngs)
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
    if parallel > 1:
        # imported here: it pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as pool:
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
            writer.writerow([
                format(row.sweep_value, ".12g"), row.method, row.precoding,
                format(row.mean_se, ".12e"), format(row.std_se, ".12e"),
                format(row.mean_cond, ".12e"), format(row.mean_offdiag, ".12e"),
                format(row.mean_iters, ".12e"), str(row.errors),
                format(row.wall_ms, ".12e")])


# -- brute-force oracle -----------------------------------------------------

def brute_force_phase_oracle(core: PathCore, weights: np.ndarray,
                             levels: int) -> tuple[np.ndarray, float]:
    """Exhaustive search over quantized phase states for the rate surrogate.

    Enumerates every v with phases on the `levels`-point grid and returns the
    maximizer of sum_i log2(1 + a_i |v^H p^{ii}|^2) together with its value;
    `core` is a stack of one and `weights` (N_s,) is as for `optimize_tsvd`.

    Raises ConfigError if `levels` is below 1 or the search space holds more
    than ORACLE_STATE_LIMIT states.
    """
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, not {levels}")
    m = core.m
    total = levels ** m
    if total > ORACLE_STATE_LIMIT:
        raise ConfigError(f"search space {levels}^{m} exceeds {ORACLE_STATE_LIMIT}")
    _, (diag_vectors, weights) = tsvd_objective(core, np.asarray(weights)[None])
    step = 2.0 * np.pi / levels
    best_obj = -np.inf
    best_v = None
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        digits = np.stack(np.unravel_index(idx, (levels,) * m), axis=1)
        v = np.exp(1j * step * digits)                    # (chunk, M)
        d = v.conj() @ diag_vectors[0].T                  # (chunk, N_s)
        obj = np.sum(np.log2(1.0 + weights * np.abs(d) ** 2), axis=1)
        k = int(np.argmax(obj))
        if obj[k] > best_obj:
            best_obj = float(obj[k])
            best_v = v[k]
    return best_v, best_obj
