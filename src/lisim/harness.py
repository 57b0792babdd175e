"""Seeded Monte-Carlo experiment runner and CSV emission.

A sweep varies one of {tx_power_dbm, lis_elements, n_streams, n_rf,
angle_error_deg} over a value grid (n_rf sets both RF chain counts). Within
a trial every method sees the same channel realization, and trial t sees
the same realization at every sweep value (paired comparison along both
axes). Per-trial seeds are derived from the master seed and the (sweep
index, trial index) pair, so growing the trial count never reshuffles
earlier trials. The channel stream is keyed by the trial index alone, and
so are a method's starts where the sweep variable does not enter its
design (`_seed_key`): every method in an n_rf sweep, `spgm` and `random`
in a power sweep.

A sweep runs in groups of points (sweep value, trial) that share a geometry
and stream count, cut on trial boundaries to fit GROUP_BYTES. A group draws
and sorts each of its trials' path sets once and factors them into one
stacked L x P path core, with one more row for the estimated path set of
each point that has an angle error. Points with one seed key for a method
share its design, made at the key's sweep value, and each design gathers
its true and its estimated row from that stack; a method's designs that
all sit on one row read it in place. Each method takes one
batch over the group's designs: its optimizer runs as one stack
(`passive_bf.optimize_*_stack`), then the stacked digital stage (SVD,
precoder and combiner, condition number, the digital rate of every point
that shares the design at its own power, and hybrid targets). The group's
hybrid jobs, one per design and RF chain count, take one more batch: one
`hybrid_factorize` call for every slot of one (N, n_rf) shape, precoders
and combiners alike (one call per RF chain count when both sides have the
same antenna and RF chain counts), and one stacked rate on the true cores
per RF chain count. Each analog start holds the scaled steering vectors of
the design's strongest estimated paths, whose span holds its targets, then
random chains from the method generator, which the points of a seed key
share. A precoder is factored at its design's power; each point that
shares it rescales the digital stage to its own power. `_batched` runs
every batch and, on a numerical failure, reruns each item alone on its rows
from its saved generator state. A point's values do not depend on its
group, so the CSV is the same for any grouping, serial or parallel.
`_run_trial` is a group of one point.
"""

from __future__ import annotations

import csv
import math
from itertools import accumulate
from dataclasses import dataclass, field, replace
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
from .manifold import DescentConfig, PhaseVector, RetractionError
from .metrics import CombinerRankError, spectral_efficiency, truncated_condition_number
from .passive_bf import (
    coupling_matrix,
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
# sets and the estimated path sets of its erred points into one core, then
# gathers a copy of each method's designs' true rows and, when a point has
# an angle error, of their estimated rows; methods with the same designs
# share the copies, and designs that all sit on one row read it in place
# (`PathCore.__getitem__`). So it holds up to three budgets of banks (two
# without an angle error; in a power sweep one more row per trial, which
# `spgm` and `random` share), plus the rate descent's copy of the banks it
# gathered: the memory a sweep adds stays within a small multiple of the
# budget, whatever its trial count. Every descent round and batched call is
# paid once per group, and the exact-rate descent costs less per point in
# larger stacks, so a paper sweep of up to 10 points (a chunk of either
# paper workload in perfbench/) runs as one group.
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
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {raw!r}")
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
        _check_sweep(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# -- sweep execution --------------------------------------------------------

@dataclass(frozen=True)
class _TrialRecord:
    method: str
    precoding: str
    se: float
    cond: float
    offdiag: float
    iters: float
    wall_ms: float
    failed: bool = False


def _apply_sweep(cfg: ExperimentConfig, value: float) -> tuple[ExperimentConfig, float]:
    """Specialize the config for one sweep value; returns (config, angle error rad)."""
    if cfg.sweep_variable == "tx_power_dbm":
        return replace(cfg, budget=replace(cfg.budget, tx_power=dbm_to_watt(value))), 0.0
    if cfg.sweep_variable == "lis_elements":
        m = int(value)
        if m % cfg.geometry.lis_y != 0:
            raise ConfigError("lis_elements sweep values must be multiples of lis_y")
        geometry = replace(cfg.geometry, lis_z=m // cfg.geometry.lis_y)
        return replace(cfg, geometry=geometry), 0.0
    if cfg.sweep_variable in ("n_streams", "n_rf"):
        count = int(value)
        if count != value:
            raise ConfigError(f"{cfg.sweep_variable} sweep values must be integers")
        if cfg.sweep_variable == "n_streams":
            return replace(cfg, n_streams=count), 0.0
        return replace(cfg, n_rf_tx=count, n_rf_rx=count), 0.0
    if value < 0:
        raise ConfigError("angle_error_deg sweep values must be non-negative")
    return cfg, math.radians(value)


def _check_sweep(cfg: ExperimentConfig) -> None:
    """Specialize the config for every sweep value so a bad one fails before any trial."""
    for value in cfg.sweep_values:
        _apply_sweep(cfg, value)


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


def _draw_point(cfg: ExperimentConfig, sweep_idx: int, trial_idx: int, value: float,
                paths: PathSet | None = None,
                generators: dict[tuple[str, tuple[int, int]], np.random.Generator] | None = None
                ) -> _Point:
    """Seed one (sweep value, trial) pair and draw its path sets; `paths`, when
    given, is the trial's true path set, drawn already at another value.

    `generators`, when given, maps (method, seed key) to the method
    generators of earlier points and gains this point's: points with one
    seed key for a method share one generator, built once, as they share
    the design that draws from it."""
    run_cfg, beta = _apply_sweep(cfg, value)
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
        est_paths = sort_paths_descending(perturb_angles(paths, beta, child(index, 1)))
    keys = {method: _seed_key(cfg, method, *index) for method in run_cfg.methods}
    generators = {} if generators is None else generators
    rngs = {}
    for k, method in enumerate(run_cfg.methods):
        if (method, keys[method]) not in generators:
            generators[method, keys[method]] = child(keys[method], 2 + k)
        rngs[method] = generators[method, keys[method]]
    return _Point(run_cfg, index, keys, paths, est_paths, rngs)


def _designer(cfg: ExperimentConfig, point: _Point, method: str) -> _Point:
    """The point at which `method` designs for `point`: `point` itself or,
    when its seed key names another sweep value, `point` specialized for
    that value."""
    key = point.keys[method]
    if key == point.index:
        return point
    return replace(point, cfg=_apply_sweep(cfg, cfg.sweep_values[key[0]])[0], index=key)


@dataclass(frozen=True)
class _Group:
    """One method's designs in a group: the point each is made at, the
    transmit powers of the points that share it, and its rows of the
    group's stacked path cores."""

    points: list[_Point]
    powers: list[list[float]]
    true: PathCore      # of the true path sets
    est: PathCore       # of the estimated path sets; `true` when no point has an error
    erred: np.ndarray   # (T,) bool, the designs with an angle error

    def __getitem__(self, rows: slice) -> _Group:
        return _Group(self.points[rows], self.powers[rows], self.true[rows], self.est[rows],
                      self.erred[rows])


def _stacks(cfg: ExperimentConfig, points: list[_Point],
            trials: dict[int, PathSet]) -> dict[str, tuple[list[list[int]], _Group]]:
    """Each method's designs in the group of `points`, whose true path sets
    are among `trials` (trial index -> path set): the points that share each
    design, and the designs' group.

    One `path_core` call factors each trial's path set and the estimated
    path set of each point with an angle error. Each method's designs then
    gather a copy of their true rows and, when one has an error, of their
    estimated rows; methods with the same designs share the copies. Designs
    that all sit on one row, such as a one-trial group's `tsvd` designs in a
    power sweep, get read-only stride-0 views of it instead, which the
    descents read in place. Every row has the bits of its path set's core
    built alone.
    """
    row = {trial: k for k, trial in enumerate(trials)}
    true_rows = [row[p.index[1]] for p in points]
    paths = list(trials.values())
    est_rows = list(true_rows)
    for i, point in enumerate(points):
        if point.est_paths is not point.paths:
            est_rows[i] = len(paths)
            paths.append(point.est_paths)
    gains = dbi_to_amplitude(cfg.tx_gain_dbi), dbi_to_amplitude(cfg.rx_gain_dbi)
    core = path_core(paths, points[0].cfg.geometry, *gains)
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
        stacks[method] = sharers, _Group(
            [_designer(cfg, points[i], method) for i in firsts],
            [[points[i].cfg.budget.tx_power for i in rows] for rows in sharers],
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
        gains = dbi_to_amplitude(cfg.tx_gain_dbi), dbi_to_amplitude(cfg.rx_gain_dbi)
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
        phases = np.stack([random_phases(rng, core.m).entries for rng in rngs])
        iters = np.zeros(len(points))
    return phases, np.asarray(iters, dtype=float)


def _batched(run, rngs: list[np.random.Generator]) -> list[tuple[object, float]]:
    """(result, or None on failure; ms) per item of `run(slice(None))`.

    `run` maps a slice of the items to one result each, and item i draws
    only from rngs[i]. The batch runs once and each item is charged an
    equal share of its time. If it meets a numerical failure, each item
    runs alone, on its own slice, from the state its generator had before
    the batch, so only a failing item counts the error.
    """
    states = [rng.bit_generator.state for rng in rngs]
    start = perf_counter()
    try:
        found = run(slice(None))
    except NUMERICAL_FAILURES:
        found = None
    share_ms = _elapsed_ms(start) / len(rngs)
    if found is not None:
        return [(f, share_ms) for f in found]
    out = []
    for i, (rng, state) in enumerate(zip(rngs, states)):
        start = perf_counter()
        rng.bit_generator.state = state
        try:
            alone = run(slice(i, i + 1))[0]
        except NUMERICAL_FAILURES:
            alone = None
        out.append((alone, share_ms + _elapsed_ms(start)))
    return out


def _elapsed_ms(start: float) -> float:
    return (perf_counter() - start) * 1e3


def _split(values: np.ndarray, counts: list[int]) -> list[np.ndarray]:
    """`values` cut into consecutive runs of `counts` entries, as views (a
    slice per run costs less than np.split's per-run overhead)."""
    return [values[end - n:end] for n, end in zip(counts, accumulate(counts))]


@dataclass(frozen=True)
class _Design:
    """One method's design at one seed key: the values of its points'
    digital rows and what their hybrid rows need."""

    se: np.ndarray        # digital rate of each point that shares the design
    cond: float
    offdiag: float
    iters: float
    power: float          # transmit power of the design's point
    f_target: np.ndarray  # Q_b V_c scaled to `power`, N_t x N_s
    w_target: np.ndarray  # Q_u U_c, N_r x N_s
    q_u: np.ndarray       # the true channel Q_u core Q_b^H: N_r x L',
    core: np.ndarray      # L' x P' at the design's phases,
    q_b: np.ndarray       # and N_t x P'


def _designs(method: str, group: _Group, cfg: ExperimentConfig) -> list[_Design]:
    """Each design with `method`, in path-core coordinates, as one stack
    over the group's rows.

    The precoder and combiner come from the SVD of the estimated core and
    live in the column spaces Q_b, Q_u of the estimated steering matrices;
    the hybrid targets are their lifts, the precoder's at the design's
    power. The digital rate, one for each point that shares the design at
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
    coupling = coupling_matrix(phases, true)
    erred = group.erred
    x_est = est.gains(phases) if erred.any() else coupling.gains
    c_est = est.left @ x_est @ est.right
    svd = truncated_svd(c_est, n_streams)
    w_core = digital_combiner(svd)
    # with an angle error, rate and cond are those of the true core, whose
    # singular values the estimated core's SVD does not give
    c_true, c_seen, sigma = c_est, c_est, svd.sigma1
    if erred.any():
        c_true, c_seen, sigma = true.left @ coupling.gains @ true.right, c_est.copy(), sigma.copy()
        to_u = est.q_u[erred].conj().swapaxes(1, 2) @ true.q_u[erred]
        to_b = true.q_b[erred].conj().swapaxes(1, 2) @ est.q_b[erred]
        c_seen[erred] = to_u @ c_true[erred] @ to_b
        sigma[erred] = np.linalg.svd(c_true[erred], compute_uv=False)[:, :n_streams]
    cond = truncated_condition_number(c_true, n_streams, sigma)
    offdiag = coupling.offdiag_ratio(n_streams)
    counts = [len(powers) for powers in group.powers]
    shared = np.repeat(np.arange(len(points)), counts)
    f_each = digital_precoder(replace(svd, v1=svd.v1[shared]), np.concatenate(group.powers))
    se = spectral_efficiency(c_seen[shared], f_each, w_core[shared], run_cfg.budget.noise_power)
    power = np.array([p.cfg.budget.tx_power for p in points])
    return [_Design(*row) for row in zip(_split(se, counts), cond, offdiag,
                                         iters, power, est.q_b @ digital_precoder(svd, power),
                                         est.q_u @ w_core, true.q_u, c_true, true.q_b)]


def _analog_starts(points: list[_Point],
                   jobs: list[tuple[list[int], np.random.Generator, _Design]]) -> list[np.ndarray]:
    """Each job's analog starts (K x N x n_rf), precoders then combiners:
    sqrt(N) times the steering vectors of its points' strongest min(n_rf, P)
    estimated paths, then uniform random chains drawn from the job's own
    generator, its precoder's before its combiner's. The jobs share their
    RF chain counts."""
    run_cfg = points[jobs[0][0][0]].cfg
    geometry = run_cfg.geometry
    est = [points[rows[0]].est_paths for rows, _, _ in jobs]
    sides = ((geometry.n_tx, run_cfg.n_rf_tx, np.stack([p.bs_lis_aod for p in est])),
             (geometry.n_rx, run_cfg.n_rf_rx, np.stack([p.lis_ue_aoa for p in est])))
    starts = []
    for n, n_rf, angles in sides:
        steering = math.sqrt(n) * ula_responses(angles[:, :n_rf], n, geometry.spacing_ratio)
        shape = (max(n_rf - angles.shape[1], 0), n)
        chains = np.stack([np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))
                           for _, rng, _ in jobs])
        starts.append(np.concatenate([steering, chains], axis=1).swapaxes(1, 2))
    return starts


def _hybrid_rates(points: list[_Point],
                  jobs: list[tuple[list[int], np.random.Generator, _Design]]) -> list[np.ndarray]:
    """The spectral efficiency of each job's points with their hybrid
    precoders and combiners.

    A job is a design and the points that share it at one RF chain count.
    Every slot of one (N, n_rf) shape, precoders and combiners alike, takes
    one hybrid_factorize call from the starts of `_analog_starts`, each
    precoder normalized to its design's transmit power (a slot's result does
    not depend on its stack); so a config with as many receive as transmit
    antennas and RF chains takes one call per RF chain count. The jobs of
    each RF chain count then take one stacked rate on the true cores. Each
    point rescales its job's digital precoder to its own transmit power: the
    factorization is scale-equivariant, so this is the precoder factored at
    that power, up to rounding. The jobs share their noise power and descent
    settings.
    """
    by_rf: dict[tuple[int, int], list[int]] = {}
    for k, (rows, _, _) in enumerate(jobs):
        run_cfg = points[rows[0]].cfg
        by_rf.setdefault((run_cfg.n_rf_tx, run_cfg.n_rf_rx), []).append(k)
    by_shape: dict[tuple[int, int], tuple[list, list, list]] = {}  # targets, starts, norms
    places = []   # per RF chain count, the (shape, slice) of its precoders and combiners
    for ks in by_rf.values():
        designs = [jobs[k][2] for k in ks]
        sides = (([d.f_target for d in designs], [d.power for d in designs]),
                 ([d.w_target for d in designs], [None] * len(ks)))
        place = []
        for start, (targets, norms) in zip(_analog_starts(points, [jobs[k] for k in ks]),
                                           sides):
            batch = by_shape.setdefault(start.shape[1:], ([], [], []))
            place.append((start.shape[1:], slice(len(batch[2]), len(batch[2]) + len(ks))))
            batch[0].extend(targets)
            batch[1].append(start)
            batch[2].extend(norms)
        places.append(place)
    descent = points[0].cfg.descent
    factored = {shape: hybrid_factorize(np.stack(targets), np.concatenate(starts), descent,
                                        norms)
                for shape, (targets, starts, norms) in by_shape.items()}
    rates: list[np.ndarray] = [None] * len(jobs)
    for ks, ((f_shape, f_at), (w_shape, w_at)) in zip(by_rf.values(), places):
        sharers, _, designs = zip(*[jobs[k] for k in ks])
        run_cfg = points[sharers[0][0]].cfg
        f_rf, f_bb = (a[f_at] for a in factored[f_shape])
        w_rf, w_bb = (a[w_at] for a in factored[w_shape])
        counts = [len(rows) for rows in sharers]
        slot = np.repeat(np.arange(len(ks)), counts)
        scale = np.sqrt([points[i].cfg.budget.tx_power / d.power
                         for rows, d in zip(sharers, designs) for i in rows])
        q_u, core, q_b = (np.stack([getattr(d, name) for d in designs])[slot]
                          for name in ("q_u", "core", "q_b"))
        se = spectral_efficiency(core, f_rf[slot] @ (f_bb[slot] * scale[:, None, None]),
                                 (w_rf @ w_bb)[slot], run_cfg.budget.noise_power,
                                 bases=(q_u, q_b))
        for k, part in zip(ks, _split(se, counts)):
            rates[k] = part
    return rates


def _record(method: str, mode: str, design: _Design | None, se: float | None,
            wall_ms: float) -> _TrialRecord:
    """A row's record for one point: a failed one without a rate."""
    if se is None:
        return _TrialRecord(method, mode, math.nan, math.nan, math.nan, math.nan, wall_ms,
                            failed=True)
    return _TrialRecord(method, mode, se, design.cond, design.offdiag, design.iters, wall_ms)


def _run_group(cfg: ExperimentConfig,
               tasks: list[tuple[int, int, float]]) -> list[list[_TrialRecord]]:
    """Records of each (sweep index, trial index, value) task of one group.

    The tasks' specialized configs share a geometry and stream count, so
    their path cores stack. Each trial's path set is drawn once, and for
    each method the points of one seed key share one design: each method's
    designs run as one batch over its seed keys, then every hybrid job of
    the group, one per design and RF chain count, as one batch. The points
    of a seed key share its generator. A job draws its chains at the state
    the design left that generator in: the first RF chain count of a design
    from the generator itself, any other from a copy of that state. A
    digital row's wall time is its design's share of its method's batch,
    split evenly among the points that share it, a hybrid row's that plus
    its job's share of the hybrid batch, split likewise. A method that fails
    on a design fails its points' rows in every mode, and a failed job its
    points' hybrid rows.
    """
    trials: dict[int, PathSet] = {}   # each trial's true path set
    generators = {}                   # each (method, seed key)'s generator
    points = []
    for sweep_idx, trial_idx, value in tasks:
        points.append(_draw_point(cfg, sweep_idx, trial_idx, value, trials.get(trial_idx),
                                  generators))
        trials.setdefault(trial_idx, points[-1].paths)
    stacks = _stacks(cfg, points, trials)
    modes = ("digital", "hybrid") if cfg.precoding == "both" else (cfg.precoding,)
    records: list[list[_TrialRecord]] = [[] for _ in points]
    jobs, owners = [], []   # (points, generator, design) and (method, ms per point)
    for method in cfg.methods:
        sharers, group = stacks[method]
        found = _batched(lambda sel: _designs(method, group[sel], cfg),
                         [p.rngs[method] for p in group.points])
        for rows, (design, ms) in zip(sharers, found):
            ms /= len(rows)
            if design is None:
                for i in rows:
                    records[i] += [_record(method, mode, None, None, ms) for mode in modes]
                continue
            if "digital" in modes:
                for i, se in zip(rows, design.se):
                    records[i].append(_record(method, "digital", design, se, ms))
            if "hybrid" not in modes:
                continue
            designed = points[rows[0]].rngs[method]   # the generator the design drew from
            by_rf: dict[tuple[int, int], list[int]] = {}
            for i in rows:
                by_rf.setdefault((points[i].cfg.n_rf_tx, points[i].cfg.n_rf_rx), []).append(i)
            for n, same_rf in enumerate(by_rf.values()):
                rng = designed
                if n:   # another RF chain count draws from its own copy of that state
                    rng = np.random.default_rng(0)
                    rng.bit_generator.state = designed.bit_generator.state
                jobs.append((same_rf, rng, design))
                owners.append((method, ms))
    rates = _batched(lambda sel: _hybrid_rates(points, jobs[sel]),
                     [rng for _, rng, _ in jobs]) if jobs else []
    for (rows, _, design), (method, ms), (se, hybrid_ms) in zip(jobs, owners, rates):
        for i, point_se in zip(rows, [None] * len(rows) if se is None else se):
            records[i].append(_record(method, "hybrid", design, point_se,
                                      ms + hybrid_ms / len(rows)))
    return records


def _run_trial(cfg: ExperimentConfig, sweep_idx: int, trial_idx: int,
               value: float) -> list[_TrialRecord]:
    """One channel draw, every method on it: a group of one point."""
    return _run_group(cfg, [(sweep_idx, trial_idx, value)])[0]


def _groups(cfg: ExperimentConfig, tasks: list[tuple[int, int, float]],
            parallel: int) -> list[list[tuple[int, int, float]]]:
    """Split the tasks into groups that share a geometry and stream count,
    so a group's path cores and descents stack.

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
        run_cfg, _ = _apply_sweep(cfg, task[2])
        by_shape.setdefault((run_cfg.geometry, run_cfg.n_streams), []).append(task)
    groups = []
    for (geometry, _), members in by_shape.items():
        bank_bytes = cfg.l_paths * cfg.p_paths * geometry.m * np.dtype(complex).itemsize
        designs = max(len({_seed_key(cfg, method, sweep_idx, trial_idx)
                           for sweep_idx, trial_idx, _ in members}) for method in cfg.methods)
        size = min(max(1, GROUP_BYTES // bank_bytes) * len(members) // designs,
                   -(-len(members) // parallel))
        values = len(members) // len({task[1] for task in members})
        if size >= values:
            size -= size % values
        by_trial = sorted(members, key=lambda task: task[1])
        groups.extend(sorted(by_trial[i:i + size]) for i in range(0, len(members), size))
    return groups


def run_sweep(cfg: ExperimentConfig, parallel: int = 1) -> SweepResult:
    """Execute the configured sweep; deterministic for fixed config + seed.

    The result does not depend on `parallel` or on how the points are
    grouped: every point's values equal those of its one-point group.

    Raises ConfigError if `parallel` is below 1.
    """
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, not {parallel}")
    _check_sweep(cfg)
    tasks = [(si, ti, value)
             for si, value in enumerate(cfg.sweep_values)
             for ti in range(cfg.trials)]
    groups = _groups(cfg, tasks, parallel)
    if parallel > 1:
        # imported here: it pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            per_group = list(pool.map(_run_group, [cfg] * len(groups), groups, chunksize=1))
    else:
        per_group = [_run_group(cfg, group) for group in groups]
    by_task = {task: records for group, found in zip(groups, per_group)
               for task, records in zip(group, found)}

    grouped: dict[tuple[int, str, str], list[_TrialRecord]] = {}
    for task in tasks:
        for rec in by_task[task]:
            grouped.setdefault((task[0], rec.method, rec.precoding), []).append(rec)

    modes = ("digital", "hybrid") if cfg.precoding == "both" else (cfg.precoding,)
    keys = [(si, method, mode) for si in range(len(cfg.sweep_values))
            for method in cfg.methods for mode in modes]
    return SweepResult(rows=_sweep_rows(
        [(cfg.sweep_values[si], method, mode) for si, method, mode in keys],
        [grouped.get(key, []) for key in keys]))


def _row_stats(samples: list[list[float]]) -> tuple[np.ndarray, np.ndarray]:
    """The mean and population std of each list of `samples`, NaN for an empty one.

    The lists of one length are reduced as the rows of one C-ordered array:
    numpy sums each row pairwise along its contiguous axis, as it sums the
    list alone, so each mean and std has the bits of np.mean and np.std of
    its list (a transposed layout sums sequentially and moves last bits).
    """
    mean, std = np.full(len(samples), math.nan), np.full(len(samples), math.nan)
    by_length: dict[int, list[int]] = {}
    for i, values in enumerate(samples):
        if values:
            by_length.setdefault(len(values), []).append(i)
    for rows in by_length.values():
        block = np.array([samples[i] for i in rows], dtype=float)
        mean[rows], std[rows] = block.mean(axis=1), block.std(axis=1)
    return mean, std


def _sweep_rows(cells: list[tuple[float, str, str]],
                records: list[list[_TrialRecord]]) -> tuple[SweepRow, ...]:
    """One CSV row per (sweep value, method, mode) cell from its records: the
    mean and std of the rates of its good records and the means of their
    condition numbers, off-diagonal ratios and iterations (NaN without a good
    record), its count of failed records and the mean wall time of all."""
    good = [[r for r in recs if not r.failed] for recs in records]
    se, std_se = _row_stats([[r.se for r in g] for g in good])
    cond, offdiag, iters = (_row_stats([[getattr(r, name) for r in g] for g in good])[0]
                            for name in ("cond", "offdiag", "iters"))
    wall = _row_stats([[r.wall_ms for r in recs] for recs in records])[0]
    return tuple(
        SweepRow(sweep_value=value, method=method, precoding=mode,
                 mean_se=float(se[k]), std_se=float(std_se[k]), mean_cond=float(cond[k]),
                 mean_offdiag=float(offdiag[k]), mean_iters=float(iters[k]),
                 errors=len(records[k]) - len(good[k]), wall_ms=float(wall[k]))
        for k, (value, method, mode) in enumerate(cells))


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
                             levels: int) -> tuple[PhaseVector, float]:
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
    return PhaseVector(best_v), best_obj
