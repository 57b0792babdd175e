"""Experiment configuration: the sweep a run executes, read from a flat
`key = value` file through one table of keys (`KEYS`), and specialized for
each sweep value (`_specialize`)."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

from .channel import ArrayGeometry, LinkBudget
from .manifold import DescentConfig
from .units import dbi_to_amplitude, dbm_to_watt, thermal_noise_dbm

SWEEP_VARIABLES = ("tx_power_dbm", "lis_elements", "n_streams", "n_rf", "angle_error_deg")
METHODS = ("tsvd", "spgm", "random")
PRECODING_MODES = ("digital", "hybrid", "both")
_SWEPT_COUNTS = {"n_streams": ("n_streams",), "n_rf": ("n_rf_tx", "n_rf_rx")}


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
        if not self.methods or not set(self.methods) <= set(METHODS):
            raise ConfigError(f"methods must be a non-empty subset of {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError("methods must not repeat")
        if self.n_streams > min(self.p_paths, self.l_paths):
            raise ConfigError("n_streams must not exceed min(p_paths, l_paths)")
        # the cascade channel has rank at most the LIS element count
        if self.n_streams > self.geometry.m:
            raise ConfigError("n_streams must not exceed the LIS element count lis_y * lis_z")
        try:
            finite = all(0.0 < gain < math.inf for gain in self.gains)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("tx_gain_dbi and rx_gain_dbi must give a positive, finite amplitude")
        # each hop's LOS and NLOS path power in dB (array prefactor, 6 sigma of
        # shadowing either way) and the cascade's extremes, the top one over the
        # noise, must be normal float64 values, or a draw or rate over/underflows
        budget, hops = self.budget, []
        for distance, n, count in ((self.bs_lis_distance, self.geometry.n_tx, self.p_paths),
                                   (self.lis_ue_distance, self.geometry.n_rx, self.l_paths)):
            power = (10 * math.log10(n * self.geometry.m / count) - budget.a_intercept
                     - 10 * budget.b_exponent * math.log10(distance))
            hops.append([power + shift * budget.shadow_sigma - mu for shift in (-6, 6)
                         for mu in (0.0, budget.rician_mu)])
        gain = self.tx_gain_dbi + self.rx_gain_dbi
        snr = 10 * (math.log10(budget.tx_power) - math.log10(budget.noise_power))
        powers = [*hops[0], *hops[1], min(hops[0]) + min(hops[1]) + gain,
                  max(hops[0]) + max(hops[1]) + gain + max(snr, 0.0)]
        low, high = (10 * math.log10(x) for x in (sys.float_info.min, sys.float_info.max))
        for power in powers:
            if not low <= power <= high:
                raise ConfigError(f"the link budget reaches {power:.6g} dB, outside float64's "
                                  f"{low:.1f} to {high:.1f} dB")

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


# Each file key: the field it sets, `object.field` for one of the geometry,
# budget and descent, and the type of its value. A tuple of one type is a
# comma list, a tuple of three an x,y,z triple. A `_dbm` key sets its field
# to the power in watts.
KEYS = {
    "n_tx": ("geometry.n_tx", int),
    "n_rx": ("geometry.n_rx", int),
    "lis_y": ("geometry.lis_y", int),
    "lis_z": ("geometry.lis_z", int),
    "spacing_ratio": ("geometry.spacing_ratio", float),
    "tx_power_dbm": ("budget.tx_power", float),
    "noise_dbm": ("budget.noise_power", float),
    "bandwidth_hz": ("budget.bandwidth_hz", float),
    "tx_gain_dbi": ("tx_gain_dbi", float),
    "rx_gain_dbi": ("rx_gain_dbi", float),
    "rician_mu_db": ("budget.rician_mu", float),
    "pathloss_a": ("budget.a_intercept", float),
    "pathloss_b": ("budget.b_exponent", float),
    "shadow_sigma_db": ("budget.shadow_sigma", float),
    "bs_pos": ("bs_pos", (float, float, float)),
    "lis_pos": ("lis_pos", (float, float, float)),
    "ue_pos": ("ue_pos", (float, float, float)),
    "n_streams": ("n_streams", int),
    "r_t": ("n_rf_tx", int),
    "r_r": ("n_rf_rx", int),
    "p_paths": ("p_paths", int),
    "l_paths": ("l_paths", int),
    "sweep_variable": ("sweep_variable", str),
    "sweep_values": ("sweep_values", (float,)),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "methods": ("methods", (str,)),
    "precoding": ("precoding", str),
    "descent_epsilon": ("descent.epsilon", float),
    "descent_max_iters": ("descent.max_iters", int),
}


def _parse(key: str, kind, text: str, lineno: int):
    """`text`, the value of `key` on line `lineno`, read as a `kind`, its type in KEYS."""
    if isinstance(kind, tuple):
        items = [item.strip() for item in text.split(",")]
        if len(kind) > 1 and len(items) != len(kind):
            raise ConfigError(f"line {lineno}: {key} needs an x,y,z triple")
        if items == [""]:
            raise ConfigError(f"line {lineno}: {key} must be non-empty")
        kinds = kind if len(kind) > 1 else kind * len(items)
        return tuple(_parse(key, k, item, lineno) for k, item in zip(kinds, items))
    try:
        if not text:
            raise ValueError("an empty item is no value")
        value = kind(text)
        if key.endswith("_dbm"):
            dbm_to_watt(value)   # a power no float holds overflows here, named
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {text!r}")
    except OverflowError:
        raise ConfigError(f"line {lineno}: {key!r} = {text} is out of range")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"line {lineno}: {key!r} must be finite, not {text!r}")
    return value


def load_config(path) -> ExperimentConfig:
    """Parse a flat key/value config file and apply it onto the defaults.

    Lines look like `key = value`; `#` starts a comment. Positions are
    `x,y,z` meter triples, powers in dBm, gains in dBi, angles in degrees.
    """
    raw: dict[str, object] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, text = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: {key!r} is set twice")
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = _parse(key, KEYS[key][1], text, lineno)

    base = ExperimentConfig()
    variable = raw.get("sweep_variable", base.sweep_variable)
    # a power sweep sets the transmit power at every point, so the config's
    # own power is the one-value default sweep or a conflict
    if variable == "tx_power_dbm" and "tx_power_dbm" in raw:
        if "sweep_values" in raw:
            raise ConfigError("a tx_power_dbm sweep takes its powers from sweep_values; "
                              "drop tx_power_dbm or sweep another variable")
        raw["sweep_values"] = (raw["tx_power_dbm"],)
    try:
        # the one default that is not the dataclasses': the bandwidth's thermal floor
        bandwidth = raw.get("bandwidth_hz", base.budget.bandwidth_hz)
        raw.setdefault("noise_dbm", thermal_noise_dbm(bandwidth))
        changes: dict[str, dict[str, object]] = {"": {}}   # object -> {field: value}
        for key, value in raw.items():
            outer, _, name = KEYS[key][0].rpartition(".")
            value = dbm_to_watt(value) if key.endswith("_dbm") else value
            changes.setdefault(outer, {})[name] = value
        # a count sweep's base holds its first count, as its first point does:
        # no point reads the base count, and `_specialize` checks every point
        top = changes.pop("")
        first = int(top.get("sweep_values", base.sweep_values)[0])
        top.update(dict.fromkeys(_SWEPT_COUNTS.get(variable, ()), first))
        cfg = replace(base, **top, **{outer: replace(getattr(base, outer), **values)
                                       for outer, values in changes.items()})
        _specialize(cfg)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


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
        if cfg.sweep_variable in _SWEPT_COUNTS:
            return replace(cfg, **dict.fromkeys(_SWEPT_COUNTS[cfg.sweep_variable], count)), 0.0
        if count < 1 or count % cfg.geometry.lis_y:
            raise ConfigError("sweep values must be positive multiples of lis_y")
        return replace(cfg, geometry=replace(cfg.geometry, lis_z=count // cfg.geometry.lis_y)), 0.0
    except (ValueError, OverflowError) as exc:
        reason = "out of range" if isinstance(exc, OverflowError) else exc
        raise ConfigError(f"{cfg.sweep_variable} sweep value {value:g}: {reason}") from exc


def _specialize(cfg: ExperimentConfig) -> tuple[tuple[ExperimentConfig, float], ...]:
    """`_apply_sweep` of each sweep value, in order, shared by a run's points."""
    return tuple(_apply_sweep(cfg, value) for value in cfg.sweep_values)
