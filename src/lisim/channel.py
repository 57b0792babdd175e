"""Clustered mmWave channel synthesis for an LIS-assisted BS-LIS-UE link.

Steering vectors (ULA at BS/UE, UPA at the LIS), path sampling with a
LOS/NLOS power offset, log-distance path loss with shadowing, the
composite-path vectors, and the L x P path core of the cascade channel that
the sweeps run on. The dense channel matrices (`assemble_channels`,
`effective_channel`) are the reference the core is tested against.

Conventions:
- UPA elements are ordered row-major over (m1, m2) with the z-index m2
  varying fastest; `upa_responses` and `composite_path_vectors` share it.
- The LIS reflection state is a unit-modulus vector v with v_m = e^{-j phi_m},
  so the reflection matrix is diag(conj(v)).
- CN(0, s) means independent real/imag parts, each Normal(0, s/2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from .units import dbm_to_watt


class ChannelShapeError(ValueError):
    """Inputs are dimensionally inconsistent."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna/element counts and normalized spacing for BS, UE and LIS."""

    n_tx: int
    n_rx: int
    lis_y: int
    lis_z: int
    spacing_ratio: float = 0.5

    def __post_init__(self):
        if min(self.n_tx, self.n_rx, self.lis_y, self.lis_z) < 1:
            raise ValueError("antenna/element counts must be >= 1")
        if self.spacing_ratio <= 0:
            raise ValueError("spacing_ratio must be positive")

    @property
    def m(self) -> int:
        return self.lis_y * self.lis_z


@dataclass(frozen=True)
class LinkBudget:
    """Large-scale link parameters, powers in linear scale (watts)."""

    a_intercept: float = 61.4
    b_exponent: float = 2.0
    shadow_sigma: float = 5.8
    rician_mu: float = 10.0
    bandwidth_hz: float = 251.1886e6
    noise_power: float = dbm_to_watt(-90.0)
    tx_power: float = dbm_to_watt(30.0)

    def __post_init__(self):
        if self.noise_power <= 0 or self.tx_power <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("noise_power, tx_power and bandwidth_hz must be positive")


@dataclass(frozen=True)
class PathSet:
    """Sampled path gains and angles for the BS->LIS and LIS->UE links.

    Gains carry the sqrt(N_t M / P) (resp. sqrt(M N_r / L)) array prefactors,
    so channel assembly is a plain sum of scaled outer products. The arrays
    may carry leading axes, one entry per path set of a stack (`path_core`).
    """

    bs_lis_gain: np.ndarray   # (P,) complex
    bs_lis_aod: np.ndarray    # (P,) BS departure angle
    bs_lis_aoa_az: np.ndarray  # (P,) LIS arrival azimuth
    bs_lis_aoa_el: np.ndarray  # (P,) LIS arrival elevation
    lis_ue_gain: np.ndarray   # (L,) complex
    lis_ue_aod_az: np.ndarray  # (L,) LIS departure azimuth
    lis_ue_aod_el: np.ndarray  # (L,) LIS departure elevation
    lis_ue_aoa: np.ndarray    # (L,) UE arrival angle

    def __post_init__(self):
        p = self.bs_lis_gain.shape[-1]
        l = self.lis_ue_gain.shape[-1]
        if p < 1 or l < 1:
            raise ValueError("need at least one path per link")
        for arr in (self.bs_lis_aod, self.bs_lis_aoa_az, self.bs_lis_aoa_el):
            if arr.shape != self.bs_lis_gain.shape:
                raise ChannelShapeError("BS-LIS angle arrays must match gain count")
        for arr in (self.lis_ue_aod_az, self.lis_ue_aod_el, self.lis_ue_aoa):
            if arr.shape != self.lis_ue_gain.shape:
                raise ChannelShapeError("LIS-UE angle arrays must match gain count")

    @property
    def n_bs_lis(self) -> int:
        return self.bs_lis_gain.shape[-1]

    @property
    def n_lis_ue(self) -> int:
        return self.lis_ue_gain.shape[-1]


@dataclass(frozen=True)
class MmWaveChannel:
    """Dense BS->LIS (g) and LIS->UE (r) matrices plus scalar antenna gains."""

    g: np.ndarray  # (M, N_t)
    r: np.ndarray  # (N_r, M)
    tx_gain: float = 1.0  # linear amplitude factor
    rx_gain: float = 1.0

    def __post_init__(self):
        if self.g.ndim != 2 or self.r.ndim != 2 or self.g.shape[0] != self.r.shape[1]:
            raise ChannelShapeError("g is M x N_t and r is N_r x M with matching M")

    @property
    def m(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class PathCore:
    """Cascade channels H(v) = Q_u (left X(v) right) Q_b^H of a stack of T
    path sets of one shape, one row of every array per path set.

    X(v)[i, j] = v^H p^{ij} is L x P. Q_u T_u and Q_b T_b are the reduced QR
    factorizations of the UE and BS steering matrices (one column per path),
    `left` = g T_u diag(beta) and `right` = diag(alpha) T_b^H, with g the
    product of the scalar antenna gains; the triangular factors enter only
    through `left` and `right`. Q_u and Q_b have orthonormal columns, so
    H(v) and its small core left X(v) right share their singular values and
    everything that lives in the column spaces of H(v) can be computed on
    the core. Every row equals, bit for bit, the core of its path set alone.
    """

    bank: np.ndarray   # (T, L * P, M), row i * P + j holds p^{ij}
    q_u: np.ndarray    # (T, N_r, min(N_r, L))
    q_b: np.ndarray    # (T, N_t, min(N_t, P))
    left: np.ndarray   # (T, min(N_r, L), L)
    right: np.ndarray  # (T, P, min(N_t, P))

    @property
    def m(self) -> int:
        return self.bank.shape[2]

    def __getitem__(self, rows: slice | list[int]) -> PathCore:
        """The cores of `rows`: views for a slice and for a list whose rows
        the core holds in that order, read-only gathered copies for others.

        A list that names consecutive rows r, r + 1, ..., r + n - 1 in order
        gives the views self[r:r + n], and the core itself when it names
        every row. A list that names one row more than once gives read-only
        views of that row with a stride-0 leading axis, which the loops read
        in place (`manifold.shares_rows`)."""
        arrays = [getattr(self, f.name) for f in fields(self)]
        if isinstance(rows, list) and rows:
            r, n = rows[0], len(rows)
            if list(range(len(self.bank))[r:r + n]) == rows:
                return self if n == len(self.bank) else self[r:r + n]
            if n > 1 and rows.count(r) == n:
                return PathCore(*(np.broadcast_to(a[r:r + 1], (n,) + a.shape[1:])
                                  for a in arrays))
        return PathCore(*(_read_only(a[rows]) for a in arrays))

    def gains(self, v: np.ndarray) -> np.ndarray:
        """X(v), the (T, L, P) passive beamforming gains v^H p^{ij} at (T, M) phases v."""
        if v.shape != (len(self.bank), self.m):
            raise ChannelShapeError("need one phase vector of the LIS size per core")
        return (self.bank @ v.conj()[:, :, None]).reshape(
            len(v), self.left.shape[2], self.right.shape[1])


def ula_responses(gammas: np.ndarray, n: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Normalized ULA steering vectors for the angles `gammas` (any shape), on a new last axis."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n)
    gammas = np.asarray(gammas, dtype=float)
    return np.exp(2j * np.pi * spacing_ratio * k * np.sin(gammas)[..., None]) / np.sqrt(n)


def upa_responses(thetas: np.ndarray, etas: np.ndarray, m_y: int, m_z: int,
                  spacing_ratio: float = 0.5) -> np.ndarray:
    """Normalized UPA steering vectors for azimuths `thetas` and elevations `etas`
    (one shape, any), on a new last axis.

    Element order is row-major over (m1, m2), z-index fastest.
    """
    if m_y < 1 or m_z < 1:
        raise ValueError("m_y and m_z must be >= 1")
    thetas = np.asarray(thetas, dtype=float)[..., None, None]
    etas = np.asarray(etas, dtype=float)[..., None, None]
    m1 = np.arange(m_y)[:, None]
    m2 = np.arange(m_z)[None, :]
    phase = 2 * np.pi * spacing_ratio * (m1 * np.cos(etas) * np.sin(thetas)
                                         + m2 * np.sin(etas))
    m = m_y * m_z
    return np.exp(1j * phase).reshape(phase.shape[:-2] + (m,)) / np.sqrt(m)


def path_loss_db(distance_m: float, budget: LinkBudget,
                 rng: np.random.Generator) -> float:
    """Log-distance path loss with lognormal shadowing, in dB."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    shadow = rng.normal(0.0, budget.shadow_sigma) if budget.shadow_sigma > 0 else 0.0
    return budget.a_intercept + 10.0 * budget.b_exponent * np.log10(distance_m) + shadow


def _complex_normal(rng: np.random.Generator, variance: float, size) -> np.ndarray:
    scale = np.sqrt(variance / 2.0)
    return rng.normal(0.0, scale, size) + 1j * rng.normal(0.0, scale, size)


def sample_paths(rng: np.random.Generator, geometry: ArrayGeometry,
                 budget: LinkBudget, p_paths: int, l_paths: int,
                 bs_lis_distance_m: float = 148.0,
                 lis_ue_distance_m: float = 9.8) -> PathSet:
    """Draw a channel realization: one LOS path per link plus NLOS paths.

    The first path of each link is LOS with gain ~ CN(0, 10^{-kappa/10});
    the remaining paths are NLOS, attenuated by the Rician factor mu (dB).
    Shadowing is drawn once per link. Azimuth angles are Uniform(-pi/2, pi/2),
    LIS elevations Uniform(-pi/4, pi/4).
    """
    if p_paths < 1 or l_paths < 1:
        raise ValueError("path counts must be >= 1")

    def link_gains(distance, count, n_a, n_b):
        kappa = path_loss_db(distance, budget, rng)
        los_var = 10.0 ** (-0.1 * kappa)
        nlos_var = 10.0 ** (-0.1 * (kappa + budget.rician_mu))
        gains = np.empty(count, dtype=complex)
        gains[0] = _complex_normal(rng, los_var, ())
        if count > 1:
            gains[1:] = _complex_normal(rng, nlos_var, count - 1)
        return gains * np.sqrt(n_a * n_b / count)

    alpha = link_gains(bs_lis_distance_m, p_paths, geometry.n_tx, geometry.m)
    beta = link_gains(lis_ue_distance_m, l_paths, geometry.m, geometry.n_rx)

    azimuth = lambda size: rng.uniform(-np.pi / 2, np.pi / 2, size)
    elevation = lambda size: rng.uniform(-np.pi / 4, np.pi / 4, size)

    return PathSet(
        bs_lis_gain=alpha,
        bs_lis_aod=azimuth(p_paths),
        bs_lis_aoa_az=azimuth(p_paths),
        bs_lis_aoa_el=elevation(p_paths),
        lis_ue_gain=beta,
        lis_ue_aod_az=azimuth(l_paths),
        lis_ue_aod_el=elevation(l_paths),
        lis_ue_aoa=azimuth(l_paths),
    )


def sort_paths_descending(paths: PathSet) -> PathSet:
    """Sort both path lists by |gain|, strongest first (stable)."""
    order_p = np.argsort(-np.abs(paths.bs_lis_gain), kind="stable")
    order_l = np.argsort(-np.abs(paths.lis_ue_gain), kind="stable")
    return PathSet(
        bs_lis_gain=paths.bs_lis_gain[order_p],
        bs_lis_aod=paths.bs_lis_aod[order_p],
        bs_lis_aoa_az=paths.bs_lis_aoa_az[order_p],
        bs_lis_aoa_el=paths.bs_lis_aoa_el[order_p],
        lis_ue_gain=paths.lis_ue_gain[order_l],
        lis_ue_aod_az=paths.lis_ue_aod_az[order_l],
        lis_ue_aod_el=paths.lis_ue_aod_el[order_l],
        lis_ue_aoa=paths.lis_ue_aoa[order_l],
    )


def assemble_channels(paths: PathSet, geometry: ArrayGeometry,
                      tx_gain: float = 1.0, rx_gain: float = 1.0) -> MmWaveChannel:
    """Build G (M x N_t) and R (N_r x M) as sums of scaled outer products.

    Antenna gains are stored as scalars and applied in `effective_channel`.
    """
    m_y, m_z, s = geometry.lis_y, geometry.lis_z, geometry.spacing_ratio
    a_lis = upa_responses(paths.bs_lis_aoa_az, paths.bs_lis_aoa_el, m_y, m_z, s)
    a_bs = ula_responses(paths.bs_lis_aod, geometry.n_tx, s)
    g = np.zeros((geometry.m, geometry.n_tx), dtype=complex)
    for i in range(paths.n_bs_lis):
        g += paths.bs_lis_gain[i] * np.outer(a_lis[i], a_bs[i].conj())
    a_ue = ula_responses(paths.lis_ue_aoa, geometry.n_rx, s)
    a_lis = upa_responses(paths.lis_ue_aod_az, paths.lis_ue_aod_el, m_y, m_z, s)
    r = np.zeros((geometry.n_rx, geometry.m), dtype=complex)
    for i in range(paths.n_lis_ue):
        r += paths.lis_ue_gain[i] * np.outer(a_ue[i], a_lis[i].conj())
    return MmWaveChannel(g=g, r=r, tx_gain=tx_gain, rx_gain=rx_gain)


def composite_path_vectors(paths: PathSet, geometry: ArrayGeometry) -> np.ndarray:
    """All p^{ij} = conj(a_LIS,T(i)) * a_LIS,R(j), elementwise, as an (..., L, P, M) array.

    p^{ij} couples the j-th BS->LIS path into the i-th LIS->UE path; each
    entry has modulus 1/M, so sqrt(M) * p^{ij} has unit norm.
    """
    m_y, m_z, s = geometry.lis_y, geometry.lis_z, geometry.spacing_ratio
    depart = upa_responses(paths.lis_ue_aod_az, paths.lis_ue_aod_el, m_y, m_z, s)
    arrive = upa_responses(paths.bs_lis_aoa_az, paths.bs_lis_aoa_el, m_y, m_z, s)
    return depart.conj()[..., :, None, :] * arrive[..., None, :, :]


def path_core(paths: Sequence[PathSet], geometry: ArrayGeometry,
              tx_gain: float = 1.0, rx_gain: float = 1.0) -> PathCore:
    """Factor the cascade channels of T path sets of one shape into one stacked
    path core, its arrays read-only; one path set is a stack of one."""
    paths = PathSet(**{f.name: np.stack([getattr(p, f.name) for p in paths])
                       for f in fields(PathSet)})
    s = geometry.spacing_ratio
    q_u, t_u = np.linalg.qr(ula_responses(paths.lis_ue_aoa, geometry.n_rx, s).swapaxes(1, 2))
    q_b, t_b = np.linalg.qr(ula_responses(paths.bs_lis_aod, geometry.n_tx, s).swapaxes(1, 2))
    bank = composite_path_vectors(paths, geometry)
    return PathCore(*map(_read_only, (
        bank.reshape(len(bank), -1, geometry.m),
        q_u, q_b,
        tx_gain * rx_gain * t_u * paths.lis_ue_gain[:, None, :],
        t_b.conj().swapaxes(1, 2) * paths.bs_lis_gain[:, :, None])))


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only: a core's rows are shared by every design that
    reads them, so a stray write raises instead of changing the others."""
    a.flags.writeable = False
    return a


def effective_channel(channel: MmWaveChannel, v: np.ndarray) -> np.ndarray:
    """Cascade channel tx_gain * rx_gain * R diag(conj(v)) G at phase entries v.

    The dense form, kept as the reference the path core is tested against.
    """
    if v.shape != (channel.m,):
        raise ChannelShapeError("phase vector length must equal the LIS size")
    scale = channel.tx_gain * channel.rx_gain
    return scale * (channel.r * v.conj()[None, :]) @ channel.g


def perturb_angles(paths: PathSet, beta: float, rng: np.random.Generator) -> PathSet:
    """Add independent Uniform(-beta, beta) errors to every angle (radians)."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if beta == 0:
        return paths

    def jitter(arr):
        return arr + rng.uniform(-beta, beta, len(arr))

    return replace(paths, **{name: jitter(getattr(paths, name)) for name in (
        "bs_lis_aod", "bs_lis_aoa_az", "bs_lis_aoa_el",
        "lis_ue_aod_az", "lis_ue_aod_el", "lis_ue_aoa")})
