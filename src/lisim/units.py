"""Decibel / linear unit conversions.

Conventions used throughout the package:
- dBm converts to linear *power* in watts via 10^((x - 30)/10).
- dBi antenna gains convert to a linear *amplitude* factor via 10^(x/20);
  the amplitude factor multiplies the channel matrix, so the implied power
  gain is 10^(x/10).
"""

import math


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def dbi_to_amplitude(dbi: float) -> float:
    """Linear amplitude factor applied to the channel matrix."""
    return 10.0 ** (dbi / 20.0)


def thermal_noise_dbm(bandwidth_hz: float) -> float:
    """Thermal noise floor: -174 dBm/Hz integrated over the bandwidth."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return -174.0 + 10.0 * math.log10(bandwidth_hz)
