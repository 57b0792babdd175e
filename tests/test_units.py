import pytest

from lisim.units import dbi_to_amplitude, dbm_to_watt, thermal_noise_dbm


def test_frozen_values():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(-90.0) == pytest.approx(1e-12, rel=1e-12)
    # amplitude factor: 24.5 dBi -> 10^(24.5/20)
    assert dbi_to_amplitude(24.5) == pytest.approx(16.78804018122560, rel=1e-12)
    # -174 dBm/Hz + 10 log10(B) at B = 251.1886 MHz is the -90 dBm noise floor
    assert thermal_noise_dbm(251.1886e6) == pytest.approx(-90.0, abs=1e-5)
