"""Blackbody radiance/temperature conversion, free of numpy.

Conversion always uses total emission. The two spectral windows usually
sampled by long-wave (8-14 um) and mid-wave (3-5 um) cameras are
descriptive metadata only.
"""

from __future__ import annotations

from .errors import NegativeRadiance

STEFAN_BOLTZMANN = 5.67e-8  # total-emission blackbody constant, W m^-2 K^-4
THERMAL_BANDS_UM = {"long-wave": (8.0, 14.0), "mid-wave": (3.0, 5.0)}


def radiance_to_temperature(power_density: float) -> float:
    """Blackbody temperature giving the emitted power density: T = (P/sigma)^(1/4)."""
    if power_density < 0:
        raise NegativeRadiance(f"power density {power_density}")
    return (power_density / STEFAN_BOLTZMANN) ** 0.25


def temperature_to_radiance(temperature_k: float) -> float:
    """Total emitted power density sigma*T^4 of a blackbody at T kelvin."""
    if temperature_k < 0:
        raise ValueError(f"temperature {temperature_k} below absolute zero")
    return STEFAN_BOLTZMANN * temperature_k ** 4
