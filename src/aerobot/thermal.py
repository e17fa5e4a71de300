"""Blackbody radiance/temperature conversion, free of numpy.

Conversion always uses total emission.
"""

from __future__ import annotations

import math

from .errors import OutOfRange

STEFAN_BOLTZMANN = 5.67e-8  # total-emission blackbody constant, W m^-2 K^-4


def radiance_to_temperature(power_density: float) -> float:
    """Blackbody temperature giving the emitted power density: T = (P/sigma)^(1/4)."""
    if power_density < 0:
        raise OutOfRange(f"power density {power_density} is negative")
    temperature = (power_density / STEFAN_BOLTZMANN) ** 0.25
    if not temperature < math.inf:  # NaN or inf given, or P / sigma past float range
        raise OutOfRange(f"power density {power_density} gives temperature {temperature}")
    return temperature


def temperature_to_radiance(temperature_k: float) -> float:
    """Total emitted power density sigma*T^4 of a blackbody at T kelvin."""
    if not 0 <= temperature_k < math.inf:
        raise OutOfRange(f"temperature {temperature_k} is below absolute zero or not finite")
    try:
        return STEFAN_BOLTZMANN * temperature_k ** 4
    except OverflowError:  # T ** 4 past float range
        raise OutOfRange(f"temperature {temperature_k}: power density past float range") from None
