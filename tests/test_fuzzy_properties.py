"""Property tests for the octocopter stabilizer deltas."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aerobot.fuzzy import N_ROTORS, arm_compensation_deltas, stabilizer_deltas  # noqa: E402

azimuths = st.floats(-720.0, 720.0)
extensions = st.floats(0.0, 1.0)
tilts = st.floats(0.0, 0.6)  # beyond the 0.5 rad universe too


def tilt_error(magnitude: float, heading_deg: float) -> tuple:
    """(roll, pitch) whose correction azimuth is heading_deg."""
    heading = math.radians(heading_deg)
    return -magnitude * math.sin(heading), magnitude * math.cos(heading)


@settings(max_examples=300)
@given(azimuths, extensions, tilts, azimuths)
def test_deltas_mirror_and_sum_to_zero(azimuth, extension, tilt, heading):
    deltas = stabilizer_deltas(azimuth, extension, tilt_error(tilt, heading))
    half = N_ROTORS // 2
    assert np.array_equal(deltas[half:], -deltas[:half])
    assert math.fsum(deltas) == 0.0


@settings(max_examples=300)
@given(azimuths, extensions, tilts, azimuths, st.integers(1, N_ROTORS - 1))
def test_deltas_shift_with_the_rotors(azimuth, extension, tilt, heading, shift):
    base = stabilizer_deltas(azimuth, extension, tilt_error(tilt, heading))
    turned = stabilizer_deltas(azimuth + 45.0 * shift, extension,
                               tilt_error(tilt, heading + 45.0 * shift))
    assert np.allclose(turned, np.roll(base, shift), rtol=0.0, atol=1e-9)


@settings(max_examples=100)
@given(st.lists(st.tuples(azimuths, extensions), min_size=1, max_size=40))
def test_batch_rows_shift_with_the_rotors(poses):
    az, ext = np.array(poses).T
    base = arm_compensation_deltas(az, ext)
    for shift in range(1, N_ROTORS):
        turned = arm_compensation_deltas(az + 45.0 * shift, ext)
        assert np.allclose(turned, np.roll(base, shift, axis=1), rtol=0.0, atol=1e-9)
    assert np.array_equal(base[:, N_ROTORS // 2:], -base[:, :N_ROTORS // 2])
