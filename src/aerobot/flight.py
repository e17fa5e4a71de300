"""A reduced octocopter hover simulator, configured by `sizing.SimConfig`.

Roll/pitch only, about hover. Eight rotors on a ring carry the
weight; a point-mass arm swings around and torques the body; the fuzzy
stabilizer redistributes rotor thrust with zero-sum deltas. Semi-implicit
Euler keeps the undamped attitude dynamics bounded and reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigInvalid, OutOfRange
from .fuzzy import (
    N_ROTORS,
    ROTOR_AZIMUTHS_DEG,
    arm_compensation_deltas,
    tilt_compensation_deltas,
)
from .sizing import GRAVITY, SimConfig


# one trace record per step, in CSV column order, all float64: 120 B a step
TRACE_DTYPE = np.dtype([
    ("t", "f8"), ("roll", "f8"), ("pitch", "f8"), ("roll_rate", "f8"), ("pitch_rate", "f8"),
    ("rotor_thrusts", "f8", (N_ROTORS,)), ("arm_azimuth", "f8"), ("arm_extension", "f8")])


def _table(trace: np.recarray) -> np.ndarray:  # (steps, 15) float64 view, CSV column order
    return np.asarray(trace).view((np.float64, N_ROTORS + 7))


def simulate_hover(cfg: SimConfig) -> np.recarray:
    """Integrate the reduced attitude model; one `TRACE_DTYPE` record per step.

    Torques: rotor thrusts at ring positions plus the gravity torque of the
    arm point mass at its interpolated pose. Baseline thrusts hold hover
    (their sum is m*g); with the controller on, the fuzzy zero-sum deltas
    ride on top, so the sum is preserved at every step. A state that
    overflows (a vanishing inertia, say) raises ConfigInvalid.
    """
    n_steps = int(round(cfg.duration_s / cfg.dt_s))
    trace = np.recarray(n_steps, TRACE_DTYPE)
    trace.t = np.arange(n_steps) * cfg.dt_s
    keys, azimuths, extensions = zip(*cfg.arm_trajectory)
    trace.arm_azimuth = np.interp(trace.t, keys, azimuths)
    trace.arm_extension = np.interp(trace.t, keys, extensions)

    rad = np.deg2rad(np.asarray(ROTOR_AZIMUTHS_DEG))
    rotor_x = cfg.rotor_radius_m * np.cos(rad)
    rotor_y = cfg.rotor_radius_m * np.sin(rad)
    arm_torque_scale = cfg.arm_mass_kg * GRAVITY * cfg.arm_reach_m

    # the arm part of the controller depends only on the known trajectory
    thrusts = trace.rotor_thrusts
    thrusts[:] = cfg.vehicle_mass_kg * GRAVITY / N_ROTORS
    if cfg.controller:
        thrusts += arm_compensation_deltas(trace.arm_azimuth, trace.arm_extension)

    attitude = _table(trace)[:, 1:5]
    roll = pitch = roll_rate = pitch_rate = 0.0
    for i, (azimuth, extension) in enumerate(zip(trace.arm_azimuth.tolist(),
                                                 trace.arm_extension.tolist())):
        attitude[i] = roll, pitch, roll_rate, pitch_rate
        row = thrusts[i]
        if cfg.controller:
            try:
                row += tilt_compensation_deltas(roll, pitch)
            except OutOfRange:  # row i holds the overflowed attitude, which fails the check below
                break

        theta = math.radians(azimuth)
        lever = extension * arm_torque_scale
        # an element-wise product and numpy's sum fix the order, where BLAS's ddot would not
        torque_x = float((row * rotor_y).sum()) - lever * math.sin(theta)
        torque_y = -float((row * rotor_x).sum()) + lever * math.cos(theta)

        roll_rate += cfg.dt_s * torque_x / cfg.inertia_kgm2
        pitch_rate += cfg.dt_s * torque_y / cfg.inertia_kgm2
        roll += cfg.dt_s * roll_rate
        pitch += cfg.dt_s * pitch_rate
    if not np.isfinite(_table(trace)).all():
        raise ConfigInvalid("the attitude overflowed to a non-finite value")
    return trace


def max_tilt(trace: np.recarray) -> float:
    """Largest |roll| or |pitch| over a trace, radians."""
    return float(max(np.abs(trace.roll).max(), np.abs(trace.pitch).max()))


def trace_to_csv(trace: np.recarray) -> str:
    names = TRACE_DTYPE.names
    header = ",".join([*names[:5], *(f"thrust_{i}" for i in range(N_ROTORS)), *names[6:]])
    return "\n".join([header, *(",".join(map(repr, row)) for row in _table(trace).tolist())]) + "\n"
