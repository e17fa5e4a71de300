"""A reduced octocopter hover simulator; re-exports sizing and its config.

Roll/pitch only, about hover. Eight rotors on a ring carry the
weight; a point-mass arm swings around and torques the body; the fuzzy
stabilizer redistributes rotor thrust with zero-sum deltas. Semi-implicit
Euler keeps the undamped attitude dynamics bounded and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fuzzy import (
    N_ROTORS,
    ROTOR_AZIMUTHS_DEG,
    arm_compensation_deltas,
    tilt_compensation_deltas,
)
from .sizing import (  # noqa: F401  re-exported
    GRAVITY,
    MAX_STEPS,
    MassEntry,
    MassTable,
    SimConfig,
    ThrustSpec,
    default_mass_table,
    kgf_to_newtons,
    load_mass_table,
    thrust_per_rotor,
    total_mass,
)


@dataclass(frozen=True)
class HoverState:
    """One trace sample: attitude, rates, rotor thrusts, and arm pose."""

    t: float
    roll: float
    pitch: float
    roll_rate: float
    pitch_rate: float
    rotor_thrusts: tuple
    arm_azimuth: float
    arm_extension: float


def _interp_trajectory(cfg: SimConfig, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys = np.array([k[0] for k in cfg.arm_trajectory])
    azimuths = np.array([k[1] for k in cfg.arm_trajectory])
    extensions = np.array([k[2] for k in cfg.arm_trajectory])
    return np.interp(times, keys, azimuths), np.interp(times, keys, extensions)


def simulate_hover(cfg: SimConfig) -> list[HoverState]:
    """Integrate the reduced attitude model and record every step.

    Torques: rotor thrusts at ring positions plus the gravity torque of the
    arm point mass at its interpolated pose. Baseline thrusts hold hover
    (their sum is m*g); with the controller on, the fuzzy zero-sum deltas
    ride on top, so the sum is preserved at every step.
    """
    n_steps = int(round(cfg.duration_s / cfg.dt_s))
    times = np.arange(n_steps) * cfg.dt_s
    azimuths, extensions = _interp_trajectory(cfg, times)

    rad = np.deg2rad(np.asarray(ROTOR_AZIMUTHS_DEG))
    rotor_x = cfg.rotor_radius_m * np.cos(rad)
    rotor_y = cfg.rotor_radius_m * np.sin(rad)
    hover_thrust = cfg.vehicle_mass_kg * GRAVITY / N_ROTORS
    arm_torque_scale = cfg.arm_mass_kg * GRAVITY * cfg.arm_reach_m

    # the arm part of the controller depends only on the known trajectory
    if cfg.controller:
        planned = hover_thrust + arm_compensation_deltas(azimuths, extensions)
    else:
        planned = np.full((n_steps, N_ROTORS), hover_thrust)

    roll = pitch = roll_rate = pitch_rate = 0.0
    trace = []
    for t, azimuth, extension, thrusts in zip(times.tolist(), azimuths.tolist(),
                                              extensions.tolist(), planned):
        if cfg.controller:
            thrusts = thrusts + tilt_compensation_deltas(roll, pitch)
        trace.append(HoverState(t, roll, pitch, roll_rate, pitch_rate,
                                tuple(thrusts.tolist()), azimuth, extension))

        theta = math.radians(azimuth)
        lever = extension * arm_torque_scale
        torque_x = float(thrusts @ rotor_y) - lever * math.sin(theta)
        torque_y = -float(thrusts @ rotor_x) + lever * math.cos(theta)

        roll_rate += cfg.dt_s * torque_x / cfg.inertia_kgm2
        pitch_rate += cfg.dt_s * torque_y / cfg.inertia_kgm2
        roll += cfg.dt_s * roll_rate
        pitch += cfg.dt_s * pitch_rate
    return trace


def max_tilt(trace: list[HoverState]) -> float:
    """Largest |roll| or |pitch| over a trace, radians."""
    return max(max(abs(s.roll), abs(s.pitch)) for s in trace)


def trace_to_csv(trace: list[HoverState]) -> str:
    header = ("t,roll,pitch,roll_rate,pitch_rate,"
              + ",".join(f"thrust_{i}" for i in range(N_ROTORS))
              + ",arm_azimuth,arm_extension")
    rows = [header]
    for s in trace:
        thrust_cols = ",".join(repr(f) for f in s.rotor_thrusts)
        rows.append(f"{s.t!r},{s.roll!r},{s.pitch!r},{s.roll_rate!r},{s.pitch_rate!r},"
                    f"{thrust_cols},{s.arm_azimuth!r},{s.arm_extension!r}")
    return "\n".join(rows) + "\n"
