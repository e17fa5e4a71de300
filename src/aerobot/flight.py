"""A reduced octocopter hover simulator; re-exports the sizing arithmetic.

Roll/pitch only, about hover. Eight rotors on a ring carry the
weight; a point-mass arm swings around and torques the body; the fuzzy
stabilizer redistributes rotor thrust with zero-sum deltas. Semi-implicit
Euler keeps the undamped attitude dynamics bounded and reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigInvalid, ParseError
from .fuzzy import (
    N_ROTORS,
    ROTOR_AZIMUTHS_DEG,
    arm_compensation_deltas,
    tilt_compensation_deltas,
)
from .sizing import (  # noqa: F401  re-exported
    GRAVITY,
    MassEntry,
    MassTable,
    ThrustSpec,
    default_mass_table,
    kgf_to_newtons,
    load_mass_table,
    thrust_per_rotor,
    total_mass,
)

# largest duration_s / dt_s accepted; bounds the trace and its allocations
MAX_STEPS = 1_000_000


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


@dataclass(frozen=True)
class SimConfig:
    vehicle_mass_kg: float = 32.019
    rotor_radius_m: float = 0.5
    inertia_kgm2: float = 0.8  # roll and pitch alike
    arm_mass_kg: float = 0.94
    arm_reach_m: float = 0.6
    dt_s: float = 0.001
    duration_s: float = 10.0
    controller: bool = True
    # (time_s, azimuth_deg, extension) keyframes, linearly interpolated
    arm_trajectory: tuple = field(default_factory=lambda: ((0.0, 0.0, 1.0), (10.0, 360.0, 1.0)))

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigInvalid(f"{f.name} {getattr(self, f.name)} is not finite")
        if not isinstance(self.controller, bool):
            raise ConfigInvalid(f"controller {self.controller!r} is not a boolean")
        if any(len(k) != 3 for k in self.arm_trajectory):
            raise ConfigInvalid("keyframes are (time_s, azimuth_deg, extension) triples")
        if not all(math.isfinite(v) for k in self.arm_trajectory for v in k):
            raise ConfigInvalid("keyframe values must be finite")
        if self.vehicle_mass_kg <= 0 or self.rotor_radius_m <= 0 or self.inertia_kgm2 <= 0:
            raise ConfigInvalid("mass, rotor radius, and inertia must be positive")
        if self.arm_mass_kg < 0 or self.arm_reach_m < 0:
            raise ConfigInvalid("arm mass and reach cannot be negative")
        if self.dt_s <= 0:
            raise ConfigInvalid(f"time step {self.dt_s} must be positive")
        if self.duration_s < self.dt_s:
            raise ConfigInvalid("duration shorter than one step")
        if self.duration_s / self.dt_s > MAX_STEPS:
            raise ConfigInvalid(f"duration_s / dt_s above the budget of {MAX_STEPS} steps")
        if not self.arm_trajectory:
            raise ConfigInvalid("arm trajectory needs at least one keyframe")
        times = [k[0] for k in self.arm_trajectory]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigInvalid("keyframe times must be non-decreasing")
        for t, _, ext in self.arm_trajectory:
            if not 0.0 <= ext <= 1.0:
                raise ConfigInvalid(f"extension {ext} at t={t} outside [0, 1]")

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        try:
            doc = json.loads(text)
        except (RecursionError, ValueError) as exc:  # JSONDecodeError, or an over-long integer
            raise ParseError(f"bad JSON: {exc}") from exc
        try:
            if "arm_trajectory" in doc:
                doc["arm_trajectory"] = tuple(tuple(k) for k in doc["arm_trajectory"])
            return cls(**doc)
        except (OverflowError, TypeError) as exc:  # OverflowError: an integer beyond float range
            raise ParseError(f"bad simulation config: {exc}") from exc

    def to_json(self) -> str:
        doc = dict(self.__dict__)
        doc["arm_trajectory"] = [list(k) for k in self.arm_trajectory]
        return json.dumps(doc, indent=2)


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
    arm_deltas = arm_compensation_deltas(azimuths, extensions) if cfg.controller else None

    roll = pitch = roll_rate = pitch_rate = 0.0
    trace = []
    for k in range(n_steps):
        azimuth = float(azimuths[k])
        extension = float(extensions[k])
        if cfg.controller:
            thrusts = hover_thrust + arm_deltas[k] + tilt_compensation_deltas(roll, pitch)
        else:
            thrusts = np.full(N_ROTORS, hover_thrust)
        trace.append(HoverState(float(times[k]), roll, pitch, roll_rate, pitch_rate,
                                tuple(float(f) for f in thrusts), azimuth, extension))

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
