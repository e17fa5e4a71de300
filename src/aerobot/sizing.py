"""Vehicle sizing arithmetic and the hover-simulation config, free of numpy.

A component mass table and the per-rotor thrust rule T = 2*w*s/n
(kilograms-force), where w is total mass in kg, n the rotor count, and s a
safety multiplier >= 1. A bad `SimConfig` is refused before numpy loads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources

from .errors import ConfigInvalid, OutOfRange, ParseError

GRAVITY = 9.80665  # m/s^2, standard
# largest duration_s / dt_s accepted; bounds the trace and its allocations
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class MassEntry:
    name: str
    grams: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise OutOfRange(f"{self.name!r}: count {self.count} below 1")
        # an int count past float range raises OverflowError here
        if not 0 <= self.grams * self.count < math.inf:
            raise OutOfRange(f"{self.name!r}: {self.count} x {self.grams} g not finite or < 0")


def total_mass(table: tuple) -> float:
    """Sum of unit mass times piece count over a tuple of MassEntry, in grams."""
    return sum(e.grams * e.count for e in table)


def load_mass_table(text: str) -> tuple:
    """Parse the text of a name,grams,count CSV into MassEntry rows; a header alone is ()."""
    reader = csv.reader(io.StringIO(text))
    rows = [(i, row) for i, row in enumerate(reader, start=1) if row and any(c.strip() for c in row)]
    if not rows:
        raise ParseError("missing name,grams,count header", row=1)
    header_row, header = rows[0]
    if [c.strip().lower() for c in header] != ["name", "grams", "count"]:
        raise ParseError(f"expected header name,grams,count, got {header}", row=header_row)
    entries = []
    for line_no, row in rows[1:]:
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", row=line_no)
        try:  # MassEntry's refusals are ValueErrors, as are float's and int's
            entries.append(MassEntry(row[0].strip(), float(row[1]), int(row[2])))
        except (OverflowError, ValueError) as exc:
            raise ParseError(str(exc), row=line_no) from exc
    return tuple(entries)


def default_mass_table() -> tuple:
    """Component masses of the reference vehicle, shipped in assets/table1.csv."""
    text = resources.files("aerobot.assets").joinpath("table1.csv").read_text()
    return load_mass_table(text)


@dataclass(frozen=True)
class ThrustSpec:
    """Inputs of the per-rotor thrust rule."""

    total_weight_kg: float
    rotors: int
    safety_factor: float = 1.2

    def __post_init__(self):
        if self.rotors not in (4, 6, 8):
            raise OutOfRange(f"rotor count {self.rotors} not in (4, 6, 8)")
        if self.safety_factor < 1.0:
            # a sub-unity margin would size rotors below hover weight
            raise OutOfRange(f"safety factor {self.safety_factor} is below 1")
        # one product catches a negative or non-finite weight or factor and an overflowing thrust
        if not 0 <= 2.0 * self.total_weight_kg * self.safety_factor * GRAVITY < math.inf:
            raise OutOfRange(f"weight {self.total_weight_kg} kg and safety factor "
                             f"{self.safety_factor} give no finite, non-negative thrust")


def thrust_per_rotor(spec: ThrustSpec) -> float:
    """Required thrust per rotor in kilograms-force: T = 2*w*s/n."""
    return 2.0 * spec.total_weight_kg * spec.safety_factor / spec.rotors


def kgf_to_newtons(kgf: float) -> float:
    return kgf * GRAVITY


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
