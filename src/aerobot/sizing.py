"""Vehicle sizing arithmetic, free of numpy.

A component mass table and the per-rotor thrust rule T = 2*w*s/n
(kilograms-force), where w is total mass in kg, n the rotor count, and s a
safety multiplier >= 1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import BadRotorCount, ParseError, SubUnitySafetyFactor

GRAVITY = 9.80665  # m/s^2, standard


@dataclass(frozen=True)
class MassEntry:
    name: str
    grams: float
    count: int

    def __post_init__(self):
        if self.grams < 0:
            raise ValueError(f"{self.name!r}: negative mass {self.grams}")
        if self.count < 1:
            raise ValueError(f"{self.name!r}: count {self.count} below 1")


@dataclass(frozen=True)
class MassTable:
    entries: tuple

    def total_grams(self) -> float:
        return total_mass(self)

    def total_kg(self) -> float:
        return total_mass(self) / 1000.0


def total_mass(table: MassTable) -> float:
    """Sum of unit mass times piece count, in grams."""
    return sum(e.grams * e.count for e in table.entries)


def load_mass_table(source) -> MassTable:
    """Parse a name,grams,count CSV from a path, text, or file object."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        text = Path(source).read_text()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
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
        name = row[0].strip()
        try:
            grams = float(row[1])
            count = int(row[2])
        except ValueError as exc:
            raise ParseError(str(exc), row=line_no) from exc
        try:
            entries.append(MassEntry(name, grams, count))
        except ValueError as exc:
            raise ParseError(str(exc), row=line_no) from exc
    return MassTable(tuple(entries))


def default_mass_table() -> MassTable:
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
        if self.total_weight_kg < 0:
            raise ValueError(f"weight {self.total_weight_kg} kg is negative")
        if self.rotors not in (4, 6, 8):
            raise BadRotorCount(f"rotor count {self.rotors} not in (4, 6, 8)")
        if self.safety_factor < 1.0:
            # a sub-unity margin would size rotors below hover weight
            raise SubUnitySafetyFactor(f"safety factor {self.safety_factor} < 1")


def thrust_per_rotor(spec: ThrustSpec) -> float:
    """Required thrust per rotor in kilograms-force: T = 2*w*s/n."""
    return 2.0 * spec.total_weight_kg * spec.safety_factor / spec.rotors


def kgf_to_newtons(kgf: float) -> float:
    return kgf * GRAVITY
