"""Mamdani fuzzy inference and the two controllers built on it.

The engine uses min for AND, clipped consequents aggregated by max, and
centroid defuzzification over a uniform sample grid. On top of it sit the
pesticide-dosing controller (green density in, liters out) and the
octocopter stabilizer that redistributes rotor thrust against the torque
of the moving robot arm, mirroring every boost as an equal cut on the
opposite rotor so total lift never changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from importlib import resources

import numpy as np

from .errors import NoRuleFired, ParseError

N_ROTORS = 8
# bounds on the output sample grid; the upper one caps each curve's allocation
MIN_SAMPLES = 51
MAX_SAMPLES = 10_001
ROTOR_AZIMUTHS_DEG = tuple(45.0 * i for i in range(N_ROTORS))


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular (3 points) or trapezoidal (4 points) membership."""

    points: tuple

    def __post_init__(self):
        if len(self.points) not in (3, 4):
            raise ValueError(f"need 3 or 4 breakpoints, got {len(self.points)}")
        if (not all(map(math.isfinite, self.points))
                or any(b < a for a, b in zip(self.points, self.points[1:]))):
            raise ValueError(f"breakpoints must be finite and non-decreasing: {self.points}")

    @classmethod
    def triangle(cls, a: float, b: float, c: float) -> "MembershipFunction":
        return cls((float(a), float(b), float(c)))

    @classmethod
    def trapezoid(cls, a: float, b: float, c: float, d: float) -> "MembershipFunction":
        return cls((float(a), float(b), float(c), float(d)))

    def _abcd(self):
        if len(self.points) == 3:
            a, b, c = self.points
            return a, b, b, c
        return self.points

    def __call__(self, x):
        """Degree of x: a float for a Python or numpy number, else an array."""
        a, b, c, d = self._abcd()
        if isinstance(x, (int, float)):
            if b <= x <= c:
                return 1.0
            if a < x < b:
                return (x - a) / (b - a)
            return (d - x) / (d - c) if c < x < d else 0.0
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        if b > a:
            rising = (x > a) & (x < b)
            out = np.where(rising, (x - a) / (b - a), out)
        out = np.where((x >= b) & (x <= c), 1.0, out)
        if d > c:
            falling = (x > c) & (x < d)
            out = np.where(falling, (d - x) / (d - c), out)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class FuzzyVariable:
    """Named universe with at least two labeled membership sets."""

    name: str
    universe: tuple
    sets: dict

    def __post_init__(self):
        lo, hi = self.universe
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"universe {self.universe} is empty or not finite")
        if len(self.sets) < 2:
            raise ValueError(f"variable {self.name!r} needs >= 2 labels")
        for label, mf in self.sets.items():
            if mf.points[0] < lo or mf.points[-1] > hi:
                raise ValueError(f"{self.name}.{label} breakpoints leave the universe")

    def clamp(self, x):
        lo, hi = self.universe
        return min(max(x, lo), hi) if isinstance(x, (int, float)) else np.clip(x, lo, hi)


@dataclass(frozen=True)
class Rule:
    """AND-combined (variable, label) antecedents implying one output label."""

    antecedents: tuple
    consequent: tuple


class FuzzySystem:
    """Immutable rulebase; per output, one pre-sampled (labels, 1, samples) stack of curves."""

    def __init__(self, inputs, outputs, rules, samples: int = 201):
        if not MIN_SAMPLES <= samples <= MAX_SAMPLES:
            raise ValueError(f"samples {samples} outside {MIN_SAMPLES}..{MAX_SAMPLES}")
        self.inputs = {v.name: v for v in inputs}
        self.outputs = {v.name: v for v in outputs}
        self.rules = tuple(rules)
        self.samples = samples
        for rule in self.rules:
            for var, label in rule.antecedents:
                if var not in self.inputs or label not in self.inputs[var].sets:
                    raise ValueError(f"unknown antecedent {var}.{label}")
            var, label = rule.consequent
            if var not in self.outputs or label not in self.outputs[var].sets:
                raise ValueError(f"unknown consequent {var}.{label}")
        self._stacks = {name: (tuple(var.sets),) + _curve_stack(
            tuple(var.universe), tuple(tuple(mf._abcd()) for mf in var.sets.values()), samples)
            for name, var in self.outputs.items()}


@lru_cache(maxsize=64, typed=True)
def _curve_stack(universe: tuple, abcds: tuple, samples: int) -> tuple:
    """Read-only sample grid and (labels, 1, samples) curves, in one broadcast of the
    pieces of `MembershipFunction.__call__`; a zero-width edge's 0/0 is never picked."""
    ys = np.linspace(*universe, samples)
    a, b, c, d = np.array(abcds, dtype=np.float64).T[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        curves = np.select([(ys > a) & (ys < b), (ys >= b) & (ys <= c), (ys > c) & (ys < d)],
                           [(ys - a) / (b - a), 1.0, (d - ys) / (d - c)])[:, None, :]
    ys.flags.writeable = curves.flags.writeable = False
    return ys, curves


def fuzzify(variable: FuzzyVariable, x: float) -> dict:
    """Degree of membership per label, with x clamped into the universe."""
    cx = variable.clamp(float(x))
    return {label: float(mf(cx)) for label, mf in variable.sets.items()}


def _infer_batch(system: FuzzySystem, values: dict) -> dict:
    """Mamdani inference over inputs broadcast together, or one row of floats, to crisp arrays.

    Each consequent label is clipped once, at the largest firing degree of its
    rules, since max_r min(h_r, c) = min(max_r h_r, c).
    """
    inputs = {}
    for name, var in system.inputs.items():
        if name not in values:
            raise ValueError(f"missing input {name!r}")
        inputs[name] = var.clamp(values[name])
    # numbers add nothing to the shape, and np.broadcast takes at most 64 arguments
    shape = np.broadcast(*[x for x in inputs.values() if isinstance(x, np.ndarray)]).shape
    lower, upper = (np.minimum, np.maximum) if shape else (min, max)
    degrees = {(name, label): mf(inputs[name])
               for name, var in system.inputs.items() for label, mf in var.sets.items()}

    crisp = {}
    for name, (labels, ys, curves) in system._stacks.items():
        heights = [np.zeros(shape) if shape else 0.0] * len(labels)
        for rule in system.rules:
            if rule.consequent[0] == name:
                j = labels.index(rule.consequent[1])
                fired = reduce(lower, (degrees[a] for a in rule.antecedents))
                heights[j] = upper(heights[j], fired)
        clipped = np.minimum(np.array(heights).reshape(len(labels), -1, 1), curves)
        agg = clipped.max(axis=0)
        mass = agg.sum(axis=1)
        if not mass.all():  # mass is never negative
            raise NoRuleFired(f"no rule fired for output {name!r}")
        crisp[name] = ((agg @ ys) / mass).reshape(shape)
    return crisp


def infer(system: FuzzySystem, values: dict) -> dict:
    """Crisp centroid output per output variable for one set of crisp inputs."""
    batch = _infer_batch(system, {k: float(v) for k, v in values.items()})
    return {name: float(arr) for name, arr in batch.items()}


# JSON definition ------------------------------------------------------------

FUZZY_FORMAT = "aerobot-fuzzy"
_FORMAT_VERSION = 1


def _mf_to_doc(mf: MembershipFunction) -> dict:
    shape = "triangle" if len(mf.points) == 3 else "trapezoid"
    return {"shape": shape, "points": list(mf.points)}


def _var_to_doc(var: FuzzyVariable) -> dict:
    return {
        "name": var.name,
        "universe": list(var.universe),
        "sets": {label: _mf_to_doc(mf) for label, mf in var.sets.items()},
    }


def system_to_json(system: FuzzySystem) -> str:
    doc = {
        "format": FUZZY_FORMAT,
        "version": _FORMAT_VERSION,
        "samples": system.samples,
        "inputs": [_var_to_doc(v) for v in system.inputs.values()],
        "outputs": [_var_to_doc(v) for v in system.outputs.values()],
        "rules": [
            {"if": [list(a) for a in r.antecedents], "then": list(r.consequent)}
            for r in system.rules
        ],
    }
    return json.dumps(doc, indent=2)


def _var_from_doc(doc: dict) -> FuzzyVariable:
    sets = {}
    for label, mf_doc in doc["sets"].items():
        points = tuple(float(p) for p in mf_doc["points"])
        expected = {"triangle": 3, "trapezoid": 4}.get(mf_doc.get("shape"))
        if expected is None or len(points) != expected:
            raise ParseError(f"set {label!r} has bad shape/points")
        sets[label] = MembershipFunction(points)
    return FuzzyVariable(doc["name"], tuple(doc["universe"]), sets)


def system_from_json(text: str) -> FuzzySystem:
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as exc:  # JSONDecodeError, or an over-long integer
        raise ParseError(f"bad JSON: {exc}") from exc
    if (not isinstance(doc, dict) or doc.get("format") != FUZZY_FORMAT
            or doc.get("version") != _FORMAT_VERSION):
        raise ParseError(f"not a {FUZZY_FORMAT} v{_FORMAT_VERSION} document")
    try:
        inputs = [_var_from_doc(d) for d in doc["inputs"]]
        outputs = [_var_from_doc(d) for d in doc["outputs"]]
        rules = [
            Rule(tuple((v, l) for v, l in r["if"]), tuple(r["then"]))
            for r in doc["rules"]
        ]
        return FuzzySystem(inputs, outputs, rules, samples=doc.get("samples", 201))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad fuzzy system document: {exc}") from exc


# Pesticide dosing -----------------------------------------------------------

@cache
def default_dosing_system() -> FuzzySystem:
    """Dosing rulebase shipped in assets/dosing.json (replaceable by file)."""
    return system_from_json(resources.files("aerobot.assets").joinpath("dosing.json").read_text())


def pesticide_dose(density: float, system: FuzzySystem | None = None) -> float:
    """Liters of pesticide per unit area for a given green-cover fraction."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    sys_ = system if system is not None else default_dosing_system()
    return infer(sys_, {"green_density": density})["dose"]


# Octocopter stabilizer --------------------------------------------------------

# Magnitude universes are calibrated so a fully extended arm aligned with a
# rotor is met by a counter-torque close to its own gravity torque under the
# default simulator parameters (0.94 kg at 0.6 m on a 0.5 m rotor ring).
_ARM_DELTA_MAX_N = 5.0
_TILT_DELTA_MAX_N = 4.2
_TILT_UNIVERSE_RAD = 0.5

def _proximity_variable() -> FuzzyVariable:
    return FuzzyVariable("proximity", (0.0, 180.0), {
        "near": MembershipFunction.triangle(0.0, 0.0, 112.5),
        "far": MembershipFunction.triangle(67.5, 180.0, 180.0),
    })


def _lift_variable(name: str, top: float, apex: float, halfwidth: float) -> FuzzyVariable:
    return FuzzyVariable(name, (0.0, top), {
        # the degenerate "none" spike keeps its centroid at exactly zero
        "none": MembershipFunction.triangle(0.0, 0.0, 0.0),
        "boost": MembershipFunction.triangle(apex - halfwidth, apex, apex + halfwidth),
    })


@cache
def arm_compensation_system() -> FuzzySystem:
    """Rotor lift boost from arm proximity (near/far) and extension (short/long)."""
    proximity = _proximity_variable()
    extension = FuzzyVariable("extension", (0.0, 1.0), {
        "short": MembershipFunction.triangle(0.0, 0.0, 1.0),
        "long": MembershipFunction.triangle(0.0, 1.0, 1.0),
    })
    lift = _lift_variable("lift", _ARM_DELTA_MAX_N, 2.3, 2.0)
    rules = (
        Rule((("proximity", "near"), ("extension", "long")), ("lift", "boost")),
        Rule((("proximity", "near"), ("extension", "short")), ("lift", "none")),
        Rule((("proximity", "far"), ("extension", "long")), ("lift", "none")),
        Rule((("proximity", "far"), ("extension", "short")), ("lift", "none")),
    )
    return FuzzySystem([proximity, extension], [lift], rules)


@cache
def tilt_compensation_system() -> FuzzySystem:
    """Rotor lift boost from tilt magnitude (flat/tilted) and correction proximity."""
    proximity = _proximity_variable()
    tilt = FuzzyVariable("tilt", (0.0, _TILT_UNIVERSE_RAD), {
        "flat": MembershipFunction.triangle(0.0, 0.0, 0.06),
        "tilted": MembershipFunction.trapezoid(0.03, 0.12, 0.5, 0.5),
    })
    lift = _lift_variable("lift", _TILT_DELTA_MAX_N, 2.0, 2.0)
    rules = (
        Rule((("proximity", "near"), ("tilt", "tilted")), ("lift", "boost")),
        Rule((("proximity", "near"), ("tilt", "flat")), ("lift", "none")),
        Rule((("proximity", "far"), ("tilt", "tilted")), ("lift", "none")),
        Rule((("proximity", "far"), ("tilt", "flat")), ("lift", "none")),
    )
    return FuzzySystem([proximity, tilt], [lift], rules)


def _angular_distance(azimuths_deg: np.ndarray) -> np.ndarray:
    """Unsigned angle in [0, 180] between each azimuth and each rotor, (B, 8)."""
    diff = np.abs((azimuths_deg[:, None] - np.asarray(ROTOR_AZIMUTHS_DEG)[None, :]) % 360.0)
    return np.where(diff > 180.0, 360.0 - diff, diff)


def _antisymmetric(magnitudes: np.ndarray) -> np.ndarray:
    """Per row, rotor i+4 gets the exact negation of rotor i's delta."""
    half = N_ROTORS // 2
    diff = magnitudes[:, :half] - magnitudes[:, half:]
    return np.concatenate([diff, -diff], axis=1)


def _ring_deltas(system: FuzzySystem, azimuths: np.ndarray, name: str, values) -> np.ndarray:
    """Zero-sum (B, 8) deltas of the lift inferred from each rotor's distance to each
    azimuth and from input `name`, whose `values` broadcast against those distances."""
    return _antisymmetric(_infer_batch(system, {
        "proximity": _angular_distance(azimuths), name: values})["lift"])


_CHUNK_POSES = 1024  # x 8 rotors = 8192 rows cap the (labels, rows, samples) clipped stack


def arm_compensation_deltas(azimuths_deg, extensions) -> np.ndarray:
    """Zero-sum deltas (B, 8) for a series of arm poses."""
    az = np.atleast_1d(np.asarray(azimuths_deg, dtype=np.float64))
    ext = np.atleast_1d(np.asarray(extensions, dtype=np.float64))
    if az.shape != ext.shape:
        raise ValueError("azimuths and extensions must align")
    if not np.all(np.isfinite(az)):
        raise ValueError("azimuth is not finite")
    if not np.all((ext >= 0.0) & (ext <= 1.0)):  # NaN fails both comparisons
        raise ValueError("extension outside [0, 1]")
    system = arm_compensation_system()
    deltas = np.empty((az.shape[0], N_ROTORS))
    for start in range(0, az.shape[0], _CHUNK_POSES):
        rows = slice(start, start + _CHUNK_POSES)
        deltas[rows] = _ring_deltas(system, az[rows] % 360.0, "extension", ext[rows, None])
    return deltas


def tilt_compensation_deltas(roll: float, pitch: float) -> np.ndarray:
    """Zero-sum deltas (8,) boosting the rotors whose lift opposes the tilt."""
    if not (math.isfinite(roll) and math.isfinite(pitch)):
        raise ValueError(f"tilt ({roll}, {pitch}) is not finite")
    magnitude = math.hypot(roll, pitch)
    if magnitude == 0.0:
        return np.zeros(N_ROTORS)
    correction = math.degrees(math.atan2(-roll, pitch)) % 360.0
    return _ring_deltas(tilt_compensation_system(), np.array([correction]), "tilt", magnitude)[0]


def stabilizer_deltas(arm_azimuth_deg: float, arm_extension: float,
                      tilt_error: tuple = (0.0, 0.0)) -> np.ndarray:
    """Per-rotor thrust deltas (N) opposing the arm torque and tilt error.

    Rotors overlapping the arm azimuth are boosted, their opposite rotors cut
    by the same amount, so the eight deltas sum to exactly zero. The tilt
    correction is built the same way around the azimuth whose boost produces
    a torque opposing (roll, pitch).
    """
    deltas = arm_compensation_deltas([arm_azimuth_deg], [arm_extension])[0]
    roll, pitch = float(tilt_error[0]), float(tilt_error[1])
    if roll != 0.0 or pitch != 0.0:
        deltas = deltas + tilt_compensation_deltas(roll, pitch)
    return deltas


def deltas_csv(deltas) -> str:
    rows = ["rotor_index,delta"]
    rows += [f"{i},{float(d)!r}" for i, d in enumerate(deltas)]
    return "\n".join(rows) + "\n"
