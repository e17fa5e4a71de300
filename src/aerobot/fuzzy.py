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
import operator
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from importlib import resources
from types import MappingProxyType

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, NoRuleFired, OutOfRange, ParseError

N_ROTORS = 8
# bounds on the output sample grid; the upper one caps each curve's allocation
MIN_SAMPLES = 51
MAX_SAMPLES = 10_001
ROTOR_AZIMUTHS_DEG = tuple(45.0 * i for i in range(N_ROTORS))
# what float() and numpy parse as a number though it is text; a query or pose refuses it
_TEXT = (str, bytes, bytearray, memoryview)


def _floats(values, n: int, what: str) -> tuple:
    """The caller's n numbers as floats; text, or a number past float range, is ConfigInvalid."""
    try:
        out = tuple(map(float, values))
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{what} must be numbers in float range: {exc}") from exc
    if len(out) != n or any(isinstance(v, (str, bytes)) for v in values):
        raise ConfigInvalid(f"need {n} {what}, got {values!r}")
    return out


@dataclass(frozen=True)
class MembershipFunction:
    """Trapezoidal membership on breakpoints (a, b, c, d); a triangle has b == c."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", _floats(self.points, 4, "breakpoints"))
        if (not all(map(math.isfinite, self.points))
                or any(b < a for a, b in zip(self.points, self.points[1:]))):
            raise ConfigInvalid(f"breakpoints must be finite and non-decreasing: {self.points}")

    @classmethod
    def triangle(cls, a: float, b: float, c: float) -> "MembershipFunction":
        return cls((a, b, b, c))

    @classmethod
    def trapezoid(cls, a: float, b: float, c: float, d: float) -> "MembershipFunction":
        return cls((a, b, c, d))

    def __call__(self, x):
        """Degree of x: a float for a Python or numpy number, else an array."""
        a, b, c, d = self.points
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
    """Named universe with at least two labeled membership sets, held read-only."""

    name: str
    universe: tuple
    sets: dict

    def __post_init__(self):
        if not (isinstance(self.sets, (dict, MappingProxyType)) and len(self.sets) >= 2
                and all(isinstance(mf, MembershipFunction) for mf in self.sets.values())):
            raise ConfigInvalid(f"variable {self.name!r} needs >= 2 labels of MembershipFunctions")
        object.__setattr__(self, "sets", MappingProxyType(dict(self.sets)))
        object.__setattr__(self, "universe", _floats(self.universe, 2, "universe bounds"))
        lo, hi = self.universe
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and hi - lo < math.inf):
            raise ConfigInvalid(f"universe {self.universe} is empty, not finite or too wide")
        for label, mf in self.sets.items():
            a, b, c, d = mf.points
            if a < lo or d > hi:
                raise ConfigInvalid(f"{self.name}.{label} breakpoints leave the universe")
            # the degree (x - a) / (b - a) of any x in the universe stays finite
            if any(w > 0.0 and (hi - lo) / w == math.inf for w in (b - a, d - c)):
                raise ConfigInvalid(f"{self.name}.{label} is too steep for its universe")

    def clamp(self, x: float) -> float:
        lo, hi = self.universe
        return min(max(x, lo), hi)


@dataclass(frozen=True)
class Rule:
    """AND-combined (variable, label) antecedents implying one output label."""

    antecedents: tuple
    consequent: tuple


@dataclass(frozen=True, eq=False)
class FuzzySystem:
    """Immutable rulebase; per output, one pre-sampled (labels, samples) stack of curves.

    Built from sequences of input and output variables, held read-only by name.
    """

    inputs: MappingProxyType
    outputs: MappingProxyType
    rules: tuple
    samples: int = 201

    def __post_init__(self):
        try:
            in_bounds = MIN_SAMPLES <= operator.index(self.samples) <= MAX_SAMPLES
        except TypeError:
            in_bounds = False
        if not in_bounds:  # the message leaves out the value: a huge int has no str
            raise ConfigInvalid(f"samples must be an integer in {MIN_SAMPLES}..{MAX_SAMPLES}")
        try:
            object.__setattr__(self, "inputs", MappingProxyType({v.name: v for v in self.inputs}))
            object.__setattr__(self, "outputs", MappingProxyType({v.name: v for v in self.outputs}))
            object.__setattr__(self, "rules", tuple(self.rules))
            conditions = {(n, label) for n, var in self.inputs.items() for label in var.sets}
            conclusions = {(n, label) for n, var in self.outputs.items() for label in var.sets}
        except (AttributeError, TypeError) as exc:
            raise ConfigInvalid(f"need sequences of FuzzyVariables and of rules: {exc}") from exc
        for rule in self.rules:
            try:  # an unhashable term is not a known one, and a non-Rule has none
                if not rule.antecedents:
                    raise ConfigInvalid(f"rule for {rule.consequent} has no antecedents")
                known = conditions.issuperset(rule.antecedents) and rule.consequent in conclusions
            except (AttributeError, TypeError):
                known = False
            if not known:
                raise ConfigInvalid(f"{rule} names an unknown (variable, label) pair")
        for var in self.outputs.values():
            # the centroid sums samples values of |y| <= max(|lo|, |hi|)
            if self.samples * max(map(abs, var.universe)) == math.inf:
                raise ConfigInvalid(f"{self.samples} samples of {var.name!r} overflow the centroid")
        object.__setattr__(self, "_stacks", {name: (tuple(var.sets),) + _curve_stack(
            var.universe, tuple(mf.points for mf in var.sets.values()), self.samples)
            for name, var in self.outputs.items()})


@lru_cache(maxsize=64, typed=True)
def _curve_stack(universe: tuple, abcds: tuple, samples: int) -> tuple:
    """Read-only sample grid and (labels, samples) curves, one per (a, b, c, d)."""
    ys = np.linspace(*universe, samples)
    curves = np.stack([MembershipFunction(abcd)(ys) for abcd in abcds])
    ys.flags.writeable = curves.flags.writeable = False
    return ys, curves


def infer(system: FuzzySystem, values: dict) -> dict:
    """Crisp centroid output per output variable for one query, on Python floats.

    Each consequent label is clipped once, at the largest firing degree of its
    rules, since max_r min(h_r, c) = min(max_r h_r, c).
    """
    degrees = {}
    for name, var in system.inputs.items():
        try:
            value = values[name]
        except (KeyError, TypeError) as exc:  # a missing name, or a query that is no mapping
            raise ConfigInvalid(f"query has no input {name!r}: {exc!r}") from exc
        # float() would parse text; a float, the usual query, skips the slower type check
        if type(value) is not float and isinstance(value, _TEXT):
            raise OutOfRange(f"input {name!r} is text, not a number")
        try:
            x = var.clamp(float(value))
        except (OverflowError, TypeError, ValueError) as exc:
            raise OutOfRange(f"input {name!r} is not a number in float range: {exc}") from exc
        if x != x:  # NaN passes the clamp and no set holds it
            raise OutOfRange(f"input {name!r} is NaN")
        degrees.update({(name, label): mf(x) for label, mf in var.sets.items()})

    crisp = {}
    for name, (labels, ys, curves) in system._stacks.items():
        heights = [0.0] * len(labels)
        for rule in system.rules:
            if rule.consequent[0] == name:
                j = labels.index(rule.consequent[1])
                fired = min(degrees[a] for a in rule.antecedents)
                heights[j] = max(heights[j], fired)
        clipped = np.minimum(np.array(heights)[:, None], curves)
        agg = clipped.max(axis=0)
        mass = agg.sum()
        if not mass:  # mass is never negative
            raise NoRuleFired(f"no rule fired for output {name!r}")
        crisp[name] = float(np.multiply(agg, ys, out=agg).sum() / mass)
    return crisp


# JSON definition ------------------------------------------------------------

FUZZY_FORMAT = "aerobot-fuzzy"
_FORMAT_VERSION = 1


def _var_from_doc(doc: dict) -> FuzzyVariable:
    sets = {}
    for label, mf_doc in doc["sets"].items():
        points = tuple(mf_doc["points"])
        expected = {"triangle": 3, "trapezoid": 4}.get(mf_doc.get("shape"))
        if expected is None or len(points) != expected:
            raise ParseError(f"set {label!r} has bad shape/points")
        sets[label] = (MembershipFunction.triangle(*points) if expected == 3
                       else MembershipFunction(points))
    return FuzzyVariable(doc["name"], doc["universe"], sets)


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
    """Liters of pesticide per unit area for a green-cover fraction, by a rulebase whose
    one input is green_density and which has a dose output (else ConfigInvalid)."""
    try:
        in_range = 0.0 <= density <= 1.0
    except TypeError:
        in_range = False
    if not in_range:  # the message leaves out the value: a huge int has no str
        raise OutOfRange("density is not a number in [0, 1]")
    sys_ = system if system is not None else default_dosing_system()
    if sys_.inputs.keys() != {"green_density"} or "dose" not in sys_.outputs:
        raise ConfigInvalid(f"not a dosing rulebase: {[*sys_.inputs]} -> {[*sys_.outputs]}")
    return infer(sys_, {"green_density": density})["dose"]


# Octocopter stabilizer --------------------------------------------------------

# Magnitude universes are calibrated so a fully extended arm aligned with a
# rotor is met by a counter-torque close to its own gravity torque under the
# default simulator parameters (0.94 kg at 0.6 m on a 0.5 m rotor ring).
_ARM_DELTA_MAX_N = 5.0
_TILT_DELTA_MAX_N = 4.2
_TILT_UNIVERSE_RAD = 0.5

def _ring_system(extent: FuzzyVariable, active: str, top: float, apex: float) -> FuzzySystem:
    """Lift boost when the rotor is near the azimuth and `extent` reads `active`, else none."""
    proximity = FuzzyVariable("proximity", (0.0, 180.0), {
        "near": MembershipFunction.triangle(0.0, 0.0, 112.5),
        "far": MembershipFunction.triangle(67.5, 180.0, 180.0),
    })
    lift = FuzzyVariable("lift", (0.0, top), {
        # the degenerate "none" spike keeps its centroid at exactly zero
        "none": MembershipFunction.triangle(0.0, 0.0, 0.0),
        "boost": MembershipFunction.triangle(apex - 2.0, apex, apex + 2.0),
    })
    rules = [Rule((("proximity", near), (extent.name, label)),
                  ("lift", "boost" if (near, label) == ("near", active) else "none"))
             for near in proximity.sets for label in extent.sets]
    return FuzzySystem([proximity, extent], [lift], rules)


@cache
def arm_compensation_system() -> FuzzySystem:
    """Rotor lift boost from arm proximity (near/far) and extension (short/long)."""
    return _ring_system(FuzzyVariable("extension", (0.0, 1.0), {
        "short": MembershipFunction.triangle(0.0, 0.0, 1.0),
        "long": MembershipFunction.triangle(0.0, 1.0, 1.0),
    }), "long", _ARM_DELTA_MAX_N, 2.3)


@cache
def tilt_compensation_system() -> FuzzySystem:
    """Rotor lift boost from tilt magnitude (flat/tilted) and correction proximity."""
    return _ring_system(FuzzyVariable("tilt", (0.0, _TILT_UNIVERSE_RAD), {
        "flat": MembershipFunction.triangle(0.0, 0.0, 0.06),
        "tilted": MembershipFunction.trapezoid(0.03, 0.12, 0.5, 0.5),
    }), "tilted", _TILT_DELTA_MAX_N, 2.0)


@lru_cache(maxsize=2)
def _boost_sums(system: FuzzySystem) -> tuple:
    """The distinct "boost" sample values c_k, with S0(c_k) and S1(c_k) (see `_ring_deltas`)."""
    labels, ys, curves = system._stacks["lift"]
    boost = curves[labels.index("boost")]
    knots = np.unique(boost)
    clipped = np.minimum(knots[:, None], boost)
    return knots, clipped.sum(axis=1), (clipped * ys).sum(axis=1)


def _ring_deltas(system: FuzzySystem, azimuths: np.ndarray, name: str, values) -> np.ndarray:
    """Zero-sum (B, 8) deltas of the lift inferred from each rotor's unsigned angle in
    [0, 180] to each azimuth and from input `name`, whose `values` broadcast against
    those angles. Per row, rotor i+4 gets the exact negation of rotor i's delta.

    "none" is one sample at y = 0, where "boost" is 0, so the centroid at h = h_boost is
    S1(h) / (h_none + S0(h)), with S0(h) = Σ min(h, c_j) and S1(h) = Σ y_j·min(h, c_j) over
    the "boost" samples c_j. Both are linear in h between sample values: np.interp gives them.
    """
    angle = np.abs((azimuths[:, None] - np.asarray(ROTOR_AZIMUTHS_DEG)) % 360.0)
    inputs = {"proximity": np.minimum(angle, 360.0 - angle, out=angle), name: values}
    degrees = {(key, label): mf(inputs[key])
               for key, var in system.inputs.items() for label, mf in var.sets.items()}
    height = {"none": 0.0, "boost": 0.0}
    for rule in system.rules:
        fired = reduce(np.minimum, (degrees[a] for a in rule.antecedents))
        height[rule.consequent[1]] = np.maximum(height[rule.consequent[1]], fired)
    knots, s0, s1 = _boost_sums(system)
    lift = np.interp(height["boost"], knots, s1)
    lift /= height["none"] + np.interp(height["boost"], knots, s0)
    half = lift[:, :N_ROTORS // 2] - lift[:, N_ROTORS // 2:]
    return np.concatenate([half, -half], axis=1)


def _holds_text(values) -> bool:
    """True for text or an array of it, which np.asarray(..., float64) would parse as numbers."""
    raw = np.asarray(values)
    return raw.dtype.kind in "USV" or (raw.dtype.kind == "O"
                                       and any(isinstance(v, _TEXT) for v in raw.flat))


def arm_compensation_deltas(azimuths_deg, extensions) -> np.ndarray:
    """Zero-sum deltas (B, 8) for a series of arm poses."""
    try:
        az = np.atleast_1d(np.asarray(azimuths_deg, dtype=np.float64))
        ext = np.atleast_1d(np.asarray(extensions, dtype=np.float64))
    except (OverflowError, TypeError, ValueError) as exc:
        raise OutOfRange(f"arm poses must be numbers in float range: {exc}") from exc
    if _holds_text(azimuths_deg) or _holds_text(extensions):
        raise OutOfRange("arm poses must be numbers, not text")
    if az.ndim != 1 or az.shape != ext.shape:
        raise DimensionMismatch("azimuths and extensions must be aligned 1-D series")
    if not np.all(np.isfinite(az)):
        raise OutOfRange("azimuth is not finite")
    if not np.all((ext >= 0.0) & (ext <= 1.0)):  # NaN fails both comparisons
        raise OutOfRange("extension outside [0, 1]")
    return _ring_deltas(arm_compensation_system(), az % 360.0, "extension", ext[:, None])


def tilt_compensation_deltas(roll: float, pitch: float) -> np.ndarray:
    """Zero-sum deltas (8,) boosting the rotors whose lift opposes the tilt."""
    try:
        finite = math.isfinite(roll) and math.isfinite(pitch)
    except (OverflowError, TypeError) as exc:
        raise OutOfRange(f"tilt must be two numbers in float range: {exc}") from exc
    if not finite:
        raise OutOfRange(f"tilt ({roll}, {pitch}) is not finite")
    correction = math.degrees(math.atan2(-roll, pitch)) % 360.0
    return _ring_deltas(tilt_compensation_system(), np.array([correction]), "tilt",
                        min(math.hypot(roll, pitch), _TILT_UNIVERSE_RAD))[0]


def stabilizer_deltas(arm_azimuth_deg: float, arm_extension: float,
                      tilt_error: tuple = (0.0, 0.0)) -> np.ndarray:
    """Per-rotor thrust deltas (N) opposing the arm torque and tilt error.

    Rotors overlapping the arm azimuth are boosted, their opposite rotors cut
    by the same amount, so the eight deltas sum to exactly zero. The tilt
    correction is built the same way around the azimuth whose boost produces
    a torque opposing (roll, pitch).
    """
    try:
        roll, pitch = tilt_error
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"tilt_error must be a (roll, pitch) pair: {exc}") from exc
    return (arm_compensation_deltas([arm_azimuth_deg], [arm_extension])[0]
            + tilt_compensation_deltas(roll, pitch))
