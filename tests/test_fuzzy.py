import json
import math
import warnings

import numpy as np
import pytest

from aerobot import fuzzy
from aerobot.errors import NoRuleFired, ParseError
from aerobot.fuzzy import (
    MAX_SAMPLES,
    N_ROTORS,
    FuzzySystem,
    FuzzyVariable,
    MembershipFunction,
    Rule,
    arm_compensation_deltas,
    arm_compensation_system,
    default_dosing_system,
    deltas_csv,
    fuzzify,
    infer,
    pesticide_dose,
    stabilizer_deltas,
    system_from_json,
    system_to_json,
    tilt_compensation_deltas,
    tilt_compensation_system,
)


class TestMembership:
    def test_triangle_apex(self):
        mf = MembershipFunction.triangle(0.0, 0.5, 1.0)
        assert mf(0.5) == 1.0

    def test_triangle_interpolation(self):
        mf = MembershipFunction.triangle(0.0, 0.5, 1.0)
        assert mf(0.25) == pytest.approx(0.5)
        assert mf(0.75) == pytest.approx(0.5)

    def test_outside_support(self):
        mf = MembershipFunction.triangle(0.2, 0.5, 0.8)
        assert mf(0.1) == 0.0
        assert mf(0.9) == 0.0

    def test_trapezoid_plateau(self):
        mf = MembershipFunction.trapezoid(0.0, 0.2, 0.8, 1.0)
        assert mf(0.2) == 1.0
        assert mf(0.5) == 1.0
        assert mf(0.1) == pytest.approx(0.5)

    def test_degenerate_spike(self):
        mf = MembershipFunction.triangle(0.0, 0.0, 0.0)
        assert mf(0.0) == 1.0
        assert mf(1e-9) == 0.0

    def test_vertical_edge(self):
        mf = MembershipFunction.triangle(0.0, 0.0, 1.0)
        assert mf(0.0) == 1.0
        assert mf(0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("points", [(0.0, math.nan, 1.0), (math.nan, 0.0, 1.0),
                                        (0.0, 1.0, math.inf), (-math.inf, 0.0, 1.0, 2.0)])
    def test_rejects_non_finite_points(self, points):
        with pytest.raises(ValueError, match="finite"):
            MembershipFunction(points)

    def test_rejects_decreasing_points(self):
        with pytest.raises(ValueError):
            MembershipFunction.triangle(1.0, 0.5, 0.8)

    def test_values_in_unit_interval(self):
        mf = MembershipFunction.trapezoid(0.0, 0.3, 0.6, 1.0)
        xs = np.linspace(-0.5, 1.5, 101)
        ys = mf(xs)
        assert np.all((ys >= 0.0) & (ys <= 1.0))


def unit_variable():
    return FuzzyVariable("x", (0.0, 1.0), {
        "lo": MembershipFunction.triangle(0.0, 0.0, 0.5),
        "hi": MembershipFunction.triangle(0.5, 1.0, 1.0),
    })


class TestFuzzify:
    def test_degrees(self):
        degrees = fuzzify(unit_variable(), 0.25)
        assert degrees["lo"] == pytest.approx(0.5)
        assert degrees["hi"] == 0.0

    def test_clamps_into_universe(self):
        degrees = fuzzify(unit_variable(), -4.0)
        assert degrees["lo"] == 1.0

    def test_variable_needs_two_labels(self):
        with pytest.raises(ValueError):
            FuzzyVariable("x", (0.0, 1.0), {"only": MembershipFunction.triangle(0, 0.5, 1)})

    @pytest.mark.parametrize("universe", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
    def test_universe_must_be_finite(self, universe):
        with pytest.raises(ValueError, match="not finite"):
            FuzzyVariable("x", universe, {"a": MembershipFunction.triangle(0, 0, 1),
                                          "b": MembershipFunction.triangle(0, 1, 1)})

    def test_breakpoints_must_fit_universe(self):
        with pytest.raises(ValueError):
            FuzzyVariable("x", (0.0, 1.0), {
                "a": MembershipFunction.triangle(0.0, 0.5, 2.0),
                "b": MembershipFunction.triangle(0.0, 0.5, 1.0),
            })


def single_output_system(consequents, rules, samples=201):
    out = FuzzyVariable("y", (0.0, 1.0), consequents)
    return FuzzySystem([unit_variable()], [out], rules, samples=samples)


class TestInfer:
    def test_single_symmetric_rule_centroid_is_apex(self):
        system = single_output_system(
            {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
             "unused": MembershipFunction.triangle(0.0, 0.0, 0.25)},
            [Rule((("x", "lo"),), ("y", "mid"))],
        )
        assert infer(system, {"x": 0.0})["y"] == pytest.approx(0.5, abs=1e-9)

    def test_two_symmetric_consequents_average(self):
        # at x = 0.25 both antecedents fire at degree 0.5
        wide = FuzzyVariable("x", (0.0, 1.0), {
            "lo": MembershipFunction.triangle(0.0, 0.0, 0.5),
            "hi": MembershipFunction.triangle(0.0, 0.5, 1.0),
        })
        out = FuzzyVariable("y", (0.0, 1.0), {
            "left": MembershipFunction.triangle(0.0, 0.25, 0.5),
            "right": MembershipFunction.triangle(0.5, 0.75, 1.0),
        })
        system = FuzzySystem([wide], [out], [
            Rule((("x", "lo"),), ("y", "left")),
            Rule((("x", "hi"),), ("y", "right")),
        ])
        assert infer(system, {"x": 0.25})["y"] == pytest.approx(0.5, abs=1e-9)

    def test_no_rule_fired(self):
        system = single_output_system(
            {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
             "unused": MembershipFunction.triangle(0.0, 0.0, 0.25)},
            [Rule((("x", "hi"),), ("y", "mid"))],
        )
        with pytest.raises(NoRuleFired):
            infer(system, {"x": 0.0})  # hi has zero degree at 0

    def test_more_inputs_than_numpy_broadcasts_at_once(self):
        unit = unit_variable()
        inputs = [FuzzyVariable(f"x{i}", unit.universe, unit.sets) for i in range(70)]
        out = FuzzyVariable("y", (0.0, 1.0), {"low": MembershipFunction.triangle(0.0, 0.0, 0.5),
                                              "high": MembershipFunction.triangle(0.5, 1.0, 1.0)})
        rules = [Rule(((v.name, "hi"),), ("y", "high")) for v in inputs]
        rules.append(Rule(tuple((v.name, "lo") for v in inputs), ("y", "low")))
        system = FuzzySystem(inputs, [out], rules)
        query = {v.name: 0.1 + 0.01 * i for i, v in enumerate(inputs)}
        assert infer(system, query) == infer_oracle(system, query)
        rows = dict(query, x0=np.array([0.2, 0.9]))
        replicated = {k: np.broadcast_to(v, (2,)) for k, v in rows.items()}
        assert np.array_equal(fuzzy._infer_batch(system, rows)["y"],
                              infer_batch_oracle(system, replicated)["y"])

    def test_missing_input_rejected(self):
        system = single_output_system(
            {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
             "o": MembershipFunction.triangle(0.0, 0.0, 0.25)},
            [Rule((("x", "lo"),), ("y", "mid"))],
        )
        with pytest.raises(ValueError):
            infer(system, {})

    def test_unknown_rule_labels_rejected(self):
        with pytest.raises(ValueError):
            single_output_system(
                {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
                 "o": MembershipFunction.triangle(0.0, 0.0, 0.25)},
                [Rule((("x", "nope"),), ("y", "mid"))],
            )

    def test_min_sample_count(self):
        with pytest.raises(ValueError):
            single_output_system(
                {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
                 "o": MembershipFunction.triangle(0.0, 0.0, 0.25)},
                [Rule((("x", "lo"),), ("y", "mid"))],
                samples=50,
            )

    def test_max_sample_count_checked_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sample grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(ValueError, match="samples"):
            single_output_system(
                {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
                 "o": MembershipFunction.triangle(0.0, 0.0, 0.25)},
                [Rule((("x", "lo"),), ("y", "mid"))],
                samples=MAX_SAMPLES + 1,
            )

    def test_deterministic(self):
        system = default_dosing_system()
        a = infer(system, {"green_density": 0.37})["dose"]
        b = infer(system, {"green_density": 0.37})["dose"]
        assert a == b

    def test_centroid_stays_in_universe(self):
        system = default_dosing_system()
        for d in np.linspace(0, 1, 21):
            dose = infer(system, {"green_density": float(d)})["dose"]
            assert 0.0 <= dose <= 10.0


def naive_mamdani_dose(system, density):
    """Loop-wise min/max/centroid evaluation, independent of the engine."""
    var = system.inputs["green_density"]
    out = system.outputs["dose"]
    lo, hi = out.universe
    x = min(max(density, var.universe[0]), var.universe[1])
    num = den = 0.0
    for i in range(system.samples):
        y = lo + (hi - lo) * i / (system.samples - 1)
        mu = 0.0
        for rule in system.rules:
            degree = min(float(var.sets[label](x)) for _, label in rule.antecedents)
            mu = max(mu, min(degree, float(out.sets[rule.consequent[1]](y))))
        num += y * mu
        den += mu
    return num / den


class TestPesticideDose:
    def test_matches_naive_oracle(self):
        system = default_dosing_system()
        for density in (0.0, 0.13, 0.31, 0.5, 0.62, 0.88, 1.0):
            assert pesticide_dose(density) == pytest.approx(
                naive_mamdani_dose(system, density), abs=1e-9)

    def test_density_zero(self):
        # oracle value: centroid of the full small triangle (0, 1, 5) = 2.0
        assert pesticide_dose(0.0) == pytest.approx(2.0, abs=1e-9)

    def test_density_one(self):
        # oracle value: centroid of the full large triangle (5, 9, 10) = 8.0
        assert pesticide_dose(1.0) == pytest.approx(8.0, abs=1e-9)

    def test_density_half(self):
        assert pesticide_dose(0.5) == pytest.approx(5.0, abs=0.05)

    def test_monotone_non_decreasing(self):
        doses = [pesticide_dose(i / 100.0) for i in range(101)]
        assert all(b >= a - 1e-12 for a, b in zip(doses, doses[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pesticide_dose(1.5)


class TestStabilizer:
    def test_no_disturbance_all_zero(self):
        deltas = stabilizer_deltas(123.0, 0.0, (0.0, 0.0))
        assert np.array_equal(deltas, np.zeros(N_ROTORS))

    def test_aligned_arm(self):
        deltas = stabilizer_deltas(0.0, 1.0)
        assert deltas[0] > 0.0
        assert deltas[4] == -deltas[0]

    def test_bisecting_arm(self):
        deltas = stabilizer_deltas(22.5, 1.0)
        assert deltas[0] == deltas[1]

    def test_zero_sum_random_inputs(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            deltas = stabilizer_deltas(
                float(rng.uniform(0, 360)), float(rng.uniform(0, 1)),
                (float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4))))
            assert abs(float(deltas.sum())) < 1e-9

    def test_mirror_pairs_exact(self):
        deltas = stabilizer_deltas(77.0, 0.9, (0.1, -0.2))
        for i in range(4):
            assert deltas[i + 4] == -deltas[i]

    def test_rotational_equivariance(self):
        base = stabilizer_deltas(33.0, 0.8)
        for shift in range(8):
            shifted = stabilizer_deltas(33.0 + 45.0 * shift, 0.8)
            assert np.allclose(np.roll(base, shift), shifted, atol=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(31)
        azimuths = rng.uniform(0, 360, size=12)
        extensions = rng.uniform(0, 1, size=12)
        batch = arm_compensation_deltas(azimuths, extensions)
        for i in range(12):
            assert np.array_equal(batch[i], stabilizer_deltas(azimuths[i], extensions[i]))

    def test_tilt_only_correction_direction(self):
        # positive roll needs negative roll torque: boost the -y rotors
        deltas = tilt_compensation_deltas(0.3, 0.0)
        assert abs(float(deltas.sum())) < 1e-12
        assert deltas[6] > 0.0  # rotor at 270 deg
        assert deltas[2] < 0.0  # rotor at 90 deg

    def test_zero_tilt_returns_zeros(self):
        assert np.array_equal(tilt_compensation_deltas(0.0, 0.0), np.zeros(N_ROTORS))

    def test_extension_bounds(self):
        with pytest.raises(ValueError):
            stabilizer_deltas(0.0, 1.5)

    @pytest.mark.parametrize("azimuth, extension", [
        (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (0.0, math.nan)])
    def test_non_finite_pose_rejected_before_arithmetic(self, azimuth, extension):
        # the suite turns warnings into errors, so a numpy RuntimeWarning fails this too
        with pytest.raises(ValueError, match="not finite|outside"):
            arm_compensation_deltas([10.0, azimuth], [0.5, extension])
        with pytest.raises(ValueError, match="not finite|outside"):
            stabilizer_deltas(azimuth, extension)

    @pytest.mark.parametrize("roll, pitch", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.1, -math.inf), (math.inf, math.nan)])
    def test_non_finite_tilt_rejected_before_arithmetic(self, roll, pitch):
        with pytest.raises(ValueError, match="not finite"):
            tilt_compensation_deltas(roll, pitch)
        with pytest.raises(ValueError, match="not finite"):
            stabilizer_deltas(45.0, 0.5, (roll, pitch))

    def test_csv_export(self):
        csv = deltas_csv(stabilizer_deltas(0.0, 1.0))
        lines = csv.strip().split("\n")
        assert lines[0] == "rotor_index,delta"
        assert len(lines) == 1 + N_ROTORS


class TestSystemJson:
    def test_round_trip(self):
        system = default_dosing_system()
        clone = system_from_json(system_to_json(system))
        assert clone.samples == system.samples
        assert set(clone.inputs) == set(system.inputs)
        assert clone.rules == system.rules
        for d in np.linspace(0, 1, 11):
            assert infer(clone, {"green_density": float(d)}) == \
                infer(system, {"green_density": float(d)})

    def test_rejects_bad_format(self):
        with pytest.raises(ParseError):
            system_from_json(json.dumps({"format": "other", "version": 1}))

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            system_from_json("{nope")

    def test_rejects_bad_shape(self):
        doc = json.loads(system_to_json(default_dosing_system()))
        doc["inputs"][0]["sets"]["low"]["shape"] = "pentagon"
        with pytest.raises(ParseError):
            system_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"aerobot-fuzzy"', "null",
                                      "[" * 100_000, '{"n": 1' + "0" * 5000 + "}"],
                             ids=["list", "number", "string", "null", "deep", "long-int"])
    def test_rejects_non_object_and_unreadable_documents(self, text):
        with pytest.raises(ParseError):
            system_from_json(text)

    @pytest.mark.parametrize("edit", [
        lambda d: d["inputs"][0].update(sets=[1, 2]),
        lambda d: d["inputs"][0]["sets"].update(low=[0.0, 0.0, 0.5]),
        lambda d: d["inputs"][0]["sets"]["medium"].update(points=[0.0, math.nan, 1.0]),
        lambda d: d["inputs"][0]["sets"]["low"].update(points=[math.nan, 0.0, 0.5]),
        lambda d: d["outputs"][0]["universe"].__setitem__(1, math.inf),
        lambda d: d["inputs"][0]["universe"].__setitem__(0, -math.inf),
        lambda d: d["outputs"][0]["universe"].__setitem__(0, math.nan),
        lambda d: d["outputs"][0]["sets"]["large"].update(points=[5.0, 9.0, 10 ** 400]),
        lambda d: d["outputs"][0]["universe"].__setitem__(1, 10 ** 400),
    ], ids=["sets-list", "set-list", "nan-apex", "nan-foot", "inf-universe", "minus-inf-universe",
            "nan-universe", "huge-point", "huge-universe"])
    def test_rejects_malformed_or_non_finite_documents(self, edit):
        doc = json.loads(system_to_json(default_dosing_system()))
        edit(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way out
            with pytest.raises(ParseError):
                system_from_json(json.dumps(doc))

    def test_rejects_sample_count_above_bound(self):
        doc = json.loads(system_to_json(default_dosing_system()))
        doc["samples"] = MAX_SAMPLES + 1
        with pytest.raises(ParseError, match="samples"):
            system_from_json(json.dumps(doc))

    def test_custom_system_through_dose(self):
        # constant output set: any density lands on the lone apex
        doc = {
            "format": "aerobot-fuzzy", "version": 1, "samples": 201,
            "inputs": [{"name": "green_density", "universe": [0, 1], "sets": {
                "any": {"shape": "trapezoid", "points": [0, 0, 1, 1]},
                "other": {"shape": "triangle", "points": [0, 0, 1]},
            }}],
            "outputs": [{"name": "dose", "universe": [0, 10], "sets": {
                "fixed": {"shape": "triangle", "points": [2, 4, 6]},
                "unused": {"shape": "triangle", "points": [0, 0, 2]},
            }}],
            "rules": [{"if": [["green_density", "any"]], "then": ["dose", "fixed"]}],
        }
        system = system_from_json(json.dumps(doc))
        assert pesticide_dose(0.9, system) == pytest.approx(4.0, abs=1e-9)


# The earlier engine, kept as an oracle ------------------------------------------

def infer_batch_oracle(system, values):
    """Per-rule Mamdani: a (rows, samples) max-min pass for every rule."""
    arrays = {}
    batch = None
    for name, var in system.inputs.items():
        arr = np.atleast_1d(np.asarray(values[name], dtype=np.float64))
        arrays[name] = np.clip(arr, *var.universe)
        batch = arr.shape[0]
    degrees = []
    for rule in system.rules:
        deg = np.ones(batch)
        for var, label in rule.antecedents:
            deg = np.minimum(deg, system.inputs[var].sets[label](arrays[var]))
        degrees.append(deg)
    crisp = {}
    for name, var in system.outputs.items():
        ys = np.linspace(*var.universe, system.samples)
        agg = np.zeros((batch, system.samples))
        for rule, deg in zip(system.rules, degrees):
            if rule.consequent[0] == name:
                curve = var.sets[rule.consequent[1]](ys)
                np.maximum(agg, np.minimum(deg[:, None], curve[None, :]), out=agg)
        mass = agg.sum(axis=1)
        if np.any(mass == 0.0):
            raise NoRuleFired(f"no rule fired for output {name!r}")
        crisp[name] = (agg @ ys) / mass
    return crisp


def infer_oracle(system, values):
    batch = infer_batch_oracle(system, {k: [v] for k, v in values.items()})
    return {name: float(arr[0]) for name, arr in batch.items()}


def arm_deltas_oracle(azimuths, extensions, chunk_rows=16384):
    az = np.asarray(azimuths, dtype=np.float64) % 360.0
    proximity = fuzzy._angular_distance(az).reshape(-1)
    extension = np.repeat(np.asarray(extensions, dtype=np.float64), N_ROTORS)
    mags = np.concatenate([
        infer_batch_oracle(arm_compensation_system(), {
            "proximity": proximity[start:start + chunk_rows],
            "extension": extension[start:start + chunk_rows],
        })["lift"]
        for start in range(0, len(proximity), chunk_rows)])
    return fuzzy._antisymmetric(mags.reshape(-1, N_ROTORS))


def tilt_deltas_oracle(roll, pitch):
    azimuth = math.degrees(math.atan2(-roll, pitch)) % 360.0
    mags = infer_batch_oracle(tilt_compensation_system(), {
        "proximity": fuzzy._angular_distance(np.array([azimuth])).reshape(-1),
        "tilt": np.full(N_ROTORS, math.hypot(roll, pitch)),
    })["lift"]
    return fuzzy._antisymmetric(mags.reshape(1, N_ROTORS))[0]


def random_points(rng, lo, hi):
    """3 or 4 breakpoints on a coarse grid, so ties (vertical edges, spikes) are common."""
    grid = np.linspace(lo, hi, int(rng.integers(3, 9)))
    return tuple(float(v) for v in np.sort(rng.choice(grid, size=int(rng.choice([3, 4])))))


def random_variable(rng, name, n_labels):
    lo = float(rng.uniform(-5.0, 5.0))
    hi = lo + float(rng.uniform(0.5, 10.0))
    sets = {f"{name}{i}": MembershipFunction(random_points(rng, lo, hi)) for i in range(n_labels)}
    return FuzzyVariable(name, (lo, hi), sets)


def random_system(rng):
    """Two inputs, one or two outputs, rules with one or two antecedents."""
    inputs = [random_variable(rng, n, int(rng.integers(2, 5))) for n in ("a", "b")]
    outputs = [random_variable(rng, n, int(rng.integers(2, 4)))
               for n in ("y", "z")[:int(rng.integers(1, 3))]]
    rules = []
    for _ in range(int(rng.integers(2, 9))):
        picks = rng.permutation(len(inputs))[:int(rng.integers(1, 3))]
        antecedents = tuple((inputs[i].name, str(rng.choice(list(inputs[i].sets)))) for i in picks)
        out = outputs[int(rng.integers(len(outputs)))]
        rules.append(Rule(antecedents, (out.name, str(rng.choice(list(out.sets))))))
    return FuzzySystem(inputs, outputs, rules, samples=int(rng.integers(51, 302)))


def seeded_dosing_system(rng):
    """A dosing rulebase with seeded peaks, shaped like the shipped one."""
    peak = float(rng.uniform(0.35, 0.65))
    top = float(rng.uniform(8.0, 12.0))
    mid = float(rng.uniform(0.4, 0.6)) * top
    tri = MembershipFunction.triangle
    density = FuzzyVariable("green_density", (0.0, 1.0), {
        "sparse": tri(0.0, 0.0, peak), "patchy": tri(0.0, peak, 1.0), "dense": tri(peak, 1.0, 1.0)})
    dose = FuzzyVariable("dose", (0.0, top), {
        "low": tri(0.0, 0.1 * top, mid), "mid": tri(0.1 * top, mid, 0.9 * top),
        "high": tri(mid, 0.9 * top, top)})
    rules = [Rule((("green_density", a),), ("dose", b))
             for a, b in (("sparse", "low"), ("patchy", "mid"), ("dense", "high"))]
    return FuzzySystem([density], [dose], rules)


def outcome(call):
    try:
        return call()
    except NoRuleFired:
        return NoRuleFired


class TestEngineMatchesPerRuleOracle:
    def test_dose_on_the_dosing_system(self):
        system = default_dosing_system()
        densities = np.concatenate([np.linspace(0.0, 1.0, 2001),
                                    np.random.default_rng(40).random(2000)])
        for d in densities.tolist():
            assert pesticide_dose(d) == infer_oracle(system, {"green_density": d})["dose"]

    def test_dose_on_seeded_rulebases(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            system = seeded_dosing_system(rng)
            for d in np.concatenate([[0.0, 1.0], rng.random(50)]).tolist():
                expected = infer_oracle(system, {"green_density": d})["dose"]
                assert pesticide_dose(d, system) == expected

    def test_random_systems_one_row_and_batch(self):
        rng = np.random.default_rng(42)
        batches = no_rule = 0
        for _ in range(200):
            system = random_system(rng)
            rows = {name: rng.uniform(var.universe[0] - 1.0, var.universe[1] + 1.0, 12)
                    for name, var in system.inputs.items()}
            fired = []
            for i in range(12):
                query = {name: float(arr[i]) for name, arr in rows.items()}
                got = outcome(lambda: infer(system, query))
                assert got == outcome(lambda: infer_oracle(system, query))
                fired.append(got is not NoRuleFired)
            if not all(fired):  # one silent row fails the whole batch in both
                no_rule += 1
                with pytest.raises(NoRuleFired):
                    fuzzy._infer_batch(system, rows)
            rows = {name: arr[fired] for name, arr in rows.items()}
            if len(rows["a"]):
                got, expected = fuzzy._infer_batch(system, rows), infer_batch_oracle(system, rows)
                assert got.keys() == expected.keys()
                assert all(np.array_equal(got[k], expected[k]) for k in got)
                batches += 1
        assert batches > 100 and no_rule > 50  # both outcomes are exercised

    def test_trapezoids_spikes_and_two_antecedents(self):
        x = FuzzyVariable("x", (0.0, 1.0), {
            "edge": MembershipFunction.trapezoid(0.0, 0.0, 0.25, 0.5),
            "plateau": MembershipFunction.trapezoid(0.25, 0.5, 0.75, 1.0),
            "spike": MembershipFunction.triangle(0.5, 0.5, 0.5),
            "high": MembershipFunction.trapezoid(0.5, 1.0, 1.0, 1.0),
        })
        u = FuzzyVariable("u", (-1.0, 1.0), {
            "neg": MembershipFunction.triangle(-1.0, -1.0, 0.0),
            "pos": MembershipFunction.trapezoid(-0.5, 0.5, 1.0, 1.0),
        })
        y = FuzzyVariable("y", (0.0, 10.0), {
            "zero": MembershipFunction.triangle(0.0, 0.0, 0.0),
            "step": MembershipFunction.trapezoid(2.0, 2.0, 6.0, 7.0),
            "top": MembershipFunction.triangle(8.0, 10.0, 10.0),
        })
        system = FuzzySystem([x, u], [y], [
            Rule((("x", "edge"), ("u", "neg")), ("y", "zero")),
            Rule((("x", "plateau"), ("u", "pos")), ("y", "step")),
            Rule((("x", "spike"),), ("y", "top")),
            Rule((("u", "pos"), ("x", "edge")), ("y", "step")),
            Rule((("x", "high"),), ("y", "top")),
        ], samples=101)
        xs, us = np.meshgrid(np.linspace(-0.1, 1.1, 49), np.linspace(-1.2, 1.2, 25))
        rows = {"x": xs.ravel(), "u": us.ravel()}
        expected = infer_batch_oracle(system, rows)["y"]
        assert np.array_equal(fuzzy._infer_batch(system, rows)["y"], expected)
        for x_, u_ in zip(rows["x"].tolist(), rows["u"].tolist()):
            assert infer(system, {"x": x_, "u": u_}) == infer_oracle(system, {"x": x_, "u": u_})

    def test_no_rule_fired_in_both(self):
        system = single_output_system(
            {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
             "unused": MembershipFunction.triangle(0.0, 0.0, 0.25)},
            [Rule((("x", "hi"),), ("y", "mid"))],
        )
        for engine in (infer, infer_oracle):
            with pytest.raises(NoRuleFired):
                engine(system, {"x": 0.25})
        for engine in (fuzzy._infer_batch, infer_batch_oracle):
            with pytest.raises(NoRuleFired):
                engine(system, {"x": np.array([0.9, 0.25])})

    def test_number_broadcasts_like_a_replicated_array(self):
        rng = np.random.default_rng(46)
        compared = 0
        for _ in range(200):
            system = random_system(rng)
            (a, var_a), (b, var_b) = system.inputs.items()
            grid = rng.uniform(var_a.universe[0] - 1.0, var_a.universe[1] + 1.0, (3, 4))
            number = float(rng.uniform(var_b.universe[0] - 1.0, var_b.universe[1] + 1.0))
            got = outcome(lambda: fuzzy._infer_batch(system, {a: grid, b: number}))
            replicated = outcome(lambda: fuzzy._infer_batch(
                system, {a: grid, b: np.full(grid.shape, number)}))
            flat = outcome(lambda: infer_batch_oracle(
                system, {a: grid.ravel(), b: np.full(grid.size, number)}))
            if got is NoRuleFired:
                assert replicated is NoRuleFired and flat is NoRuleFired
                continue
            assert got.keys() == replicated.keys() == flat.keys()
            for k in got:
                assert got[k].shape == grid.shape
                assert got[k].tobytes() == replicated[k].tobytes() == flat[k].tobytes()
            compared += 1
        assert 40 < compared < 200  # a silent row fails a whole grid; both outcomes are exercised

    def test_columns_broadcast_against_rows(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            system = random_system(rng)
            (a, var_a), (b, var_b) = system.inputs.items()
            row = rng.uniform(*var_a.universe, (1, 5))
            column = rng.uniform(*var_b.universe, (4, 1))
            got = outcome(lambda: fuzzy._infer_batch(system, {a: row, b: column}))
            full = outcome(lambda: fuzzy._infer_batch(
                system, {a: np.repeat(row, 4, axis=0), b: np.repeat(column, 5, axis=1)}))
            assert (got is NoRuleFired) == (full is NoRuleFired)
            if got is not NoRuleFired:
                assert all(got[k].tobytes() == full[k].tobytes() for k in got)

    @pytest.mark.parametrize("shape_a, shape_b", [((3,), (4,)), ((2, 3), (3, 2)), ((5, 8), (5,))])
    def test_shapes_that_cannot_broadcast_rejected(self, shape_a, shape_b):
        system = random_system(np.random.default_rng(48))
        a, b = system.inputs
        with pytest.raises(ValueError):
            fuzzy._infer_batch(system, {a: np.zeros(shape_a), b: np.zeros(shape_b)})

    def test_arm_deltas_across_chunks(self):
        rng = np.random.default_rng(43)
        n = 2 * 16384 // N_ROTORS + 77  # crosses the old and the new chunk boundaries
        azimuths = np.concatenate([rng.uniform(-720.0, 720.0, n - 16), 45.0 * np.arange(16)])
        extensions = np.concatenate([rng.random(n - 4), [0.0, 0.0, 1.0, 1.0]])
        assert np.array_equal(arm_compensation_deltas(azimuths, extensions),
                              arm_deltas_oracle(azimuths, extensions))

    def test_tilt_deltas(self):
        rng = np.random.default_rng(44)
        tilts = np.concatenate([rng.uniform(-0.6, 0.6, (2000, 2)),
                                [[0.0, 1e-3], [0.06, 0.0], [0.0, -0.12], [0.3, 0.3], [1e-12, 0.0]]])
        for roll, pitch in tilts.tolist():
            assert np.array_equal(tilt_compensation_deltas(roll, pitch),
                                  tilt_deltas_oracle(roll, pitch))


def per_label_stack(var, samples):
    """The earlier curve stack: each label's MembershipFunction called on the grid."""
    ys = np.linspace(*var.universe, samples)
    return ys, np.array([mf(ys) for mf in var.sets.values()])[:, None, :]


def system_with_output(out, samples=201):
    rules = [Rule((("x", "lo"),), (out.name, label)) for label in out.sets]
    return FuzzySystem([unit_variable()], [out], rules, samples=samples)


class TestCurveStacks:
    SHAPES = {
        "triangle": MembershipFunction.triangle(0.5, 2.0, 3.5),
        "trapezoid": MembershipFunction.trapezoid(1.0, 1.5, 3.0, 4.5),
        "rising_wall": MembershipFunction.triangle(0.0, 0.0, 2.5),
        "falling_wall": MembershipFunction.trapezoid(2.0, 3.0, 5.0, 5.0),
        "step": MembershipFunction.trapezoid(1.0, 1.0, 2.0, 2.0),
        "spike_at_zero": MembershipFunction.triangle(0.0, 0.0, 0.0),
        "spike_inside": MembershipFunction.triangle(2.2, 2.2, 2.2),
        "int_triangle": MembershipFunction((0, 2, 5)),
        "int_trapezoid": MembershipFunction((1, 2, 3, 4)),
    }

    @pytest.mark.parametrize("samples", [51, 201, 1000, 4097])
    def test_broadcast_equals_per_label_bit_for_bit(self, samples):
        out = FuzzyVariable("y", (0.0, 5.0), self.SHAPES)
        labels, ys, curves = system_with_output(out, samples)._stacks["y"]
        ref_ys, ref_curves = per_label_stack(out, samples)
        assert labels == tuple(self.SHAPES)
        assert curves.shape == (len(self.SHAPES), 1, samples)
        assert ys.tobytes() == ref_ys.tobytes()
        assert curves.tobytes() == ref_curves.tobytes()

    def test_random_outputs_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            system = random_system(rng)
            for name, (labels, ys, curves) in system._stacks.items():
                ref_ys, ref_curves = per_label_stack(system.outputs[name], system.samples)
                assert labels == tuple(system.outputs[name].sets)
                assert ys.tobytes() == ref_ys.tobytes()
                assert curves.tobytes() == ref_curves.tobytes()

    def test_int_and_float_breakpoints_give_the_same_curves(self):
        ints = FuzzyVariable("y", (0, 4), {"a": MembershipFunction((0, 1, 3)),
                                           "b": MembershipFunction((1, 2, 3, 4))})
        floats = FuzzyVariable("y", (0.0, 4.0), {"a": MembershipFunction.triangle(0, 1, 3),
                                                 "b": MembershipFunction.trapezoid(1, 2, 3, 4)})
        fuzzy._curve_stack.cache_clear()
        for var in (ints, floats, ints):
            _, ys, curves = system_with_output(var)._stacks["y"]
            ref_ys, ref_curves = per_label_stack(var, 201)
            assert ys.tobytes() == ref_ys.tobytes()
            assert curves.tobytes() == ref_curves.tobytes()

    def test_stacks_are_shared_read_only_and_bounded(self):
        out = FuzzyVariable("y", (0.0, 5.0), self.SHAPES)
        first, second = (system_with_output(out)._stacks["y"] for _ in range(2))
        assert first[1] is second[1] and first[2] is second[2]
        for arr in first[1:]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert 0 < fuzzy._curve_stack.cache_info().maxsize <= 64

    def test_float_sample_count_still_rejected_after_an_int_one(self):
        doc = json.loads(system_to_json(default_dosing_system()))
        doc["samples"] = float(doc["samples"])
        with pytest.raises(ParseError):
            system_from_json(json.dumps(doc))

    def test_builtin_systems_are_built_once(self):
        for build in (default_dosing_system, arm_compensation_system, tilt_compensation_system):
            assert build() is build()
