import json
import math
import warnings

import numpy as np
import pytest

from aerobot.errors import NoRuleFired, ParseError
from aerobot.fuzzy import (
    MAX_SAMPLES,
    N_ROTORS,
    FuzzySystem,
    FuzzyVariable,
    MembershipFunction,
    Rule,
    arm_compensation_deltas,
    default_dosing_system,
    deltas_csv,
    fuzzify,
    infer,
    pesticide_dose,
    stabilizer_deltas,
    system_from_json,
    system_to_json,
    tilt_compensation_deltas,
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
