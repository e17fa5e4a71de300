import json
import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerobot import fuzzy
from aerobot.errors import ConfigInvalid, DimensionMismatch, NoRuleFired, OutOfRange, ParseError
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
    infer,
    pesticide_dose,
    stabilizer_deltas,
    system_from_json,
    tilt_compensation_deltas,
    tilt_compensation_system,
)


DOSING_JSON = resources.files("aerobot.assets").joinpath("dosing.json").read_text()


def dosing_doc() -> dict:
    """The shipped dosing rulebase document."""
    return json.loads(DOSING_JSON)


def with_wind_input(doc: dict) -> dict:
    doc["inputs"].append({"name": "wind", "universe": [0.0, 1.0], "sets": {
        "calm": {"shape": "triangle", "points": [0.0, 0.0, 1.0]},
        "gusty": {"shape": "triangle", "points": [0.0, 1.0, 1.0]}}})
    return doc


# the shipped rulebase with its output renamed, its input renamed, or a second input
NOT_DOSING = {
    "output-liters": DOSING_JSON.replace('"dose"', '"liters"'),
    "input-cover": DOSING_JSON.replace('"green_density"', '"cover"'),
    "input-wind": json.dumps(with_wind_input(dosing_doc())),
}


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

    @pytest.mark.parametrize("points", [(0.0, math.nan, math.nan, 1.0), (math.nan, 0.0, 0.0, 1.0),
                                        (0.0, 1.0, 1.0, math.inf), (-math.inf, 0.0, 1.0, 2.0)])
    def test_rejects_non_finite_points(self, points):
        with pytest.raises(ValueError, match="finite"):
            MembershipFunction(points)

    def test_one_four_breakpoint_form(self):
        assert MembershipFunction.triangle(0, 0.5, 1).points == (0.0, 0.5, 0.5, 1.0)
        system = system_from_json(DOSING_JSON)
        assert system.inputs["green_density"].sets["medium"].points == (0.0, 0.5, 0.5, 1.0)
        assert system.outputs["dose"].sets["large"].points == (5.0, 9.0, 9.0, 10.0)
        for points in ((0.0, 0.5, 1.0), (0.0, 0.2, 0.4, 0.6, 1.0)):
            with pytest.raises(ConfigInvalid, match="4 breakpoints"):
                MembershipFunction(points)

    @pytest.mark.parametrize("points", [(0, 0, 1, 10**400), (-10**400, 0, 1, 2), (0, None, 1, 2),
                                        (0, "0.5", 1, 2), "0123", 4])
    def test_breakpoints_must_be_numbers_in_float_range(self, points):
        with pytest.raises(ConfigInvalid):
            MembershipFunction(points)

    def test_shape_builders_refuse_numbers_past_float_range(self):
        with pytest.raises(ConfigInvalid):
            MembershipFunction.triangle(0, 1, 10**400)
        with pytest.raises(ConfigInvalid):
            MembershipFunction.trapezoid(-10**400, 0, 1, 2)

    def test_breakpoints_are_stored_as_floats(self):
        points = MembershipFunction((0, np.int64(1), np.float64(1.0), 3)).points
        assert points == (0.0, 1.0, 1.0, 3.0)
        assert all(type(p) is float for p in points)

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
        sets = unit_variable().sets
        assert sets["lo"](0.25) == pytest.approx(0.5)
        assert sets["hi"](0.25) == 0.0

    def test_clamps_into_universe(self):
        var = unit_variable()
        assert var.clamp(-4.0) == 0.0 and var.clamp(4.0) == 1.0
        assert var.sets["lo"](var.clamp(-4.0)) == 1.0

    def test_variable_needs_two_labels(self):
        with pytest.raises(ValueError):
            FuzzyVariable("x", (0.0, 1.0), {"only": MembershipFunction.triangle(0, 0.5, 1)})

    # the last universe has finite bounds but a width hi - lo past float range
    @pytest.mark.parametrize("universe", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
                                          (-1.7e308, 1.7e308)])
    def test_universe_must_be_finite(self, universe):
        with pytest.raises(ValueError, match="not finite"):
            FuzzyVariable("x", universe, {"a": MembershipFunction.triangle(0, 0, 1),
                                          "b": MembershipFunction.triangle(0, 1, 1)})

    @pytest.mark.parametrize("universe", [(0, 10**400), (-10**400, 1), (0.0, None), (0.0,),
                                          (0.0, 1.0, 2.0), "01", ("0", "1"), 1.0])
    def test_universe_must_be_two_numbers_in_float_range(self, universe):
        with pytest.raises(ConfigInvalid):
            FuzzyVariable("x", universe, {"a": MembershipFunction.triangle(0, 0, 1),
                                          "b": MembershipFunction.triangle(0, 1, 1)})

    def test_slope_over_the_universe_must_be_finite(self):
        # the degree (x - a) / (b - a) reaches 1 / 1e-320 at x = 1
        flat = MembershipFunction.triangle(0.0, 1.0, 1.0)
        FuzzyVariable("x", (0.0, 1.0), {"a": MembershipFunction.triangle(0.0, 1e-300, 1.0),
                                        "b": flat})
        for steep in (MembershipFunction.triangle(0.0, 1e-320, 1.0),
                      MembershipFunction.trapezoid(0.0, 0.0, 0.0, 1e-320)):
            with pytest.raises(ConfigInvalid, match="too steep"):
                FuzzyVariable("x", (0.0, 1.0), {"a": steep, "b": flat})

    def test_breakpoints_must_fit_universe(self):
        with pytest.raises(ValueError):
            FuzzyVariable("x", (0.0, 1.0), {
                "a": MembershipFunction.triangle(0.0, 0.5, 2.0),
                "b": MembershipFunction.triangle(0.0, 0.5, 1.0),
            })


def single_output_system(consequents, rules, samples=201):
    out = FuzzyVariable("y", (0.0, 1.0), consequents)
    return FuzzySystem([unit_variable()], [out], rules, samples=samples)


class TestSystemChecks:
    @pytest.mark.parametrize("sets", [
        {"a": 1, "b": 2}, 5, "ab", None,
        {"a": MembershipFunction.triangle(0, 0, 1), "b": (0, 1, 1, 1)}])
    def test_sets_must_map_labels_to_membership_functions(self, sets):
        with pytest.raises(ConfigInvalid, match="MembershipFunction"):
            FuzzyVariable("x", (0, 1), sets)

    @pytest.mark.parametrize("antecedents, consequent", [
        ((("x",),), ("y", "mid")), ((("x", "lo", "hi"),), ("y", "mid")), ((("x", "lo"),), ("y",)),
        (5, ("y", "mid")), ((("x", "lo"),), None), (((["x"], "lo"),), ("y", "mid")),
        ((("x", "lo"),), ("y", {"mid"})), ([["x", "lo"]], ("y", "mid")),
        (("x", "lo"), ("y", "mid"))])
    def test_rule_terms_must_be_variable_label_pairs(self, antecedents, consequent):
        consequents = {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
                       "low": MembershipFunction.triangle(0.0, 0.0, 0.25)}
        with pytest.raises(ConfigInvalid, match=r"unknown \(variable, label\) pair"):
            single_output_system(consequents, [Rule(antecedents, consequent)])

    @pytest.mark.parametrize("part", ["inputs", "outputs", "rules"])
    @pytest.mark.parametrize("value", [[1], None, 5, "ab"])
    def test_parts_must_be_sequences_of_variables_and_rules(self, part, value):
        system = default_dosing_system()
        parts = {"inputs": [*system.inputs.values()], "outputs": [*system.outputs.values()],
                 "rules": system.rules}
        FuzzySystem(**parts)
        parts[part] = value
        with pytest.raises(ConfigInvalid):
            FuzzySystem(**parts)

    def test_a_rule_list_holding_a_non_rule_is_refused(self):
        system = default_dosing_system()
        with pytest.raises(ConfigInvalid, match="unknown"):
            FuzzySystem([*system.inputs.values()], [*system.outputs.values()],
                        [*system.rules, ("green_density", "low")])

    @pytest.mark.parametrize("samples", ["201", 201.0, None, True])
    def test_sample_count_must_be_an_integer(self, samples):
        consequents = {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
                       "low": MembershipFunction.triangle(0.0, 0.0, 0.25)}
        rules = [Rule((("x", "lo"),), ("y", "mid"))]
        assert single_output_system(consequents, rules, samples=np.int64(201)).samples == 201
        with pytest.raises(ConfigInvalid, match="samples"):
            single_output_system(consequents, rules, samples=samples)

    def test_rule_needs_an_antecedent(self):
        consequents = {"mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
                       "low": MembershipFunction.triangle(0.0, 0.0, 0.25)}
        with pytest.raises(ConfigInvalid, match="no antecedents"):
            single_output_system(consequents, [Rule((), ("y", "mid"))])

    def test_centroid_sum_must_be_finite(self):
        # the centroid sums up to 201 samples of |y| <= hi before it divides
        sets = {"lo": MembershipFunction.triangle(0, 0, 1),
                "hi": MembershipFunction.triangle(0, 1, 1)}
        rules = [Rule((("x", "lo"),), ("y", "lo"))]
        FuzzySystem([unit_variable()], [FuzzyVariable("y", (0.0, 8e305), sets)], rules)
        with pytest.raises(ConfigInvalid, match="overflow the centroid"):
            FuzzySystem([unit_variable()], [FuzzyVariable("y", (0.0, 1.7e308), sets)], rules)


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

    @pytest.mark.parametrize("density", ["0.5", None, [0.5], math.nan])
    def test_density_that_is_not_a_number_is_out_of_range(self, density):
        with pytest.raises(OutOfRange):
            pesticide_dose(density)

    @pytest.mark.parametrize("value", ["abc", None, pytest.param(10**400, id="10**400"),
                                       [0.5], math.nan])
    def test_query_value_that_is_not_a_number_is_out_of_range(self, value):
        with pytest.raises(OutOfRange):
            infer(default_dosing_system(), {"green_density": value})
        # a NaN on an input that no rule reads would otherwise pass unseen
        system = system_from_json(NOT_DOSING["input-wind"])
        assert infer(system, {"green_density": 0.5, "wind": 0.5})
        with pytest.raises(OutOfRange):
            infer(system, {"green_density": 0.5, "wind": value})

    @pytest.mark.parametrize("text", ["0.5", b"0.5", bytearray(b"0.5"), memoryview(b"0.5")],
                             ids=["str", "bytes", "bytearray", "memoryview"])
    def test_query_value_that_is_text_is_out_of_range(self, text):
        """float() would parse each of these as 0.5 and return a dose."""
        with pytest.raises(OutOfRange, match="text"):
            infer(default_dosing_system(), {"green_density": text})

    @pytest.mark.parametrize("query", [None, 0.5, "green_density", ["green_density"], {}])
    def test_query_that_is_not_a_mapping_with_every_input_is_config_invalid(self, query):
        with pytest.raises(ConfigInvalid, match="no input 'green_density'"):
            infer(default_dosing_system(), query)

    def test_refusing_a_huge_int_does_not_print_it(self):
        """A 5000-digit int has no str under Python's digit limit: the message leaves it out."""
        with pytest.raises(OutOfRange, match=r"density is not a number in \[0, 1\]"):
            pesticide_dose(10**5000)
        system = default_dosing_system()
        with pytest.raises(ConfigInvalid, match="samples must be an integer"):
            FuzzySystem(list(system.inputs.values()), list(system.outputs.values()),
                        system.rules, samples=10**5000)

    @pytest.mark.parametrize("built_in", [default_dosing_system, arm_compensation_system,
                                          tilt_compensation_system])
    def test_shared_systems_refuse_writes(self, built_in):
        system = built_in()
        name, var = next(iter(system.inputs.items()))
        out = next(iter(system.outputs))
        label = next(iter(var.sets))
        with pytest.raises(TypeError):
            system.inputs[name] = None
        with pytest.raises(TypeError):
            del system.outputs[out]
        with pytest.raises(TypeError):
            var.sets[label] = MembershipFunction.triangle(0.0, 0.0, 0.0)
        assert built_in() is system and built_in().inputs[name].sets[label] is var.sets[label]

    def test_shared_system_refuses_rebinding(self):
        before = pesticide_dose(0.5)
        system = default_dosing_system()
        for name, value in (("rules", ()), ("samples", 51), ("inputs", {}), ("outputs", {})):
            with pytest.raises(FrozenInstanceError):
                setattr(system, name, value)
        assert default_dosing_system() is system and pesticide_dose(0.5) == before

    def test_a_variable_keeps_its_own_copy_of_the_sets(self):
        sets = {"lo": MembershipFunction.triangle(0, 0, 1), "hi": MembershipFunction.triangle(0, 1, 1)}
        var = FuzzyVariable("x", (0.0, 1.0), sets)
        sets["lo"] = None
        assert var.sets["lo"] == MembershipFunction.triangle(0, 0, 1)
        assert var == FuzzyVariable("x", (0.0, 1.0), {**var.sets})

    @pytest.mark.parametrize("text", NOT_DOSING.values(), ids=NOT_DOSING.keys())
    def test_rejects_a_rulebase_that_is_not_for_dosing(self, monkeypatch, text):
        system = system_from_json(text)
        monkeypatch.setattr(fuzzy, "infer", None)  # refused before inference
        with pytest.raises(ConfigInvalid, match="not a dosing rulebase"):
            pesticide_dose(0.5, system)


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

    @pytest.mark.parametrize("build", [arm_compensation_system, tilt_compensation_system])
    def test_ring_centroid_precondition(self, build):
        # the closed-form ring centroid holds only while both of these do
        labels, ys, curves = build()._stacks["lift"]
        assert ((curves > 0.0).sum(axis=0) <= 1).all()  # no sample has two non-zero curves
        assert np.flatnonzero(curves[labels.index("none")]).tolist() == [0] and ys[0] == 0.0

    def test_arm_batch_memory(self):
        rng = np.random.default_rng(45)
        azimuths, extensions = rng.uniform(0.0, 360.0, 10_000), rng.random(10_000)
        arm_compensation_deltas(azimuths[:1], extensions[:1])  # builds the system once
        tracemalloc.start()
        try:
            arm_compensation_deltas(azimuths, extensions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

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

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (3, 1), (2, 0)])
    def test_poses_that_are_not_one_series_are_dimension_mismatch(self, shape):
        with pytest.raises(DimensionMismatch):
            arm_compensation_deltas(np.zeros(shape), np.ones(shape))

    @pytest.mark.parametrize("bad", [["a"], pytest.param([10**400], id="10**400"), [0.5, {}]])
    def test_poses_that_are_not_numbers_are_out_of_range(self, bad):
        with pytest.raises(OutOfRange):
            arm_compensation_deltas(bad, [0.5] * len(bad))
        with pytest.raises(OutOfRange):
            arm_compensation_deltas([0.0] * len(bad), bad)

    @pytest.mark.parametrize("bad", [["0.5"], [b"0.5"], np.array(["0.5"]), [2**64, "0.5"],
                                     [0.5j], [[0.5], [0.5, 1.0]]],
                             ids=["str", "bytes", "str-array", "text-in-objects", "complex",
                                  "ragged"])
    def test_poses_that_numpy_would_parse_or_cast_are_out_of_range(self, bad):
        """np.asarray(..., float64) parses text, so ["0.5"] used to give deltas."""
        with pytest.raises(OutOfRange):
            arm_compensation_deltas(bad, [0.5] * len(bad))
        with pytest.raises(OutOfRange):
            arm_compensation_deltas([90.0] * len(bad), bad)

    @pytest.mark.parametrize("azimuth", [2**64, Decimal("90"), Fraction(181, 2), True],
                             ids=["2**64", "decimal", "fraction", "bool"])
    def test_poses_that_are_numbers_in_float_range_are_taken_as_floats(self, azimuth):
        """Only text is refused; an object array of numbers converts as before."""
        expected = arm_compensation_deltas([float(azimuth)], [0.5])
        np.testing.assert_array_equal(arm_compensation_deltas([azimuth], [0.5]), expected)

    @pytest.mark.parametrize("roll", [None, pytest.param(10**400, id="10**400"), "0.1", [0.1]])
    def test_tilt_that_is_not_a_number_is_out_of_range(self, roll):
        with pytest.raises(OutOfRange):
            tilt_compensation_deltas(roll, 0.0)
        with pytest.raises(OutOfRange):
            tilt_compensation_deltas(0.0, roll)
        with pytest.raises(OutOfRange):
            stabilizer_deltas(45.0, 0.5, (roll, 0.0))

    @pytest.mark.parametrize("tilt_error", [(0.1,), (), None, 0.1, (0.1, 0.2, 0.3)])
    def test_tilt_error_must_be_a_pair(self, tilt_error):
        with pytest.raises(DimensionMismatch):
            stabilizer_deltas(45.0, 0.5, tilt_error)

    @pytest.mark.parametrize("roll, pitch", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.1, -math.inf), (math.inf, math.nan)])
    def test_non_finite_tilt_rejected_before_arithmetic(self, roll, pitch):
        with pytest.raises(ValueError, match="not finite"):
            tilt_compensation_deltas(roll, pitch)
        with pytest.raises(ValueError, match="not finite"):
            stabilizer_deltas(45.0, 0.5, (roll, pitch))


class TestSystemJson:
    def test_rejects_bad_format(self):
        with pytest.raises(ParseError):
            system_from_json(json.dumps({"format": "other", "version": 1}))

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            system_from_json("{nope")

    def test_rejects_bad_shape(self):
        doc = dosing_doc()
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
        doc = dosing_doc()
        edit(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way out
            with pytest.raises(ParseError):
                system_from_json(json.dumps(doc))

    def test_rejects_sample_count_above_bound(self):
        doc = dosing_doc()
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
        crisp[name] = (agg * ys).sum(axis=1) / mass
    return crisp


def infer_oracle(system, values):
    batch = infer_batch_oracle(system, {k: [v] for k, v in values.items()})
    return {name: float(arr[0]) for name, arr in batch.items()}


def rotor_angles(azimuth):
    """Unsigned angle in [0, 180] from one azimuth to each rotor, rotor by rotor."""
    angles = []
    for i in range(N_ROTORS):
        diff = math.fabs((azimuth - 45.0 * i) % 360.0)
        angles.append(360.0 - diff if diff > 180.0 else diff)
    return angles


def mirrored(mags):
    """Rotor i gets mags[i] - mags[i + 4], and rotor i + 4 its exact negation."""
    half = [mags[i] - mags[i + N_ROTORS // 2] for i in range(N_ROTORS // 2)]
    return half + [-d for d in half]


def arm_deltas_oracle(azimuths, extensions, chunk_rows=16384):
    proximity = np.array([angle for az in np.asarray(azimuths, dtype=np.float64).tolist()
                          for angle in rotor_angles(az % 360.0)])
    extension = np.repeat(np.asarray(extensions, dtype=np.float64), N_ROTORS)
    mags = np.concatenate([
        infer_batch_oracle(arm_compensation_system(), {
            "proximity": proximity[start:start + chunk_rows],
            "extension": extension[start:start + chunk_rows],
        })["lift"]
        for start in range(0, len(proximity), chunk_rows)])
    return np.array([mirrored(row) for row in mags.reshape(-1, N_ROTORS).tolist()])


def tilt_deltas_oracle(roll, pitch):
    azimuth = math.degrees(math.atan2(-roll, pitch)) % 360.0
    mags = infer_batch_oracle(tilt_compensation_system(), {
        "proximity": np.array(rotor_angles(azimuth)),
        "tilt": np.full(N_ROTORS, math.hypot(roll, pitch)),
    })["lift"]
    return np.array(mirrored(mags.tolist()))


def random_points(rng, lo, hi):
    """A triangle (a, b, b, c) or a trapezoid on a coarse grid, so ties (vertical edges,
    spikes) are common."""
    grid = np.linspace(lo, hi, int(rng.integers(3, 9)))
    points = tuple(float(v) for v in np.sort(rng.choice(grid, size=int(rng.choice([3, 4])))))
    return points if len(points) == 4 else points[:2] + points[1:]


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
        fired = silent = 0
        for _ in range(200):
            system = random_system(rng)
            rows = {name: rng.uniform(var.universe[0] - 1.0, var.universe[1] + 1.0, 12)
                    for name, var in system.inputs.items()}
            for i in range(12):
                query = {name: float(arr[i]) for name, arr in rows.items()}
                got = outcome(lambda: infer(system, query))
                assert got == outcome(lambda: infer_oracle(system, query))
                silent += got is NoRuleFired
                fired += got is not NoRuleFired
        assert fired > 1000 and silent > 100  # both outcomes are exercised

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
        for x_, u_ in zip(xs.ravel().tolist(), us.ravel().tolist()):
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

    # the closed-form centroid sums in another order than the oracle's per-rule pass
    def test_arm_deltas(self):
        rng = np.random.default_rng(43)
        n = 10_000
        azimuths = np.concatenate([rng.uniform(-720.0, 720.0, n - 32), 22.5 * np.arange(32)])
        extensions = np.concatenate([rng.random(n - 36), np.tile([0.0, 1.0], 18)])
        got = arm_compensation_deltas(azimuths, extensions)
        assert np.abs(got - arm_deltas_oracle(azimuths, extensions)).max() <= 1e-12

    def test_tilt_deltas(self):
        rng = np.random.default_rng(44)
        tilts = np.concatenate([rng.uniform(-0.6, 0.6, (2000, 2)),
                                [[0.0, 1e-3], [0.06, 0.0], [0.0, -0.12], [0.3, 0.3], [1e-12, 0.0],
                                 [0.0, 0.0], [0.5, 0.0], [0.0, -0.7], [0.45, 0.45]]])
        for roll, pitch in tilts.tolist():
            got = tilt_compensation_deltas(roll, pitch)
            assert np.abs(got - tilt_deltas_oracle(roll, pitch)).max() <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-720.0, 720.0), st.floats(0.0, 1.0)), min_size=1, max_size=40))
def test_a_row_of_a_batch_is_the_query_alone(poses):
    azimuths, extensions = np.array(poses).T
    batch = arm_compensation_deltas(azimuths, extensions)
    for row, (azimuth, extension) in zip(batch, poses):
        assert row.tobytes() == arm_compensation_deltas([azimuth], [extension])[0].tobytes()


def per_label_stack(var, samples):
    """The earlier curve stack: each label's MembershipFunction called on the grid."""
    ys = np.linspace(*var.universe, samples)
    return ys, np.array([mf(ys) for mf in var.sets.values()])


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
        "int_triangle": MembershipFunction((0, 2, 2, 5)),
        "int_trapezoid": MembershipFunction((1, 2, 3, 4)),
    }

    @pytest.mark.parametrize("samples", [51, 201, 1000, 4097])
    def test_broadcast_equals_per_label_bit_for_bit(self, samples):
        out = FuzzyVariable("y", (0.0, 5.0), self.SHAPES)
        labels, ys, curves = system_with_output(out, samples)._stacks["y"]
        ref_ys, ref_curves = per_label_stack(out, samples)
        assert labels == tuple(self.SHAPES)
        assert curves.shape == (len(self.SHAPES), samples)
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
        ints = FuzzyVariable("y", (0, 4), {"a": MembershipFunction((0, 1, 1, 3)),
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
        doc = dosing_doc()
        doc["samples"] = float(doc["samples"])
        with pytest.raises(ParseError):
            system_from_json(json.dumps(doc))

    def test_builtin_systems_are_built_once(self):
        for build in (default_dosing_system, arm_compensation_system, tilt_compensation_system):
            assert build() is build()
