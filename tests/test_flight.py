import io

import numpy as np
import pytest

from aerobot.errors import BadRotorCount, ConfigInvalid, ParseError, SubUnitySafetyFactor
from aerobot.flight import (
    GRAVITY,
    MAX_STEPS,
    MassEntry,
    MassTable,
    SimConfig,
    ThrustSpec,
    default_mass_table,
    kgf_to_newtons,
    load_mass_table,
    max_tilt,
    simulate_hover,
    thrust_per_rotor,
    total_mass,
    trace_to_csv,
)


class TestMassTable:
    def test_reference_table_total(self):
        table = default_mass_table()
        assert total_mass(table) == 32019
        assert sum(e.count for e in table.entries) == 32

    def test_empty_table(self):
        assert total_mass(MassTable(())) == 0

    def test_single_entry(self):
        assert total_mass(MassTable((MassEntry("battery", 688, 2),))) == 1376

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            MassEntry("x", -1.0, 1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            MassEntry("x", 1.0, 0)


class TestLoadMassTable:
    def test_header_only(self):
        table = load_mass_table(io.StringIO("name,grams,count\n"))
        assert table.entries == ()
        assert total_mass(table) == 0

    def test_round_values(self):
        table = load_mass_table("name,grams,count\nmotor,1038,4\nframe,12000,1\n")
        assert total_mass(table) == 1038 * 4 + 12000

    def test_negative_grams_parse_error_with_row(self):
        with pytest.raises(ParseError) as err:
            load_mass_table("name,grams,count\nok,10,1\nbad,-5,1\n")
        assert err.value.row == 3

    def test_bad_count(self):
        with pytest.raises(ParseError):
            load_mass_table("name,grams,count\nbad,10,two\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_mass_table("part,weight\nmotor,10\n")

    def test_missing_columns(self):
        with pytest.raises(ParseError) as err:
            load_mass_table("name,grams,count\nmotor,10\n")
        assert err.value.row == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            load_mass_table(io.StringIO(""))


class TestThrust:
    def test_hand_example(self):
        assert thrust_per_rotor(ThrustSpec(10.0, 4, 1.2)) == pytest.approx(6.0)

    def test_reference_vehicle(self):
        # 2 * 32.019 * 1.2 / 4 = 19.2114
        t = thrust_per_rotor(ThrustSpec(32.019, 4, 1.2))
        assert abs(t - 19.2114) < 1e-9

    def test_zero_weight(self):
        assert thrust_per_rotor(ThrustSpec(0.0, 8, 1.0)) == 0.0

    def test_bad_rotor_count(self):
        with pytest.raises(BadRotorCount):
            ThrustSpec(10.0, 5, 1.2)

    def test_sub_unity_safety(self):
        with pytest.raises(SubUnitySafetyFactor):
            ThrustSpec(10.0, 4, 0.2)

    def test_linearity_grid(self):
        base = thrust_per_rotor(ThrustSpec(7.0, 4, 1.1))
        for scale in (2.0, 3.0, 10.0):
            assert thrust_per_rotor(ThrustSpec(7.0 * scale, 4, 1.1)) == pytest.approx(base * scale)
        for s_scale in (1.5, 2.0):
            assert thrust_per_rotor(ThrustSpec(7.0, 4, 1.1 * s_scale)) == pytest.approx(base * s_scale)
        for n in (4, 6, 8):
            assert thrust_per_rotor(ThrustSpec(7.0, n, 1.1)) == pytest.approx(base * 4 / n)

    def test_newtons(self):
        assert kgf_to_newtons(1.0) == pytest.approx(9.80665)


def short_config(**kwargs) -> SimConfig:
    defaults = dict(duration_s=2.0, arm_trajectory=((0.0, 0.0, 1.0), (2.0, 360.0, 1.0)))
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestSimulate:
    def test_retracted_arm_perfect_equilibrium(self):
        cfg = short_config(controller=False, arm_trajectory=((0.0, 0.0, 0.0),))
        trace = simulate_hover(cfg)
        assert max_tilt(trace) < 1e-12

    def test_uncontrolled_sweep_destabilizes(self):
        trace = simulate_hover(short_config(controller=False))
        assert max_tilt(trace) > 0.1

    def test_controller_strictly_reduces_tilt(self):
        off = simulate_hover(short_config(controller=False))
        on = simulate_hover(short_config(controller=True))
        assert max_tilt(on) < max_tilt(off)

    def test_thrust_sum_conserved_every_step(self):
        cfg = short_config(controller=True)
        weight = cfg.vehicle_mass_kg * GRAVITY
        for state in simulate_hover(cfg):
            assert abs(sum(state.rotor_thrusts) - weight) < 1e-9
            assert all(f >= 0.0 for f in state.rotor_thrusts)

    def test_deterministic_traces(self):
        a = simulate_hover(short_config())
        b = simulate_hover(short_config())
        assert a == b

    def test_mirrored_azimuth_negates_roll_preserves_pitch(self):
        fwd = simulate_hover(short_config(
            controller=False, arm_trajectory=((0.0, 0.0, 1.0), (2.0, 360.0, 1.0))))
        rev = simulate_hover(short_config(
            controller=False, arm_trajectory=((0.0, 0.0, 1.0), (2.0, -360.0, 1.0))))
        for a, b in zip(fwd, rev):
            assert b.roll == pytest.approx(-a.roll, abs=1e-12)
            assert b.pitch == pytest.approx(a.pitch, abs=1e-12)

    def test_step_count(self):
        trace = simulate_hover(short_config(duration_s=1.0, dt_s=0.01))
        assert len(trace) == 100
        assert trace[0].t == 0.0
        assert trace[-1].t == pytest.approx(0.99)

    def test_trajectory_interpolation_recorded(self):
        trace = simulate_hover(short_config(duration_s=2.0, dt_s=0.5,
                                            arm_trajectory=((0.0, 0.0, 0.0), (2.0, 180.0, 1.0))))
        assert trace[2].arm_azimuth == pytest.approx(90.0)
        assert trace[2].arm_extension == pytest.approx(0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(dt_s=0.0)
        with pytest.raises(ConfigInvalid):
            SimConfig(duration_s=0.0001, dt_s=0.001)
        with pytest.raises(ConfigInvalid):
            SimConfig(arm_trajectory=((1.0, 0.0, 0.5), (0.5, 0.0, 0.5)))
        with pytest.raises(ConfigInvalid):
            SimConfig(arm_trajectory=((0.0, 0.0, 2.0),))
        with pytest.raises(ConfigInvalid):
            SimConfig(vehicle_mass_kg=-1.0)

    def test_config_json_round_trip(self):
        cfg = short_config(controller=False, dt_s=0.01)
        clone = SimConfig.from_json(cfg.to_json())
        assert clone == cfg

    @pytest.mark.parametrize("text", [
        '{"duration_s": Infinity}',
        '{"duration_s": -Infinity}',
        '{"duration_s": NaN}',
        '{"dt_s": NaN}',
        '{"vehicle_mass_kg": Infinity}',
        '{"inertia_kgm2": NaN}',
        '{"arm_reach_m": Infinity}',
        '{"arm_trajectory": [[0.0, NaN, 1.0]]}',
        '{"arm_trajectory": [[0.0, 0.0, 1.0], [Infinity, 90.0, 1.0]]}',
    ])
    def test_non_finite_values_rejected(self, text):
        with pytest.raises(ConfigInvalid, match="finite"):
            SimConfig.from_json(text)

    @pytest.mark.parametrize("text", [
        '{"duration_s": 1e9}',
        '{"duration_s": 1e5}',
        '{"dt_s": 1e-9, "duration_s": 1.0}',
        '{"dt_s": 5e-324, "duration_s": 10.0}',  # the step ratio overflows to inf
    ])
    def test_step_budget_rejects_before_allocating(self, text):
        with pytest.raises(ConfigInvalid, match="budget"):
            SimConfig.from_json(text)

    def test_malformed_trajectory_is_typed(self):
        with pytest.raises(ParseError):
            SimConfig.from_json('{"arm_trajectory": 5}')
        with pytest.raises(ConfigInvalid, match="triples"):
            SimConfig.from_json('{"arm_trajectory": [[0.0, 1.0]]}')

    @pytest.mark.parametrize("text", [
        '{"controller": "yes", "duration_s": 0.01}',
        '{"controller": 1, "duration_s": 0.01}',
        '{"controller": null, "duration_s": 0.01}',
    ])
    def test_non_boolean_controller_rejected(self, text):
        with pytest.raises(ConfigInvalid, match="boolean"):
            SimConfig.from_json(text)

    def test_step_budget_edge(self):
        assert SimConfig(dt_s=1e-3, duration_s=MAX_STEPS * 1e-3).duration_s == 1000.0
        with pytest.raises(ConfigInvalid, match="budget"):
            SimConfig(dt_s=1e-3, duration_s=(MAX_STEPS + 1) * 1e-3)

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"duration_s": 1' + "0" * 5000 + "}",
        '{"duration_s": 1' + "0" * 400 + "}",
        '{"arm_trajectory": [[0.0, 1' + "0" * 400 + ', 1.0]]}',
    ], ids=["deep", "long-int", "huge-int", "huge-keyframe"])
    def test_unreadable_config_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            SimConfig.from_json(text)

    def test_config_json_errors(self):
        with pytest.raises(ParseError):
            SimConfig.from_json("{bad")
        with pytest.raises(ParseError):
            SimConfig.from_json('{"unknown_field": 3}')

    def test_trace_csv_columns(self):
        trace = simulate_hover(short_config(duration_s=0.01, dt_s=0.001))
        lines = trace_to_csv(trace).strip().split("\n")
        header = lines[0].split(",")
        assert header[:5] == ["t", "roll", "pitch", "roll_rate", "pitch_rate"]
        assert header[5:13] == [f"thrust_{i}" for i in range(8)]
        assert header[13:] == ["arm_azimuth", "arm_extension"]
        assert len(lines) == 11
        assert all(len(line.split(",")) == 15 for line in lines[1:])
