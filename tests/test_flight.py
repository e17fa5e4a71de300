import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest

from aerobot import flight
from aerobot.errors import (
    ConfigInvalid,
    OutOfRange,
    ParseError,
)
from aerobot.flight import TRACE_DTYPE, max_tilt, simulate_hover, trace_to_csv
from aerobot.fuzzy import (
    N_ROTORS,
    ROTOR_AZIMUTHS_DEG,
    arm_compensation_deltas,
    tilt_compensation_deltas,
)
from aerobot.sizing import (
    GRAVITY,
    MAX_STEPS,
    MassEntry,
    SimConfig,
    ThrustSpec,
    default_mass_table,
    kgf_to_newtons,
    load_mass_table,
    thrust_per_rotor,
    total_mass,
)
from test_fuzzy import arm_deltas_oracle, tilt_deltas_oracle

# sha256 of the whole trace CSV: any change to a thrust, rate or angle bit shows,
# over far more of the closed loop than the 50-step golden run
PINNED_TRACES = {
    "seeded_controller_on": (SimConfig(duration_s=1.0, arm_trajectory=(
        # keyframes drawn from default_rng(2026)
        (0.0, 23.311, 0.653), (0.371, 493.76, 0.298),
        (0.467, 617.555, 0.967), (0.64, -168.459, 0.92))),
        "a81d76bc9245d5152448d35dc2c179e0c1dd3c0e7ec2db8c7896120bcae08d0c"),
    "default_controller_off": (SimConfig(duration_s=1.0, controller=False),
                               "6ecca569bcd17b9ced92e78dcd282f4af85cd321c40b51f620b1beb86d4aa5b2"),
}


class TestMassTable:
    def test_reference_table_total(self):
        table = default_mass_table()
        assert total_mass(table) == 32019
        assert sum(e.count for e in table) == 32

    def test_empty_table(self):
        assert total_mass(()) == 0

    def test_single_entry(self):
        assert total_mass((MassEntry("battery", 688, 2),)) == 1376

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            MassEntry("x", -1.0, 1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            MassEntry("x", 1.0, 0)

    @pytest.mark.parametrize("grams", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, grams):
        with pytest.raises(ValueError, match="not finite"):
            MassEntry("x", grams, 1)


class TestLoadMassTable:
    def test_header_only(self):
        for text in ("name,grams,count\n", "name,grams,count"):  # text, never a path
            table = load_mass_table(text)
            assert table == ()
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
            load_mass_table("")

    @pytest.mark.parametrize("grams", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_grams_parse_error_with_row(self, grams):
        with pytest.raises(ParseError, match="not finite") as err:
            load_mass_table(f"name,grams,count\nok,10,1\nbad,{grams},1\n")
        assert err.value.row == 3

    @pytest.mark.parametrize("grams, count", [
        ("1e300", "1" + "0" * 10),  # the row's mass is inf
        ("1.5", "1" + "0" * 400),  # the count is past float range
    ])
    def test_overflowing_row_parse_error_with_row(self, grams, count):
        with pytest.raises(ParseError) as err:
            load_mass_table(f"name,grams,count\nok,10,1\nbad,{grams},{count}\n")
        assert err.value.row == 3


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
        with pytest.raises(OutOfRange, match=r"^rotor count 5 not in \(4, 6, 8\)$"):
            ThrustSpec(10.0, 5, 1.2)

    def test_sub_unity_safety(self):
        with pytest.raises(OutOfRange, match="^safety factor 0.2 is below 1$"):
            ThrustSpec(10.0, 4, 0.2)

    def test_linearity_grid(self):
        base = thrust_per_rotor(ThrustSpec(7.0, 4, 1.1))
        for scale in (2.0, 3.0, 10.0):
            assert thrust_per_rotor(ThrustSpec(7.0 * scale, 4, 1.1)) == pytest.approx(base * scale)
        for s_scale in (1.5, 2.0):
            assert thrust_per_rotor(ThrustSpec(7.0, 4, 1.1 * s_scale)) == pytest.approx(base * s_scale)
        for n in (4, 6, 8):
            assert thrust_per_rotor(ThrustSpec(7.0, n, 1.1)) == pytest.approx(base * 4 / n)

    @pytest.mark.parametrize("weight, safety", [
        (math.nan, 1.2), (math.inf, 1.2), (10.0, math.nan), (10.0, math.inf),
        (0.0, math.inf),  # 0 * inf is NaN
        (1e305, 1e5),  # both finite, the thrust is not
    ])
    def test_non_finite_thrust_rejected(self, weight, safety):
        with pytest.raises(OutOfRange, match="finite"):
            ThrustSpec(weight, 4, safety)

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
        assert np.array_equal(a, b)

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
        clone = SimConfig.from_json(json.dumps(asdict(cfg)))
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

    @pytest.mark.parametrize("cfg, digest", PINNED_TRACES.values(), ids=PINNED_TRACES)
    def test_closed_loop_trace_pinned(self, cfg, digest):
        csv = trace_to_csv(simulate_hover(cfg))
        assert hashlib.sha256(csv.encode()).hexdigest() == digest

    @pytest.mark.parametrize("cfg", [PINNED_TRACES["seeded_controller_on"][0], SimConfig()],
                             ids=["seeded_controller_on", "default"])
    def test_fifty_steps_follow_the_oracle_driven_trace(self, cfg, monkeypatch):
        cfg = replace(cfg, duration_s=50 * cfg.dt_s)
        trace = simulate_hover(cfg)
        monkeypatch.setattr(flight, "arm_compensation_deltas", arm_deltas_oracle)
        monkeypatch.setattr(flight, "tilt_compensation_deltas", tilt_deltas_oracle)
        expected = simulate_hover(cfg)
        assert len(trace) == len(expected) == 50
        for name in TRACE_DTYPE.names:
            assert np.abs(trace[name] - expected[name]).max() <= 1e-9, name

    def test_trace_csv_columns(self):
        trace = simulate_hover(short_config(duration_s=0.01, dt_s=0.001))
        lines = trace_to_csv(trace).strip().split("\n")
        header = lines[0].split(",")
        assert header[:5] == ["t", "roll", "pitch", "roll_rate", "pitch_rate"]
        assert header[5:13] == [f"thrust_{i}" for i in range(8)]
        assert header[13:] == ["arm_azimuth", "arm_extension"]
        assert len(lines) == 11
        assert all(len(line.split(",")) == 15 for line in lines[1:])

    def test_trace_is_one_record_array(self):
        trace = simulate_hover(short_config(duration_s=0.05, dt_s=0.01))
        assert isinstance(trace, np.recarray)
        assert trace.dtype == TRACE_DTYPE
        assert trace.shape == (5,)
        assert trace.rotor_thrusts.shape == (5, N_ROTORS)
        assert trace[3].roll == trace.roll[3]
        assert np.array_equal(trace[3].rotor_thrusts, trace.rotor_thrusts[3])

    @pytest.mark.parametrize("text", [
        '{"inertia_kgm2": 1e-320, "duration_s": 0.01, "controller": false}',
        '{"inertia_kgm2": 1e-310, "duration_s": 0.5, "dt_s": 0.01, "controller": false}',
        '{"inertia_kgm2": 1e-320, "duration_s": 0.01}',
    ])
    def test_divergent_state_is_a_config_error(self, text):
        with pytest.raises(ConfigInvalid, match="non-finite"):
            simulate_hover(SimConfig.from_json(text))

    def test_retained_trace_memory_per_step(self):
        cfg = short_config(controller=False, duration_s=1.0)
        simulate_hover(cfg)
        tracemalloc.start()
        try:
            trace = simulate_hover(cfg)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / len(trace) <= 160


# The per-state simulator the record-array trace replaced, kept as its oracle:
# one frozen HoverState per step, columns rebuilt from the objects.

@dataclass(frozen=True)
class HoverState:
    t: float
    roll: float
    pitch: float
    roll_rate: float
    pitch_rate: float
    rotor_thrusts: tuple
    arm_azimuth: float
    arm_extension: float


def simulate_hover_oracle(cfg: SimConfig) -> list:
    n_steps = int(round(cfg.duration_s / cfg.dt_s))
    times = np.arange(n_steps) * cfg.dt_s
    keys = np.array([k[0] for k in cfg.arm_trajectory])
    azimuths = np.interp(times, keys, np.array([k[1] for k in cfg.arm_trajectory]))
    extensions = np.interp(times, keys, np.array([k[2] for k in cfg.arm_trajectory]))

    rad = np.deg2rad(np.asarray(ROTOR_AZIMUTHS_DEG))
    rotor_x = cfg.rotor_radius_m * np.cos(rad)
    rotor_y = cfg.rotor_radius_m * np.sin(rad)
    hover_thrust = cfg.vehicle_mass_kg * GRAVITY / N_ROTORS
    arm_torque_scale = cfg.arm_mass_kg * GRAVITY * cfg.arm_reach_m
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
        torque_x = float((thrusts * rotor_y).sum()) - lever * math.sin(theta)
        torque_y = -float((thrusts * rotor_x).sum()) + lever * math.cos(theta)
        roll_rate += cfg.dt_s * torque_x / cfg.inertia_kgm2
        pitch_rate += cfg.dt_s * torque_y / cfg.inertia_kgm2
        roll += cfg.dt_s * roll_rate
        pitch += cfg.dt_s * pitch_rate
    return trace


def max_tilt_oracle(trace: list) -> float:
    return max(max(abs(s.roll), abs(s.pitch)) for s in trace)


def trace_to_csv_oracle(trace: list) -> str:
    header = ("t,roll,pitch,roll_rate,pitch_rate,"
              + ",".join(f"thrust_{i}" for i in range(N_ROTORS))
              + ",arm_azimuth,arm_extension")
    rows = [header]
    for s in trace:
        thrust_cols = ",".join(repr(f) for f in s.rotor_thrusts)
        rows.append(f"{s.t!r},{s.roll!r},{s.pitch!r},{s.roll_rate!r},{s.pitch_rate!r},"
                    f"{thrust_cols},{s.arm_azimuth!r},{s.arm_extension!r}")
    return "\n".join(rows) + "\n"


def oracle_config(seed: int) -> SimConfig:
    """Seeded config: controller on for even seeds, 1 to 6 keyframes, one of four steps."""
    rng = np.random.default_rng(seed)
    dt = (0.001, 0.002, 0.005, 0.01)[seed % 4]
    duration = float(rng.uniform(0.04, 0.25))
    k = seed % 6 + 1
    times = np.sort(rng.uniform(0.0, duration, k))
    times[0] = 0.0
    extensions = rng.uniform(0.0, 1.0, k)
    extensions[rng.random(k) < 0.2] = 1.0  # the arm fully out, and sometimes fully in
    extensions[rng.random(k) < 0.1] = 0.0
    return SimConfig(
        vehicle_mass_kg=float(rng.uniform(20.0, 40.0)),
        rotor_radius_m=float(rng.uniform(0.3, 0.7)),
        inertia_kgm2=float(rng.uniform(0.4, 1.2)),
        arm_mass_kg=float(rng.uniform(0.0, 1.5)),
        arm_reach_m=float(rng.uniform(0.2, 0.9)),
        dt_s=dt, duration_s=duration, controller=seed % 2 == 0,
        arm_trajectory=tuple(zip(times.tolist(), np.cumsum(rng.uniform(-400, 400, k)).tolist(),
                                 extensions.tolist())))


@pytest.mark.parametrize("seed", range(48))
def test_trace_matches_per_state_oracle(seed):
    cfg = oracle_config(seed)
    expected = simulate_hover_oracle(cfg)
    trace = simulate_hover(cfg)
    # compared line by line: a failed == on two ~700-line strings takes pytest long to render
    got, want = trace_to_csv(trace).split("\n"), trace_to_csv_oracle(expected).split("\n")
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first is None, f"line {first}: {got[first]!r} != {want[first]!r}"
    assert len(got) == len(want)
    assert max_tilt(trace) == max_tilt_oracle(expected)
    assert len(trace) == len(expected)
    for row, state in zip(trace, expected):
        assert (row.t, row.roll, row.pitch, row.roll_rate, row.pitch_rate,
                tuple(row.rotor_thrusts.tolist()), row.arm_azimuth, row.arm_extension) == (
            state.t, state.roll, state.pitch, state.roll_rate, state.pitch_rate,
            state.rotor_thrusts, state.arm_azimuth, state.arm_extension)
