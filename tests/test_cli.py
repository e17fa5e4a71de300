import ast
import errno
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from aerobot import cli, errors, flight, raster
from aerobot.raster import Image, parse_pnm, write_pnm
from aerobot.sidewalk import SidewalkParams, generate_sidewalk
from aerobot.sizing import SimConfig


DOSING_JSON = resources.files("aerobot.assets").joinpath("dosing.json").read_text()


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def validate(payload: str, schema_name: str) -> dict:
    doc = json.loads(payload, parse_constant=_refuse_constant)  # NaN and Infinity fail
    schema_text = resources.files("aerobot.assets.schemas") \
        .joinpath(f"{schema_name}.schema.json").read_text()
    jsonschema.validate(doc, json.loads(schema_text))
    return doc


@pytest.fixture
def gradient_pgm(tmp_path):
    arr = np.tile(np.arange(0, 240, 10, dtype=np.uint8), (8, 1))
    path = tmp_path / "gradient.pgm"
    path.write_bytes(write_pnm(Image.from_array(arr)))
    return path


@pytest.fixture
def half_green_ppm(tmp_path):
    arr = np.full((8, 8, 3), 128, np.uint8)
    arr[:, :4] = (0, 255, 0)
    path = tmp_path / "half.ppm"
    path.write_bytes(write_pnm(Image.from_array(arr)))
    return path


@pytest.fixture
def sidewalk_pgm(tmp_path):
    img = generate_sidewalk(SidewalkParams(erased_blocks=(4,)))
    path = tmp_path / "walk.pgm"
    path.write_bytes(write_pnm(img))
    return path


@pytest.fixture
def table_csv(tmp_path):
    src = resources.files("aerobot.assets").joinpath("table1.csv").read_text()
    path = tmp_path / "table1.csv"
    path.write_text(src)
    return path


class TestOtsu:
    def test_threshold_and_mask(self, capsys, tmp_path, gradient_pgm):
        mask_path = tmp_path / "mask.pgm"
        code, out, _ = run(capsys, "otsu", str(gradient_pgm), "--out", str(mask_path))
        assert code == 0
        doc = validate(out, "otsu")
        mask = parse_pnm(mask_path.read_bytes())
        assert set(mask.samples) == {0, 255}
        arr = mask.to_array()
        source = parse_pnm(gradient_pgm.read_bytes()).to_array()
        assert np.array_equal(arr == 255, source > doc["threshold"])

    def test_constant_image_exits_1_names_error(self, capsys, tmp_path):
        path = tmp_path / "flat.pgm"
        path.write_bytes(write_pnm(Image.from_array(np.full((4, 4), 9, np.uint8))))
        code, out, err = run(capsys, "otsu", str(path))
        assert code == 1
        assert out == ""
        assert err == ("error: DegenerateHistogram: all mass in bin 9; "
                       "between-class variance is 0 everywhere\n")

    def test_no_partial_file_on_error(self, capsys, tmp_path):
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(write_pnm(Image.from_array(np.full((4, 4), 9, np.uint8))))
        mask_path = tmp_path / "mask.pgm"
        code, _, _ = run(capsys, "otsu", str(flat), "--out", str(mask_path))
        assert code == 1
        assert not mask_path.exists()


class TestGreenDensityAndDose:
    def test_green_density(self, capsys, tmp_path, half_green_ppm):
        mask_path = tmp_path / "green.pgm"
        code, out, _ = run(capsys, "green-density", str(half_green_ppm),
                           "--mask", str(mask_path))
        assert code == 0
        doc = validate(out, "green-density")
        assert doc["green_fraction"] == 0.5
        assert mask_path.exists()

    def test_custom_threshold(self, capsys, half_green_ppm):
        # pure green scores ExG = 510; a threshold at the ceiling excludes it
        code, out, _ = run(capsys, "green-density", str(half_green_ppm),
                           "--threshold", "510")
        assert code == 0
        assert json.loads(out)["green_fraction"] == 0.0

    def test_gray_input_rejected(self, capsys, gradient_pgm):
        code, _, err = run(capsys, "green-density", str(gradient_pgm))
        assert code == 1
        assert "NotRGB" in err

    def test_dose(self, capsys, half_green_ppm):
        code, out, _ = run(capsys, "dose", str(half_green_ppm))
        assert code == 0
        doc = validate(out, "dose")
        assert doc["green_fraction"] == 0.5
        assert doc["dose_liters"] == pytest.approx(5.0, abs=0.05)

    def test_dose_with_system_file(self, capsys, tmp_path, half_green_ppm):
        path = tmp_path / "rules.json"
        path.write_text(DOSING_JSON)
        code, out, _ = run(capsys, "dose", str(half_green_ppm), "--system", str(path))
        assert code == 0
        validate(out, "dose")


def edited_dosing_doc(path, value):
    """The shipped dosing rulebase with the node at path replaced by value."""
    if not path:
        return value
    doc = json.loads(DOSING_JSON)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestDoseSystemBoundary:
    @pytest.mark.parametrize("path, value", [
        ((), [1, 2]),
        ((), 5),
        (("inputs", 0, "sets"), [1, 2]),
        (("inputs", 0, "sets", "medium", "points", 1), math.nan),
        (("outputs", 0, "universe", 1), math.inf),
        (("outputs", 0, "sets", "large", "points", 2), 10 ** 400),
    ], ids=["list", "number", "sets-list", "nan-point", "inf-universe", "huge-point"])
    def test_bad_system_file_exits_1(self, capsys, tmp_path, half_green_ppm, path, value):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(edited_dosing_doc(path, value)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            code, out, err = run(capsys, "dose", str(half_green_ppm), "--system", str(rules))
        assert (code, out) == (1, "")
        assert err.startswith("error: ParseError: ")


class TestDetectors:
    def test_lines_csv(self, capsys, tmp_path):
        arr = np.zeros((11, 11), np.uint8)
        arr[:, 5] = 255
        path = tmp_path / "edges.pgm"
        path.write_bytes(write_pnm(Image.from_array(arr)))
        code, out, _ = run(capsys, "detect-lines", str(path), "--min-votes", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rho,theta,votes"
        assert lines[1] == "5,0,11"

    def test_circles_csv(self, capsys, tmp_path):
        import math
        arr = np.zeros((21, 21), np.uint8)
        for tenth in range(3600):
            a = math.radians(tenth / 10)
            arr[round(10 + 5 * math.sin(a)), round(10 + 5 * math.cos(a))] = 255
        path = tmp_path / "edges.pgm"
        path.write_bytes(write_pnm(Image.from_array(arr)))
        code, out, _ = run(capsys, "detect-circles", str(path),
                           "--r-min", "3", "--r-max", "7", "--min-votes", "15")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "cx,cy,r,votes"
        cx, cy, r, _ = (int(v) for v in lines[1].split(","))
        assert (abs(cx - 10) <= 1 and abs(cy - 10) <= 1 and abs(r - 5) <= 1)

    @pytest.mark.parametrize("r_min, r_max", [(2**63, 2**63), (2**63, 2**64)])
    def test_radii_past_int64_find_nothing(self, capsys, tmp_path, r_min, r_max):
        # such radii once overflowed the int64 offsets into numpy's untyped ValueError
        arr = np.zeros((11, 11), np.uint8)
        arr[:, 5] = 255
        path = tmp_path / "edges.pgm"
        path.write_bytes(write_pnm(Image.from_array(arr)))
        code, out, err = run(capsys, "detect-circles", str(path),
                             "--r-min", str(r_min), "--r-max", str(r_max))
        assert (code, out, err) == (0, "cx,cy,r,votes\n", "")

    def test_bad_radius_range_domain_error(self, capsys, tmp_path):
        path = tmp_path / "edges.pgm"
        path.write_bytes(write_pnm(Image.from_array(np.zeros((5, 5), np.uint8))))
        code, _, err = run(capsys, "detect-circles", str(path),
                           "--r-min", "6", "--r-max", "2")
        assert code == 1
        assert err == "error: OutOfRange: need 0 < r_min <= r_max, got 6 and 2\n"


class TestInspectSidewalk:
    def test_report_and_files(self, capsys, tmp_path, sidewalk_pgm):
        overlay = tmp_path / "overlay.pgm"
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "inspect-sidewalk", str(sidewalk_pgm),
                           "--overlay", str(overlay), "--report", str(report))
        assert code == 0
        doc = validate(out, "inspect-sidewalk")
        assert doc["flagged_blocks"] == [4]
        assert json.loads(report.read_text()) == doc
        assert parse_pnm(overlay.read_bytes()).channels == 1

    def test_flat_image_no_partial_files(self, capsys, tmp_path):
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(write_pnm(Image.from_array(np.full((48, 96), 128, np.uint8))))
        overlay = tmp_path / "overlay.pgm"
        code, _, err = run(capsys, "inspect-sidewalk", str(flat), "--overlay", str(overlay))
        assert code == 1
        assert "NoStripFound" in err
        assert not overlay.exists()

    @pytest.mark.parametrize("block", ["0", "-8"])
    def test_non_positive_block_is_a_config_error(self, capsys, sidewalk_pgm, block):
        code, out, err = run(capsys, "inspect-sidewalk", str(sidewalk_pgm), "--block", block)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ConfigInvalid: block_length")

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma_is_a_typed_error(self, capsys, sidewalk_pgm, sigma):
        code, out, err = run(capsys, "inspect-sidewalk", str(sidewalk_pgm), "--sigma", sigma)
        assert code == 1
        assert out == ""
        assert err == f"error: OutOfRange: sigma {sigma} must be positive and finite\n"

    @pytest.mark.parametrize("sigma", ["64.5", "1e3", "1e308"])
    def test_huge_sigma_is_a_typed_error(self, capsys, tmp_path, sidewalk_pgm, sigma):
        overlay = tmp_path / "overlay.pgm"
        code, out, err = run(capsys, "inspect-sidewalk", str(sidewalk_pgm), "--sigma", sigma,
                             "--overlay", str(overlay))
        assert code == 1
        assert out == ""
        assert err.startswith("error: OutOfRange: kernel radius")
        assert not overlay.exists()


class TestThermal:
    def test_to_radiance(self, capsys):
        code, out, _ = run(capsys, "thermal", "--to-radiance", "300")
        assert code == 0
        doc = validate(out, "thermal")
        assert doc["radiance_w_m2"] == pytest.approx(459.27, abs=0.01)

    def test_to_temp(self, capsys):
        code, out, _ = run(capsys, "thermal", "--to-temp", "459.27")
        assert code == 0
        doc = validate(out, "thermal")
        assert doc["temperature_k"] == pytest.approx(300.0, abs=0.01)

    def test_negative_radiance_domain_error(self, capsys):
        code, _, err = run(capsys, "thermal", "--to-temp", "-3")
        assert code == 1
        assert err == "error: OutOfRange: power density -3.0 is negative\n"

    def test_requires_exactly_one_mode(self, capsys):
        code, _, _ = run(capsys, "thermal")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--to-radiance", "1e100"],
        ["--to-radiance", "nan"],
        ["--to-radiance", "inf"],
        ["--to-radiance", "-5"],
        ["--to-temp", "nan"],
        ["--to-temp", "inf"],
        ["--to-temp", "1e305"],
    ])
    def test_out_of_range_is_a_typed_error(self, capsys, argv):
        code, out, err = run(capsys, "thermal", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: OutOfRange: ")


class TestThrust:
    def test_reference_output(self, capsys, table_csv):
        code, out, _ = run(capsys, "thrust", "--mass-table", str(table_csv),
                           "--rotors", "4", "--safety", "1.2")
        assert code == 0
        doc = validate(out, "thrust")
        assert doc["total_g"] == 32019
        assert abs(doc["per_rotor_kgf"] - 19.2114) < 1e-9
        assert doc["per_rotor_n"] == pytest.approx(19.2114 * 9.80665, rel=1e-9)

    def test_bad_rotor_count(self, capsys, table_csv):
        code, _, err = run(capsys, "thrust", "--mass-table", str(table_csv),
                           "--rotors", "5")
        assert code == 1
        assert err == "error: OutOfRange: rotor count 5 not in (4, 6, 8)\n"

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,grams,count\nx,-3,1\n")
        code, _, err = run(capsys, "thrust", "--mass-table", str(path), "--rotors", "4")
        assert code == 1
        assert "ParseError" in err

    @pytest.mark.parametrize("row", ["x,nan,1", "x,inf,1", "x,1.5,1" + "0" * 400],
                             ids=["nan", "inf", "huge-count"])
    def test_unusable_mass_row(self, capsys, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"name,grams,count\nok,10,1\n{row}\n")
        code, out, err = run(capsys, "thrust", "--mass-table", str(path), "--rotors", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError: row 3: ")

    def test_overflowing_total(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("name,grams,count\n" + "x,1e308,1\n" * 9)
        code, out, err = run(capsys, "thrust", "--mass-table", str(path), "--rotors", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: OutOfRange: ")

    @pytest.mark.parametrize("safety", ["nan", "inf", "1e308"])
    def test_non_finite_safety(self, capsys, table_csv, safety):
        code, out, err = run(capsys, "thrust", "--mass-table", str(table_csv),
                             "--rotors", "4", "--safety", safety)
        assert code == 1
        assert out == ""
        assert err.startswith("error: OutOfRange: ")


class TestSimulate:
    def test_summary_and_trace(self, capsys, tmp_path):
        cfg = SimConfig(duration_s=0.5, controller=True,
                        arm_trajectory=((0.0, 0.0, 1.0), (0.5, 90.0, 1.0)))
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(asdict(cfg)))
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "simulate", "--config", str(cfg_path),
                           "--trace", str(trace_path))
        assert code == 0
        doc = validate(out, "simulate")
        assert doc["steps"] == 500
        assert doc["controller"] is True
        lines = trace_path.read_text().strip().split("\n")
        assert len(lines) == 501

    def test_invalid_config(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text('{"dt_s": -1}')
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert "ConfigInvalid" in err


    @pytest.mark.parametrize("text", [
        '{"duration_s": Infinity}',
        '{"duration_s": NaN}',
        '{"duration_s": 1e9}',
        '{"arm_trajectory": [[0.0, NaN, 1.0]]}',
    ])
    def test_non_finite_or_over_budget_config(self, capsys, tmp_path, text):
        path = tmp_path / "sim.json"
        path.write_text(text)
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ConfigInvalid: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"duration_s": 1' + "0" * 5000 + "}",
        '{"duration_s": 1' + "0" * 400 + "}",
    ], ids=["deep", "long-int", "huge-int"])
    def test_unreadable_config(self, capsys, tmp_path, text):
        path = tmp_path / "sim.json"
        path.write_text(text)
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError: ")

    @pytest.mark.parametrize("text", [
        '{"inertia_kgm2": 1e-320, "duration_s": 0.01, "controller": false}',
        '{"inertia_kgm2": 1e-310, "duration_s": 0.5, "dt_s": 0.01, "controller": false}',
        '{"inertia_kgm2": 1e-320, "duration_s": 0.01}',
    ])
    def test_divergent_run_is_a_typed_error(self, capsys, tmp_path, text):
        path = tmp_path / "sim.json"
        path.write_text(text)
        trace_path = tmp_path / "trace.csv"
        code, out, err = run(capsys, "simulate", "--config", str(path),
                             "--trace", str(trace_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ConfigInvalid: ")
        assert not trace_path.exists()

    def test_non_boolean_controller(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text('{"controller": "yes", "duration_s": 0.01}')
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ConfigInvalid: controller")


class TestNnDemo:
    def test_gradient_check(self, capsys):
        code, out, _ = run(capsys, "nn-demo", "--gradient-check", "--seed", "2",
                           "--layers", "2,3,1", "--activation", "sigmoid")
        assert code == 0
        doc = validate(out, "nn-demo")
        assert doc["max_relative_error"] < 1e-5

    def test_diagnose_deep_sigmoid(self, capsys):
        code, out, _ = run(capsys, "nn-demo", "--diagnose", "--seed", "1",
                           "--layers", "4,8,8,8,8,8,8,8,8,8,2")
        assert code == 0
        doc = validate(out, "nn-demo")
        grads = doc["layer_mean_abs_grad"]
        assert grads[0] < grads[-1]

    def test_requires_mode(self, capsys):
        code, _, _ = run(capsys, "nn-demo")
        assert code == 2

    @pytest.mark.parametrize("mode", ["--diagnose", "--gradient-check"])
    def test_parameter_budget(self, capsys, mode):
        # 3 * 1 + 2 * 4999 = MAX_PARAMETERS + 1 weights and biases
        code, out, err = run(capsys, "nn-demo", mode, "--layers", "2,1,4999")
        assert code == 1
        assert out == ""
        assert err == "error: OutOfRange: 10001 weights and biases, above the budget of 10000\n"


def with_wind_input(text: str) -> str:
    """The dosing rulebase text with a second input, wind."""
    doc = json.loads(text)
    doc["inputs"].append({"name": "wind", "universe": [0.0, 1.0], "sets": {
        "calm": {"shape": "triangle", "points": [0.0, 0.0, 1.0]},
        "gusty": {"shape": "triangle", "points": [0.0, 1.0, 1.0]}}})
    return json.dumps(doc)


def edited_dosing(edit) -> bytes:
    """The dosing rulebase bytes after edit(doc) changes the parsed document in place."""
    doc = json.loads(DOSING_JSON)
    edit(doc)
    return json.dumps(doc).encode()


NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100))
CURB = ["inspect-sidewalk", "{curb}", "--overlay", "{out}.pgm", "--report", "{out}.json",
        "--sigma"]

SMALL_FRAME = write_pnm(Image.from_array(np.arange(400, dtype=np.uint8).reshape(20, 20)))
TINY_FRAME = write_pnm(Image.from_array(np.eye(4, dtype=np.uint8) * 255))

# argv ({curb}, {field}, {edges}, {doc} and {out} name files in a fresh directory, {dir}
# the directory itself), the bytes of {doc}, and the error type the call must end in
HOSTILE = {
    "dose-output-liters": (["dose", "{field}", "--system", "{doc}"],
                           DOSING_JSON.replace('"dose"', '"liters"').encode(), "ConfigInvalid"),
    "dose-input-cover": (["dose", "{field}", "--system", "{doc}"],
                         DOSING_JSON.replace('"green_density"', '"cover"').encode(),
                         "ConfigInvalid"),
    "dose-input-wind": (["dose", "{field}", "--system", "{doc}"],
                        with_wind_input(DOSING_JSON).encode(), "ConfigInvalid"),
    "dose-rule-without-if": (["dose", "{field}", "--system", "{doc}"], edited_dosing(
        lambda d: d["rules"].append({"if": [], "then": ["dose", "small"]})), "ParseError"),
    # floats whose centroid sum, membership slope or universe width overflows
    "dose-universe-0-1.7e308": (["dose", "{field}", "--system", "{doc}"], edited_dosing(
        lambda d: d["outputs"][0].update(universe=[0.0, 1.7e308])), "ParseError"),
    "dose-rise-1e-320": (["dose", "{field}", "--system", "{doc}"], edited_dosing(
        lambda d: d["outputs"][0]["sets"]["small"].update(points=[0.0, 1e-320, 5.0])),
        "ParseError"),
    "dose-universe-pm-1.7e308": (["dose", "{field}", "--system", "{doc}"], edited_dosing(
        lambda d: d["outputs"][0].update(universe=[-1.7e308, 1.7e308])), "ParseError"),
    # numbers written as JSON strings
    "dose-points-as-text": (["dose", "{field}", "--system", "{doc}"], edited_dosing(
        lambda d: d["outputs"][0]["sets"]["small"].update(points=["0", "1", "5"])),
        "ParseError"),
    "dose-universe-as-text": (["dose", "{field}", "--system", "{doc}"], edited_dosing(
        lambda d: d["outputs"][0].update(universe="05")), "ParseError"),
    "sigma-1e-300": (CURB + ["1e-300"], None, "OutOfRange"),
    "sigma-1e-155": (CURB + ["1e-155"], None, "OutOfRange"),
    "sigma-5e-324": (CURB + ["5e-324"], None, "OutOfRange"),
    "theta-nan": (["detect-lines", "{edges}", "--theta-step", "nan"], None, "OutOfRange"),
    "theta-inf": (["detect-lines", "{edges}", "--theta-step", "inf"], None, "OutOfRange"),
    "theta-1e-9": (["detect-lines", "{edges}", "--theta-step", "1e-9"], None, "OutOfRange"),
    "theta-0.0001": (["detect-lines", "{edges}", "--theta-step", "0.0001"], None, "OutOfRange"),
    # below 1 vote every accumulator cell is a hit; the Hough functions refuse it
    "lines-min-votes-0": (["detect-lines", "{edges}", "--min-votes", "0"], None, "OutOfRange"),
    "lines-min-votes--1": (["detect-lines", "{edges}", "--min-votes", "-1"], None,
                           "OutOfRange"),
    "circles-min-votes-0": (["detect-circles", "{edges}", "--r-min", "1", "--r-max", "60",
                             "--min-votes", "0"], None, "OutOfRange"),
    "circles-min-votes--1": (["detect-circles", "{edges}", "--r-min", "1", "--r-max", "60",
                              "--min-votes", "-1"], None, "OutOfRange"),
    "config-not-utf8": (["simulate", "--config", "{doc}", "--trace", "{out}.csv"], NOT_UTF8,
                        "ParseError"),
    "system-not-utf8": (["dose", "{field}", "--system", "{doc}"], NOT_UTF8, "ParseError"),
    "mass-table-not-utf8": (["thrust", "--mass-table", "{doc}", "--rotors", "4"], NOT_UTF8,
                            "ParseError"),
    # numpy's default_rng refuses a negative seed with a bare ValueError
    "seed--1-gradient-check": (["nn-demo", "--gradient-check", "--seed", "-1"], None,
                               "OutOfRange"),
    "seed--1-diagnose": (["nn-demo", "--diagnose", "--seed", "-1"], None, "OutOfRange"),
    # a frame not taller than one block
    "frame-20x20-block-30": (["inspect-sidewalk", "{doc}", "--block", "30"], SMALL_FRAME,
                             "OutOfRange"),
    "frame-4x4": (["inspect-sidewalk", "{doc}"], TINY_FRAME, "OutOfRange"),
    # files the CLI cannot read or write
    "otsu-out-missing-dir": (["otsu", "{edges}", "--out", "{out}/x.pgm"], None, "FileAccess"),
    "mask-missing-dir": (["green-density", "{field}", "--mask", "{out}/m.pgm"], None,
                         "FileAccess"),
    "image-is-a-directory": (["otsu", "{dir}"], None, "FileAccess"),
    "config-is-a-directory": (["simulate", "--config", "{dir}"], None, "FileAccess"),
    "system-is-a-directory": (["dose", "{field}", "--system", "{dir}"], None, "FileAccess"),
    "mass-table-is-a-directory": (["thrust", "--mass-table", "{dir}", "--rotors", "4"], None,
                                  "FileAccess"),
    # the report write fails after the overlay was written; the overlay is removed
    "report-missing-dir": (["inspect-sidewalk", "{curb}", "--overlay", "{out}.pgm",
                            "--report", "{out}/r.json"], None, "FileAccess"),
    # outputs that cannot even be looked up (ENOTDIR, ENAMETOOLONG): nothing is removed
    "otsu-out-under-a-file": (["otsu", "{edges}", "--out", "{edges}/x.pgm"], None, "FileAccess"),
    "otsu-out-name-too-long": (["otsu", "{edges}", "--out", "{out}" + "x" * 300], None,
                               "FileAccess"),
    "report-under-a-file": (["inspect-sidewalk", "{curb}", "--overlay", "{out}.pgm",
                             "--report", "{edges}/r.json"], None, "FileAccess"),
}


class TestHostileInputs:
    """Each call exits 1 with one typed error line: no traceback, warning or output file."""

    @pytest.mark.parametrize("argv, doc, error", HOSTILE.values(), ids=HOSTILE.keys())
    def test_exits_1_with_a_typed_error(self, capsys, tmp_path, sidewalk_pgm, half_green_ppm,
                                        argv, doc, error):
        edges = np.zeros((16, 16), np.uint8)
        edges[:, 5] = 255
        (tmp_path / "edges.pgm").write_bytes(write_pnm(Image.from_array(edges)))
        (tmp_path / "doc").write_bytes(doc or b"")
        names = {"curb": sidewalk_pgm, "field": half_green_ppm, "edges": tmp_path / "edges.pgm",
                 "doc": tmp_path / "doc", "out": tmp_path / "out", "dir": tmp_path}
        inputs = set(tmp_path.iterdir())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *(a.format(**names) for a in argv))
        assert (code, out, caught) == (1, "", [])
        name = re.fullmatch(r"error: (\w+): [^\n]+\n", err).group(1)
        assert name == error and issubclass(getattr(errors, name), errors.AerobotError)
        assert set(tmp_path.iterdir()) == inputs


class TestContract:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, "fly-me-to-the-moon")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys, gradient_pgm):
        code, _, _ = run(capsys, "otsu", str(gradient_pgm), "--frobnicate")
        assert code == 2

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "otsu", "/nonexistent/file.pgm")
        assert code == 1
        assert err

    def test_bad_magic_exits_1(self, capsys, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_bytes(b"GIF89a....")
        code, _, err = run(capsys, "otsu", str(path))
        assert code == 1
        assert "BadMagic" in err

    @pytest.mark.parametrize("payload", [
        b"",                                # no header at all
        b"P5\n4 4\n255\n\x00\x00",          # truncated raster
        b"P5\n0 4\n255\n",                  # zero width
        b"P5\n2 2\n70000\n" + bytes(8),     # 16-bit maxval
        b"P2\n2 2\n255\n1 2 3\n",           # short ASCII raster
    ])
    def test_malformed_images_exit_1(self, capsys, tmp_path, payload):
        path = tmp_path / "broken.pgm"
        path.write_bytes(payload)
        for command in (["otsu"], ["detect-lines"], ["inspect-sidewalk"]):
            code, out, err = run(capsys, *command, str(path))
            assert code == 1
            assert out == ""
            assert err

    def test_stdout_byte_identical(self, capsys, sidewalk_pgm, table_csv):
        for argv in (
            ["inspect-sidewalk", str(sidewalk_pgm)],
            ["thrust", "--mass-table", str(table_csv), "--rotors", "8"],
            ["thermal", "--to-radiance", "300"],
            ["nn-demo", "--diagnose", "--seed", "3", "--layers", "2,4,1",
             "--activation", "relu"],
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second


GOLDEN = Path(__file__).with_name("golden") / "cli_stdout.json"


# names through which a function could write stdout, stderr or a file
WRITERS = {"print", "open", "stdout", "stderr", "write", "write_bytes", "write_text",
           "writelines", "unlink", "rename", "replace", "mkdir", "touch"}


def writers_used(fn: ast.FunctionDef) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(fn)
            if isinstance(n, (ast.Name, ast.Attribute))} & WRITERS


def sim_config(path: Path) -> Path:
    cfg = SimConfig(duration_s=0.05, arm_trajectory=((0.0, 0.0, 1.0), (0.05, 9.0, 1.0)))
    path.write_text(json.dumps(asdict(cfg)))
    return path


class TestSingleWriter:
    """Commands return their payload and files; only run writes them, and a failure
    removes only the output paths the call created."""

    def test_only_run_writes(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert sum(name.startswith("_cmd_") for name in functions) == 10
        assert {name: writers_used(f) for name, f in functions.items() if name != "run"} \
            == {name: set() for name in functions if name != "run"}
        assert writers_used(functions["run"]) == {"stdout", "stderr", "write", "write_bytes",
                                                  "unlink"}

    def test_the_audit_sees_a_write(self):
        tree = ast.parse("def _cmd_x(args):\n    sys.stdout.write('x')\n"
                         "    Path(args.out).write_bytes(b'')\n")
        assert writers_used(tree.body[0]) == {"stdout", "write", "write_bytes"}

    @pytest.mark.parametrize("argv, module, name", [
        (["otsu", "{gradient}"], raster, "write_pnm"),
        (["green-density", "{field}"], raster, "write_pnm"),
        (["inspect-sidewalk", "{curb}"], raster, "write_pnm"),
        (["simulate", "--config", "{config}"], flight, "trace_to_csv"),
    ], ids=["otsu", "green-density", "inspect-sidewalk", "simulate"])
    def test_no_output_is_built_unless_asked_for(self, capsys, monkeypatch, tmp_path,
                                                 gradient_pgm, half_green_ppm, sidewalk_pgm,
                                                 argv, module, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} ran for an output nobody asked for")

        names = {"gradient": gradient_pgm, "field": half_green_ppm, "curb": sidewalk_pgm,
                 "config": sim_config(tmp_path / "sim.json")}
        monkeypatch.setattr(module, name, refuse)
        code, out, err = run(capsys, *(a.format(**names) for a in argv))
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("kind", ["created", "regular-file", "symlink"])
    def test_a_failed_second_write_removes_only_what_the_call_created(
            self, capsys, monkeypatch, tmp_path, sidewalk_pgm, kind):
        overlay, target = tmp_path / "overlay.pgm", tmp_path / "target.pgm"
        if kind == "regular-file":
            overlay.write_bytes(b"kept")
        elif kind == "symlink":
            target.write_bytes(b"kept")
            overlay.symlink_to(target)
        unlinked, unlink = [], Path.unlink
        monkeypatch.setattr(Path, "unlink",
                            lambda path, missing_ok=False: (unlinked.append(path),
                                                            unlink(path, missing_ok))[1])
        report = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "inspect-sidewalk", str(sidewalk_pgm),
                             "--overlay", str(overlay), "--report", str(report))
        assert (code, out) == (1, "")
        assert err.startswith("error: FileAccess: [Errno 2] No such file or directory")
        if kind == "created":
            assert not os.path.lexists(overlay) and overlay in unlinked
        else:  # the earlier output keeps what this call wrote into it
            assert overlay not in unlinked and overlay.is_symlink() == (kind == "symlink")
            assert parse_pnm(overlay.read_bytes()).channels == 1
        assert set(unlinked) <= {overlay, report}

    @pytest.mark.parametrize("argv, outputs", [
        (["otsu", "{gradient}", "--out", "{out}.pgm"], [".pgm"]),
        (["green-density", "{field}", "--mask", "{out}.pgm"], [".pgm"]),
        (["simulate", "--config", "{config}", "--trace", "{out}.csv"], [".csv"]),
        (["inspect-sidewalk", "{curb}", "--overlay", "{out}.pgm", "--report", "{out}.json"],
         [".pgm", ".json"]),
    ], ids=["otsu", "green-density", "simulate", "inspect-sidewalk"])
    def test_a_write_that_fails_midway_leaves_no_file(self, capsys, monkeypatch, tmp_path,
                                                      gradient_pgm, half_green_ppm,
                                                      sidewalk_pgm, argv, outputs):
        def half_then_fail(path, data):
            with open(path, "wb") as f:
                f.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        names = {"gradient": gradient_pgm, "field": half_green_ppm, "curb": sidewalk_pgm,
                 "config": sim_config(tmp_path / "sim.json"), "out": tmp_path / "out"}
        inputs = set(tmp_path.iterdir())
        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        code, out, err = run(capsys, *(a.format(**names) for a in argv))
        first = tmp_path / f"out{outputs[0]}"
        assert (code, out) == (1, "")
        assert err == f"error: FileAccess: [Errno 28] No space left on device: '{first}'\n"
        assert set(tmp_path.iterdir()) == inputs

    def test_a_failed_stdout_write_removes_only_what_the_call_created(
            self, capsys, monkeypatch, tmp_path, sidewalk_pgm):
        """A call that exits 1 leaves no file it created, even when only stdout failed."""
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        overlay, report = tmp_path / "overlay.pgm", tmp_path / "r.json"
        overlay.write_bytes(b"kept")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.run(["inspect-sidewalk", str(sidewalk_pgm), "--overlay", str(overlay),
                        "--report", str(report)])
        assert (code, capsys.readouterr().err) == (1, "error: FileAccess: [Errno 32] Broken pipe\n")
        assert not os.path.lexists(report) and parse_pnm(overlay.read_bytes()).channels == 1


def golden_calls(d: Path) -> dict:
    """Every subcommand on fixed inputs written to d, keyed by a case name."""
    gradient = np.tile(np.arange(0, 240, 10, dtype=np.uint8), (8, 1))
    (d / "gradient.pgm").write_bytes(write_pnm(Image.from_array(gradient)))
    rgb = np.full((8, 8, 3), 128, np.uint8)
    rgb[:, :4] = (0, 255, 0)
    rgb[2:5, 5] = (90, 160, 70)
    (d / "field.ppm").write_bytes(write_pnm(Image.from_array(rgb)))
    (d / "curb.pgm").write_bytes(write_pnm(generate_sidewalk(SidewalkParams(erased_blocks=(4,)))))
    edges = np.zeros((21, 21), np.uint8)
    edges[:, 5] = 255
    edges[12, :] = 255
    (d / "lines.pgm").write_bytes(write_pnm(Image.from_array(edges)))
    ring = np.zeros((21, 21), np.uint8)
    for tenth in range(3600):
        a = np.radians(tenth / 10)
        ring[round(10 + 5 * np.sin(a)), round(10 + 5 * np.cos(a))] = 255
    (d / "ring.pgm").write_bytes(write_pnm(Image.from_array(ring)))
    (d / "table.csv").write_text(
        resources.files("aerobot.assets").joinpath("table1.csv").read_text())
    (d / "rules.json").write_text(DOSING_JSON)
    (d / "sim.json").write_text(json.dumps(asdict(SimConfig(
        duration_s=0.05, arm_trajectory=((0.0, 0.0, 1.0), (0.05, 40.0, 0.5))))))
    p = lambda name: str(d / name)  # noqa: E731
    return {
        "otsu": ["otsu", p("gradient.pgm")],
        "green-density": ["green-density", p("field.ppm")],
        "green-density-threshold": ["green-density", p("field.ppm"), "--threshold", "200"],
        "dose": ["dose", p("field.ppm")],
        "dose-system": ["dose", p("field.ppm"), "--system", p("rules.json")],
        "detect-lines": ["detect-lines", p("lines.pgm"), "--min-votes", "12"],
        "detect-circles": ["detect-circles", p("ring.pgm"), "--r-min", "4", "--r-max", "6",
                           "--min-votes", "12"],
        "inspect-sidewalk": ["inspect-sidewalk", p("curb.pgm")],
        "thermal-radiance": ["thermal", "--to-radiance", "300"],
        "thermal-temp": ["thermal", "--to-temp", "459.27"],
        "thrust": ["thrust", "--mass-table", p("table.csv"), "--rotors", "8",
                   "--safety", "1.35"],
        "simulate": ["simulate", "--config", p("sim.json")],
        "nn-demo-gradient-check": ["nn-demo", "--gradient-check", "--seed", "2",
                                   "--layers", "2,3,1"],
        "nn-demo-diagnose": ["nn-demo", "--diagnose", "--seed", "4", "--layers", "3,6,6,2",
                             "--activation", "leaky"],
    }


class TestGoldenStdout:
    """Stdout of every subcommand stays byte-identical to the recorded output."""

    def test_every_subcommand_matches_golden(self, capsys, tmp_path):
        golden = json.loads(GOLDEN.read_text())
        calls = golden_calls(tmp_path)
        assert sorted(calls) == sorted(golden)
        assert {argv[0] for argv in calls.values()} == set(
            cli.build_parser()._subparsers._group_actions[0].choices)
        outs = {}
        for name, argv in calls.items():
            code, outs[name], err = run(capsys, *argv)
            assert (code, err) == (0, ""), name
        assert outs == golden  # a failure names every moved entry


# Prints every golden stdout and both trace digests as one JSON object, and the
# numpy dispatch targets it runs with to stderr.
PINNED_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
import numpy as np
from aerobot import cli
from aerobot.flight import simulate_hover, trace_to_csv
from test_cli import golden_calls
from test_flight import PINNED_TRACES
umath = np._core._multiarray_umath
print("dispatch:", *[f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]], file=sys.stderr)
out = {}
for name, argv in golden_calls(Path(sys.argv[1])).items():
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        cli.run(argv)
    out[name] = buf.getvalue()
for name, (cfg, _) in PINNED_TRACES.items():
    out[name] = hashlib.sha256(trace_to_csv(simulate_hover(cfg)).encode()).hexdigest()
print(json.dumps(out))
"""

# OpenBLAS kernels to force: the x86 cpuinfo flags each needs, and the names OpenBLAS
# may report for it (a DYNAMIC_ARCH build can serve Prescott with its Katmai kernels)
BLAS_KERNELS = {"Prescott": ({"pni"}, {"Prescott", "Katmai"}),
                "Haswell": ({"avx2", "fma"}, {"Haswell"})}


def cpu_flags() -> set:
    try:
        found = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
    except OSError:
        return set()
    return set(found.group(1).split()) if found else set()


def test_pinned_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    """The golden stdout and both trace digests come out byte-equal under every OpenBLAS
    kernel the host can run, and with numpy's dispatched SIMD targets turned off."""
    from test_flight import PINNED_TRACES

    expected = {**json.loads(GOLDEN.read_text()),
                **{name: digest for name, (_, digest) in PINNED_TRACES.items()}}
    envs = {"default": {}}
    if "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        flags = cpu_flags()
        envs.update({kernel: {"OPENBLAS_CORETYPE": kernel}
                     for kernel, (needs, _) in BLAS_KERNELS.items() if needs <= flags})
    umath = np._core._multiarray_umath
    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
    if dispatched:
        envs["numpy-baseline"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)}
    paths = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]
    children = {}
    for name, extra in envs.items():
        (tmp_path / name).mkdir()
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_VERBOSE": "2",
               **extra}
        children[name] = subprocess.Popen(
            [sys.executable, "-c", PINNED_CHILD, str(tmp_path / name)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # read every child before asserting, so that one mismatch leaves no pipe open
    outputs = {name: child.communicate(timeout=600) for name, child in children.items()}
    for name, (out, err) in outputs.items():
        assert children[name].returncode == 0, (name, err)
        cores = re.findall(r"^Core: (\S+)", err, re.M)
        if name in BLAS_KERNELS:  # an override OpenBLAS ignored would prove nothing
            assert cores and cores[0] in BLAS_KERNELS[name][1], (name, err)
        if name == "numpy-baseline":
            assert re.search(r"^dispatch:\s*$", err, re.M), err
        assert json.loads(out) == expected, name  # a failure names every moved entry
