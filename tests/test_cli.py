import json
import math
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from aerobot import cli
from aerobot.flight import SimConfig
from aerobot.raster import Image, parse_pnm, write_pnm
from aerobot.sidewalk import SidewalkParams, generate_sidewalk


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload: str, schema_name: str) -> dict:
    doc = json.loads(payload)
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
        assert "DegenerateHistogram" in err

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
        from aerobot.fuzzy import default_dosing_system, system_to_json
        path = tmp_path / "rules.json"
        path.write_text(system_to_json(default_dosing_system()))
        code, out, _ = run(capsys, "dose", str(half_green_ppm), "--system", str(path))
        assert code == 0
        validate(out, "dose")


def edited_dosing_doc(path, value):
    """The shipped dosing rulebase with the node at path replaced by value."""
    from aerobot.fuzzy import default_dosing_system, system_to_json
    if not path:
        return value
    doc = json.loads(system_to_json(default_dosing_system()))
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

    def test_bad_radius_range_domain_error(self, capsys, tmp_path):
        path = tmp_path / "edges.pgm"
        path.write_bytes(write_pnm(Image.from_array(np.zeros((5, 5), np.uint8))))
        code, _, err = run(capsys, "detect-circles", str(path),
                           "--r-min", "6", "--r-max", "2")
        assert code == 1
        assert "BadRadiusRange" in err


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
        assert err.startswith("error: NonPositiveSigma: sigma")


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
        assert "NegativeRadiance" in err

    def test_requires_exactly_one_mode(self, capsys):
        code, _, _ = run(capsys, "thermal")
        assert code == 2


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
        assert "BadRotorCount" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,grams,count\nx,-3,1\n")
        code, _, err = run(capsys, "thrust", "--mass-table", str(path), "--rotors", "4")
        assert code == 1
        assert "ParseError" in err


class TestSimulate:
    def test_summary_and_trace(self, capsys, tmp_path):
        cfg = SimConfig(duration_s=0.5, controller=True,
                        arm_trajectory=((0.0, 0.0, 1.0), (0.5, 90.0, 1.0)))
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(cfg.to_json())
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
    from aerobot.fuzzy import default_dosing_system, system_to_json
    (d / "rules.json").write_text(system_to_json(default_dosing_system()))
    (d / "sim.json").write_text(SimConfig(
        duration_s=0.05, arm_trajectory=((0.0, 0.0, 1.0), (0.05, 40.0, 0.5))).to_json())
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
        for name, argv in calls.items():
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), name
            assert out == golden[name], name
