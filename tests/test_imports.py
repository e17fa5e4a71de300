"""Import hygiene: each CLI call loads only the modules its subcommand needs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aerobot
from aerobot import cli

SRC = Path(aerobot.__file__).resolve().parents[1]

# runs cli.run in a fresh interpreter, then reports the exit code and every
# module loaded by then as one JSON line on stderr
PROBE = """
import json, sys
from aerobot import cli
code = cli.run(sys.argv[1:])
sys.stderr.write(json.dumps([code, sorted(sys.modules)]) + "\\n")
"""


def loaded_by(*argv, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=60)
    code, modules = json.loads(done.stderr.strip().splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize("argv, code", [
    (["thermal", "--to-radiance", "300"], 0),
    (["thermal", "--to-temp", "459.27"], 0),
    (["thermal", "--to-kelvin", "300"], 2),
    (["thrust", "--mass-table", str(SRC / "aerobot" / "assets" / "table1.csv"),
      "--rotors", "4"], 0),
    (["otsu", "missing.pgm"], 1),
    (["inspect-sidewalk", "missing.pgm"], 1),
    (["simulate", "--config", "missing.json"], 1),
    (["simulate", "--config", "bad.json"], 1),
    (["thermal", "--to-radiance", "1e100"], 1),
    (["thermal", "--to-radiance", "nan"], 1),
    (["thermal", "--to-radiance", "-5"], 1),
    (["thermal", "--to-temp", "inf"], 1),
    (["thrust", "--mass-table", str(SRC / "aerobot" / "assets" / "table1.csv"),
      "--rotors", "4", "--safety", "nan"], 1),
    (["thrust", "--mass-table", "nan.csv", "--rotors", "4"], 1),
    (["thrust", "--mass-table", "huge.csv", "--rotors", "4"], 1),
    (["thrust", "--mass-table", "binary.doc", "--rotors", "4"], 1),
    (["simulate", "--config", "binary.doc"], 1),
])
def test_light_calls_never_load_numpy(tmp_path, argv, code):
    (tmp_path / "bad.json").write_text('{"dt_s": -1}')
    (tmp_path / "nan.csv").write_text("name,grams,count\nx,nan,1\n")
    (tmp_path / "huge.csv").write_text("name,grams,count\n" + "x,1e308,1\n" * 9)
    (tmp_path / "binary.doc").write_bytes(b"\x7fELF" + bytes(range(0x80, 0x100)))
    got, modules = loaded_by(*argv, cwd=tmp_path)
    assert got == code
    assert "numpy" not in modules
    assert {"aerobot.vision", "aerobot.raster", "aerobot.flight"}.isdisjoint(modules)


def test_dose_reads_missing_rules_before_loading_numpy(tmp_path):
    (tmp_path / "field.ppm").write_bytes(b"P3\n2 1\n255\n0 255 0 9 9 9\n")
    code, modules = loaded_by("dose", "field.ppm", "--system", "missing.json", cwd=tmp_path)
    assert code == 1
    assert "numpy" not in modules


@pytest.mark.parametrize("argv", [
    ["otsu", "wall.pgm"],
    ["detect-lines", "wall.pgm", "--min-votes", "1"],
    ["detect-circles", "wall.pgm", "--r-min", "1", "--r-max", "2"],
    ["green-density", "field.ppm"],
])
def test_vision_commands_load_only_raster_and_vision(tmp_path, argv):
    (tmp_path / "wall.pgm").write_bytes(b"P2\n3 1\n255\n10 255 30\n")
    (tmp_path / "field.ppm").write_bytes(b"P3\n2 1\n255\n0 255 0 9 9 9\n")
    code, modules = loaded_by(*argv, cwd=tmp_path)
    assert code == 0
    assert {"aerobot.raster", "aerobot.vision"} <= modules
    assert {"aerobot.sidewalk", "aerobot.flight", "aerobot.neural",
            "aerobot.fuzzy"}.isdisjoint(modules)


def test_package_import_is_lazy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = ("import sys, aerobot; before = 'aerobot.vision' in sys.modules; "
             "aerobot.vision.otsu_threshold; print(before, 'aerobot.vision' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.split() == ["False", "True"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_module"):
        aerobot.no_such_module  # noqa: B018


def test_submodules_resolve_to_the_imported_modules():
    from aerobot import flight, sizing, thermal, vision
    assert (aerobot.vision, aerobot.flight, aerobot.sizing, aerobot.thermal) == (
        vision, flight, sizing, thermal)


def test_cli_literals_match_the_library():
    from aerobot import neural, sidewalk, sizing, vision
    assert cli.DEFAULT_EXG_THRESHOLD == vision.DEFAULT_EXG_THRESHOLD
    args = cli.build_parser().parse_args(["green-density", "field.ppm"])
    assert args.threshold == vision.DEFAULT_EXG_THRESHOLD
    args = cli.build_parser().parse_args(["inspect-sidewalk", "curb.pgm"])
    assert sidewalk.InspectConfig(args.sigma, args.block) == sidewalk.InspectConfig()
    args = cli.build_parser().parse_args(["thrust", "--mass-table", "m.csv", "--rotors", "8"])
    assert args.safety == sizing.ThrustSpec(1.0, 8).safety_factor
    assert sorted(cli._ACTIVATIONS.values()) == sorted(
        [neural.SIGMOID, neural.RELU, neural.LEAKY_RELU])


# the two sizing names flight itself uses; the benchmark reads them through flight
@pytest.mark.parametrize("name", ["GRAVITY", "SimConfig"])
def test_flight_reexports_sizing(name):
    from aerobot import flight, sizing
    assert getattr(flight, name) is getattr(sizing, name)
