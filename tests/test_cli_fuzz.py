"""Derandomized CLI fuzzer: every subcommand, in process, on edge-value arguments and files.

Each call ends in one of three ways. Exit 0 prints schema-valid stdout with no
NaN or Infinity; exit 1 prints nothing to stdout and one
`error: <AerobotError subclass>: ` line to stderr, and leaves no output file;
exit 2 is a usage error. Any other ending, a traceback included, fails.
"""

import json
import math
import re
import shutil
from dataclasses import asdict
from importlib import resources

import jsonschema
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aerobot import cli, errors  # noqa: E402
from aerobot.raster import Image, write_pnm  # noqa: E402
from aerobot.sidewalk import SidewalkParams, generate_sidewalk  # noqa: E402
from aerobot.sizing import SimConfig  # noqa: E402

NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", str(2**63)]
NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100))
DOSING = resources.files("aerobot.assets").joinpath("dosing.json").read_text()
TABLE = resources.files("aerobot.assets").joinpath("table1.csv").read_text()
# files every pool can name; a file in {new} does not exist until a call writes it
UNREADABLE = ["{dir}/missing", "{dir}", "{dir}/garbage"]
OUTPUTS = ["{new}/a", "{new}/b", "{dir}/missing/x", "{dir}/garbage/x", "{dir}"]


def _pgm(arr) -> bytes:
    return write_pnm(Image.from_array(np.asarray(arr, np.uint8)))


def _ascii_pgm(arr) -> bytes:
    """P2 text of arr, one raster row per line."""
    arr = np.asarray(arr, np.uint8)
    rows = "\n".join(" ".join(map(str, row)) for row in arr.tolist())
    return f"P2\n{arr.shape[1]} {arr.shape[0]}\n255\n{rows}\n".encode()


def _flip(data: bytes, i: int) -> bytes:
    """data with the top bit of byte i flipped."""
    return data[:i] + bytes([data[i] ^ 0x80]) + data[i + 1:]


def _files() -> dict:
    """Name -> bytes of every input file the pools use."""
    gray = np.tile(np.arange(0, 240, 10), (8, 1))
    rgb = np.full((8, 8, 3), 128)
    rgb[:, :4] = (0, 255, 0)
    edges = np.zeros((16, 16))
    edges[:, 5] = edges[9, :] = 255
    curb = write_pnm(generate_sidewalk(SidewalkParams(erased_blocks=(4,))))
    bad = json.loads(DOSING)
    bad["outputs"][0]["sets"]["small"]["points"] = [0.0, "x", 1.0]
    return {
        "gray.pgm": _pgm(gray), "field.ppm": write_pnm(Image.from_array(rgb.astype(np.uint8))),
        "edges.pgm": _pgm(edges), "curb.pgm": curb,
        "ascii.pgm": _ascii_pgm(gray),
        "ascii.ppm": b"P3\n# a comment\n2 1\n# another\n255\n0 255 0  9 9 9\n",
        "pixel.pgm": _pgm([[7]]), "row.pgm": _pgm([[0, 255] * 10]), "col.pgm": _pgm([[9]] * 20),
        "small.pgm": _pgm(np.arange(400).reshape(20, 20) % 256), "tiny.pgm": _pgm(np.eye(4) * 255),
        "maxval1.pgm": b"P2\n3 2\n1\n0 1 0\n1 0 1\n", "pixel.ppm": b"P6 1 1 255 \x00\xff\x00",
        "maxval1.ppm": b"P3 2 1 1 0 1 0 1 1 1",
        "truncated.pgm": curb[:len(curb) // 2], "header-flip.pgm": _flip(_pgm(gray), 3),
        "raster-flip.pgm": _flip(_ascii_pgm(gray), 40),
        "garbage": NOT_UTF8,
        "dosing.json": DOSING.encode(),
        "liters.json": DOSING.replace('"dose"', '"liters"').encode(),
        "mistyped.json": json.dumps(bad).encode(),
        "nested.json": b"[" * 100_000 + b"]" * 100_000,
        "truncated.json": DOSING[:len(DOSING) // 2].encode(),
        "huge-samples.json": DOSING.replace('"format"', f'"samples": {2**63}, "format"').encode(),
        "sim.json": json.dumps(asdict(SimConfig(
            duration_s=0.02, arm_trajectory=((0.0, 0.0, 1.0), (0.02, 40.0, 0.5))))).encode(),
        "sim-off.json": b'{"duration_s": 0.02, "controller": false}',
        "sim-nan.json": b'{"duration_s": NaN}',
        "sim-inertia.json": b'{"duration_s": 0.02, "inertia_kgm2": 1e-320}',
        "sim-steps.json": b'{"duration_s": 1e300, "dt_s": 5e-324}',
        "sim-bigint.json": f'{{"dt_s": {2**1100}}}'.encode(),
        "sim-mistyped.json": b'{"controller": 1, "arm_trajectory": 5}',
        "sim-unknown.json": b'{"wings": 2}',
        "sim-list.json": b"[1, 2]",
        "table.csv": TABLE.encode(), "header.csv": b"name,grams,count\n",
        "nan-row.csv": b"name,grams,count\nx,nan,1\n",
        "huge-row.csv": b"name,grams,count\nx,1e308,2\n",
        "bigint-row.csv": f"name,grams,count\nx,1,{2**1100}\n".encode(),
        "no-header.csv": b"x,1,2\n",
    }


IMAGES = ["{dir}/" + n for n in ("gray.pgm", "field.ppm", "edges.pgm", "curb.pgm", "ascii.pgm",
                                 "ascii.ppm", "pixel.pgm", "row.pgm", "col.pgm", "small.pgm",
                                 "tiny.pgm", "maxval1.pgm", "pixel.ppm", "maxval1.ppm",
                                 "truncated.pgm", "header-flip.pgm", "raster-flip.pgm")]
IMAGES += UNREADABLE
SYSTEMS = ["{dir}/" + n for n in ("dosing.json", "liters.json", "mistyped.json", "nested.json",
                                  "truncated.json", "huge-samples.json")] + UNREADABLE
CONFIGS = ["{dir}/" + n for n in ("sim.json", "sim-off.json", "sim-nan.json",
                                  "sim-inertia.json", "sim-steps.json", "sim-bigint.json",
                                  "sim-mistyped.json", "sim-unknown.json", "sim-list.json",
                                  "nested.json")] + UNREADABLE
TABLES = ["{dir}/" + n for n in ("table.csv", "header.csv", "nan-row.csv", "huge-row.csv",
                                 "bigint-row.csv", "no-header.csv")] + UNREADABLE
# at most MAX_PARAMETERS weights, or refused by the budget before anything is allocated
LAYERS = ["2,3,1", "3,6,6,2", "1," * 29 + "1", "1," * 6000 + "1", "2,1,4999", "0,1,1",
          "-1,2,1", "2,3", "2", "", "a,b", f"{2**63},1,1", "2,3,1,"]


def positional(pool):
    return st.sampled_from(pool).map(lambda v: [v])


def required(flag, pool):
    return st.sampled_from(pool).map(lambda v: [flag, v])


def optional(flag, pool):
    return st.just([]) | required(flag, pool)


def mode(*flags):
    return st.sampled_from([[f] for f in flags])


def numbers(*valid):
    return NUMBERS + list(valid)


COMMANDS = {
    "otsu": [positional(IMAGES), optional("--out", OUTPUTS)],
    "green-density": [positional(IMAGES), optional("--threshold", numbers("20", "200", "-600")),
                      optional("--mask", OUTPUTS)],
    "dose": [positional(IMAGES), optional("--system", SYSTEMS)],
    "detect-lines": [positional(IMAGES), optional("--theta-step", numbers("1", "45", "0.5")),
                     optional("--min-votes", numbers("1", "5"))],
    "detect-circles": [positional(IMAGES), required("--r-min", numbers("1", "2", "3", "4")),
                       required("--r-max", numbers("3", "5", "6", "40")),
                       optional("--min-votes", numbers("1", "5"))],
    "inspect-sidewalk": [positional(IMAGES), optional("--sigma", numbers("2.0", "0.5")),
                         optional("--block", numbers("8", "30")),
                         optional("--overlay", OUTPUTS), optional("--report", OUTPUTS)],
    "thermal": [mode("--to-temp", "--to-radiance"), positional(numbers(
        "300", "459.27", "-0.0", "-273.15", "1e-300", "-1e-300", "1e-45", "1e10", "3.4e38",
        "1e77", "2e77", "6.1e77", "1e300", "4.5e307", "1.7976931348623157e308", "1e400",
        "-1e400", "0x10", "1_000"))],
    "thrust": [required("--mass-table", TABLES),
               required("--rotors", numbers("4", "6", "8", "4", "6", "8", "5")),
               optional("--safety", numbers("1.2", "1"))],
    "simulate": [required("--config", CONFIGS), optional("--trace", OUTPUTS)],
    "nn-demo": [mode("--gradient-check", "--diagnose"), optional("--seed", numbers("1", "3")),
                optional("--layers", LAYERS),
                optional("--activation", ["sigmoid", "relu", "leaky"])],
}
SCHEMAS = {"detect-lines": ("rho", "theta", "votes"), "detect-circles": ("cx", "cy", "r", "votes")}


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def check_stdout(command: str, out: str) -> None:
    """JSON schema-valid, or for a Hough detector a CSV of finite numbers."""
    if command in SCHEMAS:
        header, *rows = out.splitlines()
        assert header.split(",") == list(SCHEMAS[command])
        for row in rows:
            cells = [float(c) for c in row.split(",")]
            assert len(cells) == len(SCHEMAS[command]) and all(map(math.isfinite, cells))
        return
    schema = resources.files("aerobot.assets.schemas").joinpath(f"{command}.schema.json")
    doc = json.loads(out, parse_constant=_refuse_constant)  # NaN and Infinity fail
    jsonschema.validate(doc, json.loads(schema.read_text()))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, data in _files().items():
        (d / name).write_bytes(data)
    return d


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_call_ends_in_a_result_a_typed_error_or_usage(capsys, workdir, command):
    assert set(COMMANDS) == set(cli.build_parser()._subparsers._group_actions[0].choices)
    new = workdir / "new"

    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(st.tuples(*COMMANDS[command]))
    def call(parts):
        shutil.rmtree(new, ignore_errors=True)
        new.mkdir()
        argv = [command] + [a.format(dir=workdir, new=new) for part in parts for a in part]
        code = cli.run(argv)
        out, err = capsys.readouterr()
        if code == 0:
            check_stdout(command, out)
        elif code == 1:
            assert out == "" and not any(new.iterdir()), argv
            typed = re.fullmatch(r"error: (\w+): [^\n]*\n", err)
            assert typed, (argv, err)
            assert issubclass(getattr(errors, typed[1]), errors.AerobotError), argv
        else:
            assert (code, out) == (2, ""), argv
            assert "usage:" in err, argv

    call()
