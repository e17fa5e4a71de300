"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Each workload yields rounds of items from ``numpy.random.default_rng([seed,
round])``. A round has a fixed mix of size classes, so the median and the
tail fall inside one class whatever the seed; the seed moves sizes within a
class and all content. Items are generated fresh for every round, so a run
never feeds the program the same input twice.

`run(item)` is the only timed code: it calls the public aerobot API (or the
CLI as a subprocess) the way a user would. `check(item, out, err)` returns
None when the output is right and a reason when it is not; an expected
typed error counts as right. Checks use oracles built here, never the code
under test.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from aerobot import cli, errors, flight, fuzzy, raster, sidewalk, vision


@dataclass
class Item:
    kind: str
    payload: dict
    work: float = 1.0          # units counted by the throughput metric
    expect_error: type | None = None
    extra: dict = field(default_factory=dict)
    key: tuple = ()            # (round, position), set by the runner


class Workload:
    """Defaults: no one-off checks before the loop, no run-level checks after it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def prepare(self, seed) -> list:
        """One-off checks outside the timed loop: [(label, failure or None)]."""
        return []

    def finish(self) -> tuple:
        """Run-level checks: ([(item key, failure)], notes)."""
        return [], {}


def _pnm(arr: np.ndarray) -> bytes:
    """Binary P5/P6 encoding, written here so inputs do not depend on write_pnm."""
    magic = b"P5" if arr.ndim == 2 else b"P6"
    h, w = arr.shape[:2]
    return magic + b"\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(arr, np.uint8).tobytes()


def _pnm_ascii(arr: np.ndarray) -> bytes:
    magic = "P2" if arr.ndim == 2 else "P3"
    h, w = arr.shape[:2]
    rows = arr.reshape(h, -1)
    body = "\n".join(" ".join(map(str, row)) for row in rows.tolist())
    return f"{magic}\n{w} {h}\n255\n{body}\n".encode("ascii")


def _circle_edges(rng, size_lo=40, size_hi=56):
    """Binary edge image with one drawn circle, as criterion 12 draws it."""
    size = int(rng.integers(size_lo, size_hi + 1))
    r = int(rng.integers(6, 13))
    cx, cy = (int(rng.integers(r + 2, size - r - 2)) for _ in range(2))
    arr = np.zeros((size, size), np.uint8)
    a = np.radians(np.arange(3600) / 10.0)
    arr[np.rint(cy + r * np.sin(a)).astype(int), np.rint(cx + r * np.cos(a)).astype(int)] = 255
    return arr, (cx, cy, r)


def _rulebase(rng) -> str:
    """A seeded dosing rulebase in the aerobot-fuzzy JSON format."""
    peak = float(rng.uniform(0.35, 0.65))
    top = float(rng.uniform(8.0, 12.0))
    mid = float(rng.uniform(0.4, 0.6)) * top
    tri = lambda a, b, c: {"shape": "triangle", "points": [a, b, c]}  # noqa: E731
    doc = {
        "format": "aerobot-fuzzy", "version": 1, "samples": 201,
        "inputs": [{"name": "green_density", "universe": [0.0, 1.0], "sets": {
            "sparse": tri(0.0, 0.0, peak), "patchy": tri(0.0, peak, 1.0),
            "dense": tri(peak, 1.0, 1.0)}}],
        "outputs": [{"name": "dose", "universe": [0.0, top], "sets": {
            "low": tri(0.0, 0.1 * top, mid), "mid": tri(0.1 * top, mid, 0.9 * top),
            "high": tri(mid, 0.9 * top, top)}}],
        "rules": [{"if": [["green_density", a]], "then": ["dose", b]}
                  for a, b in (("sparse", "low"), ("patchy", "mid"), ("dense", "high"))],
    }
    return json.dumps(doc)


# curb-survey -----------------------------------------------------------------

def _erasures(rng, n_blocks: int) -> tuple:
    """Erased block indices with no three in a row (criterion 4's rule)."""
    k = int(rng.integers(0, n_blocks // 4 + 1))
    while True:
        erased = sorted(rng.choice(n_blocks, size=k, replace=False).tolist())
        if not any(erased[i + 2] - erased[i] == 2 for i in range(len(erased) - 2)):
            return tuple(erased)


class CurbSurvey(Workload):
    """Binary PGM curb frames from generate_sidewalk, 96x48 up to 1024x512.

    Per round: 1 flat frame (must raise NoStripFound), 8 small, 4 medium and
    1 large frame, shuffled. Small frames make the median, where per-block
    Python in sidewalk/neural shows; the large one makes the tail, where the
    wavelet convolution dominates.
    """

    name = "curb-survey"
    unit = "frames/s"
    throughput_name = "frames_per_s"
    MIN_NOISY_ACCURACY = 0.95

    def __init__(self, workdir):
        super().__init__(workdir)
        self.block_total = 0
        self.block_correct = 0
        self.noisy_keys = []

    def _frame(self, rng, kind):
        if kind in ("flat", "small"):
            block, n_blocks, height = 8, int(rng.integers(12, 21)), int(rng.integers(48, 65))
        elif kind == "medium":
            block = int(rng.choice((8, 16)))
            n_blocks, height = int(rng.integers(256, 513)) // block, int(rng.integers(96, 193))
        else:
            block = int(rng.choice((8, 16)))
            n_blocks, height = 1024 // block, int(rng.integers(448, 513))
        if kind == "flat":
            erased, sigma = tuple(range(n_blocks)), 0.0
        else:
            erased, sigma = _erasures(rng, n_blocks), float(rng.choice((0.0, 5.0, 10.0)))
        params = sidewalk.SidewalkParams(
            n_blocks=n_blocks, block_length=block, image_height=height,
            band_top=int(rng.integers(block, height - 2 * block + 1)),
            noise_sigma=sigma, erased_blocks=erased,
            first_block_bright=bool(rng.integers(0, 2)))
        img = sidewalk.generate_sidewalk(params, seed=int(rng.integers(2**31)))
        return Item(kind, {"pgm": _pnm(img.to_array()), "block": block},
                    expect_error=errors.NoStripFound if kind == "flat" else None,
                    extra={"erased": erased, "sigma": sigma, "n_blocks": n_blocks,
                           "size": (img.width, img.height)})

    def round(self, rng):
        kinds = ["flat"] + ["small"] * 8 + ["medium"] * 4 + ["large"]
        return [self._frame(rng, kinds[i]) for i in rng.permutation(len(kinds))]

    def warmup(self, rng):
        return self._frame(rng, "small")

    def run(self, item):
        img = raster.parse_pnm(item.payload["pgm"])
        config = sidewalk.InspectConfig(sigma=2.0, block_length=item.payload["block"])
        report, overlay = sidewalk.inspect(img, config)
        return json.dumps(report.to_dict(), indent=2), raster.write_pnm(overlay)

    def check(self, item, out, err):
        if item.expect_error is not None:
            if isinstance(err, item.expect_error):
                return None
            return f"expected {item.expect_error.__name__}, got {err!r}"
        if err is not None:
            return f"raised {err!r}"
        doc, overlay = out
        w, h = item.extra["size"]
        header = b"P5\n%d %d\n255\n" % (w, h)
        if not overlay.startswith(header) or len(overlay) != len(header) + w * h:
            return "overlay is not a PGM of the frame's size"
        flagged = tuple(json.loads(doc)["flagged_blocks"])
        erased = item.extra["erased"]
        if item.extra["sigma"] == 0.0:
            return None if flagged == erased else f"flagged {flagged} != erased {erased}"
        n = item.extra["n_blocks"]
        self.block_total += n
        self.block_correct += sum((b in flagged) == (b in erased) for b in range(n))
        self.noisy_keys.append(item.key)
        return None

    def finish(self):
        """Criterion 4's bar holds per run: per-block accuracy on noisy frames."""
        if not self.block_total:
            return [], {}
        accuracy = self.block_correct / self.block_total
        notes = {"noisy_block_accuracy": accuracy, "noisy_blocks": self.block_total}
        if accuracy >= self.MIN_NOISY_ACCURACY:
            return [], notes
        reason = f"noisy per-block accuracy {accuracy:.4f} below {self.MIN_NOISY_ACCURACY}"
        return [(key, reason) for key in self.noisy_keys], notes


# hover-sim -------------------------------------------------------------------

class HoverSim(Workload):
    """Seeded SimConfig JSON files at 1 kHz, controller on, read back per item.

    Per round: durations 0.2, 0.4, 0.4, 0.6 and 1.0 s, so the median is a
    0.4 s run and the tail a 1.0 s run; the seed moves vehicle constants and
    the arm trajectory (keyframe count, azimuth sweep, extension).
    """

    name = "hover-sim"
    unit = "sim_s/s"
    throughput_name = "sim_speed"
    DURATIONS = (0.2, 0.4, 0.4, 0.6, 1.0)

    def prepare(self, seed):
        """Criterion 10's comparison (default 10 s sweep), outside the timed loop."""
        on = flight.max_tilt(flight.simulate_hover(flight.SimConfig(controller=True)))
        off = flight.max_tilt(flight.simulate_hover(flight.SimConfig(controller=False)))
        return [("criterion 10 controller-off comparison",
                 None if on < off else f"max tilt {on} with controller, {off} without")]

    @staticmethod
    def _config(rng, duration):
        k = int(rng.integers(2, 7))
        times = np.sort(rng.uniform(0.0, duration, k))
        times[0], times[-1] = 0.0, duration
        azimuths = np.concatenate([[rng.uniform(0, 360)], rng.uniform(0, 1, k - 1)])
        azimuths[1:] *= rng.uniform(90, 720) / azimuths[1:].sum()
        doc = {
            "vehicle_mass_kg": float(rng.uniform(25.0, 40.0)),
            "rotor_radius_m": float(rng.uniform(0.4, 0.6)),
            "inertia_kgm2": float(rng.uniform(0.6, 1.0)),
            "arm_mass_kg": float(rng.uniform(0.5, 1.2)),
            "arm_reach_m": float(rng.uniform(0.4, 0.8)),
            "dt_s": 0.001,
            "duration_s": duration,
            "controller": True,
            "arm_trajectory": [[float(t), float(a), float(e)] for t, a, e in zip(
                times, np.cumsum(azimuths), rng.uniform(0.3, 1.0, k))],
        }
        return json.dumps(doc)

    def _item(self, rng, duration, position):
        path = self.workdir / f"sim-{position}.json"
        path.write_text(self._config(rng, duration))
        return Item("sim", {"config": path}, work=duration)

    def round(self, rng):
        order = rng.permutation(len(self.DURATIONS))
        return [self._item(rng, self.DURATIONS[i], pos) for pos, i in enumerate(order)]

    def warmup(self, rng):
        return self._item(rng, 0.05, "warmup")

    def run(self, item):
        cfg = flight.SimConfig.from_json(item.payload["config"].read_text())
        trace = flight.simulate_hover(cfg)
        return cfg, trace, flight.max_tilt(trace), flight.trace_to_csv(trace)

    def check(self, item, out, err):
        if err is not None:
            return f"raised {err!r}"
        cfg, trace, tilt, csv = out
        steps = int(round(cfg.duration_s / cfg.dt_s))
        if len(trace) != steps:
            return f"{len(trace)} states for {steps} steps"
        attitude = np.array([(s.t, s.roll, s.pitch, s.roll_rate, s.pitch_rate,
                              s.arm_azimuth, s.arm_extension) for s in trace])
        thrusts = np.array([s.rotor_thrusts for s in trace])
        if not (np.isfinite(attitude).all() and np.isfinite(thrusts).all()):
            return "non-finite state"
        drift = np.abs(thrusts.sum(axis=1) - cfg.vehicle_mass_kg * flight.GRAVITY).max()
        if drift > 1e-9:
            return f"thrust sum drifts {drift:.3g} N from m*g"
        if tilt != np.abs(attitude[:, 1:3]).max():
            return f"max_tilt {tilt} disagrees with the trace"
        rows = csv.count("\n")
        if rows != steps + 1:
            return f"CSV has {rows} rows, expected {steps + 1}"
        return None


# field-survey ----------------------------------------------------------------

_SOIL = np.array([130, 100, 70])
_LEAF = np.array([60, 140, 50])
# Channel noise stays within +-4, so soil keeps 2G-R-B <= 16 and leaves >= 154
# against the threshold of 20, and both stay near gray 105 while the drawn
# lines are the only pixels at 255: Otsu's split isolates the lines.
_NOISE = 4
_EXG = vision.DEFAULT_EXG_THRESHOLD
_CIRCLE_RADII = (5, 13)
_LINE_VOTES = 40


def otsu_oracle(bins) -> int:
    """Brute-force Otsu over exact fractions; ties go to the lowest threshold."""
    total = sum(bins)
    total_sum = sum(v * b for v, b in enumerate(bins))
    best_t, best = 0, Fraction(-1)
    n0 = s0 = 0
    for t in range(256):
        n0 += bins[t]
        s0 += t * bins[t]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        score = n0 * n1 * (Fraction(s0, n0) - Fraction(total_sum - s0, n1)) ** 2
        if score > best:
            best, best_t = score, t
    return best_t


class FieldSurvey(Workload):
    """RGB field frames, vegetation patches on soil, ASCII P3 and binary P6.

    Per round: 3 binary frames (about 96, 160 and 224 px) and 2 ASCII frames
    (about 128 and 192 px), shuffled, so the median is a binary frame and the
    tail an ASCII one. Each frame also carries a circle edge image and a
    texture crop.
    """

    name = "field-survey"
    unit = "frames/s"
    throughput_name = "frames_per_s"
    CLASSES = (("P6", 96), ("P6", 160), ("P6", 224), ("P3", 128), ("P3", 192))

    def prepare(self, seed):
        self.rules = _rulebase(np.random.default_rng([seed, 10**6]))
        return []

    @staticmethod
    def _frame(rng, magic, size, rules):
        h, w = (size + int(rng.integers(-8, 9)) for _ in range(2))
        rgb = np.broadcast_to(_SOIL, (h, w, 3)).copy()
        yy, xx = np.mgrid[:h, :w]
        leaf = np.zeros((h, w), bool)
        for _ in range(int(rng.integers(3, 9))):
            r = rng.uniform(3, min(h, w) / 6)
            leaf |= (yy - rng.uniform(0, h)) ** 2 + (xx - rng.uniform(0, w)) ** 2 <= r * r
        rgb[leaf] = _LEAF
        rgb += rng.integers(-_NOISE, _NOISE + 1, size=rgb.shape)
        col, row = int(rng.integers(4, w - 4)), int(rng.integers(4, h - 4))
        rgb[:, col] = rgb[row, :] = 255
        leaf[:, col] = leaf[row, :] = False
        rgb = rgb.astype(np.uint8)
        edges, circle = _circle_edges(rng)
        theta = rng.uniform(0, math.pi)
        ty, tx = np.mgrid[:32, :32]
        phase = (tx * math.cos(theta) + ty * math.sin(theta)) / rng.uniform(5, 12)
        wave = np.cos(2 * math.pi * phase)
        crop = np.clip(128 + 60 * wave + rng.normal(0, 8, wave.shape), 0, 255).astype(np.uint8)
        encode = _pnm_ascii if magic == "P3" else _pnm
        return Item(magic, {"ppm": encode(rgb), "rules": rules, "edges": _pnm(edges),
                            "crop": _pnm(crop)},
                    extra={"rgb": rgb, "leaf_pixels": int(leaf.sum()), "circle": circle,
                           "lines": ((float(col), 0.0), (float(row), 90.0))})

    def round(self, rng):
        return [self._frame(rng, *self.CLASSES[i], self.rules)
                for i in rng.permutation(len(self.CLASSES))]

    def warmup(self, rng):
        return self._frame(rng, "P6", 64, _rulebase(rng))

    def run(self, item):
        p = item.payload
        img = raster.parse_pnm(p["ppm"])
        density = vision.green_density(img)
        dose = fuzzy.pesticide_dose(density.fraction)
        custom_dose = fuzzy.pesticide_dose(density.fraction, fuzzy.system_from_json(p["rules"]))
        gray = raster.to_grayscale(img)
        hist = raster.histogram(gray)
        t = vision.otsu_threshold(hist)
        mask = raster.Image.from_array(np.where(gray.to_array() > t, 255, 0).astype(np.uint8))
        lines = vision.hough_lines(mask, 1.0, threshold=_LINE_VOTES)
        circles = vision.hough_circles(raster.parse_pnm(p["edges"]), *_CIRCLE_RADII, threshold=15)
        maps = vision.gabor_bank(raster.parse_pnm(p["crop"]), vision.default_gabor_bank())
        features = np.stack([m.values.ravel() for m in maps], axis=1)
        components, _ = vision.pca_project(features, 2)
        return density, dose, custom_dose, gray, hist, t, lines, circles, components

    def check(self, item, out, err):
        if err is not None:
            return f"raised {err!r}"
        density, dose, custom_dose, gray, hist, t, lines, circles, components = out
        rgb = item.extra["rgb"].astype(np.int32)
        exg = 2 * rgb[:, :, 1] - rgb[:, :, 0] - rgb[:, :, 2]
        pixels = rgb.shape[0] * rgb.shape[1]
        if density.fraction != np.count_nonzero(exg > _EXG) / pixels:
            return f"green fraction {density.fraction} != numpy count"
        if density.fraction != item.extra["leaf_pixels"] / pixels:
            return f"green fraction {density.fraction} != drawn vegetation"
        if not (0.0 <= dose <= 10.0 and math.isfinite(custom_dose)):
            return f"dose {dose}, custom dose {custom_dose}"
        bins = np.bincount(gray.to_array().ravel(), minlength=256).tolist()
        if list(hist.bins) != bins:
            return "histogram disagrees with numpy bincount"
        if t != otsu_oracle(bins):
            return f"otsu {t} != exact oracle {otsu_oracle(bins)}"
        if not lines or not any(abs(lines[0].rho - rho) <= 1 and abs(lines[0].theta - theta) <= 1
                                for rho, theta in item.extra["lines"]):
            return f"strongest line {lines[:1]} matches no drawn line"
        cx, cy, r = item.extra["circle"]
        if not circles or max(abs(circles[0].cx - cx), abs(circles[0].cy - cy),
                              abs(circles[0].radius - r)) > 1:
            return f"strongest circle {circles[:1]} is not ({cx}, {cy}, r={r})"
        gram = components @ components.T
        if np.abs(gram - np.eye(len(gram))).max() > 1e-9:
            return "PCA components are not orthonormal to 1e-9"
        return None


# cli-batch -------------------------------------------------------------------

_SCHEMA_DIR = Path(vision.__file__).resolve().parent / "assets" / "schemas"


class CliBatch(Workload):
    """One fresh ``python -m aerobot.cli`` process per item, start to exit.

    A round calls every subcommand once on small fixtures, plus three calls
    that must fail (truncated PGM, missing file: exit 1; bad flag: exit 2).
    Fixtures are written to a temporary directory; the expected stdout of
    each call is taken from in-process ``cli.run`` before timing starts.
    """

    name = "cli-batch"
    unit = "calls/s"
    throughput_name = "calls_per_s"

    def __init__(self, workdir):
        super().__init__(workdir)
        self.python = sys.executable
        self.root = Path(vision.__file__).resolve().parents[2]
        self.env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.max_rss_kb = 0

    def _fixtures(self, rng, d: Path):
        # at least one erased block, so that inspect-sidewalk reaches the Hopfield recall
        erased = _erasures(rng, 12) or (int(rng.integers(0, 12)),)
        curb = sidewalk.generate_sidewalk(sidewalk.SidewalkParams(
            erased_blocks=erased, noise_sigma=5.0), seed=int(rng.integers(2**31)))
        (d / "curb.pgm").write_bytes(_pnm(curb.to_array()))
        wall = np.where(rng.random((64, 64)) < 0.4, 60, 190) + rng.integers(-20, 21, (64, 64))
        (d / "wall.pgm").write_bytes(_pnm(wall.astype(np.uint8)))
        rules = _rulebase(rng)
        (d / "field.ppm").write_bytes(FieldSurvey._frame(rng, "P6", 64, rules).payload["ppm"])
        (d / "rules.json").write_text(rules)
        lines = np.zeros((64, 64), np.uint8)
        lines[:, int(rng.integers(8, 56))] = 255
        lines[int(rng.integers(8, 56)), :] = 255
        (d / "lines.pgm").write_bytes(_pnm(lines))
        (d / "circle.pgm").write_bytes(_pnm(_circle_edges(rng)[0]))
        rows = ["name,grams,count"] + [f"part{i},{rng.uniform(5, 900):.1f},{rng.integers(1, 9)}"
                                       for i in range(int(rng.integers(4, 12)))]
        (d / "table.csv").write_text("\n".join(rows) + "\n")
        (d / "sim.json").write_text(HoverSim._config(rng, 0.05))
        (d / "truncated.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(100))

    def prepare(self, seed):
        import jsonschema

        rng = np.random.default_rng([seed, 10**6])
        d = self.workdir
        self._fixtures(rng, d)
        o = lambda name: str(d / name)  # noqa: E731
        seed_arg = str(int(rng.integers(0, 1000)))
        calls = [
            (0, "inspect-sidewalk", [o("curb.pgm"), "--overlay", o("overlay.pgm"),
                                     "--report", o("report.json")]),
            (0, "otsu", [o("wall.pgm"), "--out", o("mask.pgm")]),
            (0, "green-density", [o("field.ppm"), "--mask", o("green.pgm")]),
            (0, "dose", [o("field.ppm")]),
            (0, "dose", [o("field.ppm"), "--system", o("rules.json")]),
            (0, "detect-lines", [o("lines.pgm"), "--min-votes", "40"]),
            (0, "detect-circles", [o("circle.pgm"), "--r-min", "5", "--r-max", "13",
                                   "--min-votes", "15"]),
            (0, "thermal", ["--to-radiance", f"{rng.uniform(250, 350):.3f}"]),
            (0, "thermal", ["--to-temp", f"{rng.uniform(200, 600):.3f}"]),
            (0, "thrust", ["--mass-table", o("table.csv"), "--rotors", "8",
                           "--safety", f"{rng.uniform(1, 1.5):.2f}"]),
            (0, "simulate", ["--config", o("sim.json"), "--trace", o("trace.csv")]),
            (0, "nn-demo", ["--gradient-check", "--seed", seed_arg, "--layers", "2,3,1"]),
            (0, "nn-demo", ["--diagnose", "--seed", seed_arg, "--layers", "4,8,8,8,2",
                            "--activation", "relu"]),
            (1, "otsu", [o("truncated.pgm")]),
            (1, "otsu", [o("missing.pgm")]),
            (2, "thermal", ["--to-kelvin", "300"]),
        ]
        self.items = []
        checks = []
        for code, command, args in calls:
            argv = [command, *args]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                got = cli.run(argv)
            checks.append((f"in-process {' '.join(argv)}",
                           None if got == code else f"exit {got}, expected {code}"))
            schema = _SCHEMA_DIR / f"{command}.schema.json"
            validator = None
            if code == 0 and schema.exists():
                validator = jsonschema.Draft7Validator(json.loads(schema.read_text()))
            self.items.append(Item(command, {"argv": argv},
                                   extra={"code": code, "stdout": out.getvalue(),
                                          "validator": validator}))
        return checks

    def round(self, rng):
        return list(self.items)

    def warmup(self, rng):
        return Item("thermal", {"argv": ["thermal", "--to-radiance", "300"]})

    def run_in_process(self, item):
        """The warm-up a fresh process needs before its first call: cli.run in process."""
        with redirect_stdout(io.StringIO()):
            return cli.run(item.payload["argv"])

    def spawn(self, argv, out_dir: Path):
        """Run argv to exit; returns (exit code, stdout, child's peak RSS in KiB)."""
        out_path, err_path = out_dir / "stdout", out_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_text(), usage.ru_maxrss

    def run(self, item, launcher=None):
        prefix = launcher or [self.python, "-m", "aerobot.cli"]
        code, stdout, rss = self.spawn([*prefix, *item.payload["argv"]], self.workdir)
        self.max_rss_kb = max(self.max_rss_kb, rss)
        return code, stdout

    def run_traced(self, item, tracer):
        """Same call through the launcher, which traces cli.run in the child."""
        spans_path = self.workdir / "spans.json"
        out = self.run(item, [self.python, str(Path(__file__).with_name("child.py")),
                              "cli", str(spans_path)])
        tracer.adopt(json.loads(spans_path.read_text()))
        return out

    def check(self, item, out, err):
        if err is not None:
            return f"raised {err!r}"
        code, stdout = out
        if code != item.extra["code"]:
            return f"exit {code}, expected {item.extra['code']}"
        if stdout != item.extra["stdout"]:
            return "stdout differs from in-process cli.run"
        if item.extra["validator"] is not None:
            problems = [e.message for e in item.extra["validator"].iter_errors(json.loads(stdout))]
            if problems:
                return f"schema: {problems[0]}"
        if item.kind in ("detect-lines", "detect-circles") and stdout.count("\n") < 2:
            return "no Hough hit"
        return None


WORKLOADS = {w.name: w for w in (CurbSurvey, HoverSim, FieldSurvey, CliBatch)}
