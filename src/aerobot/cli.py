"""Batch command line: every pipeline behind file-based, scriptable subcommands.

Exit codes: 0 success, 1 an AerobotError (bad image, no strip, unreadable file, ...)
as one `error: <Type>: ...` line on stderr, 2 usage; any other exception is a bug
and shows its traceback. A command returns its payload (JSON, or CSV for the Hough
detectors) and the output files asked for; only `run` writes them, files first, then stdout.
A failed read or write removes the output paths the call created, never one that existed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import AerobotError, FileAccess, ParseError

# Each command imports its layers when it runs, after reading its input, so
# thermal, thrust, usage errors, unreadable files and bad simulation configs
# never load numpy; layer functions are looked up on their modules at call time.

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# literals, so that building the parser loads no numpy; a test keeps them
# equal to vision.DEFAULT_EXG_THRESHOLD and the neural activation kinds
DEFAULT_EXG_THRESHOLD = 20
_ACTIVATIONS = {"sigmoid": "sigmoid", "relu": "relu", "leaky": "leaky_relu"}


def _read_image(path: str):
    data = Path(path).read_bytes()
    from . import raster
    return raster.parse_pnm(data)


def _read_text(path: str) -> str:
    """A rulebase, config or mass table; bytes that are not UTF-8 raise ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _cmd_otsu(args) -> tuple:
    img = _read_image(args.image)
    import numpy as np

    from . import raster, vision
    img = raster.to_grayscale(img)
    t = vision.otsu_threshold(raster.histogram(img))
    files = []
    if args.out:
        mask = np.where(img.to_array() > t, 255, 0).astype(np.uint8)
        files.append((args.out, raster.write_pnm(raster.Image.from_array(mask))))
    return {"threshold": t}, files


def _cmd_green_density(args) -> tuple:
    img = _read_image(args.image)
    from . import raster, vision
    result = vision.green_density(img, exg_threshold=args.threshold)
    files = [(args.mask, raster.write_pnm(result.mask))] if args.mask else []
    return {"green_fraction": result.fraction, "exg_threshold": args.threshold}, files


def _cmd_dose(args) -> tuple:
    data = Path(args.image).read_bytes()
    rules = _read_text(args.system) if args.system else None
    from . import fuzzy, raster, vision
    result = vision.green_density(raster.parse_pnm(data))
    system = None if rules is None else fuzzy.system_from_json(rules)
    dose = fuzzy.pesticide_dose(result.fraction, system)
    return {"green_fraction": result.fraction, "dose_liters": dose}, []


def _cmd_detect_lines(args) -> tuple:
    img = _read_image(args.image)
    from . import raster, vision
    hits = vision.hough_lines(raster.to_grayscale(img), theta_step=args.theta_step,
                              threshold=args.min_votes)
    return vision.line_hits_csv(hits), []


def _cmd_detect_circles(args) -> tuple:
    img = _read_image(args.image)
    from . import raster, vision
    hits = vision.hough_circles(raster.to_grayscale(img), args.r_min, args.r_max,
                                threshold=args.min_votes)
    return vision.circle_hits_csv(hits), []


def _cmd_inspect_sidewalk(args) -> tuple:
    img = _read_image(args.image)
    from . import raster, sidewalk
    config = sidewalk.InspectConfig(sigma=args.sigma, block_length=args.block)
    report, overlay = sidewalk.inspect(img, config)
    doc = report.to_dict()
    files = [(args.overlay, raster.write_pnm(overlay))] if args.overlay else []
    if args.report:
        files.append((args.report, (json.dumps(doc, indent=2) + "\n").encode()))
    return doc, files


def _cmd_thermal(args) -> tuple:
    from . import thermal
    if args.to_temp is not None:
        return {"temperature_k": thermal.radiance_to_temperature(args.to_temp)}, []
    return {"radiance_w_m2": thermal.temperature_to_radiance(args.to_radiance)}, []


def _cmd_thrust(args) -> tuple:
    from . import sizing
    table = sizing.load_mass_table(_read_text(args.mass_table))
    total_g = sizing.total_mass(table)
    spec = sizing.ThrustSpec(total_g / 1000.0, args.rotors, args.safety)
    kgf = sizing.thrust_per_rotor(spec)
    return {
        "total_g": int(total_g) if float(total_g).is_integer() else total_g,
        "per_rotor_kgf": kgf,
        "per_rotor_n": sizing.kgf_to_newtons(kgf),
    }, []


def _cmd_simulate(args) -> tuple:
    from . import sizing
    cfg = sizing.SimConfig.from_json(_read_text(args.config))
    from . import flight
    trace = flight.simulate_hover(cfg)
    files = [(args.trace, flight.trace_to_csv(trace).encode())] if args.trace else []
    return {
        "steps": len(trace),
        "controller": cfg.controller,
        "max_abs_roll_rad": float(abs(trace.roll).max()),
        "max_abs_pitch_rad": float(abs(trace.pitch).max()),
        "max_abs_tilt_rad": flight.max_tilt(trace),
        "final_roll_rad": float(trace.roll[-1]),
        "final_pitch_rad": float(trace.pitch[-1]),
    }, files


def _layer_sizes(text: str) -> tuple:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad layer list {text!r}") from None


def _cmd_nn_demo(args) -> tuple:
    import numpy as np

    from . import neural
    sizes = args.layers
    activation = neural.Activation(_ACTIVATIONS[args.activation])
    net = neural.mlp_init(sizes, activation, args.seed)
    rng = np.random.default_rng(args.seed)
    doc = {"mode": "gradient-check" if args.gradient_check else "diagnose",
           "layers": list(sizes), "activation": args.activation, "seed": args.seed}
    if args.gradient_check:
        x = rng.uniform(-1.0, 1.0, size=sizes[0])
        target = rng.uniform(0.0, 1.0, size=sizes[-1])
        doc["max_relative_error"] = neural.gradient_check(net, x, target)
    else:
        dataset = rng.uniform(0.0, 1.0, size=(32, sizes[0]))
        report = neural.diagnose(net, dataset)
        doc["layer_mean_abs_grad"] = list(report.layer_mean_abs_grad)
        doc["dead_neurons"] = [list(d) for d in report.dead_neurons]
    return doc, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aerobot",
                                     description="Aerial-robot perception and control toolbox.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("otsu", help="automatic gray threshold of a PGM image")
    p.add_argument("image")
    p.add_argument("--out", help="write the binarized mask as PGM")
    p.set_defaults(func=_cmd_otsu)

    p = sub.add_parser("green-density", help="excess-green vegetation fraction of a PPM image")
    p.add_argument("image")
    p.add_argument("--threshold", type=int, default=DEFAULT_EXG_THRESHOLD,
                   help="excess-green cutoff (default %(default)s)")
    p.add_argument("--mask", help="write the green mask as PGM")
    p.set_defaults(func=_cmd_green_density)

    p = sub.add_parser("dose", help="pesticide dose from the image's green density")
    p.add_argument("image")
    p.add_argument("--system", help="fuzzy system JSON replacing the built-in dosing rules")
    p.set_defaults(func=_cmd_dose)

    p = sub.add_parser("detect-lines", help="Hough line hits of a binary edge image (CSV)")
    p.add_argument("image")
    p.add_argument("--theta-step", type=float, default=1.0)
    p.add_argument("--min-votes", type=int, default=50)
    p.set_defaults(func=_cmd_detect_lines)

    p = sub.add_parser("detect-circles", help="Hough circle hits of a binary edge image (CSV)")
    p.add_argument("image")
    p.add_argument("--r-min", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--min-votes", type=int, default=20)
    p.set_defaults(func=_cmd_detect_circles)

    p = sub.add_parser("inspect-sidewalk", help="flag erased curb blocks of a PGM image")
    p.add_argument("image")
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--block", type=int, default=8)
    p.add_argument("--overlay", help="write the flagged-block overlay as PGM")
    p.add_argument("--report", help="write the JSON report to a file as well")
    p.set_defaults(func=_cmd_inspect_sidewalk)

    p = sub.add_parser("thermal", help="blackbody radiance/temperature conversion")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-temp", type=float, metavar="P",
                       help="power density W/m^2 to kelvin")
    group.add_argument("--to-radiance", type=float, metavar="T",
                       help="kelvin to power density W/m^2")
    p.set_defaults(func=_cmd_thermal)

    p = sub.add_parser("thrust", help="per-rotor thrust from a mass table CSV")
    p.add_argument("--mass-table", required=True)
    p.add_argument("--rotors", type=int, required=True)
    p.add_argument("--safety", type=float, default=1.2)
    p.set_defaults(func=_cmd_thrust)

    p = sub.add_parser("simulate", help="hover simulation from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", help="write the per-step trace CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("nn-demo", help="gradient checking and pathology diagnostics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gradient-check", action="store_true")
    group.add_argument("--diagnose", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--layers", type=_layer_sizes, default=(2, 3, 1),
                   help="comma-separated layer sizes")
    p.add_argument("--activation", choices=sorted(_ACTIVATIONS), default="sigmoid")
    p.set_defaults(func=_cmd_nn_demo)

    return parser


def run(argv=None) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    created = []  # output paths this call made, the only ones a failure removes
    try:
        try:
            payload, files = args.func(args)
            created = [path for path, _ in files if not os.path.lexists(path)]
            for path, data in files:
                Path(path).write_bytes(data)
            sys.stdout.write(payload if isinstance(payload, str)
                             else json.dumps(payload, indent=2) + "\n")
        except OSError as exc:  # the one place a file's failure becomes a domain error
            for path in filter(os.path.lexists, created):  # one it could not make is absent
                Path(path).unlink()
            raise FileAccess(str(exc)) from exc
    except AerobotError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_DOMAIN
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
