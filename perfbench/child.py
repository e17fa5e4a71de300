"""Child processes the benchmark starts.

    child.py setup <workload> <seed>
        A fresh process that imports aerobot and completes one warm-up item;
        the parent times it from start to exit (the setup_s metric).
    child.py cli <spans.json> <aerobot argv...>
        The traced counterpart of ``python -m aerobot.cli <argv...>``:
        installs the layer wrappers, runs ``cli.run(argv)``, writes its spans
        to spans.json and exits with the CLI's exit code. Interpreter start
        and imports stay outside every layer span (unattributed).
"""

import json
import sys
import tempfile
from pathlib import Path


def setup(name: str, seed: int) -> int:
    import numpy as np
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent / "out") as tmp:
        wl = WORKLOADS[name](Path(tmp))
        item = wl.warmup(np.random.default_rng([seed, 10**6 + 1]))
        getattr(wl, "run_in_process", wl.run)(item)
    return 0


def traced_cli(spans_path: str, argv: list) -> int:
    from spans import Tracer

    import aerobot.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = aerobot.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(rest[0], int(rest[1])))
    sys.exit(traced_cli(rest[0], rest[1:]))
