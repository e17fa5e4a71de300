"""aerobot benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload curb-survey --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the program under test is imported from
``src/``, and the run fails when that tree is missing. Items run back to
back: the next starts only when the previous one has finished. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
every item runs once untraced and once traced (alternating which goes
first) and the run reports the per-layer metrics from the traced spans.

Stdout: the environment, a table of every metric with its unit and sample
count, and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full report and the span
log go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Numeric libraries get one thread; set before numpy loads, inherited by children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("curb-survey", "hover-sim", "field-survey", "cli-batch")
RUN_DEADLINE_S = 170
SETUP_REPEATS = 7
PROBE_REPEATS = 5


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so per-item handlers never swallow it."""


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {RUN_DEADLINE_S} s")


def _tail_percentile(n: int) -> float:
    """Highest percentile, to 0.1, with at least 10 samples beyond it (50 at least)."""
    return max(50.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0) if n else 50.0


def _timed_child(argv, timeout=60) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT, check=True)
    return time.perf_counter() - start, done.stdout


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "aerobot").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, samples: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "samples": samples,
    }


def _child(*args) -> list:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def measure_setup(name: str, seed: int) -> float:
    """Seconds from a fresh process to its first item done (import + warm-up item)."""
    return _timed_child(_child("setup", name, seed))[0]


def measure_cli_probes(repeats: int) -> dict:
    interp = [_timed_child([sys.executable, "-c", "pass"])[0] for _ in range(repeats)]
    code = ("import time; t = time.perf_counter(); import aerobot.cli; "
            "print(time.perf_counter() - t)")
    imports = [float(_timed_child([sys.executable, "-c", code])[1]) for _ in range(repeats)]
    return {"cli.interpreter_ms": statistics.median(interp) * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_items: int | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One run; returns the report (metrics with units and sample counts)."""
    import numpy as np
    import spans
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    wl = WORKLOADS[name](workdir)
    tracer = spans.Tracer() if trace else None
    executions = []   # [label, reason or None, item key]
    latencies = []    # untraced item wall times, s
    work = 0.0
    traced_wall = untraced_wall = 0.0
    clock = time.perf_counter
    try:
        for label, reason in wl.prepare(seed):
            executions.append([label, reason, None])
        wl.run(wl.warmup(np.random.default_rng([seed, 10**6 + 1])))

        def execute(item, no, traced):
            """Run and check one item; returns its wall time in seconds."""
            err = out = None
            run_traced = getattr(wl, "run_traced", None) if traced else None
            if traced:
                if run_traced is None:
                    tracer.install()
                tracer.begin(spans.ITEM, no)
            start = clock()
            try:
                out = run_traced(item, tracer) if run_traced else wl.run(item)
            except Exception as exc:  # a failed item is reported, not fatal
                err = exc
            elapsed = clock() - start
            if traced:
                elapsed = tracer.end()
                tracer.uninstall()
            reason = wl.check(item, out, err)
            executions.append([f"#{no} {item.kind} {_describe(item)}", reason, item.key])
            return elapsed

        # Set-up probes are spread over the run, so that they sample the same
        # drift in machine speed as the items; the loop's deadline moves past them.
        setups = []
        start = clock()
        deadline = start + seconds
        no = 0
        round_no = 0
        while no < (max_items or math.inf) and clock() < deadline:
            if not trace and len(setups) < setup_repeats and (
                    clock() - start >= len(setups) * seconds / setup_repeats):
                setups.append(measure_setup(name, seed))
                deadline += setups[-1]
            for position, item in enumerate(wl.round(np.random.default_rng([seed, round_no]))):
                item.key = (round_no, position)
                if no >= (max_items or math.inf) or clock() >= deadline:
                    break
                if trace:
                    for traced in ((False, True) if no % 2 == 0 else (True, False)):
                        wall = execute(item, no, traced)
                        traced_wall += wall if traced else 0.0
                        untraced_wall += 0.0 if traced else wall
                else:
                    latencies.append(execute(item, no, False))
                    work += item.work
                no += 1
            round_no += 1
        while not trace and len(setups) < setup_repeats:
            setups.append(measure_setup(name, seed))

        failed_items, notes = wl.finish()
        failed_keys = dict(failed_items)
        for ex in executions:
            if ex[1] is None and ex[2] in failed_keys:
                ex[1] = failed_keys[ex[2]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(executions)
    failures = [(label, reason) for label, reason, _ in executions if reason is not None]
    metrics = {}
    if trace:
        layer = spans.layer_metrics(tracer.spans, no)
        layer.update(measure_cli_probes(PROBE_REPEATS))
        layer["trace.overhead_fraction"] = traced_wall / untraced_wall - 1.0
        notes["self_ms_plus_unattributed_ms"] = layer["unattributed_ms"] + sum(
            v for k, v in layer.items() if k.endswith(".self_ms"))
        for key, value in layer.items():
            metrics[key] = (value, _layer_unit(key), no)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(spans_path)
    else:
        n = len(latencies)
        lat_ms = [t * 1e3 for t in latencies]
        pct = _tail_percentile(n)
        rss_kb = getattr(wl, "max_rss_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "throughput": (work / sum(latencies), "work/s", n),
            wl.throughput_name: (work / sum(latencies), wl.unit, n),
            "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms", n),
            "latency_tail_ms": (float(np.percentile(lat_ms, pct)), "ms", n),
            "failed_fraction": (len(failures) / attempted, "fraction", attempted),
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
        }
        notes = {**notes, "latency_tail_percentile": pct}
    samples = {key: n for key, (_, _, n) in metrics.items()}
    return {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "environment": environment(seed, samples),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "metrics": metrics, "notes": notes,
    }


def _describe(item) -> str:
    extra = item.extra
    if "size" in extra:
        return "{}x{} sigma={}".format(*extra["size"], extra["sigma"])
    if "rgb" in extra:
        return "{1}x{0}".format(*extra["rgb"].shape)
    if "argv" in item.payload:
        return " ".join(item.payload["argv"])
    return f"{item.work:g} s"


def _layer_unit(key: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_ms", "ms"), ("_us_per_call", "us"),
                         ("_us_per_step", "us"), ("mb_per_s", "MB/s"), ("mpix_per_s", "Mpix/s"),
                         ("poses_per_s", "1/s"), ("sweeps_per_recall", "count")):
        if key.endswith(suffix):
            return unit
    return "fraction"


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"perfbench {report['workload']} seed={env['seed']} trace={report['trace']} "
          f"seconds={report['seconds']:g}")
    print("environment " + json.dumps({k: v for k, v in env.items() if k != "samples"}))
    tail = report["notes"].get("latency_tail_percentile")
    for key, (value, unit, n) in report["metrics"].items():
        note = f"  (p{tail:g})" if key == "latency_tail_ms" else ""
        print(f"  {key:<44} {value:>14.6g} {unit:<9} n={n}{note}")
    for key, value in report["notes"].items():
        if key != "latency_tail_percentile":
            print(f"  note {key} = {value}")
    print(f"  failed {report['failed']} of {report['attempted']} attempted")
    for label, reason in report["failures"][:20]:
        print(f"  FAIL {label}: {reason}")


def result_line(report: dict, declared: list) -> dict:
    metrics = report["metrics"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {key: {"value": metrics[key][0], "unit": metrics[key][1]} for key in declared},
    }


def _declared(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(args) -> dict:
    """Every workload in its own process; relays their tables, sums their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT, check=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def use_source_tree() -> bool:
    """Import aerobot from src/, in this process and in every child it starts."""
    if not (SRC / "aerobot" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_source_tree():
        sys.stderr.write(f"perfbench: no aerobot source tree under {SRC}\n")
        return 1
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    import aerobot

    if Path(aerobot.__file__).resolve().parent != (SRC / "aerobot").resolve():
        sys.stderr.write(f"perfbench: aerobot imported from {aerobot.__file__}\n")
        return 1
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    print_report(report)
    print(json.dumps(result_line(report, _declared(bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
