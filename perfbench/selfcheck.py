"""Self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

Runs every workload for one item, untraced and traced, and checks that each
run passes its correctness checks, reports every metric BENCHMARK.json
declares as a finite number, records its environment, and that in the
traced run the layer self times plus unattributed_ms add up to the item wall
time. Then checks that run.py refuses to run, printing no result, in a copy
holding only BENCHMARK.json and perfbench/. Exits 0 when all hold.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread cap before numpy loads
import spans


def check_run(name: str, trace: bool) -> list:
    report = run.run_workload(name, seed=7, seconds=60, trace=trace, max_items=1,
                              setup_repeats=1)
    problems = [f"{name}: {label}: {reason}" for label, reason in report["failures"]]
    if report["attempted"] < 1:
        problems.append(f"{name}: nothing attempted")
    result = run.result_line(report, run._declared(trace))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    for key, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
            problems.append(f"{name}: metric {key} = {metric['value']!r}")
        if metric["unit"] != units[key]:
            problems.append(f"{name}: metric {key} in {metric['unit']}, declared {units[key]}")
    env = report["environment"]
    for key in ("python", "numpy", "nproc", "blas_threads", "seed", "git_commit", "samples"):
        if key not in env:
            problems.append(f"{name}: environment lacks {key}")
    if trace:
        total = report["notes"]["self_ms_plus_unattributed_ms"]
        wall = report["metrics"]["trace.item_wall_ms"][0]
        if not math.isclose(total, wall, rel_tol=1e-9):
            problems.append(f"{name}: self times add to {total} ms, item wall {wall} ms")
        spans_path = run.OUT / f"spans-{name}-seed7.jsonl"
        records = [json.loads(line) for line in spans_path.read_text().splitlines()]
        own = spans.self_times(records)
        for i, rec in enumerate(records):
            if rec[0] == spans.ITEM:
                inside = sum(t for r, t in zip(records, own) if r[4] == rec[4])
                if not math.isclose(inside, rec[2] - rec[1], rel_tol=1e-9):
                    problems.append(f"{name}: item {rec[4]} self times add to {inside} s")
    return problems


def check_refuses_without_source() -> list:
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curb-survey",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=120)
    if done.returncode == 0 or done.stdout.strip():
        return ["run.py ran without the source tree"]
    return []


def main() -> int:
    if not run.use_source_tree():
        print(f"selfcheck: no aerobot source tree under {run.SRC}")
        return 1
    run.OUT.mkdir(exist_ok=True)
    problems = []
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            found = check_run(name, trace)
            print(f"{name} trace={int(trace)}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_refuses_without_source()
    for problem in problems:
        print("  " + problem)
    print("selfcheck " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
