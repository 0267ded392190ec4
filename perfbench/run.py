"""Benchmark launcher for hermfair.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; it benchmarks the library under ``src/`` of the checkout
that holds this file and writes only under ``.perfbench-work/`` there.

With ``--trace 0`` it measures ``setup_s`` (median time for a fresh
interpreter to import ``hermfair.cli``) and then runs the workload in a
fresh worker process, which reports the other end-to-end metrics.  With
``--trace 1`` the worker makes the traced run and reports the per-layer
metrics instead.  BLAS and OpenMP threads are capped at the number of usable
CPUs for every child process.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when every correctness check passed.

``--workload all`` runs every workload untraced and prints the end-to-end
figures under the names a reader of the paper's runs would use
(``sweep_cells_per_s``, ``allocate_one_row_s``, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3  # timed imports, after one untimed import that compiles bytecode
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        keep = current.isdigit() and 0 < int(current) < nproc
        env[var] = current if keep else str(nproc)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict[str, str]) -> float:
    cmd = [sys.executable, "-c", "import hermfair.cli"]
    times = []
    for probe in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL)
        if probe:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in fresh processes; returns the worker's result plus setup_s."""
    start = time.perf_counter()
    if not (ROOT / "src" / "hermfair" / "__init__.py").is_file():
        raise BenchError(f"no hermfair sources under {ROOT / 'src'}")
    env = child_env()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    result_path = results / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    extra = {}
    if not trace:
        extra["setup_s"] = measure_setup(env)
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--result", str(result_path),
        "--workdir", str(WORK / f"run-{tag}-{os.getpid()}"),
    ]
    budget = TIME_LIMIT_S - (time.perf_counter() - start)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=budget, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {budget:.0f} s") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["metrics"].update(extra)
    return result


def report(result: dict, declared: list[dict]) -> dict:
    """Keep exactly the declared metrics, with their declared units."""
    measured = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print("env " + json.dumps(result["env"]))
    for m in declared:
        print(f"{m['name']:28s} {measured[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
    names = {m["name"] for m in declared}
    for name, value in measured.items():
        if name not in names:
            print(f"{name:28s} {value:.6g} (not declared)")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def run_all(workloads: list[str], seed: int, seconds: int) -> bool:
    """Every workload untraced, printed under the paper-facing metric names."""
    rows = []
    ok = True
    for name in workloads:
        result = run_one(name, seed, seconds, 0)
        m = result["metrics"]
        ok = ok and result["correct"]
        named = {
            "sweep_cells": [("sweep_cells_per_s", result["units_per_s"], "1/s", "higher")],
            "large_allocate": [("allocate_one_row_s", m["op_a_ms"] / 1000, "s", "lower"),
                               ("allocate_three_row_s", m["op_b_ms"] / 1000, "s", "lower")],
            "small_instances": [("oracle_instances_per_s", 1000 / m["op_a_ms"], "1/s", "higher"),
                                ("survey_tables_per_s", 1000 / m["op_b_ms"], "1/s", "higher")],
        }[name]
        named += [
            ("setup_s", m["setup_s"], "s", "lower"),
            ("peak_rss_mb", m["peak_rss_mb"], "MB", "lower"),
            ("failed_frac", result["failed"] / result["attempted"], "fraction", "lower"),
        ]
        rows += [(name, *row) for row in named]
        for problem in result["problems"]:
            print(f"{name}: check failed: {problem}", file=sys.stderr)
    print(f"{'workload':16s} {'metric':24s} {'value':>12s} unit")
    for workload, metric, value, unit, better in rows:
        print(f"{workload:16s} {metric:24s} {value:12.6g} {unit} ({better} is better)")
    return ok


def main(argv: list[str] | None = None) -> int:
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="hermfair benchmark")
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        if args.workload == "all":
            return 0 if run_all(workloads, args.seed, args.seconds) else 1
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        line = report(result, bench["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
