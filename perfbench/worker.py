"""One benchmark run of one workload, in a fresh process started by ``run.py``.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
           --trace 0|1 --result PATH --workdir DIR

With ``--trace 0`` it repeats passes of the workload for ``S`` seconds and
reports the end-to-end metrics (medians over calls).  With ``--trace 1`` it
alternates an untraced pass and a traced pass for ``S`` seconds and reports
the per-layer metrics of the traced passes.  Either way it writes one JSON
object to ``--result``: ``correct``, ``attempted``, ``failed``, ``problems``,
``metrics`` and ``env``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hermfair  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Sizes, Workload  # noqa: E402

REFERENCE_EVERY_S = 0.25


def reference_kernel() -> int:
    """Fixed work that runs no hermfair code: an interpreter loop and numpy."""
    total = 0
    for i in range(60_000):
        total += i * i % 7
    np.sort(np.sin(np.arange(120_000, dtype=np.float64)))
    return total


class Reference:
    """Reads call times in units of a reference kernel timed around them.

    The host's speed drifts by tens of percent within minutes, for all code
    alike.  The kernel is timed at most every REFERENCE_EVERY_S between
    calls; each call's time is divided by the mean of the kernel times just
    before and just after it, which cancels most of the drift.
    """

    def __init__(self, samples: dict[str, list[tuple[float, float]]]) -> None:
        self.samples = samples
        self._pending: list[tuple[str, float]] = []
        self._before = self._time_kernel()
        self._due = time.perf_counter() + REFERENCE_EVERY_S

    @staticmethod
    def _time_kernel() -> float:
        t0 = time.perf_counter()
        reference_kernel()
        return 1000.0 * (time.perf_counter() - t0)

    def add(self, metric: str, ms_per_unit: float) -> None:
        self._pending.append((metric, ms_per_unit))
        if time.perf_counter() >= self._due:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        after = self._time_kernel()
        for metric, ms in self._pending:
            self.samples[metric].append((ms, (self._before + after) / 2))
        self._pending.clear()
        self._before = after
        self._due = time.perf_counter() + REFERENCE_EVERY_S


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def run_pass(ops, tally: Tally, tracer: Tracer | None = None,
             reference: Reference | None = None):
    """Run every operation once; return ``(seconds, units)`` per metric and
    the pass's total timed seconds.  Checks run between calls, untimed;
    so does the reference kernel."""
    spent: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    wall = 0.0
    for op in ops:
        request = tracer.request() if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with request:
                out = op.run()
        except Exception as exc:  # count it, report it, keep the run going
            dt = time.perf_counter() - t0
            failed, problems = op.attempted, [f"{op.metric}: {type(exc).__name__}: {exc}"]
        else:
            dt = time.perf_counter() - t0
            failed, problems = op.check(out)
        wall += dt
        spent[op.metric][0] += dt
        spent[op.metric][1] += op.units
        tally.attempted += op.attempted
        tally.failed += failed
        tally.problems += problems
        if reference is not None:
            reference.add(op.metric, 1000.0 * dt / op.units)
    if reference is not None:
        reference.flush()
    return spent, wall


def measure(workload: Workload, seconds: float, tally: Tally):
    """Per metric, the median over every call of ms per unit of work
    (``*_ms``) and of that time over the reference time around the call
    (``*_rel``); also the median over passes of units per second."""
    ops = workload.ops()
    samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
    reference = Reference(samples)
    throughput = []
    start = time.perf_counter()
    while True:
        spent, wall = run_pass(ops, tally, reference=reference)
        throughput.append(sum(units for _, units in spent.values()) / wall)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {"reference_ms": statistics.median(r for pairs in samples.values() for _, r in pairs)}
    for metric, pairs in samples.items():
        metrics[metric] = statistics.median(ms for ms, _ in pairs)
        metrics[metric.replace("_ms", "_rel")] = statistics.median(ms / r for ms, r in pairs)
    return metrics, statistics.median(throughput)


def layer_metrics(tracer: Tracer, wall: float, untraced: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass.  Times are self times summed
    over the pass; counts are per pass."""
    st = tracer.self_times()
    c = tracer.counts

    def ms(name: str) -> float:
        return 1000.0 * st.get(name, 0.0)

    layer_self = {layer: sum(v for k, v in st.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    cells = tracer.durations("scenarios.cell")
    p50, p90 = (1000.0 * float(np.percentile(cells, q)) for q in (50, 90)) if cells else (0.0, 0.0)
    return {
        "population.sample_ms": ms("population.sample"),
        "population.sample_calls": c["population.sample_calls"],
        "population.csv_read_s": st.get("population.csv_read", 0.0),
        "population.csv_reads": c["population.csv_reads"],
        "population.csv_bytes": c["population.csv_bytes"],
        "population.self_ms": 1000.0 * layer_self["population"],
        "model.gains_ms": ms("model.gains"),
        "model.gap_ms": ms("model.gap"),
        "model.objective_ms": ms("model.objective"),
        "model.calls": sum(1 for s in tracer.spans if s[3].startswith("model.")),
        "model.self_ms": 1000.0 * layer_self["model"],
        "solver.rows_ms": ms("solver.rows"),
        "solver.rows_retained": c["solver.rows_retained"],
        "solver.unconstrained_ms": ms("solver.unconstrained"),
        "solver.one_row_ms": ms("solver.one_row"),
        "solver.three_row_ms": ms("solver.three_row"),
        "solver.linprog_ms": ms("solver.linprog"),
        "solver.linprog_calls": c["solver.linprog_calls"],
        "solver.lp_matrix_entries": c["solver.lp_matrix_entries"],
        "solver.oracle_ms": ms("solver.oracle"),
        "solver.solves": c["solver.solves"],
        "solver.failed": c["solver.failed"],
        "solver.tolerance_relaxed": c["solver.tolerance_relaxed"],
        "solver.fractional_coords": c["solver.fractional_coords"],
        "solver.self_ms": 1000.0 * layer_self["solver"],
        "scenarios.cell_ms_p50": p50,
        "scenarios.cell_ms_p90": p90,
        "scenarios.cells": len(cells),
        "scenarios.aggregate_ms": ms("scenarios.aggregate"),
        "scenarios.write_ms": ms("scenarios.write"),
        "scenarios.records": c["scenarios.records"],
        "scenarios.failed_records": c["scenarios.failed_records"],
        "scenarios.self_ms": 1000.0 * layer_self["scenarios"],
        "stats.chi2_ms": ms("stats.chi2"),
        "stats.proportions_ms": ms("stats.proportions"),
        "stats.wilson_ms": ms("stats.wilson"),
        "stats.tables": c["stats.tables"],
        "stats.self_ms": 1000.0 * layer_self["stats"],
        "cli.self_s": layer_self["cli"],
        "trace.wall_ms": 1000.0 * wall,
        "trace.untraced_ms": 1000.0 * untraced,
        "trace.overhead_frac": (wall - untraced) / untraced,
        "trace.uncovered_ms": 1000.0 * (wall - sum(layer_self.values())),
        "trace.spans": len(tracer.spans),
    }


def measure_traced(workload: Workload, seconds: float, tally: Tally, spans_path: Path):
    ops = workload.ops()
    per_pass: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    while True:
        _, untraced = run_pass(ops, tally)
        tracer = Tracer()
        with tracer.installed():
            _, wall = run_pass(ops, tally, tracer)
        for name, value in layer_metrics(tracer, wall, untraced).items():
            per_pass[name].append(value)
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(str(spans_path))  # the last traced pass
    metrics = {name: statistics.median(v) for name, v in per_pass.items()}
    metrics["trace.passes"] = len(per_pass["trace.wall_ms"])
    return metrics


def environment() -> dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        llc = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hermfair": hermfair.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path, sizes: Sizes = Sizes()) -> dict[str, object]:
    tally = Tally()
    units_per_s = None
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, sizes, workdir)
        workload.setup()
        if trace:
            metrics = measure_traced(workload, seconds, tally, spans_path)
        else:
            metrics, units_per_s = measure(workload, seconds, tally)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tally.problems += workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:50],
        "metrics": metrics,
        "units_per_s": units_per_s,
        "env": environment(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(hermfair.__file__).resolve().parent.parent != src:
        print(f"hermfair imported from {hermfair.__file__}, not from {src}", file=sys.stderr)
        return 2
    result_path = Path(args.result)
    # The CLI prints a progress line per call; send it with the other diagnostics.
    with contextlib.redirect_stdout(sys.stderr):
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     Path(args.workdir), result_path.with_suffix(".spans.jsonl"))
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
