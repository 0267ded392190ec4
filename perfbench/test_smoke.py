"""Tiny-size smoke check of the benchmark.

Run with ``python3 -m pytest perfbench/test_smoke.py``; it takes a few
seconds and is not part of the library's test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Sizes, SmallInstances, check_summary  # noqa: E402

import hermfair.solver  # noqa: E402

TINY = Sizes(
    sweep_reps=1, sweep_users=40, sweep_grid_points=2,
    allocate_users=200, allocate_populations=1,
    instances_per_n=1, tables_per_shape=1,
)
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_checks_and_reports_every_metric(name, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = worker.run(name, 3, 0, trace, tmp_path / "work", spans, TINY)
    assert result["correct"], result["problems"]
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = {m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    # setup_s is measured by the launcher, not the worker
    assert declared - {"setup_s"} <= set(result["metrics"])
    assert not (tmp_path / "work").exists()
    if trace:
        m = result["metrics"]
        layers = sum(m[f"{layer}.self_ms"] for layer in LAYERS if layer != "cli")
        accounted = layers + 1000 * m["cli.self_s"] + m["trace.uncovered_ms"]
        assert accounted == pytest.approx(m["trace.wall_ms"], rel=1e-9)
        assert spans.read_text().count("\n") == m["trace.spans"]


def test_inputs_follow_the_seed(tmp_path):
    a, b, c = (SmallInstances(seed, TINY, tmp_path) for seed in (5, 5, 6))
    first = [x for batch in a.instance_batches for x in batch]
    same = [x for batch in b.instance_batches for x in batch]
    other = [x for batch in c.instance_batches for x in batch]
    assert all(x[0] == y[0] and x[1] == y[1] for x, y in zip(first, same))
    assert any(x[0] != y[0] for x, y in zip(first, other))


def test_tracer_restores_every_binding():
    before = hermfair.solver.linprog
    tracer = Tracer()
    with tracer.installed():
        assert hermfair.solver.linprog is not before
    assert hermfair.solver.linprog is before
    assert not tracer.missing


def test_summary_check_flags_a_gap_over_tolerance(tmp_path):
    summary = {"n_users": 10, "constraints": ["parity_exposure"], "tolerance": 1e-6,
               "parity_gap": 2e-6, "eo_gap": 0.5, "eho_gap": 0.5}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert check_summary(tmp_path, 10)
    summary["parity_gap"] = 1e-6
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert not check_summary(tmp_path, 10)


def test_launcher_fails_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_cells", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
