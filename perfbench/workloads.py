"""The three benchmark workloads: inputs made from the seed, timed operations, checks.

A workload is a fixed list of operations, one *pass*.  The runner calls them
in a closed loop from one caller (each call starts after the previous one
returns) and checks every call's output outside the timed region.  Each
operation feeds one of two end-to-end metrics, ``op_a_ms`` and ``op_b_ms``,
which are the median over calls of milliseconds per unit of work:

===============  ===============================  ==================================
workload         op_a_ms                          op_b_ms
===============  ===============================  ==================================
sweep_cells      per cell of ``sweep`` scenario A per cell of ``sweep`` scenario gamma
large_allocate   per ``allocate --parity``        per ``allocate --parity --eo --eho``
small_instances  per oracle-checked instance      per survey table
===============  ===============================  ==================================
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.stats import chi2_contingency

import hermfair.cli as cli
from hermfair import solver, stats
from hermfair.model import ConstraintSet, ModelParams, Population
from hermfair.population import PopulationSpec, sample_population, subseed
from hermfair.scenarios import builtin_scenario
from hermfair.solver import SolveMode, SolveRequest

# Slack allowed on top of a request tolerance before a realized gap counts
# as a violation; the solver's own residual bound.
GAP_SLACK = 1e-8
OBJECTIVE_SLACK = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  The defaults are the benchmark; tests shrink them."""

    sweep_reps: int = 3
    sweep_users: int = 1000  # per group
    sweep_grid_points: int | None = None  # None keeps each scenario's default grid
    allocate_users: int = 100_000  # per group
    allocate_populations: int = 6
    instances_per_n: int = 10  # oracle instances for each n in 2..14
    tables_per_shape: int = 10  # survey tables for each (rows, cols) in 2..5 x 2..5


@dataclass
class Op:
    """One timed call.  ``check`` runs untimed on its return value.

    ``check`` returns ``(failed operations, problems)``; ``attempted`` is the
    number of operations the call performs.
    """

    metric: str
    units: int
    attempted: int
    run: Callable[[], Any]
    check: Callable[[Any], tuple[int, list[str]]]


class Workload:
    name = ""

    def setup(self) -> None:
        """Untimed preparation of inputs on disk."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Untimed checks run once, after any tracing is removed."""
        return []


def _cli(argv: list[str]) -> int:
    # Resolved at call time so that the traced run sees its wrapped ``main``.
    return cli.main(argv)


def _rc_problem(rc: int, what: str) -> list[str]:
    return [] if rc == 0 else [f"{what} exited with code {rc}"]


# ---------------------------------------------------------------- sweep_cells

RULE_GAPS = {
    "parity_of_exposure": ("parity_gap",),
    "equality_of_opportunity": ("eo_gap",),
    "equality_of_herm_opportunity": ("eho_gap",),
    "all_constraints": ("parity_gap", "eo_gap", "eho_gap"),
}


def check_sweep_output(outdir: Path, expected_records: int) -> tuple[int, list[str]]:
    """Every constrained rule is no better than the unconstrained optimum of
    its replication, and every active gap is within the tolerance."""
    tol = json.loads((outdir / "metadata.json").read_text())["tolerance"]
    with open(outdir / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != expected_records:
        problems.append(f"{outdir.name}: {len(rows)} records, expected {expected_records}")
    failed = sum(r["status"].startswith("failed") for r in rows)
    if failed:
        problems.append(f"{outdir.name}: {failed} failed records")
    best = {
        (r["param_value"], r["replication"]): float(r["objective"])
        for r in rows if r["rule"] == "unconstrained"
    }
    for r in rows:
        if r["rule"] == "unconstrained" or r["status"].startswith("failed"):
            continue
        where = f"{outdir.name} {r['rule']} at {r['param_value']} rep {r['replication']}"
        if float(r["objective"]) > best[(r["param_value"], r["replication"])] + OBJECTIVE_SLACK:
            problems.append(f"{where}: objective above the unconstrained optimum")
        for gap in RULE_GAPS[r["rule"]]:
            if not abs(float(r[gap])) <= tol + GAP_SLACK:
                problems.append(f"{where}: {gap} {r[gap]} exceeds tolerance {tol}")
    return failed, problems


class SweepCells(Workload):
    """``hermfair sweep`` on scenarios A and gamma through ``cli.main``."""

    name = "sweep_cells"
    scenarios = (("op_a_ms", "A"), ("op_b_ms", "gamma"))

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir
        self.base_seed = int(np.random.default_rng(seed).integers(2**31))
        self.specs = {}
        for _, scenario in self.scenarios:
            grid = builtin_scenario(scenario).grid[: sizes.sweep_grid_points]
            self.specs[scenario] = builtin_scenario(
                scenario, grid=grid, replications=sizes.sweep_reps,
                n_a=sizes.sweep_users, n_b=sizes.sweep_users,
            )

    def _argv(self, scenario: str, outdir: Path) -> list[str]:
        n = str(self.sizes.sweep_users)
        argv = [
            "sweep", "--scenario", scenario, "--reps", str(self.sizes.sweep_reps),
            "--seed", str(self.base_seed), "--na", n, "--nb", n, "--jobs", "1",
            "--out", str(outdir),
        ]
        if self.sizes.sweep_grid_points is not None:
            argv += ["--grid", ",".join(repr(v) for v in self.specs[scenario].grid)]
        return argv

    def ops(self) -> list[Op]:
        ops = []
        for metric, scenario in self.scenarios:
            spec = self.specs[scenario]
            cells = len(spec.grid) * spec.replications
            outdir = self.workdir / f"sweep-{scenario}"
            argv = self._argv(scenario, outdir)

            def check(rc, outdir=outdir, records=5 * cells):
                if rc != 0:
                    return records, _rc_problem(rc, f"sweep {outdir.name}")
                return check_sweep_output(outdir, records)

            ops.append(Op(metric, cells, 5 * cells, lambda argv=argv: _cli(argv), check))
        return ops

    def final_checks(self) -> list[str]:
        """The HiGHS engine matches the parametric one on the first and last
        grid value of each scenario, for every single-constraint rule."""
        problems = []
        for _, scenario in self.scenarios:
            spec = self.specs[scenario]
            for vi in sorted({0, len(spec.grid) - 1}):
                pop = sample_population(PopulationSpec(
                    n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click,
                    seed=subseed(self.base_seed, vi, 0),
                ))
                params = spec.params_for(spec.grid[vi])
                for make in (ConstraintSet.parity, ConstraintSet.opportunity,
                             ConstraintSet.herm_opportunity):
                    req = SolveRequest(pop, params, make(spec.tolerance))
                    fast = solver.solve_constrained_lp(req, method="parametric").objective
                    slow = solver.solve_constrained_lp(req, method="highs").objective
                    if abs(fast - slow) > 1e-9 * abs(fast):
                        problems.append(
                            f"{scenario} grid {vi} {make.__name__}: parametric {fast!r} "
                            f"vs highs {slow!r}"
                        )
        return problems


# ------------------------------------------------------------- large_allocate

def check_summary(outdir: Path, n_users: int) -> list[str]:
    summary = json.loads((outdir / "summary.json").read_text())
    problems = []
    if summary["n_users"] != n_users:
        problems.append(f"{outdir.name}: {summary['n_users']} users, expected {n_users}")
    gap_of = {"parity_exposure": "parity_gap", "equality_opportunity": "eo_gap",
              "equality_herm_opportunity": "eho_gap"}
    for name in summary["constraints"]:
        gap = summary[gap_of[name]]
        if not abs(gap) <= summary["tolerance"] + GAP_SLACK:
            problems.append(f"{outdir.name}: {name} gap {gap} exceeds tolerance")
    return problems


class LargeAllocate(Workload):
    """``hermfair allocate`` on 2 x 10^5-user population CSVs through ``cli.main``."""

    name = "large_allocate"
    runs = (("op_a_ms", ("--parity",)), ("op_b_ms", ("--parity", "--eo", "--eho")))

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.pop_seeds = [int(s) for s in rng.integers(2**31, size=sizes.allocate_populations)]
        self.paths = [workdir / f"pop-{i}.csv" for i in range(sizes.allocate_populations)]

    def setup(self) -> None:
        n = str(self.sizes.allocate_users)
        for pop_seed, path in zip(self.pop_seeds, self.paths):
            rc = cli.main(["export-population", "--na", n, "--nb", n,
                           "--seed", str(pop_seed), "--out", str(path)])
            if rc != 0:
                raise RuntimeError(f"export-population exited with code {rc}")

    def ops(self) -> list[Op]:
        ops = []
        n_users = 2 * self.sizes.allocate_users
        for i, path in enumerate(self.paths):
            outdirs = {metric: self.workdir / f"alloc-{i}-{metric}" for metric, _ in self.runs}
            for metric, flags in self.runs:
                argv = ["allocate", str(path), *flags, "--out", str(outdirs[metric])]

                def check(rc, i=i, metric=metric, outdirs=outdirs):
                    if rc != 0:
                        return 1, _rc_problem(rc, f"allocate {outdirs[metric].name}")
                    problems = check_summary(outdirs[metric], n_users)
                    if metric == "op_b_ms":  # runs after the one-row call on this population
                        one, three = (
                            json.loads((outdirs[m] / "summary.json").read_text())["objective"]
                            for m in ("op_a_ms", "op_b_ms")
                        )
                        if three > one + OBJECTIVE_SLACK * abs(one):
                            problems.append(f"population {i}: three-row objective {three!r} "
                                            f"above one-row {one!r}")
                    return 0, problems

                ops.append(Op(metric, 1, 1, lambda argv=argv: _cli(argv), check))
        return ops


# ------------------------------------------------------------ small_instances

# Acceptance criterion 1: published survey tables and their statistics.
CHI2_GOLDENS = (
    ([[883, 219], [1975, 122]], dict(statistic=(148.37, 0.01), cramers_v=(0.215, 0.001))),
    ([[50, 43, 32], [12, 15, 7]],
     dict(statistic=(1.12, 0.01), p_value=(0.572, 0.005), cramers_v=(0.084, 0.001))),
    ([[136, 66], [133, 185], [107, 179], [230, 280]],
     dict(statistic=(47.87, 0.01), cramers_v=(0.191, 0.001))),
    ([[9, 13, 7, 20], [144, 191, 157, 368]],
     dict(statistic=(0.91, 0.01), p_value=(0.824, 0.005))),
)

SINGLE_CONSTRAINTS = (ConstraintSet.parity, ConstraintSet.opportunity,
                      ConstraintSet.herm_opportunity)
ORACLE_TOL = 0.05


def oracle_instance(rng: np.random.Generator, n: int) -> tuple[Population, ModelParams]:
    """A random instance in the style of acceptance criterion 3, of size ``n``."""
    n_a = int(rng.integers(1, n))
    groups = np.array(["A"] * n_a + ["B"] * (n - n_a))
    p = rng.random(n) ** rng.choice([1.0, 5.0, 20.0])
    rho = rng.beta(2.0, 2.0, n)
    params = ModelParams(
        alpha=float(rng.uniform(0.05, 0.5)),
        beta_a=float(rng.uniform(0.0, 0.15)),
        beta_b=float(rng.uniform(0.0, 0.15)),
        theta_a=float(rng.uniform(0.01, 0.3)),
        theta_b=float(rng.uniform(0.01, 0.3)),
        omega_a=float(rng.uniform(0.01, 0.3)),
        omega_b=float(rng.uniform(0.01, 0.3)),
        xi=float(rng.uniform(0.01, 0.5)),
        gamma=float(rng.uniform(0.0, 0.05)),
    )
    return Population.from_arrays(groups, p, rho), params


def solve_instance(pop: Population, params: ModelParams, single: ConstraintSet):
    """Threshold rule, one-row LP and three-row LP, each with its oracle."""
    both = ConstraintSet.all(ORACLE_TOL)
    exact = SolveMode.BINARY_EXACT
    return (
        solver.solve_unconstrained(SolveRequest(pop, params)),
        solver.solve_binary_exact(SolveRequest(pop, params, mode=exact)),
        solver.solve_constrained_lp(SolveRequest(pop, params, single)),
        solver.solve_binary_exact(SolveRequest(pop, params, single, mode=exact)),
        solver.solve_constrained_lp(SolveRequest(pop, params, both)),
        solver.solve_binary_exact(SolveRequest(pop, params, both, mode=exact)),
    )


def check_instance(results, label: str) -> list[str]:
    unc, unc_oracle, lp1, oracle1, lp3, oracle3 = results
    problems = []
    if not np.array_equal(unc.allocation.values, unc_oracle.allocation.values):
        problems.append(f"{label}: threshold rule differs from the oracle")
    for lp, oracle, rows in ((lp1, oracle1, "one-row"), (lp3, oracle3, "three-row")):
        if lp.objective < oracle.objective - OBJECTIVE_SLACK:
            problems.append(f"{label}: {rows} LP {lp.objective!r} below oracle {oracle.objective!r}")
    return problems


def survey_table(rng: np.random.Generator, rows: int, cols: int) -> stats.ContingencyTable:
    # a positive floor keeps every row and column non-empty
    return stats.ContingencyTable(rng.integers(1, 400, size=(rows, cols)))


def analyse_table(table: stats.ContingencyTable):
    counts = table.counts
    return (
        stats.chi2_independence(table),
        stats.conditional_proportions(table, axis="rows"),
        stats.wilson_interval(int(counts[:, 0].sum()), int(counts.sum())),
    )


def check_table(table: stats.ContingencyTable, results, label: str) -> list[str]:
    res, cells, first_col = results
    counts = table.counts
    problems = []
    ref = chi2_contingency(counts, correction=res.dof == 1).statistic
    if not math.isclose(res.statistic, ref, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"{label}: statistic {res.statistic!r} vs scipy {ref!r}")
    if not 0.0 <= res.p_value <= 1.0:
        problems.append(f"{label}: p-value {res.p_value!r} outside [0, 1]")
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            if cell.point != counts[i, j] / counts[i].sum() or not cell.lo <= cell.point <= cell.hi:
                problems.append(f"{label}: proportion ({i}, {j}) wrong")
    if not first_col.lo <= first_col.point <= first_col.hi:
        problems.append(f"{label}: Wilson interval excludes its point")
    return problems


class SmallInstances(Workload):
    """Tiny oracle-checked allocation problems and survey tables, library API.

    One call is a batch holding one instance of every size n = 2..14, or one
    table of every shape; every batch is the same mix of sizes, so batches
    and seeds differ only in the random values, not in the cost the sizes set.
    """

    name = "small_instances"
    sizes_n = range(2, 15)
    shapes = [(r, c) for r in range(2, 6) for c in range(2, 6)]

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        rng = np.random.default_rng(seed)
        self.instance_batches = [
            [(*oracle_instance(rng, n), SINGLE_CONSTRAINTS[(b + n) % 3](ORACLE_TOL))
             for n in self.sizes_n]
            for b in range(sizes.instances_per_n)
        ]
        self.table_batches = [
            [survey_table(rng, r, c) for r, c in self.shapes]
            for _ in range(sizes.tables_per_shape)
        ]

    def ops(self) -> list[Op]:
        ops = []
        for b, batch in enumerate(self.instance_batches):
            def check(outs, b=b, batch=batch):
                return 0, [p for (pop, _, _), out in zip(batch, outs)
                           for p in check_instance(out, f"batch {b} n={pop.size}")]

            ops.append(Op(
                "op_a_ms", len(batch), 6 * len(batch),
                lambda batch=batch: [solve_instance(*inst) for inst in batch], check,
            ))
        for b, batch in enumerate(self.table_batches):
            def check(outs, b=b, batch=batch):
                return 0, [p for table, out in zip(batch, outs)
                           for p in check_table(table, out, f"batch {b} table {table.shape}")]

            ops.append(Op(
                "op_b_ms", len(batch), 3 * len(batch),
                lambda batch=batch: [analyse_table(t) for t in batch], check,
            ))
        return ops

    def final_checks(self) -> list[str]:
        problems = []
        for counts, expected in CHI2_GOLDENS:
            res = stats.chi2_independence(stats.ContingencyTable(counts))
            for field, (want, tol) in expected.items():
                got = getattr(res, field)
                if abs(got - want) > tol:
                    problems.append(f"chi2 golden {counts}: {field} {got:.4f} vs {want}±{tol}")
        return problems


WORKLOADS = {w.name: w for w in (SweepCells, LargeAllocate, SmallInstances)}
