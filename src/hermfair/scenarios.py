"""Replicated parameter sweeps comparing five allocation rules.

Each sweep fixes all model parameters except one and walks that parameter
over a grid.  Each of its ``replications`` draws one population and solves it
at every grid value (common random numbers), so a replication's records
trace one population's curve along the grid.  All five rules
(unconstrained, each single constraint, and all three constraints together)
are solved on that population at each grid value, and utilities are
reported as a percentage of the same cell's unconstrained optimum.
Gaps are the model's, group A minus group B: a positive gap means the rule
delivers more to group A.
"""

from __future__ import annotations

import enum
import functools
import io
import math
from collections import Counter
from dataclasses import dataclass, fields, make_dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ._textio import write_csv, write_json
from .model import GAP_ORIENTATION, ConstraintSet, ModelParams, Population, _integer, _real
from .population import ClickConfig, PopulationSpec, UptakeConfig, sample_population, subseed
from .solver import SolveRequest, solve
# Bound here, though every solve goes through ``solve``, for code that wraps
# this module's names (perfbench's tracer).
from .solver import solve_constrained_lp, solve_unconstrained  # noqa: F401

__all__ = [
    "AllocationRule",
    "ScenarioId",
    "UptakeVariant",
    "UPTAKE_VARIANTS",
    "ScenarioSpec",
    "builtin_scenario",
    "SweepRecord",
    "SweepResult",
    "AggregateRow",
    "run_sweep",
    "aggregate",
    "write_records_csv",
    "write_aggregates_csv",
    "write_aggregates_json",
    "json_number",
    "RECORD_COLUMNS",
    "MAX_GRID_POINTS",
    "MAX_CELLS",
    "MAX_JOBS",
    "DEFAULT_JOBS",
]


class AllocationRule(enum.Enum):
    UNCONSTRAINED = "unconstrained"
    PARITY_OF_EXPOSURE = "parity_of_exposure"
    EQUALITY_OF_OPPORTUNITY = "equality_of_opportunity"
    EQUALITY_OF_HERM_OPPORTUNITY = "equality_of_herm_opportunity"
    ALL_CONSTRAINTS = "all_constraints"

    def constraint_set(self, tolerance: float) -> ConstraintSet:
        return _RULE_CONSTRAINTS[self](tolerance)


# Each rule's constraint constructor, in AllocationRule order.
_RULE_CONSTRAINTS = dict(zip(AllocationRule, (
    lambda tolerance: ConstraintSet(tolerance=tolerance), ConstraintSet.parity,
    ConstraintSet.opportunity, ConstraintSet.herm_opportunity, ConstraintSet.all)))

# Every rule but the first: a sweep cell solves UNCONSTRAINED first, since
# the others' utility_pct reads its objective.
CONSTRAINED_RULES = tuple(AllocationRule)[1:]


class ScenarioId(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    GAMMA_SWEEP = "gamma"
    BASELINE_GAMMA0 = "baseline-gamma0"


class UptakeVariant(enum.Enum):
    MAIN_B_ADVANTAGED = "main"
    A_ADVANTAGED = "a-adv"
    NEUTRAL_HIGH = "neutral-high"
    NEUTRAL_LOW = "neutral-low"


UPTAKE_VARIANTS: dict[UptakeVariant, UptakeConfig] = {
    UptakeVariant.MAIN_B_ADVANTAGED: UptakeConfig(beta_a=(4.0, 6.0), beta_b=(7.0, 3.0)),
    UptakeVariant.A_ADVANTAGED: UptakeConfig(beta_a=(8.0, 2.0), beta_b=(3.0, 7.0)),
    UptakeVariant.NEUTRAL_HIGH: UptakeConfig(beta_a=(7.0, 3.0), beta_b=(7.0, 3.0)),
    UptakeVariant.NEUTRAL_LOW: UptakeConfig(beta_a=(4.0, 6.0), beta_b=(4.0, 6.0)),
}


# Ceilings on the size of a sweep, checked before any work starts.  A cell
# is one (grid value, replication) pair: five solves on the replication's
# one population.
MAX_GRID_POINTS = 10_000
MAX_CELLS = 100_000
MAX_JOBS = 64

# Worker processes for a sweep whose caller names no count.
DEFAULT_JOBS = 1


def build_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic grid with drift-free rounding at 10 decimals.

    ``start == stop`` gives the one point ``start``.

    Raises:
        ValueError: ``start``, ``stop`` or ``step`` is not a finite number
            (a bool, a string, a NaN or an infinity), ``step`` is not
            positive, ``stop`` is below ``start``, or the grid would have
            more than ``MAX_GRID_POINTS`` points (checked before any point
            is built).
    """
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        _real(name, value)
    if not step > 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError(f"grid stop {stop} is below its start {start}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # also catches an overflow to inf
        raise ValueError(
            f"grid {start}:{stop}:{step} has more than {MAX_GRID_POINTS} points"
        )
    count = int(math.floor(span)) + 1
    return tuple(round(start + k * step, 10) for k in range(count))


# The disparity between the groups' withholding utilities changes sign at
# beta_b == beta_a, so the varying-beta_b grids start just above beta_a to
# keep the unconstrained exposure disparity one-signed across the sweep.
_BETA_B_GRID = build_grid(0.04, 0.43, 0.03)

_SCENARIO_DEFS: dict[ScenarioId, tuple[str, tuple[float, ...], dict[str, float]]] = {
    ScenarioId.A: ("beta_b", _BETA_B_GRID, {}),
    ScenarioId.B: ("theta_b", build_grid(0.01, 0.29, 0.02), {}),
    ScenarioId.C: ("omega_b", build_grid(0.01, 0.29, 0.02), {}),
    ScenarioId.D: ("xi", build_grid(0.02, 0.50, 0.04), {}),
    ScenarioId.GAMMA_SWEEP: ("gamma", build_grid(0.0, 1.0, 0.05), {}),
    ScenarioId.BASELINE_GAMMA0: ("beta_b", _BETA_B_GRID, {"gamma": 0.0}),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One sweep: which parameter varies, over which grid, and how to sample."""

    scenario: ScenarioId
    uptake_variant: UptakeVariant
    varying: str
    grid: tuple[float, ...]
    base_params: ModelParams
    replications: int = 100
    n_a: int = 1000
    n_b: int = n_a
    click: ClickConfig = ClickConfig()
    tolerance: float = ConstraintSet.tolerance

    def __post_init__(self) -> None:
        if self.varying not in ModelParams.__dataclass_fields__:
            raise ValueError(f"unknown varying parameter {self.varying!r}")
        if not self.grid:
            raise ValueError("grid must contain at least one value")
        if len(self.grid) > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has {len(self.grid)} points, more than {MAX_GRID_POINTS}"
            )
        repeated = [value for value, count in Counter(self.grid).items() if count > 1]
        if repeated:  # aggregate would pool their cells
            raise ValueError(f"grid value {repeated[0]} appears more than once")
        if _integer("replications", self.replications) < 1:
            raise ValueError("replications must be at least 1")
        cells = len(self.grid) * self.replications
        if cells > MAX_CELLS:
            raise ValueError(
                f"{len(self.grid)} grid points x {self.replications} replications "
                f"is {cells} cells, more than {MAX_CELLS}"
            )
        PopulationSpec(self.n_a, self.n_b, self.uptake, self.click)  # checks the group sizes
        self._rule_constraints  # checks the tolerance
        self._grid_params  # validates every grid point up front

    @property
    def uptake(self) -> UptakeConfig:
        return UPTAKE_VARIANTS[self.uptake_variant]

    def params_for(self, value: float) -> ModelParams:
        return replace(self.base_params, **{self.varying: value})

    # The run values, each built and checked once per spec: a sweep's cells
    # share them.
    @cached_property
    def _grid_params(self) -> tuple[ModelParams, ...]:
        """Each grid value's parameters, in grid order."""
        return tuple(self.params_for(value) for value in self.grid)

    @cached_property
    def _rule_constraints(self) -> tuple[tuple[AllocationRule, ConstraintSet], ...]:
        """Each rule with its constraint set at the spec's tolerance, in
        ``AllocationRule`` order."""
        return tuple((rule, rule.constraint_set(self.tolerance)) for rule in AllocationRule)


def builtin_scenario(
    scenario: ScenarioId | str,
    uptake_variant: UptakeVariant | str = UptakeVariant.MAIN_B_ADVANTAGED,
    *,
    grid: tuple[float, ...] | None = None,
    replications: int = ScenarioSpec.replications,
    n_a: int = ScenarioSpec.n_a,
    n_b: int = ScenarioSpec.n_b,
    tolerance: float = ScenarioSpec.tolerance,
) -> ScenarioSpec:
    """Build one of the canonical sweeps with its default grid and parameters.

    Scenarios A-D vary ``beta_b``, ``theta_b``, ``omega_b`` and ``xi``
    respectively around ``ModelParams.default()`` (alpha 0.2, beta_a 0.03, beta_b
    0.05, theta_a 0.05, theta_b 0.1, omega_a/omega_b 0.01, xi 0.2) with the
    cost weight gamma at 0.01.  ``baseline-gamma0`` repeats the beta_b sweep
    with gamma pinned to 0; ``gamma`` sweeps the cost weight itself.
    """
    scenario = ScenarioId(scenario)
    uptake_variant = UptakeVariant(uptake_variant)
    varying, default_grid, fixed_overrides = _SCENARIO_DEFS[scenario]
    values = default_grid if grid is None else tuple(_real("grid value", v) for v in grid)
    return ScenarioSpec(
        scenario=scenario,
        uptake_variant=uptake_variant,
        varying=varying,
        grid=values,
        base_params=replace(ModelParams.default(), **fixed_overrides),
        replications=replications,
        n_a=n_a,
        n_b=n_b,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class SweepRecord:
    """One (rule, grid value, replication) outcome."""

    scenario: str
    rule: str
    param_name: str
    param_value: float
    replication: int
    objective: float
    utility_pct: float
    parity_gap: float  # group A minus group B, as every gap
    eo_gap: float
    eho_gap: float
    status: str
    seed: int


RECORD_COLUMNS = tuple(f.name for f in fields(SweepRecord))


@dataclass(frozen=True)
class SweepResult:
    """The records of one sweep, with the spec and base seed that made them."""

    spec: ScenarioSpec
    base_seed: int
    records: tuple[SweepRecord, ...]

    @property
    def n_failed(self) -> int:
        return sum(1 for rec in self.records if rec.status.startswith("failed:"))


def _run_cell(
    spec: ScenarioSpec, pop: Population, seed: int, value_idx: int, rep: int,
    starts: dict[AllocationRule, tuple[int, ...]] | None = None,
) -> list[SweepRecord]:
    """Solve all five rules on replication ``rep``'s population ``pop``
    (drawn from ``seed``) at grid value ``value_idx``.

    The records come in ``AllocationRule`` order, one per rule.  A solve
    that raises gives a record with NaN numbers and the status
    ``failed:<exception class>``, and the cell goes on.  A constrained
    rule's ``utility_pct`` is ``100 * (objective / best)``, with ``best``
    the unconstrained objective: exactly 100 where the two are equal, and
    NaN when the unconstrained solve failed or its objective is 0.

    ``starts`` holds, per rule, the final dual-simplex basis of the
    replication's last solve that ran it; a solve may start from it, and
    leaves its own final basis there.  Only a 2- or 3-row rule
    (``all_constraints``) has one.
    """
    value = spec.grid[value_idx]
    params = spec._grid_params[value_idx]
    starts = {} if starts is None else starts
    best = math.nan  # the unconstrained objective, once solved
    records = []
    for rule, constraints in spec._rule_constraints:
        try:
            res = solve(SolveRequest(pop, params, constraints, _basis=starts.get(rule)))
        except Exception as exc:  # keep the sweep alive; failures surface in counts
            objective = pct = parity = eo = eho = math.nan
            status = f"failed:{type(exc).__name__}"
        else:
            objective, (parity, eo, eho) = res.objective, res.gaps
            status = res.status.value
            if res._basis is not None:
                starts[rule] = res._basis
            if rule is AllocationRule.UNCONSTRAINED:
                best, pct = objective, 100.0
            else:
                pct = 100.0 * (objective / best) if best != 0.0 else math.nan
        records.append(SweepRecord(
            scenario=spec.scenario.value,
            rule=rule.value,
            param_name=spec.varying,
            param_value=float(value),
            replication=rep,
            objective=objective,
            utility_pct=pct,
            parity_gap=parity,
            eo_gap=eo,
            eho_gap=eho,
            status=status,
            seed=seed,
        ))
    return records


def _run_replication(spec: ScenarioSpec, base_seed: int, rep: int) -> list[list[SweepRecord]]:
    """Replication ``rep``'s records, one cell per grid value in grid order.

    The replication draws one population, from ``subseed(base_seed, 0, rep)``,
    and solves it at every grid value.  Its masses and gap rows are built
    once and serve every grid value; each value's parameter object gets its
    own gains and threshold allocation.  Only the gains change along the
    grid, so each multi-row rule's solve may start from the final basis of
    the rule's last solve (``hermfair.solver._dual_simplex``).
    """
    seed = subseed(base_seed, 0, rep)
    pop = sample_population(
        PopulationSpec(n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click, seed=seed)
    )
    starts: dict[AllocationRule, tuple[int, ...]] = {}
    return [_run_cell(spec, pop, seed, vi, rep, starts) for vi in range(len(spec.grid))]


def run_sweep(spec: ScenarioSpec, base_seed: int, jobs: int = DEFAULT_JOBS) -> SweepResult:
    """Run the sweep; deterministic in ``base_seed`` and independent of ``jobs``.

    Replication ``rep`` draws one population from the sub-seed
    ``subseed(base_seed, 0, rep)`` and solves it at every grid value
    (common random numbers), so each replication's records trace one
    population's curve along the grid, and a replication is reproducible
    in isolation.  Replications are the unit of parallel work, so
    scheduling cannot change any number.  Each (grid value, replication)
    cell gives one record per rule, in ``AllocationRule`` order, and the
    cells come in grid order, then replication order.  A solve that raises
    gives a record with NaN numbers and the status
    ``failed:<exception class>``, and the sweep continues; when it is the
    unconstrained solve, the cell's other rules keep their solves and their
    ``utility_pct`` is NaN.

    Raises:
        ValueError: ``base_seed`` is not a non-negative integer, or ``jobs``
            is not an integer from 1 to ``MAX_JOBS`` (a bool or an integral
            float such as ``2.0`` is not an integer here); both are checked
            before any cell runs.
    """
    _integer("base_seed", base_seed)
    if _integer("jobs", jobs) > MAX_JOBS:
        raise ValueError(f"jobs {jobs} is greater than the maximum of {MAX_JOBS}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if base_seed < 0:
        raise ValueError(f"base seed must be non-negative, got {base_seed}")
    reps = range(spec.replications)
    if jobs == 1:
        by_rep = [_run_replication(spec, base_seed, rep) for rep in reps]
    else:
        # imported here: multiprocessing costs ~20 ms that serial runs skip
        from concurrent.futures import ProcessPoolExecutor
        # no more workers than replications: under fork the pool starts them all at once
        workers = min(jobs, len(reps))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, len(reps) // (workers * 8))
            by_rep = list(pool.map(
                functools.partial(_run_replication, spec, base_seed), reps, chunksize=chunksize))
    records = tuple(
        rec for vi in range(len(spec.grid)) for cells in by_rep for rec in cells[vi])
    return SweepResult(spec, base_seed, records)


# The record fields summarized per (rule, grid value), and each statistic's
# percentile.  A field names the AggregateRow fields ``<field>_median``,
# ``<field>_q25`` and ``<field>_q75``, in this order.
_SUMMARIZED_FIELDS = ("utility_pct", "parity_gap")
_STATISTICS = {"median": 50.0, "q25": 25.0, "q75": 75.0}

AggregateRow = make_dataclass(
    "AggregateRow",
    [("rule", str), ("param_name", str), ("param_value", float), ("n_used", int),
     ("n_failed", int),
     *((f"{name}_{stat}", float) for name in _SUMMARIZED_FIELDS for stat in _STATISTICS)],
    namespace={"__module__": __name__, "__doc__":
               "Median and quartiles across replications for one (rule, grid value)."},
    frozen=True,
)


def aggregate(result: SweepResult) -> list[AggregateRow]:
    """Collapse replications to medians and 0.25-0.75 quartiles.

    Failed records are excluded; their counts are reported per row, and the
    statistics of a row with no successful record are NaN.  Quantiles use
    linear interpolation between order statistics.  Rows come in the order
    of each (rule, grid value) pair's first record.  Rows with the same
    number of successful records share one ``np.percentile`` call per
    field, which gives each row the bits of its own call.
    """
    if not result.records:
        raise ValueError("cannot aggregate an empty sweep")
    buckets: dict[tuple[str, float], list[SweepRecord]] = {}
    for rec in result.records:
        buckets.setdefault((rec.rule, rec.param_value), []).append(rec)
    goods = [
        [r for r in recs if not r.status.startswith("failed:")] for recs in buckets.values()
    ]
    by_count: dict[int, list[int]] = {}
    for i, good in enumerate(goods):
        if good:
            by_count.setdefault(len(good), []).append(i)
    # quartiles[i, f] holds row i's statistics of field f in _STATISTICS order
    quartiles = np.full((len(goods), len(_SUMMARIZED_FIELDS), len(_STATISTICS)), math.nan)
    for idx in by_count.values():
        for f, name in enumerate(_SUMMARIZED_FIELDS):
            values = np.array([[getattr(r, name) for r in goods[i]] for i in idx], dtype=np.float64)
            quartiles[idx, f] = np.percentile(
                values, tuple(_STATISTICS.values()), axis=1, method="linear").T
    rows: list[AggregateRow] = []
    for ((rule, value), recs), good, stats in zip(buckets.items(), goods, quartiles.tolist()):
        rows.append(AggregateRow(
            rule=rule,
            param_name=result.spec.varying,
            param_value=value,
            n_used=len(good),
            n_failed=len(recs) - len(good),
            **{
                f"{name}_{stat}": q
                for name, field_stats in zip(_SUMMARIZED_FIELDS, stats)
                for stat, q in zip(_STATISTICS, field_stats)
            },
        ))
    return rows


def write_records_csv(result: SweepResult, path: str | Path | io.TextIOBase) -> None:
    """One row per (rule, grid value, replication), schema in RECORD_COLUMNS."""
    write_csv(path, RECORD_COLUMNS, (
        [getattr(rec, col) for col in RECORD_COLUMNS] for rec in result.records))


_AGG_COLUMNS = ("scenario", *(f.name for f in fields(AggregateRow)))


def write_aggregates_csv(
    result: SweepResult, rows: list[AggregateRow], path: str | Path | io.TextIOBase
) -> None:
    scenario = result.spec.scenario.value
    write_csv(path, _AGG_COLUMNS, (
        [scenario, *(getattr(row, col) for col in _AGG_COLUMNS[1:])] for row in rows))


def json_number(x):
    """``x`` for a JSON file: non-finite floats become ``None`` (``null``)."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_aggregates_json(
    result: SweepResult, rows: list[AggregateRow], path: str | Path | io.TextIOBase
) -> None:
    """Strict JSON: statistics of all-failed rows are ``null``, never ``NaN``."""
    payload = {
        "scenario": result.spec.scenario.value,
        "uptake_variant": result.spec.uptake_variant.value,
        "param_name": result.spec.varying,
        "gap_orientation": GAP_ORIENTATION,
        "rows": [
            {col: json_number(getattr(row, col)) for col in _AGG_COLUMNS[1:]}
            for row in rows
        ],
    }
    write_json(payload, path)
