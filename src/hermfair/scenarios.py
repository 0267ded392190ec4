"""Replicated parameter sweeps comparing five allocation rules.

Each sweep fixes all model parameters except one, walks that parameter over a
grid, and for every grid value draws ``replications`` fresh populations.  All
five rules (unconstrained, each single constraint, and all three constraints
together) are solved on the same population per replication, and utilities
are reported as a percentage of that replication's own unconstrained optimum.

Exposure-disparity columns in sweep records are oriented group A minus
group B: positive values mean the rule delivers more to group A.  This is
the reading in which the built-in scenarios' unconstrained disparities come
out positive; note it is the negative of the library gap functions, which
are defined as group B minus group A.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._textio import open_text
from .model import ConstraintSet, ModelParams
from .population import ClickConfig, PopulationSpec, UptakeConfig, sample_population, subseed
from .solver import SolveRequest, SolveResult, solve_constrained_lp, solve_unconstrained

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
        if self is AllocationRule.UNCONSTRAINED:
            return ConstraintSet(tolerance=tolerance)
        if self is AllocationRule.PARITY_OF_EXPOSURE:
            return ConstraintSet.parity(tolerance)
        if self is AllocationRule.EQUALITY_OF_OPPORTUNITY:
            return ConstraintSet.opportunity(tolerance)
        if self is AllocationRule.EQUALITY_OF_HERM_OPPORTUNITY:
            return ConstraintSet.herm_opportunity(tolerance)
        return ConstraintSet.all(tolerance)


CONSTRAINED_RULES = (
    AllocationRule.PARITY_OF_EXPOSURE,
    AllocationRule.EQUALITY_OF_OPPORTUNITY,
    AllocationRule.EQUALITY_OF_HERM_OPPORTUNITY,
    AllocationRule.ALL_CONSTRAINTS,
)


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
# is one (grid value, replication) pair: one population, five solves.
MAX_GRID_POINTS = 10_000
MAX_CELLS = 100_000
MAX_JOBS = 64

# Worker processes for a sweep whose caller names no count.
DEFAULT_JOBS = 1


def build_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic grid with drift-free rounding at 10 decimals.

    Raises:
        ValueError: ``step`` is not positive, a bound is not finite, or the
            grid would have more than ``MAX_GRID_POINTS`` points (checked
            before any point is built).
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("grid start, stop and step must be finite")
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
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        cells = len(self.grid) * self.replications
        if cells > MAX_CELLS:
            raise ValueError(
                f"{len(self.grid)} grid points x {self.replications} replications "
                f"is {cells} cells, more than {MAX_CELLS}"
            )
        PopulationSpec(self.n_a, self.n_b, self.uptake, self.click)  # checks the group sizes
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ValueError(f"tolerance must be finite and non-negative, got {self.tolerance!r}")
        for value in self.grid:
            self.params_for(value)  # validates every grid point up front

    @property
    def uptake(self) -> UptakeConfig:
        return UPTAKE_VARIANTS[self.uptake_variant]

    def params_for(self, value: float) -> ModelParams:
        return replace(self.base_params, **{self.varying: float(value)})


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
    values = tuple(float(v) for v in grid) if grid is not None else default_grid
    base = replace(ModelParams.default(), **fixed_overrides)
    if varying != "gamma":
        base = replace(base, **{varying: values[0]})
    return ScenarioSpec(
        scenario=scenario,
        uptake_variant=uptake_variant,
        varying=varying,
        grid=values,
        base_params=base,
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
    parity_gap: float  # group A minus group B; see module docstring
    eo_gap: float
    eho_gap: float
    status: str
    seed: int


RECORD_COLUMNS = tuple(f.name for f in fields(SweepRecord))


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    uptake_variant: str
    param_name: str
    grid: tuple[float, ...]
    replications: int
    n_a: int
    n_b: int
    tolerance: float
    base_seed: int
    records: tuple[SweepRecord, ...]
    n_failed: int


def _record(
    spec: ScenarioSpec,
    rule: AllocationRule,
    value: float,
    rep: int,
    seed: int,
    outcome: SolveResult | Exception,
    objective_unconstrained: float,
) -> SweepRecord:
    """The record of one solve; a solve that raised has NaN numbers and the
    status ``failed:<exception class>``."""
    if isinstance(outcome, Exception):
        objective = pct = parity = eo = eho = math.nan
        status = f"failed:{type(outcome).__name__}"
    else:
        objective = outcome.objective
        if rule is AllocationRule.UNCONSTRAINED:
            pct = 100.0
        elif objective_unconstrained != 0.0:
            pct = 100.0 * objective / objective_unconstrained
        else:
            pct = math.nan
        parity, eo, eho = (-gap for gap in outcome.gaps)  # group A minus group B
        status = outcome.status.value
    return SweepRecord(
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
    )


def _run_cell(args: tuple[ScenarioSpec, int, int, int]) -> list[SweepRecord]:
    """Solve all five rules on one freshly sampled population."""
    spec, base_seed, value_idx, rep = args
    value = spec.grid[value_idx]
    seed = subseed(base_seed, value_idx, rep)
    pop = sample_population(
        PopulationSpec(n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click, seed=seed)
    )
    params = spec.params_for(value)
    unc = solve_unconstrained(SolveRequest(pop, params, ConstraintSet(tolerance=spec.tolerance)))
    outcomes: dict[AllocationRule, SolveResult | Exception] = {AllocationRule.UNCONSTRAINED: unc}
    for rule in CONSTRAINED_RULES:
        try:
            outcomes[rule] = solve_constrained_lp(
                SolveRequest(pop, params, rule.constraint_set(spec.tolerance))
            )
        except Exception as exc:  # keep the sweep alive; failures surface in counts
            outcomes[rule] = exc
    return [
        _record(spec, rule, value, rep, seed, outcome, unc.objective)
        for rule, outcome in outcomes.items()
    ]


def run_sweep(spec: ScenarioSpec, base_seed: int, jobs: int = DEFAULT_JOBS) -> SweepResult:
    """Run the sweep; deterministic in ``base_seed`` and independent of ``jobs``.

    Every (grid value, replication) cell draws its population from a
    sub-seed derived from ``(base_seed, value index, replication)``, so cells
    are reproducible in isolation and parallel scheduling cannot change any
    number.  Solver failures are recorded per record and the sweep continues.
    ``base_seed`` must be non-negative and ``jobs`` between 1 and
    ``MAX_JOBS``; both are checked before any cell runs.
    """
    if jobs > MAX_JOBS:
        raise ValueError(f"jobs {jobs} exceeds the ceiling of {MAX_JOBS} workers")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if base_seed < 0:
        raise ValueError(f"base seed must be non-negative, got {base_seed}")
    cells = [
        (spec, base_seed, vi, rep)
        for vi in range(len(spec.grid))
        for rep in range(spec.replications)
    ]
    if jobs == 1:
        chunks = [_run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunksize = max(1, len(cells) // (jobs * 8))
            chunks = list(pool.map(_run_cell, cells, chunksize=chunksize))
    records = tuple(rec for chunk in chunks for rec in chunk)
    n_failed = sum(1 for rec in records if rec.status.startswith("failed"))
    return SweepResult(
        scenario=spec.scenario.value,
        uptake_variant=spec.uptake_variant.value,
        param_name=spec.varying,
        grid=spec.grid,
        replications=spec.replications,
        n_a=spec.n_a,
        n_b=spec.n_b,
        tolerance=spec.tolerance,
        base_seed=base_seed,
        records=records,
        n_failed=n_failed,
    )


@dataclass(frozen=True)
class AggregateRow:
    """Median and quartiles across replications for one (rule, grid value)."""

    rule: str
    param_name: str
    param_value: float
    n_used: int
    n_failed: int
    utility_pct_median: float
    utility_pct_q25: float
    utility_pct_q75: float
    parity_gap_median: float
    parity_gap_q25: float
    parity_gap_q75: float


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    q25, med, q75 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear")
    return float(med), float(q25), float(q75)


def aggregate(result: SweepResult) -> list[AggregateRow]:
    """Collapse replications to medians and 0.25-0.75 quartiles.

    Failed records are excluded; their counts are reported per row.
    Quantiles use linear interpolation between order statistics.
    """
    if not result.records:
        raise ValueError("cannot aggregate an empty sweep")
    buckets: dict[tuple[str, float], list[SweepRecord]] = {}
    order: list[tuple[str, float]] = []
    for rec in result.records:
        key = (rec.rule, rec.param_value)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(rec)
    rows: list[AggregateRow] = []
    for rule, value in order:
        recs = buckets[(rule, value)]
        good = [r for r in recs if not r.status.startswith("failed")]
        n_failed = len(recs) - len(good)
        if not good:
            rows.append(
                AggregateRow(rule, result.param_name, value, 0, n_failed,
                             math.nan, math.nan, math.nan, math.nan, math.nan, math.nan)
            )
            continue
        pct_med, pct_q25, pct_q75 = _quartiles([r.utility_pct for r in good])
        gap_med, gap_q25, gap_q75 = _quartiles([r.parity_gap for r in good])
        rows.append(
            AggregateRow(
                rule=rule,
                param_name=result.param_name,
                param_value=value,
                n_used=len(good),
                n_failed=n_failed,
                utility_pct_median=pct_med,
                utility_pct_q25=pct_q25,
                utility_pct_q75=pct_q75,
                parity_gap_median=gap_med,
                parity_gap_q25=gap_q25,
                parity_gap_q75=gap_q75,
            )
        )
    return rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_records_csv(result: SweepResult, path: str | Path | io.TextIOBase) -> None:
    """One row per (rule, grid value, replication), schema in RECORD_COLUMNS."""
    with open_text(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for rec in result.records:
            writer.writerow([_fmt(getattr(rec, col)) for col in RECORD_COLUMNS])


_AGG_COLUMNS = ("scenario", *(f.name for f in fields(AggregateRow)))


def write_aggregates_csv(
    result: SweepResult, rows: list[AggregateRow], path: str | Path | io.TextIOBase
) -> None:
    with open_text(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(_AGG_COLUMNS)
        for row in rows:
            writer.writerow(
                [result.scenario]
                + [_fmt(getattr(row, col)) for col in _AGG_COLUMNS[1:]]
            )


def json_number(x):
    """``x`` for a JSON file: non-finite floats become ``None`` (``null``)."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def write_aggregates_json(
    result: SweepResult, rows: list[AggregateRow], path: str | Path | io.TextIOBase
) -> None:
    """Strict JSON: statistics of all-failed rows are ``null``, never ``NaN``."""
    payload = {
        "scenario": result.scenario,
        "uptake_variant": result.uptake_variant,
        "param_name": result.param_name,
        "gap_orientation": "group A minus group B",
        "rows": [
            {col: json_number(getattr(row, col)) for col in _AGG_COLUMNS[1:]}
            for row in rows
        ],
    }
    with open_text(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
