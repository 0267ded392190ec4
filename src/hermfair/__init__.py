"""Fairness-constrained ad allocation with interpretative-uptake costs.

The package combines a linear allocation model with group-equality
constraints, exact and LP solvers with an enumeration oracle, a seeded
Monte-Carlo scenario engine, and contingency-table statistics for survey
diagnostics.
"""

from .model import (
    Allocation,
    ConstraintSet,
    DegenerateGroupError,
    ModelParams,
    Population,
    decision_gains,
    economic_utility,
    eho_gap,
    eo_gap,
    herm_aware_utility,
    hermeneutical_cost,
    parity_gap,
)
from .population import (
    RNG_STREAM,
    ClickConfig,
    PopulationSpec,
    UptakeConfig,
    population_from_csv,
    population_to_csv,
    sample_population,
    subseed,
)
from .scenarios import (
    AggregateRow,
    AllocationRule,
    ScenarioId,
    ScenarioSpec,
    SweepRecord,
    SweepResult,
    UptakeVariant,
    aggregate,
    builtin_scenario,
    run_sweep,
)
from .solver import (
    PopulationTooLargeError,
    SolveMode,
    SolveRequest,
    SolveResult,
    SolveStatus,
    SolverNumericalError,
    round_allocation,
    solve,
)
from .stats import (
    Chi2Result,
    ContingencyTable,
    WilsonInterval,
    chi2_independence,
    conditional_proportions,
    table_from_csv,
    wilson_interval,
)

__version__ = "0.11.0"
