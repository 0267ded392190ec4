import concurrent.futures
import io
import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from hermfair.model import ConstraintSet, ModelParams, Population
from hermfair.population import PopulationSpec, UptakeConfig, sample_population, subseed
import hermfair.model
import hermfair.population
import hermfair.scenarios
import hermfair.solver
from hermfair.scenarios import (
    CONSTRAINED_RULES,
    MAX_GRID_POINTS,
    MAX_JOBS,
    AggregateRow,
    AllocationRule,
    ScenarioId,
    ScenarioSpec,
    SweepRecord,
    SweepResult,
    UptakeVariant,
    UPTAKE_VARIANTS,
    aggregate,
    build_grid,
    builtin_scenario,
    run_sweep,
    write_aggregates_csv,
    write_aggregates_json,
    write_records_csv,
)
from hermfair.solver import SolveRequest, solve, solve_constrained_lp, solve_unconstrained

RULES = {r.value for r in AllocationRule}


def tiny_spec(scenario="A", grid=(0.05, 0.2), reps=3, n=30, **kw):
    return builtin_scenario(scenario, grid=grid, replications=reps, n_a=n, n_b=n, **kw)


class TestBuiltinScenarios:
    def test_fixed_values_scenario_a(self):
        spec = builtin_scenario("A")
        params = spec.params_for(0.1)
        assert params.alpha == 0.2
        assert params.beta_a == 0.03
        assert params.theta_a == 0.05
        assert params.theta_b == 0.1
        assert params.omega_a == 0.01
        assert params.omega_b == 0.01
        assert params.xi == 0.2
        assert params.gamma == 0.01
        assert params.beta_b == 0.1  # the varying slot

    def test_varying_parameter_names(self):
        assert builtin_scenario("A").varying == "beta_b"
        assert builtin_scenario("B").varying == "theta_b"
        assert builtin_scenario("C").varying == "omega_b"
        assert builtin_scenario("D").varying == "xi"
        assert builtin_scenario("gamma").varying == "gamma"
        assert builtin_scenario("baseline-gamma0").varying == "beta_b"

    def test_baseline_gamma_zero(self):
        spec = builtin_scenario(ScenarioId.BASELINE_GAMMA0)
        assert spec.params_for(0.1).gamma == 0.0

    def test_gamma_sweep_grid_covers_unit_interval(self):
        spec = builtin_scenario("gamma")
        assert spec.grid[0] == 0.0
        assert spec.grid[-1] == 1.0
        assert len(spec.grid) == 21

    def test_default_grids(self):
        assert len(builtin_scenario("A").grid) == 14
        assert builtin_scenario("A").grid[0] == 0.04
        assert builtin_scenario("A").grid[-1] == 0.43
        assert len(builtin_scenario("B").grid) == 15
        assert len(builtin_scenario("C").grid) == 15
        assert len(builtin_scenario("D").grid) == 13
        assert builtin_scenario("D").grid == build_grid(0.02, 0.50, 0.04)

    def test_uptake_variants(self):
        assert UPTAKE_VARIANTS[UptakeVariant.MAIN_B_ADVANTAGED] == UptakeConfig((4, 6), (7, 3))
        assert UPTAKE_VARIANTS[UptakeVariant.A_ADVANTAGED] == UptakeConfig((8, 2), (3, 7))
        assert UPTAKE_VARIANTS[UptakeVariant.NEUTRAL_HIGH] == UptakeConfig((7, 3), (7, 3))
        assert UPTAKE_VARIANTS[UptakeVariant.NEUTRAL_LOW] == UptakeConfig((4, 6), (4, 6))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            builtin_scenario("Z")

    def test_unknown_varying_parameter(self):
        with pytest.raises(ValueError, match="^unknown varying parameter 'delta'$"):
            replace(builtin_scenario("A"), varying="delta")

    def test_grid_validation_runs_upfront(self):
        with pytest.raises(ValueError):
            builtin_scenario("D", grid=(0.1, -0.2))  # xi must stay positive


def test_each_rule_builds_its_named_constraint_set():
    tol = 0.01
    assert [rule.constraint_set(tol) for rule in AllocationRule] == [
        ConstraintSet(tolerance=tol),
        ConstraintSet.parity(tol),
        ConstraintSet.opportunity(tol),
        ConstraintSet.herm_opportunity(tol),
        ConstraintSet.all(tol),
    ]
    assert CONSTRAINED_RULES == tuple(
        rule for rule in AllocationRule if rule.constraint_set(tol).any_active)


class TestCeilings:
    def test_grid_point_ceiling(self):
        assert len(build_grid(0.0, MAX_GRID_POINTS - 1, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
            build_grid(0.0, MAX_GRID_POINTS, 1.0)
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
            build_grid(-1e308, 1e308, 1e-300)  # the count overflows to inf
        with pytest.raises(ValueError, match="grid stop 0.0 is below its start 1.0"):
            build_grid(1.0, 0.0, 0.1)
        assert build_grid(0.5, 0.5, 0.1) == (0.5,)

    def test_grid_bounds_must_be_finite(self):
        for start, stop, step in ((0.0, math.inf, 1.0), (math.nan, 1.0, 0.1)):
            with pytest.raises(ValueError, match="finite"):
                build_grid(start, stop, step)
        with pytest.raises(ValueError, match="^step must be a finite number, got nan$"):
            build_grid(0.0, 1.0, math.nan)

    def test_spec_grid_ceiling(self):
        grid = tuple(np.linspace(0.04, 0.4, MAX_GRID_POINTS + 1))
        with pytest.raises(ValueError, match=f"{MAX_GRID_POINTS + 1} points, more than"):
            builtin_scenario("A", grid=grid)

    def test_repeated_grid_value_rejected(self):
        # aggregate would pool the replications of both points into one row
        with pytest.raises(ValueError, match="^grid value 0.1 appears more than once$"):
            builtin_scenario("gamma", grid=(0.1, 0.2, 0.1))
        # 10-decimal rounding makes a 1e-11 step repeat its values
        with pytest.raises(ValueError, match="^grid value 0.0 appears more than once$"):
            builtin_scenario("gamma", grid=build_grid(0.0, 1e-10, 1e-11))
        with pytest.raises(ValueError, match=f"{MAX_GRID_POINTS + 1} points, more than"):
            builtin_scenario("gamma", grid=(0.1,) * (MAX_GRID_POINTS + 1))

    def test_jobs_ceiling_before_any_worker(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match=f"is greater than the maximum of {MAX_JOBS}"):
            run_sweep(tiny_spec(), base_seed=1, jobs=MAX_JOBS + 1)


    def test_sweep_size_ceilings_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the spec was checked")

        monkeypatch.setattr(hermfair.scenarios, "_run_cell", no_work)
        monkeypatch.setattr(hermfair.scenarios, "sample_population", no_work)
        cells = hermfair.scenarios.MAX_CELLS
        users = hermfair.population.MAX_GROUP_SIZE
        grid = tuple(np.linspace(0.04, 0.4, 1000))
        assert builtin_scenario("A", grid=grid, replications=cells // 1000).replications == 100
        with pytest.raises(ValueError, match=f"is {cells + 1000} cells, more than {cells}"):
            builtin_scenario("A", grid=grid, replications=cells // 1000 + 1)
        assert tiny_spec(n=users).n_a == users
        with pytest.raises(ValueError, match=f"ceiling of {users} users per group"):
            tiny_spec(n=users + 1)
        with pytest.raises(ValueError, match="more than"):
            builtin_scenario("A", n_a=10**12, n_b=10**12, replications=10**9)

    @pytest.mark.parametrize("kw, message", [
        ({"n": 0}, "group sizes must be at least 1"),
        ({"tolerance": math.nan}, "tolerance must be a finite number, got nan"),
        ({"tolerance": math.inf}, "tolerance must be a finite number, got inf"),
        ({"tolerance": -1e-9}, "tolerance must be finite and non-negative"),
    ])
    def test_spec_values_checked_up_front(self, kw, message):
        with pytest.raises(ValueError, match=message):
            tiny_spec(**kw)

    @pytest.mark.parametrize("kw, message", [
        ({"base_seed": -1}, "base seed must be non-negative"),
        ({"base_seed": 1, "jobs": 0}, "jobs must be at least 1"),
    ])
    def test_run_arguments_checked_before_any_cell(self, monkeypatch, kw, message):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(hermfair.scenarios, "_run_cell", no_cell)
        with pytest.raises(ValueError, match=message):
            run_sweep(tiny_spec(), **kw)


# Each run value is checked once, by the library: a bool, a string, an
# integral float where an integer is due, and an int beyond the float range
# each raise ValueError where the value enters, before any cell runs.
@pytest.mark.parametrize("call", [
    pytest.param(lambda: builtin_scenario("A", grid=["0.1"]), id="grid-string"),
    pytest.param(lambda: builtin_scenario("A", grid=[True, 0.2]), id="grid-bool"),
    pytest.param(lambda: builtin_scenario("A", grid=[]), id="grid-empty"),
    pytest.param(lambda: builtin_scenario("A", replications=True), id="replications-bool"),
    pytest.param(lambda: builtin_scenario("A", replications=2.0), id="replications-float"),
    pytest.param(lambda: run_sweep(tiny_spec(), base_seed=3.0), id="base_seed-float"),
    pytest.param(lambda: run_sweep(tiny_spec(), base_seed=True), id="base_seed-bool"),
    pytest.param(lambda: run_sweep(tiny_spec(), 1, jobs=True), id="jobs-bool"),
    pytest.param(lambda: run_sweep(tiny_spec(), 1, jobs=1.0), id="jobs-float"),
    pytest.param(lambda: build_grid(True, 1, 0.5), id="build_grid-bool"),
    pytest.param(lambda: build_grid("0", 1, 0.5), id="build_grid-string"),
    pytest.param(lambda: ConstraintSet(tolerance=10**400), id="tolerance-huge-int"),
    pytest.param(lambda: replace(ModelParams.default(), alpha=10**400), id="alpha-huge-int"),
    pytest.param(lambda: UptakeConfig(beta_a=(10**400, 1.0), beta_b=(1.0, 1.0)),
                 id="shape-huge-int"),
])
def test_library_rejects_bad_run_values(monkeypatch, call):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(hermfair.scenarios, "_run_cell", no_cell)
    with pytest.raises(ValueError, match=r"must (be an? (finite number|integer), got |contain)"):
        call()


class TestRunSweep:
    def test_deterministic(self):
        spec = tiny_spec()
        a = run_sweep(spec, base_seed=42)
        b = run_sweep(spec, base_seed=42)
        assert a == b

    def test_seed_changes_output(self):
        spec = tiny_spec()
        a = run_sweep(spec, base_seed=1)
        b = run_sweep(spec, base_seed=2)
        assert a != b

    def test_parallel_matches_serial(self):
        spec = tiny_spec(grid=(0.05, 0.2, 0.35), reps=2)
        serial = run_sweep(spec, base_seed=9, jobs=1)
        parallel = run_sweep(spec, base_seed=9, jobs=2)
        assert serial == parallel

    def test_no_more_workers_than_cells(self, monkeypatch):
        # under fork the pool starts every worker it may have at once, and a
        # replication is a worker's unit of work
        asked = []

        class Recorder:  # starts no process: maps in this one
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, reps, chunksize):
                return map(fn, reps)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        spec = tiny_spec(grid=(0.05, 0.2), reps=3)
        for jobs in (MAX_JOBS, 2):
            assert run_sweep(spec, base_seed=9, jobs=jobs) == run_sweep(spec, base_seed=9)
        assert asked == [3, 2]  # min(jobs, replications)

    def test_record_shape(self):
        spec = tiny_spec(grid=(0.05, 0.2), reps=3)
        res = run_sweep(spec, base_seed=0)
        assert len(res.records) == 2 * 3 * 5
        assert {r.rule for r in res.records} == RULES
        assert res.n_failed == 0
        assert all(r.param_name == "beta_b" for r in res.records)

    def test_unconstrained_pct_is_exactly_100(self):
        res = run_sweep(tiny_spec(), base_seed=3)
        for rec in res.records:
            if rec.rule == AllocationRule.UNCONSTRAINED.value:
                assert rec.utility_pct == 100.0
            else:
                assert rec.utility_pct <= 100.0

    def test_all_constraints_never_beats_single_rules(self):
        res = run_sweep(tiny_spec(grid=(0.05, 0.2), reps=4, n=80), base_seed=11)
        by_cell = {}
        for rec in res.records:
            by_cell.setdefault((rec.param_value, rec.replication), {})[rec.rule] = rec
        for cell in by_cell.values():
            combined = cell[AllocationRule.ALL_CONSTRAINTS.value].objective
            singles = [
                cell[r.value].objective
                for r in (AllocationRule.PARITY_OF_EXPOSURE,
                          AllocationRule.EQUALITY_OF_OPPORTUNITY,
                          AllocationRule.EQUALITY_OF_HERM_OPPORTUNITY)
            ]
            assert combined <= min(singles) + 1e-9

    def test_constrained_parity_gap_within_tolerance(self):
        res = run_sweep(tiny_spec(grid=(0.2,), reps=5, n=100), base_seed=13)
        for rec in res.records:
            if rec.rule in (AllocationRule.PARITY_OF_EXPOSURE.value,
                            AllocationRule.ALL_CONSTRAINTS.value):
                assert abs(rec.parity_gap) <= res.spec.tolerance + 1e-8

    def test_symmetric_groups_have_small_gap(self):
        # scenario-B setup with group B made identical to group A: same
        # opportunity utility, same uptake reward, same uptake distribution
        base = ModelParams(alpha=0.2, beta_a=0.03, beta_b=0.03, theta_a=0.05,
                           theta_b=0.05, omega_a=0.01, omega_b=0.01, xi=0.2, gamma=0.01)
        spec = ScenarioSpec(
            scenario=ScenarioId.B,
            uptake_variant=UptakeVariant.NEUTRAL_HIGH,
            varying="theta_b",
            grid=(0.05,),
            base_params=base,
            replications=20,
            n_a=300,
            n_b=300,
        )
        res = run_sweep(spec, base_seed=21)
        gaps = [r.parity_gap for r in res.records
                if r.rule == AllocationRule.UNCONSTRAINED.value]
        assert abs(float(np.median(gaps))) <= 0.02

    def test_scenario_a_disparity_direction(self):
        # with beta_b above beta_a the optimizer under-delivers to group B,
        # so the recorded disparity (A minus B) is positive
        res = run_sweep(tiny_spec(grid=(0.31,), reps=10, n=400), base_seed=17)
        gaps = [r.parity_gap for r in res.records
                if r.rule == AllocationRule.UNCONSTRAINED.value]
        assert float(np.median(gaps)) > 0.05

    def test_record_gaps_are_the_solves_gaps(self):
        spec = tiny_spec("gamma", grid=(0.0, 0.5, 1.0), reps=2)
        for rec in run_sweep(spec, base_seed=3).records:
            pop = sample_population(PopulationSpec(
                n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click, seed=rec.seed,
            ))
            constraints = AllocationRule(rec.rule).constraint_set(spec.tolerance)
            want = solve(SolveRequest(pop, spec.params_for(rec.param_value), constraints))
            # bit for bit: the sign of a zero gap included
            assert np.array([rec.parity_gap, rec.eo_gap, rec.eho_gap]).tobytes() == np.array(
                want.gaps).tobytes()

    def test_seed_recorded_per_cell(self):
        res = run_sweep(tiny_spec(grid=(0.05, 0.2), reps=2), base_seed=5)
        seeds = {}
        for rec in res.records:
            seeds.setdefault(rec.replication, set()).add(rec.seed)
        # one sub-seed per replication, the same at every grid value
        assert seeds == {rep: {subseed(5, 0, rep)} for rep in range(2)}

    def test_a_replication_builds_its_rows_once_across_the_grid(self, monkeypatch):
        drawn, built = [], []
        sample, gap_row = hermfair.scenarios.sample_population, hermfair.model._Context._gap_row
        monkeypatch.setattr(hermfair.scenarios, "sample_population",
                            lambda spec: drawn.append(spec.seed) or sample(spec))
        monkeypatch.setattr(hermfair.model._Context, "_gap_row",
                            lambda ctx, name: built.append(name) or gap_row(ctx, name))
        res = run_sweep(tiny_spec(grid=(0.05, 0.2, 0.35), reps=2), base_seed=5)
        assert len(res.records) == 3 * 2 * 5 and res.n_failed == 0
        # one draw and one row per constraint for each replication, in the
        # order of its first grid value's rules
        assert drawn == [subseed(5, 0, rep) for rep in range(2)]
        assert built == list(ConstraintSet.all().active) * 2


class TestFailedSolves:
    def test_a_failing_rule_is_recorded_and_the_sweep_goes_on(self, tmp_path, monkeypatch):
        # every equality-of-opportunity solve raises; the sweep writes them
        # as failed records and the other rules as an unpatched run does
        import csv
        import json

        from hermfair.cli import main

        eo = AllocationRule.EQUALITY_OF_OPPORTUNITY.value
        argv = ["sweep", "--scenario", "A", "--grid", "0.05,0.2", "--reps", "2",
                "--na", "30", "--nb", "30", "--seed", "4", "--out"]
        assert main([*argv, str(tmp_path / "clean")]) == 0
        real = hermfair.solver.solve_constrained_lp

        def fail_eo(req, *args, **kwargs):
            if req.constraints.active == ("equality_opportunity",):
                raise hermfair.solver.SolverNumericalError("refused")
            return real(req, *args, **kwargs)

        monkeypatch.setattr(hermfair.solver, "solve_constrained_lp", fail_eo)
        assert main([*argv, str(tmp_path / "failed")]) == 0

        def read(run, name):
            return (tmp_path / run / name).read_text(encoding="utf-8")

        clean = read("clean", "records.csv").splitlines()
        failed = read("failed", "records.csv").splitlines()
        assert len(clean) == len(failed) == 1 + 2 * 2 * 5
        n_eo = 0
        assert clean[0] == failed[0]
        for want, got, rec in zip(clean[1:], failed[1:], csv.DictReader(failed)):
            if rec["rule"] == eo:
                n_eo += 1
                assert rec["status"] == "failed:SolverNumericalError"
                numbers = ("objective", "utility_pct", "parity_gap", "eo_gap", "eho_gap")
                assert [rec[col] for col in numbers] == ["nan"] * 5
            else:
                assert got == want
        assert n_eo == 4
        assert json.loads(read("failed", "metadata.json"))["n_failed"] == 4
        rows = list(csv.DictReader(read("failed", "aggregates.csv").splitlines()))
        assert [(row["n_used"], row["n_failed"]) for row in rows if row["rule"] == eo] == [
            ("0", "2"), ("0", "2")]
        for row in json.loads(read("failed", "aggregates.json"))["rows"]:
            stats = [value for key, value in row.items()
                     if key.endswith(("_median", "_q25", "_q75"))]
            assert len(stats) == 6
            if row["rule"] == eo:
                assert stats == [None] * 6
            else:
                assert None not in stats

    def test_a_failing_unconstrained_solve_is_recorded_and_the_cell_goes_on(self, monkeypatch):
        # the unconstrained record fails as any other; the other four rules
        # keep their solves, and their share of a failed optimum is NaN
        spec = tiny_spec(grid=(0.05, 0.2), reps=2)
        clean = run_sweep(spec, base_seed=4, jobs=1)
        real = hermfair.scenarios.solve

        def fail_unconstrained(req):
            if not req.constraints.active:
                raise hermfair.solver.SolverNumericalError("refused")
            return real(req)

        monkeypatch.setattr(hermfair.scenarios, "solve", fail_unconstrained)
        failed = run_sweep(spec, base_seed=4, jobs=1)
        assert len(failed.records) == len(clean.records) == 2 * 2 * 5
        assert [rec.rule for rec in failed.records[:5]] == [rule.value for rule in AllocationRule]
        assert failed.n_failed == 2 * 2
        numbers = ("objective", "utility_pct", "parity_gap", "eo_gap", "eho_gap")
        for want, got in zip(clean.records, failed.records):
            if got.rule == AllocationRule.UNCONSTRAINED.value:
                assert got.status == "failed:SolverNumericalError"
                assert all(math.isnan(getattr(got, name)) for name in numbers)
            else:
                assert math.isnan(got.utility_pct)
                assert replace(got, utility_pct=want.utility_pct) == want
        rows = aggregate(failed)
        assert [(row.n_used, row.n_failed) for row in rows
                if row.rule == AllocationRule.UNCONSTRAINED.value] == [(0, 2), (0, 2)]
        for want, got in zip(aggregate(clean), rows):
            if got.rule != AllocationRule.UNCONSTRAINED.value:
                assert (got.n_used, got.n_failed) == (2, 0)
                assert math.isnan(got.utility_pct_median)
                assert got.parity_gap_median == want.parity_gap_median


class TestSharedThresholdScore:
    """Rules solved on one population share its scored threshold allocation."""

    @staticmethod
    def _solve(rule, pop, params, tolerance):
        solver = solve_unconstrained if rule is AllocationRule.UNCONSTRAINED else solve_constrained_lp
        return solver(SolveRequest(pop, params, rule.constraint_set(tolerance)))

    def test_shared_population_matches_fresh_copies(self):
        shared = 0
        for scenario in ScenarioId:
            spec = builtin_scenario(scenario, n_a=200, n_b=200)
            for value in (spec.grid[0], spec.grid[-1]):
                pop = sample_population(PopulationSpec(
                    n_a=200, n_b=200, uptake=spec.uptake, click=spec.click, seed=5,
                ))
                params = spec.params_for(value)
                results = {}
                for rule in AllocationRule:  # in the order a sweep cell solves them
                    got = results[rule] = self._solve(rule, pop, params, spec.tolerance)
                    fresh = Population.from_arrays(pop.groups, pop.p, pop.rho)
                    want = self._solve(rule, fresh, params, spec.tolerance)
                    assert got.allocation.values.tobytes() == want.allocation.values.tobytes()
                    assert np.array([got.objective, *got.gaps]).tobytes() == np.array(
                        [want.objective, *want.gaps]).tobytes()
                    assert (got.status, got.n_fractional) == (want.status, want.n_fractional)
                unc = results[AllocationRule.UNCONSTRAINED].allocation
                shared += sum(res.allocation is unc for res in results.values()) - 1
        assert shared >= 4  # gamma = 1.0 ends every constrained rule at the threshold

    def test_a_threshold_cell_scores_its_allocation_once(self, monkeypatch):
        calls = []
        real = hermfair.model._Context.score
        monkeypatch.setattr(
            hermfair.model._Context, "score", lambda ctx, alloc: calls.append(alloc) or real(ctx, alloc)
        )
        spec = builtin_scenario("gamma", grid=(1.0,), replications=1, n_a=200, n_b=200)
        seed = subseed(5, 0, 0)
        pop = sample_population(PopulationSpec(
            n_a=200, n_b=200, uptake=spec.uptake, click=spec.click, seed=seed))
        records = hermfair.scenarios._run_cell(spec, pop, seed, 0, 0)
        assert [rec.utility_pct for rec in records] == [100.0] * 5
        assert {rec.status for rec in records} == {"optimal"}
        assert len(calls) == 1


class TestAggregate:
    def _result_with_values(self, values, rule="unconstrained", param=0.1):
        records = tuple(
            SweepRecord(scenario="A", rule=rule, param_name="beta_b", param_value=param,
                        replication=i, objective=v, utility_pct=v, parity_gap=v,
                        eo_gap=v, eho_gap=v, status="optimal", seed=i)
            for i, v in enumerate(values)
        )
        return SweepResult(spec=tiny_spec(grid=(param,), reps=len(values)), base_seed=0,
                           records=records)

    def test_single_replication_degenerate_quartiles(self):
        rows = aggregate(self._result_with_values([7.0]))
        row = rows[0]
        assert row.utility_pct_median == row.utility_pct_q25 == row.utility_pct_q75 == 7.0

    def test_linear_interpolation_median(self):
        rows = aggregate(self._result_with_values([1.0, 2.0, 3.0, 4.0]))
        assert rows[0].utility_pct_median == pytest.approx(2.5)
        assert rows[0].parity_gap_q25 == pytest.approx(1.75)
        assert rows[0].parity_gap_q75 == pytest.approx(3.25)

    def test_order_invariance(self):
        a = aggregate(self._result_with_values([5.0, 1.0, 3.0, 2.0]))
        b = aggregate(self._result_with_values([1.0, 2.0, 3.0, 5.0]))
        assert a[0].utility_pct_median == b[0].utility_pct_median
        assert a[0].utility_pct_q25 == b[0].utility_pct_q25

    def test_quartile_ordering_invariant(self):
        res = run_sweep(tiny_spec(grid=(0.05, 0.35), reps=7), base_seed=23)
        for row in aggregate(res):
            assert row.utility_pct_q25 <= row.utility_pct_median <= row.utility_pct_q75
            assert row.parity_gap_q25 <= row.parity_gap_median <= row.parity_gap_q75

    def test_failed_records_excluded(self):
        good = self._result_with_values([1.0, 3.0])
        bad = SweepRecord(scenario="A", rule="unconstrained", param_name="beta_b",
                          param_value=0.1, replication=9, objective=math.nan,
                          utility_pct=math.nan, parity_gap=math.nan, eo_gap=math.nan,
                          eho_gap=math.nan, status="failed:SolverNumericalError", seed=9)
        res = SweepResult(spec=good.spec, base_seed=0, records=good.records + (bad,))
        rows = aggregate(res)
        assert rows[0].n_used == 2
        assert rows[0].n_failed == 1
        assert rows[0].utility_pct_median == pytest.approx(2.0)

    def test_empty_sweep_rejected(self):
        empty = SweepResult(spec=tiny_spec(), base_seed=0, records=())
        with pytest.raises(ValueError):
            aggregate(empty)

    def test_rows_match_per_bucket_percentiles(self):
        # buckets with 3, 2, 3 and 0 successful records: the two with three
        # share one percentile call, and the all-failed one stays NaN
        rng = np.random.default_rng(41)
        buckets = [("unconstrained", 0.1, 3, 1), ("parity", 0.1, 2, 0),
                   ("parity", 0.2, 3, 0), ("eo", 0.2, 0, 2)]
        records = []
        for rule, param, n_good, n_bad in buckets:
            for i in range(n_good + n_bad):
                failed = i >= n_good
                v = math.nan if failed else float(rng.normal() * 10.0 ** rng.integers(-9, 9))
                records.append(SweepRecord(
                    scenario="A", rule=rule, param_name="beta_b", param_value=param,
                    replication=i, objective=v, utility_pct=v, parity_gap=-v / 3.0,
                    eo_gap=v, eho_gap=v, seed=i,
                    status="failed:SolverNumericalError: x" if failed else "optimal"))
        res = SweepResult(spec=tiny_spec(grid=(0.1, 0.2), reps=4), base_seed=0,
                          records=tuple(records))
        rows = aggregate(res)
        assert [(r.rule, r.param_value, r.n_used, r.n_failed) for r in rows] == buckets
        for row in rows:
            good = [r for r in records if (r.rule, r.param_value) == (row.rule, row.param_value)
                    and r.status == "optimal"]
            for name in ("utility_pct", "parity_gap"):
                got = [getattr(row, f"{name}_{stat}") for stat in ("q25", "median", "q75")]
                if not good:
                    assert all(math.isnan(q) for q in got)
                    continue
                want = np.percentile(np.array([getattr(r, name) for r in good]),
                                     [25.0, 50.0, 75.0], method="linear")
                assert all(type(q) is float for q in got)
                assert np.array(got).tobytes() == want.tobytes()
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        write_aggregates_csv(res, rows, csv_buf)
        write_aggregates_json(res, rows, json_buf)
        failed_line = csv_buf.getvalue().splitlines()[4]
        assert failed_line.startswith("A,eo,beta_b,0.20000000000000001,0,2,")
        assert failed_line.split(",")[6:] == ["nan"] * 6
        import json

        failed_row = json.loads(json_buf.getvalue())["rows"][3]
        assert [failed_row[f"{name}_{stat}"] for name in ("utility_pct", "parity_gap")
                for stat in ("median", "q25", "q75")] == [None] * 6


class TestAggregateRow:
    def test_fields_and_value_equality(self):
        assert [f.name for f in fields(AggregateRow)] == [
            "rule", "param_name", "param_value", "n_used", "n_failed",
            "utility_pct_median", "utility_pct_q25", "utility_pct_q75",
            "parity_gap_median", "parity_gap_q25", "parity_gap_q75",
        ]
        values = dict(rule="parity_of_exposure", param_name="beta_b", param_value=0.1,
                      n_used=2, n_failed=0, utility_pct_median=90.0, utility_pct_q25=85.0,
                      utility_pct_q75=95.0, parity_gap_median=0.0, parity_gap_q25=-1e-7,
                      parity_gap_q75=1e-7)
        row = AggregateRow(**values)
        assert row == AggregateRow(**values) != replace(row, n_failed=1)
        with pytest.raises(FrozenInstanceError):
            row.n_used = 3
        assert pickle.loads(pickle.dumps(row)) == row
        assert repr(row).startswith("AggregateRow(rule='parity_of_exposure', ")


class TestWriters:
    def test_records_csv_schema(self):
        res = run_sweep(tiny_spec(grid=(0.05,), reps=2), base_seed=1)
        buf = io.StringIO()
        write_records_csv(res, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ("scenario,rule,param_name,param_value,replication,"
                            "objective,utility_pct,parity_gap,eo_gap,eho_gap,status,seed")
        assert len(lines) == 1 + len(res.records)

    def test_aggregates_writers(self):
        res = run_sweep(tiny_spec(grid=(0.05,), reps=2), base_seed=1)
        rows = aggregate(res)
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        write_aggregates_csv(res, rows, csv_buf)
        write_aggregates_json(res, rows, json_buf)
        assert csv_buf.getvalue().startswith("scenario,rule,param_name,param_value")
        import json

        payload = json.loads(json_buf.getvalue())
        assert payload["scenario"] == "A"
        assert payload["gap_orientation"] == "group A minus group B"
        assert len(payload["rows"]) == len(rows)

    def test_aggregates_json_is_strict(self):
        # a row whose every record failed has no statistics: null, not NaN
        import json

        bad = SweepRecord(scenario="A", rule="unconstrained", param_name="beta_b",
                          param_value=0.1, replication=0, objective=math.nan,
                          utility_pct=math.nan, parity_gap=math.nan, eo_gap=math.nan,
                          eho_gap=math.nan, status="failed:SolverNumericalError", seed=9)
        res = SweepResult(spec=tiny_spec(grid=(0.1,), reps=1), base_seed=0, records=(bad,))
        buf = io.StringIO()
        write_aggregates_json(res, aggregate(res), buf)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        (row,) = json.loads(buf.getvalue(), parse_constant=reject)["rows"]
        assert row["n_failed"] == 1
        assert row["utility_pct_median"] is None
        assert row["parity_gap_q75"] is None

    def test_float_round_trip_precision(self):
        res = run_sweep(tiny_spec(grid=(0.05,), reps=1), base_seed=1)
        buf = io.StringIO()
        write_records_csv(res, buf)
        buf.seek(0)
        import csv as csv_mod

        rows = list(csv_mod.DictReader(buf))
        rec = res.records[0]
        assert float(rows[0]["objective"]) == rec.objective
        assert float(rows[0]["parity_gap"]) == rec.parity_gap
