import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

import hermfair.model
import hermfair.solver
from hermfair.model import (
    Allocation,
    ConstraintSet,
    DegenerateGroupError,
    ModelParams,
    Population,
    _context,
    decision_gains,
    herm_aware_utility,
    hermeneutical_cost,
)
from hermfair.population import (
    ClickConfig,
    PopulationSpec,
    UptakeConfig,
    sample_population,
    subseed,
)
from hermfair.scenarios import (
    CONSTRAINED_RULES,
    AllocationRule,
    ScenarioId,
    UptakeVariant,
    builtin_scenario,
    run_sweep,
)
from hermfair.solver import (
    MAX_ENUMERATION_CAP,
    RESIDUAL_BOUND,
    ROUNDOFF_ALLOWANCE,
    PopulationTooLargeError,
    SolverNumericalError,
    SolveMode,
    SolveRequest,
    SolveStatus,
    constraint_rows,
    round_allocation,
    solve,
    solve_binary_exact,
    solve_constrained_lp,
    solve_unconstrained,
)
from test_acceptance import _b_exclusion_bound, _group_show_rate, _saturation_gamma

TABLE_PARAMS = dict(alpha=0.2, beta_a=0.03, beta_b=0.05, theta_a=0.05, theta_b=0.1,
                    omega_a=0.01, omega_b=0.01, xi=0.2, gamma=0.01)


def make_params(**kw):
    base = dict(TABLE_PARAMS)
    base.update(kw)
    return ModelParams(**base)


def pop_from(groups, p, rho):
    return Population.from_arrays(np.array(groups), np.array(p), np.array(rho))


def solved_unconstrained(pop, params):
    """The decisions ``solve`` returns for an unconstrained request."""
    return solve(SolveRequest(pop, params)).allocation.values


def threshold_reference(pop, params):
    """The threshold allocation built apart from the solver: show iff the
    gain is non-negative."""
    return (decision_gains(pop, params) >= 0.0).astype(np.float64)


def random_instance(rng, n_max=14, n_min=2):
    """A population plus parameters drawn from continuous ranges (no exact ties)."""
    n = int(rng.integers(n_min, n_max + 1))
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
    return pop_from(groups, p, rho), params


def brute_force_best(pop, params, constraints):
    """Independent oracle: try all binary vectors by explicit objective evaluation."""
    best_obj, best_vec = -np.inf, None
    names, rows = constraint_rows(pop, constraints)
    for bits in itertools.product((0.0, 1.0), repeat=pop.size):
        d = np.array(bits)
        if rows.shape[0] and (np.abs(rows @ d) > constraints.tolerance).any():
            continue
        obj = herm_aware_utility(pop, Allocation.binary(d), params)
        if obj > best_obj:
            best_obj, best_vec = obj, d
    return best_obj, best_vec


# -------------------------------------------------------------- row cache

class TestConstraintRowCache:
    """A population's context keeps each gap row the first time every row
    of a request is built, and the retained names for each active set."""

    @staticmethod
    def _population(seed=13, n=40):
        rng = np.random.default_rng(seed)
        groups = np.where(rng.random(n) < 0.5, "A", "B")
        groups[:2] = ["B", "A"]  # interleaved, as a CSV may hold them
        return pop_from(groups, rng.random(n) ** 2, rng.beta(2.0, 2.0, n))

    @staticmethod
    def _count_row_builds(monkeypatch):
        built = []
        real = hermfair.model._Context._gap_row

        def counted(ctx, name):
            built.append(name)
            return real(ctx, name)

        monkeypatch.setattr(hermfair.model._Context, "_gap_row", counted)
        return built

    def test_rows_are_read_only_and_match_a_fresh_population(self):
        pop = self._population()
        ctx = _context(pop, make_params())
        names, rows = ctx.rows(ConstraintSet.all().active)
        assert names == ConstraintSet.all().active
        assert sorted(ctx._rows) == sorted(names)
        for name, kept in ctx._rows.items():
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0.5
            # each row by the expression a row was built with before it was kept
            column = {"parity_exposure": None, "equality_opportunity": "p",
                      "equality_herm_opportunity": "rho"}[name]
            w = 1.0 if column is None else getattr(pop, column)
            mass_a, mass_b = (float(pop.n_a), float(pop.n_b)) if column is None else (
                float(w[pop.mask_a].sum()), float(w[pop.mask_b].sum()))
            reference = np.where(pop.mask_a, -w / mass_a, w / mass_b)
            assert kept.tobytes() == reference.tobytes()
        fresh = Population.from_arrays(pop.groups, pop.p, pop.rho)
        fresh_names, fresh_rows = constraint_rows(fresh, ConstraintSet.all())
        assert (list(names), rows.tobytes()) == (fresh_names, fresh_rows.tobytes())
        # later requests share the one read-only block, and the kept rows are
        # views into it
        assert not rows.flags.writeable
        again_names, again = ctx.rows(ConstraintSet.all().active)
        assert again_names == names and again is rows
        assert all(np.shares_memory(kept, rows) for kept in ctx._rows.values())
        # the public function's matrix is writable, and no context shares it
        public_names, public = constraint_rows(pop, ConstraintSet.all())
        assert public.flags.writeable and public.flags.owndata
        assert (public_names, public.tobytes()) == (list(names), rows.tobytes())
        assert not np.shares_memory(public, rows)

    def test_rows_do_not_depend_on_the_tolerance(self, monkeypatch):
        built = self._count_row_builds(monkeypatch)
        pop = self._population()
        params = make_params()
        first = solve_constrained_lp(SolveRequest(pop, params, ConstraintSet.all(1e-6)))
        ctx = pop._context
        kept = dict(ctx._rows)
        for tol in (0.0, 0.5, 1e-6):
            res = solve_constrained_lp(SolveRequest(pop, params, ConstraintSet.all(tol)))
            assert pop._context is ctx
            assert ctx.rows(ConstraintSet.all(tol).active)[1].tobytes() == np.vstack(
                list(kept.values())).tobytes()
        assert res.allocation.values.tobytes() == first.allocation.values.tobytes()
        assert len(built) == 3
        assert all(ctx._rows[name] is row for name, row in kept.items())
        assert list(ctx._retained) == [ConstraintSet.all().active]

    def test_three_row_request_after_one_row_requests_builds_no_row(self, monkeypatch):
        built = self._count_row_builds(monkeypatch)
        pop = self._population()
        ctx = _context(pop, make_params())
        singles = [ctx.rows(factory(0.01).active)[1]
                   for factory in (ConstraintSet.parity, ConstraintSet.opportunity,
                                   ConstraintSet.herm_opportunity)]
        assert built == list(ConstraintSet.all().active)
        names, rows = ctx.rows(ConstraintSet.all().active)
        assert len(built) == 3
        assert rows.tobytes() == np.vstack(singles).tobytes()
        assert len(ctx._retained) == 4

    def test_a_request_whose_rows_all_exist_builds_no_block(self, monkeypatch):
        # a new set of names whose rows are all built, each row or all of
        # them, reads the kept block: no new block is made
        extended = []
        real = hermfair.model._Context._extend
        monkeypatch.setattr(hermfair.model._Context, "_extend",
                            lambda ctx, active: extended.append(active) or real(ctx, active))
        pop = self._population()
        ctx = _context(pop, make_params())
        ctx.rows(ConstraintSet.parity().active)
        ctx.rows(ConstraintSet.herm_opportunity().active)
        ctx.rows(ConstraintSet(True, False, True).active)
        assert len(extended) == 2
        ctx.rows(ConstraintSet.opportunity().active)
        _, block = ctx.rows(ConstraintSet.all().active)
        assert len(extended) == 3 and np.shares_memory(ctx.shared.block, block)

    def test_requests_after_the_three_row_request_view_its_block(self, monkeypatch):
        built = self._count_row_builds(monkeypatch)
        pop = self._population()
        ctx = _context(pop, make_params())
        _, block = ctx.rows(ConstraintSet.all().active)
        requests = [ConstraintSet.parity(), ConstraintSet.herm_opportunity(),
                    ConstraintSet(True, False, True), ConstraintSet(False, True, True)]
        views = [ctx.rows(cs.active) for cs in requests]
        assert built == list(ConstraintSet.all().active)
        for cs, (names, rows) in zip(requests, views):
            assert names == cs.active and np.shares_memory(rows, block)
            assert rows.tobytes() == np.vstack([ctx._rows[name] for name in names]).tobytes()
            assert constraint_rows(pop, cs)[1].tobytes() == rows.tobytes()

    def test_duplicate_row_is_kept_but_not_retained(self, monkeypatch):
        built = self._count_row_builds(monkeypatch)
        pop = pop_from(["A", "B", "A", "B"], [0.9, 0.6, 0.1, 0.4], [0.5] * 4)
        ctx = _context(pop, make_params())
        cs = ConstraintSet(parity_exposure=True, equality_herm_opportunity=True)
        for _ in range(2):
            assert ctx.rows(cs.active)[0] == ("parity_exposure",)
        assert ctx.rows(ConstraintSet.herm_opportunity().active)[0] == (
            "equality_herm_opportunity",)
        assert built == ["parity_exposure", "equality_herm_opportunity"]

    def test_nothing_is_kept_after_a_degenerate_group(self, monkeypatch):
        built = self._count_row_builds(monkeypatch)
        # group A has zero total p: its click-weighted row is undefined
        pop = pop_from(["A", "B", "A", "B"], [0.0, 0.6, 0.0, 0.4], [0.3, 0.5, 0.7, 0.2])
        params = make_params()
        for _ in range(2):
            with pytest.raises(DegenerateGroupError):
                solve_constrained_lp(SolveRequest(pop, params, ConstraintSet.all()))
            ctx = pop._context
            assert ctx._rows == {} and ctx._retained == {}
        assert ctx.rows(ConstraintSet.parity().active)[0] == ("parity_exposure",)
        with pytest.raises(DegenerateGroupError):
            ctx.rows(ConstraintSet.opportunity().active)
        assert sorted(ctx._rows) == ["parity_exposure"]
        assert list(ctx._retained) == [("parity_exposure",)]
        # the failed requests kept nothing, so the parity request built its row again
        assert built == ["parity_exposure", "equality_opportunity"] * 3


class TestSolveMemory:
    """The tracemalloc peak of a solve on a fresh 2x20,000-user population,
    in floats per user: the context keeps one block of rows, and each
    full-length array of an engine is made once."""

    @staticmethod
    def _floats_per_user(constraints):
        spec = builtin_scenario(ScenarioId.A)
        pop = sample_population(PopulationSpec(
            n_a=20_000, n_b=20_000, uptake=spec.uptake, click=spec.click, seed=3))
        tracemalloc.start()
        try:
            result = solve(SolveRequest(pop, ModelParams.default(), constraints))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_fractional == len(constraints.active)  # an engine ran
        return peak / (8 * pop.size)

    def test_three_row_solve(self):
        # 14.5 measured (23.2 with a copy of the rows per request and the
        # dual simplex's arrays built by concatenation); the margin is one
        # float per user
        assert self._floats_per_user(ConstraintSet.all()) <= 15.5

    def test_one_row_solve(self):
        # 11.0 measured (18.6 with a copy of the row and the scan's
        # intermediate arrays all kept); the margin is one float per user
        assert self._floats_per_user(ConstraintSet.parity()) <= 12.0


# ------------------------------------------------------------- threshold rule

class TestThresholdRule:
    def test_gamma_zero_threshold(self):
        # show iff p >= beta_a / alpha = 0.15
        params = make_params(gamma=0.0)
        pop = pop_from(["A"] * 4 + ["B"], [0.149, 0.15, 0.151, 0.0, 0.9], [0.5] * 5)
        assert solved_unconstrained(pop, params)[:4].tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_hand_threshold_with_gamma(self):
        # (0.03 - 0.002 - 0.0005) / 0.2 = 0.1375 at rho = 1
        params = make_params()
        pop = pop_from(["A", "A", "B"], [0.137, 0.1375, 0.5], [1.0, 1.0, 0.5])
        d = solved_unconstrained(pop, params)
        assert d[0] == 0.0
        assert d[1] == 1.0  # tie shows the ad

    def test_no_opportunity_cost_shows_everyone(self):
        params = make_params(beta_a=0.0, beta_b=0.0, gamma=0.0)
        pop = pop_from(["A", "B", "B"], [0.0, 0.3, 1.0], [0.1, 0.5, 0.9])
        assert solved_unconstrained(pop, params).tolist() == [1.0, 1.0, 1.0]

    def test_closed_form_bounds(self):
        # The bounds acceptance criteria 5b and 7b rely on.  The users at
        # p = rho = 0 and p = rho = 1 carry each group's smallest and largest
        # gain, so every population includes them.
        rng = np.random.default_rng(37)
        param_sets = [make_params()] + [
            make_params(
                alpha=float(rng.uniform(0.05, 0.5)),
                beta_a=float(rng.uniform(0.0, 0.15)),
                beta_b=float(rng.uniform(0.0, 0.15)),
                theta_a=float(rng.uniform(0.01, 0.3)),
                theta_b=float(rng.uniform(0.01, 0.3)),
                omega_a=float(rng.uniform(0.01, 0.3)),
                omega_b=float(rng.uniform(0.01, 0.3)),
                xi=float(rng.uniform(0.31, 0.6)),
                gamma=float(rng.uniform(0.0, 1.0)),
            )
            for _ in range(40)
        ]
        for params in param_sets:
            groups = np.array(["A"] * 100 + ["B"] * 100 + ["A", "B", "A", "B"])
            p = np.concatenate([rng.random(200) ** rng.choice([1.0, 20.0]), [0.0, 0.0, 1.0, 1.0]])
            rho = np.concatenate([rng.beta(4.0, 6.0, 200), [0.0, 0.0, 1.0, 1.0]])
            pop = Population.from_arrays(groups, p, rho)
            # every group-g user is shown from gamma = beta_g / (xi - omega_g) on;
            # 1e-9 above it, so rounding cannot decide the p = rho = 0 tie
            for group, mask in (("A", pop.mask_a), ("B", pop.mask_b)):
                star = _saturation_gamma(params, group)
                for factor in (1.0 + 1e-9, 1.0 + float(rng.uniform(0.01, 2.0))):
                    d = solved_unconstrained(pop, replace(params, gamma=star * factor))
                    assert d[mask].all()
            # no group-B user is shown once beta_b > alpha + gamma*(theta_b + xi)
            beyond = _b_exclusion_bound(params) * (1.0 + float(rng.uniform(1e-9, 1.0)))
            d = solved_unconstrained(pop, replace(params, beta_b=beyond))
            assert not d[pop.mask_b].any()

        # the quadrature show rate matches a seeded 50 000-user sample within
        # 4 standard errors, for both groups at two cost weights
        uptake = UptakeConfig((4, 6), (7, 3))
        pop = sample_population(PopulationSpec(n_a=50_000, n_b=50_000, uptake=uptake, seed=3))
        for params in (make_params(), make_params(gamma=0.1)):
            d = solved_unconstrained(pop, params)
            for group, mask, n in (("A", pop.mask_a, pop.n_a), ("B", pop.mask_b, pop.n_b)):
                rate = _group_show_rate(params, group, uptake, ClickConfig())
                se = math.sqrt(rate * (1.0 - rate) / n)
                assert abs(d[mask].mean() - rate) <= 4.0 * se


# ---------------------------------------------------------------- unconstrained

class TestUnconstrained:
    def test_rejects_active_constraints(self):
        pop = pop_from(["A", "B"], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            solve_unconstrained(SolveRequest(pop, make_params(), ConstraintSet.parity()))

    def test_two_user_exhaustive(self):
        pop = pop_from(["A", "B"], [0.4, 0.1], [0.3, 0.8])
        params = make_params()
        res = solve_unconstrained(SolveRequest(pop, params))
        best = max(
            herm_aware_utility(pop, Allocation.binary(np.array(bits)), params)
            for bits in itertools.product((0.0, 1.0), repeat=2)
        )
        assert res.objective == pytest.approx(best, abs=1e-15)
        assert res.status is SolveStatus.OPTIMAL

    def test_all_certain_clicks(self):
        params = make_params(beta_a=0.0, beta_b=0.0, gamma=0.0, alpha=0.2)
        pop = pop_from(["A", "B", "B"], [1.0, 1.0, 1.0], [0.5] * 3)
        res = solve_unconstrained(SolveRequest(pop, params))
        assert res.allocation.values.tolist() == [1.0, 1.0, 1.0]
        assert res.objective == pytest.approx(3 * 0.2)

    def test_all_zero_clicks(self):
        params = make_params(beta_a=0.02, beta_b=0.07, gamma=0.0)
        pop = pop_from(["A", "B"], [0.0, 0.0], [0.5, 0.5])
        res = solve_unconstrained(SolveRequest(pop, params))
        assert res.allocation.values.tolist() == [0.0, 0.0]
        assert res.objective == pytest.approx(0.02 + 0.07)

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            pop, params = random_instance(rng, n_max=10)
            res = solve_unconstrained(SolveRequest(pop, params))
            oracle = solve_binary_exact(
                SolveRequest(pop, params, mode=SolveMode.BINARY_EXACT)
            )
            assert np.array_equal(res.allocation.values, oracle.allocation.values)
            assert res.objective == oracle.objective


# -------------------------------------------------------------- constrained LP

class TestConstrainedLP:
    def test_requires_constraint(self):
        pop = pop_from(["A", "B"], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            solve_constrained_lp(SolveRequest(pop, make_params()))

    def test_unknown_method_rejected_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rows or gains built before the method was checked")

        monkeypatch.setattr(hermfair.solver, "constraint_rows", refuse)
        monkeypatch.setattr(hermfair.solver, "decision_gains", refuse)
        pop = pop_from(["A", "B"], [0.5, 0.5], [0.5, 0.5])
        req = SolveRequest(pop, make_params(), ConstraintSet.parity())
        with pytest.raises(ValueError, match="unknown method 'simplex'"):
            solve_constrained_lp(req, method="simplex")

    def test_symmetric_population_parity_costs_nothing(self):
        # group B mirrors group A, so the unconstrained optimum is already fair
        p = [0.9, 0.3, 0.05]
        rho = [0.7, 0.4, 0.2]
        pop = pop_from(["A"] * 3 + ["B"] * 3, p + p, rho + rho)
        params = make_params(beta_b=0.03, theta_b=0.05)
        unc = solve_unconstrained(SolveRequest(pop, params))
        con = solve_constrained_lp(SolveRequest(pop, params, ConstraintSet.parity(1e-9)))
        assert con.objective == pytest.approx(unc.objective, abs=1e-12)

    def test_never_beats_unconstrained(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            pop, params = random_instance(rng, n_max=30)
            unc = solve_unconstrained(SolveRequest(pop, params))
            for cs in (ConstraintSet.parity(), ConstraintSet.opportunity(),
                       ConstraintSet.herm_opportunity(), ConstraintSet.all()):
                res = solve_constrained_lp(SolveRequest(pop, params, cs))
                assert res.objective <= unc.objective + 1e-9

    def test_six_user_parity_against_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n_a = int(rng.integers(1, 6))
            groups = ["A"] * n_a + ["B"] * (6 - n_a)
            pop = pop_from(groups, rng.random(6), rng.random(6))
            params = make_params()
            cs = ConstraintSet.parity(0.02)
            res = solve_constrained_lp(SolveRequest(pop, params, cs))
            best_obj, _ = brute_force_best(pop, params, cs)
            c = decision_gains(pop, params)
            m_bound = 1 * np.max(np.abs(c))
            assert res.objective >= best_obj - 1e-9
            assert res.objective <= best_obj + m_bound + 1e-9
            assert res.n_fractional <= 1

    def test_parametric_agrees_with_highs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            pop, params = random_instance(rng, n_max=40)
            for cs in (ConstraintSet.parity(1e-6), ConstraintSet.opportunity(0.05),
                       ConstraintSet.herm_opportunity(0.0)):
                try:
                    fast = solve_constrained_lp(SolveRequest(pop, params, cs), method="parametric")
                except Exception:
                    continue  # degenerate weight mass; covered elsewhere
                slow = solve_constrained_lp(SolveRequest(pop, params, cs), method="highs")
                assert fast.objective == pytest.approx(slow.objective, rel=1e-9, abs=1e-9)

    def test_duplicate_rows_are_deduplicated(self):
        # constant rho makes the uptake row equal the exposure row
        pop = pop_from(["A", "A", "B", "B"], [0.9, 0.1, 0.6, 0.4], [0.5] * 4)
        cs = ConstraintSet(parity_exposure=True, equality_herm_opportunity=True)
        names, rows = constraint_rows(pop, cs)
        assert names == ["parity_exposure"]
        res = solve_constrained_lp(SolveRequest(pop, make_params(), cs))
        assert res.n_fractional <= 1
        assert abs(res.parity_gap) <= cs.tolerance + 1e-8

    def test_status_at_zero_eps(self):
        # with eps = 0 the realized gap is float-exact only when it is 0;
        # asymmetric groups leave a ~1e-16 residual, within the round-off
        # allowance, so the status stays optimal
        rng = np.random.default_rng(3)
        for _ in range(20):
            pop, params = random_instance(rng, n_max=12)
            res = solve_constrained_lp(
                SolveRequest(pop, params, ConstraintSet.opportunity(0.0))
            )
            assert res.status is SolveStatus.OPTIMAL
            assert abs(res.eo_gap) <= 1e-12

    def test_status_rule(self):
        # a face solution is optimal; an overshoot beyond the round-off
        # allowance is tolerance_relaxed; one beyond the residual bound raises
        rng = np.random.default_rng(43)
        faces = 0
        for _ in range(30):
            pop, params = random_instance(rng, n_max=30, n_min=4)
            cs = ConstraintSet.parity(1e-3)
            res = solve_constrained_lp(SolveRequest(pop, params, cs))
            faces += abs(abs(res.parity_gap) - cs.tolerance) < 1e-12
            assert res.status is SolveStatus.OPTIMAL
        assert faces >= 10

        pop = pop_from(["A", "B"], [0.5, 0.5], [0.5, 0.5])
        cs = ConstraintSet.parity(0.25)
        build, ctx = hermfair.solver._build_result, _context(pop, make_params())
        relaxed = build(ctx, np.array([0.0, 0.25 + 1e-9]), cs)
        assert relaxed.status is SolveStatus.TOLERANCE_RELAXED
        with pytest.raises(SolverNumericalError, match="violates active constraints"):
            build(ctx, np.array([0.0, 0.25 + 2e-8]), cs)

    def test_engine_output_is_checked_once(self):
        # a result holds the snapped engine output itself, read-only; the
        # one value snapping cannot bring into [0, 1], NaN, is rejected
        pop = pop_from(["A", "B"], [0.5, 0.5], [0.5, 0.5])
        cs = ConstraintSet.parity(0.25)
        build, ctx = hermfair.solver._build_result, _context(pop, make_params())
        engine = np.array([-1e-12, 0.25])
        res = build(ctx, engine, cs)
        assert np.array_equal(res.allocation.values, [0.0, 0.25]) and engine[0] == -1e-12
        assert not res.allocation.values.flags.writeable
        with pytest.raises(ValueError, match="must be finite"):
            build(ctx, np.array([0.0, math.nan]), cs)

    def test_results_compare_by_value(self):
        pop, params = random_instance(np.random.default_rng(31), n_min=6)
        twin = Population.from_arrays(pop.groups, pop.p, pop.rho)
        for cs in (ConstraintSet(), ConstraintSet.parity(1e-3), ConstraintSet.all(1e-3)):
            res = solve(SolveRequest(pop, params, cs))
            assert res == solve(SolveRequest(twin, params, cs))
            other = replace(res, allocation=Allocation(1.0 - res.allocation.values))
            assert res != other

    def test_feasible_threshold_skips_every_engine(self, monkeypatch):
        # group B mirrors group A under equal parameters, so the threshold
        # allocation has every gap exactly zero and no engine may run
        def refuse(*args, **kwargs):
            raise AssertionError("engine called although the threshold allocation is feasible")

        monkeypatch.setattr(hermfair.solver, "linprog", refuse)
        monkeypatch.setattr(hermfair.solver, "_solve_slab_single", refuse)
        p = [0.9, 0.3, 0.05, 0.6]
        rho = [0.7, 0.4, 0.2, 0.9]
        pop = pop_from(["A"] * 4 + ["B"] * 4, p + p, rho + rho)
        params = make_params(beta_b=0.03, theta_b=0.05)
        expected = threshold_reference(pop, params)
        assert 0.0 < expected.sum() < pop.size
        for cs, m in ((ConstraintSet.parity(0.0), 1),
                      (ConstraintSet(parity_exposure=True, equality_opportunity=True), 2),
                      (ConstraintSet.all(), 3)):
            assert len(constraint_rows(pop, cs)[0]) == m
            for method in ("auto", "highs"):
                res = solve_constrained_lp(SolveRequest(pop, params, cs), method=method)
                assert np.array_equal(res.allocation.values, expected)
                assert res.n_fractional == 0

    @staticmethod
    def _count_scorings(monkeypatch, parity_offset=0.0):
        """Wrap the solve context's scorer; record each decision vector it
        scores, and add ``parity_offset`` to every parity gap it returns."""
        calls = []
        real = hermfair.model._Context.score

        def counted(ctx, alloc):
            calls.append(alloc.values)
            scored = real(ctx, alloc)
            parity, eo, eho = scored.gaps
            return scored._replace(gaps=(parity + parity_offset, eo, eho))

        monkeypatch.setattr(hermfair.model._Context, "score", counted)
        return calls

    def test_threshold_status_follows_each_request(self, monkeypatch):
        # the mirrored population's threshold allocation has every gap
        # exactly zero, so each tolerance ends at the threshold; a parity gap
        # measured 5e-9 high is optimal at 1e-6 and 0.5, but relaxed at 0
        calls = self._count_scorings(monkeypatch, parity_offset=5e-9)
        p = [0.9, 0.3, 0.05, 0.6]
        rho = [0.7, 0.4, 0.2, 0.9]
        pop = pop_from(["A"] * 4 + ["B"] * 4, p + p, rho + rho)
        params = make_params(beta_b=0.03, theta_b=0.05)
        statuses = [
            solve_constrained_lp(SolveRequest(pop, params, ConstraintSet.parity(tol))).status
            for tol in (1e-6, 0.5, 0.0, 0.5, 1e-6)
        ]
        assert statuses == [SolveStatus.OPTIMAL] * 2 + [SolveStatus.TOLERANCE_RELAXED] + [
            SolveStatus.OPTIMAL] * 2
        assert solve_unconstrained(SolveRequest(pop, params)).status is SolveStatus.OPTIMAL
        assert len(calls) == 1

    def test_threshold_statuses_at_two_tolerances_match_fresh_solves(self):
        # at 1e-6 the engines run, at 0.5 the threshold allocation is
        # returned; either order gives each request its own result
        pop = sample_population(PopulationSpec(n_a=200, n_b=200, uptake=UptakeConfig((4, 6), (7, 3)), seed=5))
        params = make_params()
        for tol in (1e-6, 0.5, 1e-6, 0.5):
            cs = ConstraintSet.all(tol)
            got = solve_constrained_lp(SolveRequest(pop, params, cs))
            fresh = Population.from_arrays(pop.groups, pop.p, pop.rho)
            want = solve_constrained_lp(SolveRequest(fresh, params, cs))
            assert got.allocation.values.tobytes() == want.allocation.values.tobytes()
            assert (got.objective, got.gaps, got.status, got.n_fractional) == (
                want.objective, want.gaps, want.status, want.n_fractional
            )
        assert "threshold" in vars(pop._context)  # the 0.5 solves ended at the threshold

    def test_threshold_score_is_keyed_by_params_identity(self, monkeypatch):
        calls = self._count_scorings(monkeypatch)
        pop = sample_population(PopulationSpec(n_a=50, n_b=50, uptake=UptakeConfig((4, 6), (7, 3)), seed=5))
        first = make_params(gamma=1.0)
        equal = replace(first)
        assert equal == first and equal is not first
        results = [solve_unconstrained(SolveRequest(pop, params))
                   for params in (first, first, equal, replace(first, gamma=0.5))]
        assert len(calls) == 3  # the repeated object is scored once
        assert results[1].allocation is results[0].allocation
        assert results[2].allocation is not results[0].allocation
        for res, params in zip(results, (first, first, equal)):
            want = threshold_reference(pop, params)
            assert np.array_equal(res.allocation.values, want)
            assert res.objective == herm_aware_utility(pop, Allocation.binary(want), params)
        fresh = Population.from_arrays(pop.groups, pop.p, pop.rho)
        last = solve_unconstrained(SolveRequest(fresh, replace(first, gamma=0.5)))
        assert results[3].allocation.values.tobytes() == last.allocation.values.tobytes()
        assert (results[3].objective, results[3].gaps) == (last.objective, last.gaps)

    def test_infeasible_threshold_keeps_nothing(self, monkeypatch):
        calls = self._count_scorings(monkeypatch)
        pop = sample_population(PopulationSpec(n_a=200, n_b=200, uptake=UptakeConfig((4, 6), (7, 3)), seed=5))
        res = solve_constrained_lp(SolveRequest(pop, make_params(), ConstraintSet.all()))
        assert res.allocation.values.tobytes() != threshold_reference(pop, make_params()).tobytes()
        assert "threshold" not in vars(pop._context)
        assert len(calls) == 1  # the engine's allocation, scored once

    def test_equality_slack_form_matches_stacked_inequalities(self):
        # reference: the slab as stacked inequality rows over the scaled rows,
        # [R; -R] d <= eps * [scale; scale], on a reduced sweep of every
        # built-in scenario
        def stacked_reference(pop, params, cs):
            _, rows = constraint_rows(pop, cs)
            scale = 1.0 / np.max(np.abs(rows), axis=1)
            rows = rows * scale[:, None]
            res = linprog(
                -decision_gains(pop, params),
                A_ub=np.vstack([rows, -rows]),
                b_ub=np.concatenate([scale * cs.tolerance, scale * cs.tolerance]),
                bounds=(0.0, 1.0),
                method="highs-ds",
                options={"primal_feasibility_tolerance": 1e-9,
                         "dual_feasibility_tolerance": 1e-9},
            )
            assert res.status == 0
            return herm_aware_utility(pop, Allocation(np.clip(res.x, 0.0, 1.0)), params)

        cells = 0
        for scenario in ScenarioId:
            spec = builtin_scenario(scenario, replications=1, n_a=300, n_b=300)
            cs = ConstraintSet.all(spec.tolerance)
            for vi in range(0, len(spec.grid), 2):
                pop = sample_population(PopulationSpec(
                    n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click,
                    seed=subseed(9, vi, 0),
                ))
                params = spec.params_for(spec.grid[vi])
                res = solve_constrained_lp(SolveRequest(pop, params, cs))
                expected = stacked_reference(pop, params, cs)
                assert res.objective == pytest.approx(expected, rel=1e-9)
                assert res.n_fractional <= len(constraint_rows(pop, cs)[0])
                cells += 1
        assert cells == 48

    def test_highs_edge_cases_match_parametric(self):
        # eps = 0 fixes the slack columns at zero; a constant rho collapses
        # the EHO row onto the parity row, leaving HiGHS one row
        rng = np.random.default_rng(41)
        engines_ran = 0
        for _ in range(30):
            pop, params = random_instance(rng, n_max=40, n_min=4)
            flat = pop_from(pop.groups, pop.p, np.full(pop.size, 0.5))
            for case, cs in (
                (pop, ConstraintSet.parity(0.0)),
                (pop, ConstraintSet.opportunity(0.0)),
                (flat, ConstraintSet(parity_exposure=True, equality_herm_opportunity=True)),
                (flat, ConstraintSet(parity_exposure=True, equality_herm_opportunity=True,
                                     tolerance=0.0)),
            ):
                _, rows = constraint_rows(case, cs)
                assert rows.shape[0] == 1
                gap = float(rows[0] @ threshold_reference(case, params))
                engines_ran += abs(gap) > cs.tolerance
                req = SolveRequest(case, params, cs)
                fast = solve_constrained_lp(req, method="parametric")
                slow = solve_constrained_lp(req, method="highs")
                assert slow.objective == pytest.approx(fast.objective, rel=1e-9, abs=1e-12)
        assert engines_ran >= 90

    def test_infeasible_never_reported(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pop, params = random_instance(rng, n_max=25)
            res = solve_constrained_lp(SolveRequest(pop, params, ConstraintSet.all()))
            assert res.status in (SolveStatus.OPTIMAL, SolveStatus.TOLERANCE_RELAXED)


# --------------------------------------------------------- structured ladder

def _scenario_a_cell(value_index, n=50):
    """Scenario A at 2 x n users on seed ``subseed(1, value_index, 0)``."""
    spec = builtin_scenario("A", n_a=n, n_b=n)
    pop = sample_population(PopulationSpec(
        n_a=n, n_b=n, uptake=spec.uptake, click=spec.click, seed=subseed(1, value_index, 0),
    ))
    return SolveRequest(pop, spec.params_for(spec.grid[value_index]), ConstraintSet.all())


def _count_rungs(monkeypatch):
    """Wrap the dual simplex and ``linprog``; count their calls."""
    counts = {"_dual_simplex": 0, "linprog": 0}
    for name in counts:
        inner = getattr(hermfair.solver, name)

        def counted(*args, name=name, inner=inner, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(hermfair.solver, name, counted)
    return counts


def _refuse_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("linprog called on a certified cell")

    monkeypatch.setattr(hermfair.solver, "linprog", refuse)


def _singular(matrix, inverse=hermfair.solver._inverse):
    return inverse([[0.0] * len(row) for row in matrix])


def _adversarial_instance(rng):
    """A small instance (population, parameters, constraints) with ties,
    duplicate users, a collinear group, one-user groups, two rows or
    ``eps = 0``."""
    n = int(rng.choice([int(rng.integers(2, 13)), int(rng.integers(13, 120))]))
    n_a = int(rng.integers(1, n))
    p = rng.integers(0, 21, n) / 20.0  # a 1/20 grid ties often
    rho = rng.integers(0, 21, n) / 20.0
    shape = rng.choice(["free", "duplicates", "collinear", "one-user"])
    if shape == "duplicates":
        p[n // 2:] = p[: n - n // 2]
        rho[n // 2:] = rho[: n - n // 2]
    elif shape == "collinear":
        rho[:n_a] = 0.25 + 0.5 * p[:n_a]
    elif shape == "one-user":
        n_a = 1
    p[p == 0.0] = 0.05  # both groups keep positive EO and EHO weight
    rho[rho == 0.0] = 0.05
    pop = pop_from(["A"] * n_a + ["B"] * (n - n_a), p, rho)
    params = make_params(gamma=float(rng.choice([0.0, 0.01, 0.2])),
                         beta_a=float(rng.choice([0.0, 0.03, 0.1])),
                         beta_b=float(rng.choice([0.05, 0.1, 0.3])))
    flags = [(True, True, True), (True, True, False), (True, False, True),
             (False, True, True)][int(rng.integers(4))]
    eps = float(rng.choice([0.0, 1e-6, 0.05]))
    return pop, params, ConstraintSet(*flags, eps)


class TestLadder:
    def test_every_scenario_matches_highs(self, monkeypatch):
        # a reduced sweep of every scenario and uptake variant: the ladder's
        # objective matches HiGHS on every cell, and the dual simplex
        # certifies every cell the threshold allocation does not meet, those
        # with an indifferent group included, so no cell reaches HiGHS
        cells = []
        for scenario in ScenarioId:
            for variant in UptakeVariant:
                spec = builtin_scenario(scenario, variant, replications=1, n_a=200, n_b=200)
                cs = ConstraintSet.all(spec.tolerance)
                for vi in range(0, len(spec.grid), 2):
                    pop = sample_population(PopulationSpec(
                        n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click,
                        seed=subseed(11, vi, 0),
                    ))
                    req = SolveRequest(pop, spec.params_for(spec.grid[vi]), cs)
                    cells.append((req, solve_constrained_lp(req, method="highs").objective))
        assert len(cells) == 192
        counts = _count_rungs(monkeypatch)
        _refuse_lp(monkeypatch)
        for req, expected in cells:
            _, rows = constraint_rows(req.population, req.constraints)
            c = decision_gains(req.population, req.params)
            infeasible = np.any(np.abs(rows @ (c >= 0.0)) > req.constraints.tolerance)
            before = counts["_dual_simplex"]
            auto = solve_constrained_lp(req)
            assert counts["_dual_simplex"] == before + infeasible
            assert auto.objective == pytest.approx(expected, rel=1e-9)
            assert auto.n_fractional <= 3
        assert counts["_dual_simplex"] == 160
        assert counts["linprog"] == 0

    def test_certified_cells_call_no_lp(self, monkeypatch):
        # value index 8 has only the EO multiplier active and goes to the
        # dual simplex; at index 2 every group-A user is indifferent
        expected = {
            vi: solve_constrained_lp(_scenario_a_cell(vi), method="highs").objective
            for vi in (2, 8)
        }
        _refuse_lp(monkeypatch)
        for vi, objective in expected.items():
            res = solve_constrained_lp(_scenario_a_cell(vi))
            assert res.objective == pytest.approx(objective, rel=1e-9)
            assert res.status is SolveStatus.OPTIMAL
            assert res.n_fractional <= 3

        # every user twice: each breakpoint ties with its duplicate's
        req = _scenario_a_cell(2)
        pop = req.population
        doubled = Population.from_arrays(*(np.repeat(a, 2) for a in (pop.groups, pop.p, pop.rho)))
        res = solve_constrained_lp(replace(req, population=doubled))
        assert res.objective == pytest.approx(2 * expected[2], rel=1e-9)
        assert res.n_fractional <= 3

    def test_class_c_cell_is_certified_without_lp(self, monkeypatch):
        # value index 0 has no group indifferent and three active multipliers
        req = _scenario_a_cell(0)
        expected = solve_constrained_lp(req, method="highs").objective
        counts = _count_rungs(monkeypatch)
        _refuse_lp(monkeypatch)
        res = solve_constrained_lp(req)
        assert counts == {"_dual_simplex": 1, "linprog": 0}
        assert res.objective == pytest.approx(expected, rel=1e-9)
        assert res.status is SolveStatus.OPTIMAL
        assert res.n_fractional <= 3

    def test_moment_target_at_the_edge(self, monkeypatch):
        # scenario C, a-adv, value index 8: the HiGHS duals make group B
        # indifferent, and the moments group B must supply lie ~1e-6 from the
        # edge of what it can reach
        spec = builtin_scenario("C", "a-adv", n_a=1000, n_b=1000)
        pop = sample_population(PopulationSpec(
            n_a=1000, n_b=1000, uptake=spec.uptake, click=spec.click, seed=subseed(5, 8, 0),
        ))
        req = SolveRequest(pop, spec.params_for(spec.grid[8]), ConstraintSet.all(1e-6))
        expected = solve_constrained_lp(req, method="highs").objective
        counts = _count_rungs(monkeypatch)
        _refuse_lp(monkeypatch)
        res = solve_constrained_lp(req)
        assert counts == {"_dual_simplex": 1, "linprog": 0}
        assert res.objective == pytest.approx(expected, rel=1e-9)
        assert res.n_fractional <= 3

    @pytest.mark.parametrize("cause, target, name, value", [
        ("singular basis", hermfair.solver, "_inverse", _singular),
        # a running sum that never reaches the leaving variable's need
        ("no entering column", hermfair.solver, "_ascending",
         lambda breaks, weight, need: (np.arange(breaks.size), np.zeros(breaks.size))),
        ("0 iterations used up", hermfair.solver, "_SIMPLEX_ITERATIONS", 0),
        ("final duals do not certify the vertex", hermfair.solver, "_DUALITY_GAP", -1.0),
    ], ids=["singular-basis", "no-entering-column", "iterations", "certificate"])
    def test_a_dual_simplex_failure_names_its_cause(
        self, monkeypatch, cause, target, name, value
    ):
        # the dual simplex is the last rung of a 2- or 3-row solve: when it
        # fails, the solve raises with the cause and no other engine runs
        req = _scenario_a_cell(0)
        monkeypatch.setattr(target, name, value)
        counts = _count_rungs(monkeypatch)
        with pytest.raises(SolverNumericalError, match=f"^dual simplex: .*{cause}"):
            solve(req)
        assert counts == {"_dual_simplex": 1, "linprog": 0}

    def test_dual_simplex_alone_on_an_indifferent_group(self):
        # scenario A at 2 x 1000 users, value index 1: the optimal duals make
        # one whole group indifferent, so a thousand breakpoints tie; without
        # the cost perturbation the dual simplex stalls on this cell
        vi = 1
        spec = builtin_scenario("A", n_a=1000, n_b=1000)
        pop = sample_population(PopulationSpec(
            n_a=1000, n_b=1000, uptake=spec.uptake, click=spec.click, seed=subseed(5, vi, 0),
        ))
        params = spec.params_for(spec.grid[vi])
        _, rows = constraint_rows(pop, ConstraintSet.all())
        c = decision_gains(pop, params)
        eps = ConstraintSet.all().tolerance
        d, _ = hermfair.solver._dual_simplex(c, rows, eps, (c >= 0.0).astype(np.float64))
        expected = solve_constrained_lp(
            SolveRequest(pop, params, ConstraintSet.all()), method="highs").objective
        assert herm_aware_utility(pop, Allocation(d), params) == pytest.approx(expected, rel=1e-9)

        # the closed form of README "How a constrained solve runs": within
        # group B the gain is u + v p + w rho, so lam = (u n_B, v P_B, w R_B)
        # makes every user of B indifferent, and it certifies d
        assert rows.shape[0] == 3
        b = pop.mask_b
        coef = np.array([-params.beta_b + params.gamma * (params.xi - params.omega_b),
                         params.alpha, params.gamma * (params.theta_b + params.omega_b)])
        lam = coef * np.array([b.sum(), pop.p[b].sum(), pop.rho[b].sum()])
        assert np.abs((c - lam @ rows)[b]).max() <= 1e-12 * np.abs(c).max()
        assert hermfair.solver._certified(c, rows, eps, d, lam, float(np.abs(c).sum()))

    def test_dual_simplex_on_adversarial_instances(self):
        # the engine alone, on small instances with ties, duplicate users,
        # collinear or one-user groups, two rows or eps = 0: it certifies
        # every instance past the threshold allocation (it raises on any
        # other), and what it returns is feasible, a vertex, and no worse
        # than HiGHS
        rng = np.random.default_rng(2003)
        certified = 0
        for _ in range(300):
            pop, params, cs = _adversarial_instance(rng)
            _, rows = constraint_rows(pop, cs)
            c = decision_gains(pop, params)
            eps = cs.tolerance
            if np.all(np.abs(rows @ (c >= 0.0)) <= eps):
                continue  # the threshold allocation is feasible
            d, _ = hermfair.solver._dual_simplex(c, rows, eps, (c >= 0.0).astype(np.float64))
            ref = solve_constrained_lp(SolveRequest(pop, params, cs), method="highs").objective
            certified += 1
            assert np.all((d >= 0.0) & (d <= 1.0))
            assert np.sum((d > 0.0) & (d < 1.0)) <= rows.shape[0]
            assert np.abs(rows @ d).max() <= eps + hermfair.solver.ROUNDOFF_ALLOWANCE
            objective = herm_aware_utility(pop, Allocation(d), params)
            assert objective >= ref - 1e-9 * max(1.0, abs(ref))
        assert certified == 269


# Values on a 1/1000 grid tie often, and a few palette values force
# duplicate users and exact zero gains.
_UNIT = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 1000).map(lambda k: k / 1000))


@st.composite
def adversarial_requests(draw):
    """Small requests with ties, duplicates, zero-weight and collinear
    groups, one-user groups, rows that deduplicate and ``eps = 0``."""
    n = draw(st.one_of(st.integers(2, 12), st.integers(13, 80)))
    n_a = draw(st.integers(1, n - 1))
    p = np.array(draw(st.lists(_UNIT, min_size=n, max_size=n)))
    rho = np.array(draw(st.lists(_UNIT, min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["free", "duplicates", "collinear", "flat", "zero-weight"]))
    if shape == "duplicates":
        p[n // 2:] = p[: n - n // 2]
        rho[n // 2:] = rho[: n - n // 2]
    elif shape == "collinear":  # group A's (p, rho) on one line
        rho[:n_a] = 0.25 + 0.5 * p[:n_a]
    elif shape == "flat":  # the EHO row (and with constant p the EO row) folds onto parity
        rho[:] = 0.5
        if draw(st.booleans()):
            p[:] = 0.5
    elif shape == "zero-weight":
        (p if draw(st.booleans()) else rho)[:n_a] = 0.0
    groups = np.array(["A"] * n_a + ["B"] * (n - n_a))
    gamma = draw(st.sampled_from([0.0, 0.01, 0.2]))
    params = make_params(
        alpha=0.2, beta_a=draw(st.sampled_from([0.0, 0.03, 0.1])),
        beta_b=draw(st.sampled_from([0.05, 0.1, 0.3])), gamma=gamma,
    )
    flags = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any))
    eps = draw(st.sampled_from([0.0, 1e-6, 0.05]))
    return SolveRequest(pop_from(groups, p, rho), params, ConstraintSet(*flags, eps))


def _spy_runs(monkeypatch):
    """Wrap the dual simplex's runs; record each one's start and outcome:
    "solved", "declined" (the start was not used) or "failed"."""
    runs = []
    real = hermfair.solver._simplex_run

    def spy(c, rows, eps, threshold, form, start):
        try:
            out = real(c, rows, eps, threshold, form, start)
        except SolverNumericalError:
            runs.append((start, "failed"))
            raise
        runs.append((start, "declined" if out is None else "solved"))
        return out

    monkeypatch.setattr(hermfair.solver, "_simplex_run", spy)
    return runs


class TestWarmStart:
    """A 2- or 3-row solve may start from another solve's final basis."""

    @staticmethod
    def _same(got, want):
        assert got.allocation.values.tobytes() == want.allocation.values.tobytes()
        assert np.array([got.objective, *got.gaps]).tobytes() == np.array(
            [want.objective, *want.gaps]).tobytes()
        assert got._basis == want._basis

    @pytest.mark.parametrize("scenario", list(ScenarioId))
    def test_warm_and_cold_agree_on_every_builtin_grid(self, monkeypatch, scenario):
        # every all_constraints record of a sweep along the whole grid equals
        # its cold solve within the engines' agreement bound
        spec = builtin_scenario(scenario, replications=2, n_a=200, n_b=200)
        runs = _spy_runs(monkeypatch)
        result = run_sweep(spec, base_seed=3)
        assert result.n_failed == 0
        warm = sum(start is not None and outcome == "solved" for start, outcome in runs)
        assert all(outcome != "failed" for _, outcome in runs)
        monkeypatch.undo()
        rule = AllocationRule.ALL_CONSTRAINTS
        cs = rule.constraint_set(spec.tolerance)
        pops = {}
        checked = 0
        for rec in result.records:
            if rec.rule != rule.value:
                continue
            pop = pops.get(rec.seed)
            if pop is None:
                pop = pops[rec.seed] = sample_population(PopulationSpec(
                    n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click,
                    seed=rec.seed))
            params = spec.params_for(rec.param_value)
            cold = solve(SolveRequest(pop, params, cs))
            gain_sum = float(np.abs(decision_gains(pop, params)).sum())
            assert abs(rec.objective - cold.objective) <= 1e-15 * gain_sum
            for gap in (rec.parity_gap, rec.eo_gap, rec.eho_gap):
                assert abs(gap) <= spec.tolerance + ROUNDOFF_ALLOWANCE
            checked += 1
        assert checked == 2 * len(spec.grid)
        if scenario is not ScenarioId.GAMMA_SWEEP:
            assert warm > 0  # the starts were used, not only offered

    def test_the_final_basis_restarts_at_its_own_vertex(self, monkeypatch):
        # started from its own final basis, a solve makes no basis change and
        # gives the cold solve's bits
        req = _scenario_a_cell(0)
        cold = solve(req)
        assert cold._basis is not None and list(cold._basis) == sorted(cold._basis)
        runs = _spy_runs(monkeypatch)
        self._same(solve(replace(req, _basis=cold._basis)), cold)
        assert runs == [(cold._basis, "solved")]

    def test_a_bad_hint_falls_back_to_cold(self, monkeypatch):
        req = _scenario_a_cell(0)
        cold = solve(req)
        n = req.population.size
        runs = _spy_runs(monkeypatch)
        for hint in [(n, n + 1), (n, n + 1, n + 2, 0), (n, n, n + 1), (-1, n, n + 1),
                     (0, 1, n + 3)]:
            runs.clear()
            self._same(solve(replace(req, _basis=hint)), cold)
            assert runs == [(None, "solved")]  # the hint is never tried

    def test_a_singular_hint_falls_back_to_cold(self, monkeypatch):
        # every user twice: columns 0 and 1 are equal, so a basis holding
        # both is exactly singular
        req = _scenario_a_cell(0)
        pop = req.population
        doubled = Population.from_arrays(*(np.repeat(a, 2) for a in (pop.groups, pop.p, pop.rho)))
        req = replace(req, population=doubled)
        cold = solve(req)
        hint = (0, 1, doubled.size)
        runs = _spy_runs(monkeypatch)
        self._same(solve(replace(req, _basis=hint)), cold)
        assert runs == [(hint, "failed"), (None, "solved")]

    def test_a_failing_warm_solve_falls_back_to_cold(self, monkeypatch):
        req = _scenario_a_cell(0)
        cold = solve(req)
        real = hermfair.solver._certified
        refused = []

        def refuse_once(*args):
            if not refused:
                refused.append(True)
                return False
            return real(*args)

        monkeypatch.setattr(hermfair.solver, "_certified", refuse_once)
        runs = _spy_runs(monkeypatch)
        self._same(solve(replace(req, _basis=cold._basis)), cold)
        assert runs == [(cold._basis, "failed"), (None, "solved")]

    def test_the_bound_keeps_cold_when_the_start_is_not_lower(self, monkeypatch):
        # the slack basis as a start has duals 0, so its bound is the slack
        # basis's own: not lower, and the solve runs cold
        req = _scenario_a_cell(0)
        cold = solve(req)
        n = req.population.size
        hint = (n, n + 1, n + 2)
        runs = _spy_runs(monkeypatch)
        self._same(solve(replace(req, _basis=hint)), cold)
        assert runs == [(hint, "declined"), (None, "solved")]

    def test_a_hint_is_no_part_of_a_requests_value(self):
        req = _scenario_a_cell(0)
        hinted = replace(req, _basis=(0, 1, 2))
        assert hinted == req and repr(hinted) == repr(req)
        res = solve(req)
        assert replace(res, _basis=None) == res and "_basis" not in repr(res)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_adjugate_inverse_matches_linalg(self, m):
        # within ~1e-15 relative, times the matrix's condition number
        rng = np.random.default_rng(m)
        for _ in range(500):
            a = rng.standard_normal((m, m))
            want = np.linalg.inv(a)
            got = np.array(hermfair.solver._inverse(a.tolist()))
            assert np.abs(got - want).max() <= 1e-15 * np.linalg.cond(a) * np.abs(want).max()

    @pytest.mark.parametrize("matrix", [
        [[0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[0.3, 0.3, -1.0], [0.7, 0.7, 0.0], [0.1, 0.1, 0.0]],  # two equal columns
    ])
    def test_adjugate_inverse_of_a_singular_matrix_raises(self, matrix):
        with pytest.raises(SolverNumericalError, match="^dual simplex: singular basis$"):
            hermfair.solver._inverse(matrix)


class TestDifferential:
    @given(adversarial_requests())
    def test_auto_highs_and_oracle_agree(self, req):
        try:
            names, _ = constraint_rows(req.population, req.constraints)
        except DegenerateGroupError:
            for method in ("auto", "highs"):
                with pytest.raises(DegenerateGroupError):
                    solve_constrained_lp(req, method=method)
            return
        # auto ends in numpy and can no longer reach HiGHS; the guard keeps
        # it so (no draw reached HiGHS while it was auto's last rung: none of
        # 2 x 10^4 draws of this strategy or of _adversarial_instance)
        with mock.patch.object(hermfair.solver, "linprog",
                               side_effect=AssertionError("auto handed a draw to linprog")):
            auto = solve_constrained_lp(req)
        ref = solve_constrained_lp(req, method="highs")
        assert auto.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
        gap_of = {"parity_exposure": 0, "equality_opportunity": 1,
                  "equality_herm_opportunity": 2}
        for res in (auto, ref):
            assert res.n_fractional <= len(names)
            for name in req.constraints.active:
                assert abs(res.gaps[gap_of[name]]) <= req.constraints.tolerance + RESIDUAL_BOUND
        if req.population.size <= 12:
            oracle = solve_binary_exact(replace(req, mode=SolveMode.BINARY_EXACT))
            assert auto.objective >= oracle.objective - 1e-9


# ------------------------------------------------------------------- symmetries

def _swap_groups(params):
    return replace(params, beta_a=params.beta_b, beta_b=params.beta_a,
                   theta_a=params.theta_b, theta_b=params.theta_a,
                   omega_a=params.omega_b, omega_b=params.omega_a)


@pytest.mark.parametrize("scenario", ["A", "B", "C", "D", "gamma"])
def test_symmetries(scenario):
    """Properties of the model that no engine encodes, through ``solve`` on
    the four constrained rules at every third grid value, 2 x 1000 users on
    seed 7: swapping the group labels with every per-group parameter keeps
    the objective and negates every gap, and shuffling the users keeps the
    objective.  An objective holds within 1e-14 of the sum of the absolute
    gains."""
    spec = builtin_scenario(scenario)
    pop = sample_population(PopulationSpec(
        n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click, seed=7,
    ))
    swapped = pop_from(np.where(pop.mask_a, "B", "A"), pop.p, pop.rho)
    order = np.random.default_rng(7).permutation(pop.size)
    shuffled = pop_from(pop.groups[order], pop.p[order], pop.rho[order])
    for value in spec.grid[::3]:
        params = spec.params_for(value)
        bound = 1e-14 * float(np.abs(decision_gains(pop, params)).sum())
        for rule in CONSTRAINED_RULES:
            constraints = rule.constraint_set(spec.tolerance)
            res = solve(SolveRequest(pop, params, constraints))
            mirror = solve(SolveRequest(swapped, _swap_groups(params), constraints))
            moved = solve(SolveRequest(shuffled, params, constraints))
            assert abs(mirror.objective - res.objective) <= bound
            assert abs(moved.objective - res.objective) <= bound
            for gap, mirror_gap in zip(res.gaps, mirror.gaps):
                assert abs(mirror_gap + gap) <= 1e-14


# ------------------------------------------------------ shape of the optimum

# For a fixed allocation the objective is affine in each swept parameter;
# these are its derivatives at allocation ``d`` (minus the hermeneutical cost
# for gamma).
_SWEPT_SLOPES = {
    "beta_b": lambda pop, params, d: float((1.0 - d[pop.mask_b]).sum()),
    "theta_b": lambda pop, params, d: params.gamma * float((pop.rho * d)[pop.mask_b].sum()),
    "omega_b": lambda pop, params, d: -params.gamma * float(
        ((1.0 - pop.rho) * d)[pop.mask_b].sum()),
    "xi": lambda pop, params, d: -params.gamma * float((1.0 - d).sum()),
    "gamma": lambda pop, params, d: -hermeneutical_cost(pop, Allocation(d), params),
}
# +1 where the derivative is never negative, -1 where it is never positive
_SWEPT_SIGNS = {"beta_b": 1.0, "theta_b": 1.0, "omega_b": -1.0, "xi": -1.0}


@pytest.mark.parametrize("uptake", ["main", "a-adv"])
@pytest.mark.parametrize("scenario", ["A", "B", "C", "D", "gamma"])
def test_optimum_along_the_swept_parameter(scenario, uptake):
    """On one population the rows do not read the parameters and the
    objective is affine in the swept one, so each rule's optimum along the
    grid is a maximum of affine functions: convex (within 1e-14 of the sum
    of the absolute gains).  For grid neighbours the chord's slope lies
    between the derivatives at the two solves' own allocations (Danskin;
    within 1e-14 of the larger |objective|), and the derivatives' signs make
    the optimum monotone in beta_b, theta_b, omega_b and xi.  Four
    populations of 2 x 1000 users per scenario and uptake, every grid value,
    all five rules."""
    spec = builtin_scenario(scenario, uptake)
    grid = np.array(spec.grid)
    slope_at = _SWEPT_SLOPES[spec.varying]
    for rep in range(4):
        pop = sample_population(PopulationSpec(
            n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click,
            seed=subseed(5, 0, rep),
        ))
        all_params = [spec.params_for(value) for value in spec.grid]
        scale = np.array([np.abs(decision_gains(pop, params)).sum() for params in all_params])
        for rule in AllocationRule:
            results = [solve(SolveRequest(pop, params, rule.constraint_set(spec.tolerance)))
                       for params in all_params]
            f = np.array([res.objective for res in results])
            slopes = np.array([slope_at(pop, params, res.allocation.values)
                               for params, res in zip(all_params, results)])
            # convexity: no grid value above the chord of its two neighbours
            left, right = grid[1:-1] - grid[:-2], grid[2:] - grid[1:-1]
            chord = (right * f[:-2] + left * f[2:]) / (left + right)
            assert (f[1:-1] - chord <= 1e-14 * scale[1:-1]).all(), rule
            # the sandwich: slope at v1 <= chord slope <= slope at v2
            step, rise = np.diff(grid), np.diff(f)
            bound = 1e-14 * np.maximum(np.abs(f[:-1]), np.abs(f[1:]))
            assert (slopes[:-1] * step - rise <= bound).all(), rule
            assert (rise - slopes[1:] * step <= bound).all(), rule
            if spec.varying in _SWEPT_SIGNS:
                assert (_SWEPT_SIGNS[spec.varying] * rise >= -bound).all(), rule


@pytest.mark.parametrize("uptake", ["main", "a-adv"])
@pytest.mark.parametrize("scenario", ["A", "C", "gamma"])
def test_optimum_along_the_tolerance(scenario, uptake):
    """The tolerance only widens the feasible set and enters the right-hand
    side affinely, so each constrained rule's optimum is non-decreasing and
    concave in it (Bertsimas and Tsitsiklis, ch. 5).  41 tolerances from 0
    to 1.2 times the unconstrained allocation's largest |gap|, at the first
    and the middle grid value on 2 x 1000 users; a decrease or a positive
    second difference may reach 1e-14 of the curve's largest |objective|."""
    spec = builtin_scenario(scenario, uptake)
    for vi in (0, len(spec.grid) // 2):
        pop = sample_population(PopulationSpec(
            n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click,
            seed=subseed(5, vi, 0),
        ))
        params = spec.params_for(spec.grid[vi])
        widest = 1.2 * max(abs(gap) for gap in solve(SolveRequest(pop, params)).gaps)
        tolerances = np.linspace(0.0, widest, 41)
        for rule in CONSTRAINED_RULES:
            f = np.array([
                solve(SolveRequest(pop, params, rule.constraint_set(float(t)))).objective
                for t in tolerances
            ])
            bound = 1e-14 * np.abs(f).max()
            assert (np.diff(f) >= -bound).all(), rule
            assert (np.diff(f, 2) <= bound).all(), rule


# ---------------------------------------------------------------------- sorting

def _stable(x):
    return np.argsort(x, kind="stable")


@st.composite
def sort_inputs(draw):
    """Up to 5000 floats: distinct values, or a few tied ones that mix in
    ``-0.0``, ``0.0`` and ``±inf``."""
    n = draw(st.one_of(st.integers(0, 64), st.integers(900, 1100), st.integers(0, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n) * 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):
        palette = draw(st.lists(
            st.one_of(st.sampled_from([-0.0, 0.0, math.inf, -math.inf]),
                      st.floats(allow_nan=False)),
            min_size=1, max_size=8,
        ))
        tied = rng.random(n) < draw(st.sampled_from([0.001, 0.1, 0.9, 1.0]))
        x[tied] = rng.choice(palette, size=int(tied.sum()))
    return x


class TestSorting:
    @given(sort_inputs())
    def test_stable_order_is_the_stable_argsort(self, x):
        assert np.array_equal(hermfair.solver._stable_order(x), _stable(x))

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    @pytest.mark.parametrize("tie", [None, (-0.0, 0.0), (math.inf, math.inf),
                                     (2.5, 2.5), (math.nan, 1.0)])
    def test_sizes_around_the_stable_cutoff(self, n, tie):
        rng = np.random.default_rng(n)
        x = rng.permutation(n).astype(np.float64)
        if tie is not None:
            x[[n - 1, 3]] = tie
        order = hermfair.solver._stable_order(x)
        assert order.dtype == _stable(x).dtype
        assert np.array_equal(order, _stable(x))

    @staticmethod
    def _check_prefix(breaks, weight, need):
        order, reach = hermfair.solver._ascending(breaks, weight, need)
        full = _stable(breaks)
        full_reach = np.cumsum(weight[full])
        assert np.array_equal(order, full[:order.size])
        assert np.array_equal(reach, full_reach[:order.size])
        # the caller's entering position is the one the full order gives
        assert (np.searchsorted(reach, need, side="left")
                == np.searchsorted(full_reach, need, side="left"))
        return order

    def test_head_grows_twice(self, monkeypatch):
        rng = np.random.default_rng(5)
        breaks = np.round(rng.random(3000), 2)  # ties across every head boundary
        weight = rng.random(3000)
        sizes = []
        sort = hermfair.solver._stable_order
        monkeypatch.setattr(hermfair.solver, "_stable_order",
                            lambda x: sizes.append(x.size) or sort(x))
        # the first head is 3000 // 16 = 187 smallest, the second 1496
        need = weight[_stable(breaks)].cumsum()[2000]
        order = self._check_prefix(breaks, weight, need)
        assert order.size == 3000
        assert len(sizes) == 3 and 187 < sizes[0] < sizes[1] < 3000 == sizes[2]
        sizes.clear()
        order = self._check_prefix(breaks, weight, weight[_stable(breaks)][:600].sum())
        assert len(sizes) == 2 and 187 < order.size == sizes[1] < 3000

    def test_need_beyond_the_total_weight(self):
        rng = np.random.default_rng(6)
        breaks = rng.random(5000)
        weight = rng.random(5000)
        order = self._check_prefix(breaks, weight, weight.sum() * 2.0)
        assert order.size == 5000

    @pytest.mark.parametrize("n", [0, 1, 40, 64])
    def test_fewer_candidates_than_the_first_head(self, n):
        rng = np.random.default_rng(n)
        breaks = np.round(rng.random(n), 1)
        order = self._check_prefix(breaks, np.ones(n), 1.0)
        assert order.size == n

    @pytest.mark.parametrize("duplicated", [False, True])
    def test_solves_match_the_stable_sort(self, monkeypatch, duplicated):
        """2x1500 users, the one-row sort at full length and the dual
        simplex's heads: every allocation is bit-identical to one made with
        the stable sort alone.  Duplicated users tie in ``c / a``."""
        spec = builtin_scenario(ScenarioId.A, uptake_variant=UptakeVariant.A_ADVANTAGED)
        pop = sample_population(PopulationSpec(
            n_a=1500, n_b=1500, uptake=spec.uptake, click=spec.click, seed=subseed(9, 1)))
        if duplicated:
            half = np.r_[0:750, 0:750, 1500:2250, 1500:2250]
            pop = Population.from_arrays(pop.groups[half], pop.p[half], pop.rho[half])
        params = spec.params_for(0.2)
        sets = [ConstraintSet(True, False, False, 1e-6), ConstraintSet(False, True, False, 1e-6),
                ConstraintSet(False, False, True, 1e-6), ConstraintSet(True, True, True, 1e-6)]
        fast = [solve(SolveRequest(pop, params, cs)).allocation.values for cs in sets]
        calls = []
        monkeypatch.setattr(hermfair.solver, "_stable_order",
                            lambda x: calls.append(x.size) or _stable(x))
        for cs, values in zip(sets, fast):
            calls.clear()
            ref = solve(SolveRequest(pop, params, cs)).allocation.values
            assert calls, "the threshold allocation was feasible: no engine ran"
            if len(cs.active) == 1:
                assert max(calls) >= 1024  # the one-row scan sorts at full length
            assert values.tobytes() == ref.tobytes()


# ------------------------------------------------------------------ enumeration

class TestBinaryExact:
    def test_single_user_matches_threshold(self):
        pop = pop_from(["A", "B"], [0.9, 0.01], [0.5, 0.5])
        params = make_params()
        res = solve_binary_exact(SolveRequest(pop, params, mode=SolveMode.BINARY_EXACT))
        assert np.array_equal(res.allocation.values, threshold_reference(pop, params))

    def test_oracle_at_the_threshold_shares_its_score(self, monkeypatch):
        calls = TestConstrainedLP._count_scorings(monkeypatch)
        pop, params = random_instance(np.random.default_rng(29), n_min=10)
        exact = SolveMode.BINARY_EXACT
        unc = solve_unconstrained(SolveRequest(pop, params))
        oracle = solve_binary_exact(SolveRequest(pop, params, mode=exact))
        assert oracle.allocation is unc.allocation and len(calls) == 1
        # a constrained oracle away from the threshold is scored by itself and
        # leaves the population's threshold score as it was
        fair = solve_binary_exact(SolveRequest(pop, params, ConstraintSet.parity(0.0), mode=exact))
        assert not np.array_equal(fair.allocation.values, unc.allocation.values)
        assert len(calls) == 2 and vars(pop._context)["threshold"].allocation is unc.allocation
        fresh = Population.from_arrays(pop.groups, pop.p, pop.rho)
        solve_binary_exact(SolveRequest(fresh, params, ConstraintSet.parity(0.0), mode=exact))
        assert "threshold" not in vars(fresh._context)
        fresh_oracle = solve_binary_exact(SolveRequest(fresh, params, mode=exact))
        assert "threshold" in vars(fresh._context) and len(calls) == 4
        _, objective, gaps = _context(fresh, params).score(oracle.allocation)
        assert (oracle.objective, oracle.gaps) == (fresh_oracle.objective, fresh_oracle.gaps)
        assert np.array([oracle.objective, *oracle.gaps]).tobytes() == np.array(
            [objective, *gaps]).tobytes()

    def test_cap_enforced(self):
        pop = pop_from(["A"] * 15 + ["B"] * 15, [0.5] * 30, [0.5] * 30)
        with pytest.raises(PopulationTooLargeError):
            solve_binary_exact(
                SolveRequest(pop, make_params(), mode=SolveMode.BINARY_EXACT)
            )

    def test_cap_equal_to_the_population_size(self):
        # the cap is the largest size the oracle takes
        pop = pop_from(["A", "B"] * 3, [0.2, 0.9, 0.5, 0.4, 0.7, 0.1], [0.5] * 6)
        for cs in (ConstraintSet(), ConstraintSet.parity(0.1)):
            req = SolveRequest(pop, make_params(), cs, mode=SolveMode.BINARY_EXACT,
                               enumeration_cap=6)
            assert solve_binary_exact(req).status is SolveStatus.OPTIMAL
            with pytest.raises(PopulationTooLargeError):
                solve_binary_exact(replace(req, enumeration_cap=5))

    def test_cap_ceiling(self):
        pop = pop_from(["A", "B"], [0.5, 0.5], [0.5, 0.5])
        SolveRequest(pop, make_params(), enumeration_cap=MAX_ENUMERATION_CAP)
        with pytest.raises(ValueError, match="enumeration cap 31 exceeds the ceiling 30"):
            SolveRequest(pop, make_params(), enumeration_cap=MAX_ENUMERATION_CAP + 1)

    @pytest.mark.parametrize("cap", [True, False, 2.5, 22.0, -1, "22", None])
    def test_cap_must_be_a_non_negative_int(self, cap):
        pop = pop_from(["A", "B"], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="^enumeration cap must be (an integer|non-negative)"):
            SolveRequest(pop, make_params(), enumeration_cap=cap)
        SolveRequest(pop, make_params(), enumeration_cap=0)

    @pytest.mark.parametrize("mode", ["binary_exact", "fractional", None])
    def test_mode_must_be_a_solve_mode(self, mode):
        # a string would run the fractional solve with no cap check
        pop = pop_from(["A"] * 20 + ["B"] * 20, [0.5] * 40, [0.5] * 40)
        with pytest.raises(ValueError, match="mode must be a SolveMode"):
            SolveRequest(pop, make_params(), mode=mode)

    def test_parity_zero_tolerance_equal_counts(self):
        pop = pop_from(["A", "A", "B", "B"], [0.9, 0.8, 0.7, 0.6], [0.5] * 4)
        params = make_params(beta_a=0.0, beta_b=0.0, gamma=0.0)
        cs = ConstraintSet.parity(0.0)
        res = solve_binary_exact(SolveRequest(pop, params, cs, mode=SolveMode.BINARY_EXACT))
        d = res.allocation.values
        assert d[:2].sum() == d[2:].sum()  # equal group counts enforced
        assert d.sum() == 4.0  # all positive gains, so everyone is shown

    def test_show_none_is_always_feasible(self):
        # with 2 and 3 users, equal shares k_a / 2 == k_b / 3 need no user or
        # every user; showing everyone loses, so only show-none is left
        pop = pop_from(["A", "A", "B", "B", "B"], [0.5, 0.0, 0.0, 0.0, 0.0], [0.5] * 5)
        params = make_params()
        c = decision_gains(pop, params)
        assert c[0] > 0.0 and c.sum() < 0.0
        bits = (np.arange(1 << 5)[:, None] >> np.arange(5)) & 1
        fair = bits[:, 2:].sum(axis=1) * 2 == bits[:, :2].sum(axis=1) * 3
        assert np.flatnonzero(fair).tolist() == [0, 31]
        res = solve_binary_exact(
            SolveRequest(pop, params, ConstraintSet.parity(0.0), mode=SolveMode.BINARY_EXACT)
        )
        assert res.allocation.values.tolist() == [0.0] * 5
        assert res.parity_gap == 0.0 and res.status is SolveStatus.OPTIMAL

    def test_lexicographic_tie_break(self):
        # two users with identical zero gain: beta = alpha * p makes both sides tie
        params = make_params(alpha=0.5, beta_a=0.25, beta_b=0.25, gamma=0.0)
        pop = pop_from(["A", "B"], [0.5, 0.5], [0.5, 0.5])
        res = solve_binary_exact(SolveRequest(pop, params, mode=SolveMode.BINARY_EXACT))
        # every vector scores the same; the smallest decision vector wins
        assert res.allocation.values.tolist() == [0.0, 0.0]

    def test_matches_brute_force_with_constraints(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            pop, params = random_instance(rng, n_max=8)
            cs = ConstraintSet.parity(0.05)
            res = solve_binary_exact(SolveRequest(pop, params, cs, mode=SolveMode.BINARY_EXACT))
            best_obj, _ = brute_force_best(pop, params, cs)
            assert res.objective == pytest.approx(best_obj, abs=1e-12)


class TestOracleRoundoff:
    SIZES = ((5, 10), (3, 6), (6, 9), (4, 8), (2, 6))

    def test_exactly_fair_vectors_survive_roundoff(self):
        # parity at tolerance 0, decided with integer counts: k_b * n_a == k_a * n_b
        rng = np.random.default_rng(7)
        for k in range(200):
            n_a, n_b = self.SIZES[k % len(self.SIZES)]
            n = n_a + n_b
            _, params = random_instance(rng)
            pop = pop_from(["A"] * n_a + ["B"] * n_b, rng.random(n), rng.beta(2.0, 2.0, n))
            bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
            fair = bits[:, n_a:].sum(axis=1) * n_a == bits[:, :n_a].sum(axis=1) * n_b
            c = decision_gains(pop, params)
            best = float(np.max(bits[fair] @ c))
            res = solve_binary_exact(
                SolveRequest(pop, params, ConstraintSet.parity(0.0), mode=SolveMode.BINARY_EXACT)
            )
            d = res.allocation.values
            assert d[n_a:].sum() * n_a == d[:n_a].sum() * n_b
            assert float(c @ d) == pytest.approx(best, rel=1e-12, abs=1e-15)


def bit_matrix_oracle(pop, params, constraints):
    """The enumeration of hermfair 0.6.0, with the round-off allowance.

    Each block of 2**16 masks becomes a bit matrix, and the gains and the
    gaps of its rows are matrix products.  Returns the first best decision
    vector in lexicographic order.
    """
    n = pop.size
    c = decision_gains(pop, params)
    _, rows = constraint_rows(pop, constraints)
    limit = constraints.tolerance + ROUNDOFF_ALLOWANCE
    shifts = (n - 1 - np.arange(n)).astype(np.uint64)
    best_obj, best_mask = -np.inf, -1
    total = 1 << n
    step = 1 << min(16, n)
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.uint64)
        d = ((masks[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.float64)
        obj = d @ c
        if rows.shape[0]:
            obj = np.where((np.abs(d @ rows.T) <= limit).all(axis=1), obj, -np.inf)
        idx = int(np.argmax(obj))
        if obj[idx] > best_obj:
            best_obj, best_mask = float(obj[idx]), start + idx
    return ((best_mask >> shifts) & np.uint64(1)).astype(np.float64)


class TestOracleReference:
    ROW_SETS = (
        ConstraintSet(),
        ConstraintSet.herm_opportunity(),
        ConstraintSet(parity_exposure=True, equality_opportunity=True),
        ConstraintSet.all(),
    )

    @staticmethod
    def _case(rng, n, shape):
        """A population with tied users, duplicate users or a one-user group."""
        n_a = 1 if shape == "one-user" else int(rng.integers(1, n))
        p = rng.integers(1, 11, n) / 10.0  # a 1/10 grid ties often
        rho = rng.integers(1, 11, n) / 10.0
        if shape == "duplicates":
            p[n // 2:] = p[: n - n // 2]
            rho[n // 2:] = rho[: n - n // 2]
        elif shape == "free":
            p, rho = rng.random(n), rng.beta(2.0, 2.0, n)
        pop = pop_from(["A"] * n_a + ["B"] * (n - n_a), p, rho)
        # beta = alpha * p for a grid value makes gains of exactly zero at gamma = 0
        params = make_params(gamma=float(rng.choice([0.0, 0.01, 0.2])),
                             beta_a=float(rng.choice([0.0, 0.06, 0.1])),
                             beta_b=float(rng.choice([0.04, 0.1, 0.3])))
        return pop, params

    def _check(self, pop, params, rows, tol):
        cs = replace(rows, tolerance=tol)
        res = solve_binary_exact(SolveRequest(pop, params, cs, mode=SolveMode.BINARY_EXACT,
                                              enumeration_cap=MAX_ENUMERATION_CAP))
        ref = herm_aware_utility(pop, Allocation.binary(bit_matrix_oracle(pop, params, cs)),
                                 params)
        assert res.objective == pytest.approx(ref, rel=1e-12)

    def test_small_instances(self):
        rng = np.random.default_rng(2027)
        for k in range(320):
            shape = ("free", "ties", "duplicates", "one-user")[k % 4]
            pop, params = self._case(rng, int(rng.integers(2, 13)), shape)
            self._check(pop, params, self.ROW_SETS[k // 4 % 4], (0.0, 0.05)[k // 16 % 2])

    @pytest.mark.parametrize("shape", ["ties", "duplicates", "one-user"])
    def test_one_block_matches_the_block_loop(self, monkeypatch, shape):
        # up to _BLOCK_BITS users the oracle scores its one block directly;
        # with 3-bit blocks the same requests run the block loop
        rng = np.random.default_rng(2029)
        requests = [
            SolveRequest(*self._case(rng, n, shape), replace(rows, tolerance=tol),
                         mode=SolveMode.BINARY_EXACT)
            for n in (4, 7, 10, 13) for rows in self.ROW_SETS for tol in (0.0, 0.05)
        ]
        one_block = [solve_binary_exact(req) for req in requests]
        monkeypatch.setattr(hermfair.solver, "_BLOCK_BITS", 3)
        for req, expected in zip(requests, one_block):
            res = solve_binary_exact(req)
            assert res.allocation.values.tobytes() == expected.allocation.values.tobytes()
            assert res.objective == expected.objective and res == expected

    @pytest.mark.parametrize("n", [17, 18])
    def test_several_blocks(self, n):
        rng = np.random.default_rng(n)
        for k, rows in enumerate(self.ROW_SETS):
            pop, params = self._case(rng, n, ("free", "ties", "duplicates", "one-user")[k])
            for tol in (0.0, 0.05):
                self._check(pop, params, rows, tol)


# ---------------------------------------------------------------- invariants

class TestSolverProperties:
    def test_oracle_dominance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pop, params = random_instance(rng, n_max=12)
            for cs in (ConstraintSet.parity(0.05), ConstraintSet.opportunity(0.05),
                       ConstraintSet.herm_opportunity(0.05)):
                lp = solve_constrained_lp(SolveRequest(pop, params, cs))
                try:
                    oracle = solve_binary_exact(
                        SolveRequest(pop, params, cs, mode=SolveMode.BINARY_EXACT)
                    )
                except Exception:
                    continue
                assert lp.objective >= oracle.objective - 1e-9

    def test_vertex_sparsity(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            pop, params = random_instance(rng, n_max=40)
            for cs, m in ((ConstraintSet.parity(), 1), (ConstraintSet.all(), 3),
                          (ConstraintSet(parity_exposure=True, equality_opportunity=True), 2)):
                res = solve_constrained_lp(SolveRequest(pop, params, cs))
                assert res.n_fractional <= m

    def test_threshold_scale_invariance(self):
        # joint positive scaling of (alpha, betas, thetas, omegas, xi) keeps decisions;
        # powers of two make the float scaling exact
        rng = np.random.default_rng(19)
        for _ in range(200):
            pop, params = random_instance(rng, n_max=20)
            c = float(2.0 ** rng.integers(-6, 7))
            scaled = ModelParams(
                alpha=c * params.alpha, beta_a=c * params.beta_a, beta_b=c * params.beta_b,
                theta_a=c * params.theta_a, theta_b=c * params.theta_b,
                omega_a=c * params.omega_a, omega_b=c * params.omega_b,
                xi=c * params.xi, gamma=params.gamma,
            )
            assert np.array_equal(
                solved_unconstrained(pop, params), solved_unconstrained(pop, scaled)
            )

    def test_monotone_dominance_within_group(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            pop, params = random_instance(rng, n_max=16)
            d = solved_unconstrained(pop, params)
            for g in ("A", "B"):
                idx = np.flatnonzero(pop.groups == g)
                for i in idx:
                    for j in idx:
                        if pop.p[i] >= pop.p[j] and pop.rho[i] >= pop.rho[j]:
                            assert d[i] >= d[j]

    def test_feasibility_anchor(self):
        from hermfair.model import eho_gap, eo_gap, parity_gap

        rng = np.random.default_rng(31)
        for _ in range(50):
            pop, _ = random_instance(rng, n_max=20)
            for d in (np.zeros(pop.size), np.ones(pop.size)):
                alloc = Allocation.binary(d)
                # show-all and show-none are exactly fair: identical sums cancel
                assert parity_gap(pop, alloc) == 0.0
                assert eo_gap(pop, alloc) == 0.0
                assert eho_gap(pop, alloc) == 0.0
            # the per-element normalized LP rows agree up to rounding only
            names, rows = constraint_rows(pop, ConstraintSet.all())
            assert np.max(np.abs(rows @ np.ones(pop.size))) < 1e-12


# ------------------------------------------------------------------- rounding

class TestRounding:
    def test_integral_input_unchanged(self):
        alloc = Allocation([0.0, 1.0, 1.0, 0.0])
        for seed in range(5):
            assert round_allocation(alloc, seed).values.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_bernoulli_deterministic(self):
        alloc = Allocation([0.3, 0.7, 0.5, 0.2, 0.9])
        a = round_allocation(alloc, seed=42)
        b = round_allocation(alloc, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_bernoulli_requires_seed(self):
        with pytest.raises(TypeError):
            round_allocation(Allocation([0.5]))
        with pytest.raises(ValueError, match="requires a seed"):
            round_allocation(Allocation([0.5]), None)

    @pytest.mark.parametrize("seed", [True, 2.0, -1, None], ids=repr)
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError):
            round_allocation(Allocation([0.5, 0.5]), seed)

    def test_bernoulli_expected_gap_matches_fractional(self):
        # average the realized parity gap over many seeds
        pop = pop_from(["A"] * 4 + ["B"] * 4, [0.5] * 8, [0.5] * 8)
        frac = Allocation([0.2, 0.8, 0.5, 0.5, 0.9, 0.1, 0.4, 0.6])
        from hermfair.model import parity_gap

        target = parity_gap(pop, frac)
        draws = [
            parity_gap(pop, round_allocation(frac, seed=s))
            for s in range(4000)
        ]
        assert np.mean(draws) == pytest.approx(target, abs=0.02)


# ------------------------------------------------------------------- dispatch

class TestDispatch:
    def test_solve_routes_by_mode_and_constraints(self, monkeypatch):
        for name in ("solve_unconstrained", "solve_constrained_lp", "solve_binary_exact"):
            monkeypatch.setattr(hermfair.solver, name, lambda req, name=name: name)
        pop = pop_from(["A", "A", "B", "B"], [0.9, 0.1, 0.8, 0.2], [0.5] * 4)
        params = make_params()
        assert solve(SolveRequest(pop, params)) == "solve_unconstrained"
        assert solve(SolveRequest(pop, params, ConstraintSet.parity())) == "solve_constrained_lp"
        exact = SolveRequest(pop, params, ConstraintSet.parity(0.02), mode=SolveMode.BINARY_EXACT)
        assert solve(exact) == "solve_binary_exact"

    def test_only_the_solver_calls_its_engines(self):
        # the CLI, the sweep and the demos reach every engine through solve
        import ast
        from pathlib import Path

        engines = {"solve_unconstrained", "solve_constrained_lp", "solve_binary_exact"}
        package = Path(hermfair.solver.__file__).parent
        demos = Path(__file__).resolve().parents[1] / "demos"
        calls = []
        for path in sorted([*package.rglob("*.py"), *demos.glob("*.py")]):
            if path == package / "solver.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", getattr(func, "id", None))
                    if name in engines:
                        calls.append(f"{path.name}:{node.lineno} {name}")
        assert calls == []
