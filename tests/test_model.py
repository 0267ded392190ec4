import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hermfair.model import (
    Allocation,
    ConstraintSet,
    DegenerateGroupError,
    ModelParams,
    Population,
    _context,
    decision_gains,
    economic_utility,
    eho_gap,
    eo_gap,
    herm_aware_utility,
    hermeneutical_cost,
    parity_gap,
)
from hermfair.scenarios import builtin_scenario


def make_params(**kw):
    base = dict(alpha=0.2, beta_a=0.03, beta_b=0.05, theta_a=0.05, theta_b=0.1,
                omega_a=0.01, omega_b=0.01, xi=0.2, gamma=0.01)
    base.update(kw)
    return ModelParams(**base)


def pop_from(groups, p, rho):
    return Population.from_arrays(np.array(groups), np.array(p), np.array(rho))


def test_default_params_are_the_documented_values():
    assert ModelParams.default() == make_params()
    assert builtin_scenario("A").params_for(0.05) == ModelParams.default()
    assert builtin_scenario("baseline-gamma0").base_params.gamma == 0.0


# ---------------------------------------------------------------- type checks

class TestValidation:
    def test_population_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="p values"):
            pop_from(["A", "B"], [1.2, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="rho values"):
            pop_from(["A", "B"], [0.5, 0.5], [-0.1, 0.5])
        with pytest.raises(ValueError, match="p values"):
            pop_from(["A", "B"], [float("nan"), 0.5], [0.5, 0.5])

    def test_population_rejects_unequal_lengths(self):
        message = "^groups, p and rho must be 1-d arrays of equal length$"
        with pytest.raises(ValueError, match=message):
            Population.from_arrays(["A", "B"], [0.1, 0.2, 0.3], [0.4, 0.5])

    def test_population_requires_both_groups(self):
        with pytest.raises(DegenerateGroupError):
            pop_from(["A", "A"], [0.1, 0.2], [0.3, 0.4])

    def test_population_counts(self):
        pop = pop_from(["A", "B", "B"], [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        assert pop.n_a == 1 and pop.n_b == 2 and pop.size == 3 and len(pop) == 3
        assert pop.groups.tolist() == ["A", "B", "B"]
        assert pop.mask_a.tolist() == [True, False, False]
        assert pop.mask_b.tolist() == [False, True, True]

    def test_population_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            pop_from(["A", "C"], [0.1, 0.2], [0.3, 0.4])

    def test_population_rejects_long_labels_before_truncating(self):
        # a one-character cast would read "Apple", "Banana" as A, B
        with pytest.raises(ValueError, match=r"\['Apple', 'Banana'\]"):
            pop_from(["Apple", "Banana", "B"], [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        with pytest.raises(ValueError, match="unknown group labels"):
            pop_from([1, 2], [0.1, 0.2], [0.3, 0.4])

    def test_binary_allocation_rejects_fractions(self):
        with pytest.raises(ValueError):
            Allocation.binary([0.0, 0.5])
        with pytest.raises(ValueError):
            Allocation([0.0, 1.5])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_allocation_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            Allocation([0.5, value])

    def test_allocation_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="1-d vector"):
            Allocation([[0.5, 1.0], [0.0, 0.5]])

    def test_allocation_keeps_a_read_only_copy(self):
        values = np.array([0.5, 1.0])
        alloc = Allocation(values)
        assert alloc.values is not values and not alloc.values.flags.writeable
        values[0] = 0.0  # the caller's array stays writable and apart
        assert alloc.values[0] == 0.5
        with pytest.raises(ValueError):
            alloc.values[0] = 0.0

    def test_allocation_equality_compares_values(self):
        assert Allocation([0.5, 1.0]) == Allocation(np.array([0.5, 1.0]))
        assert Allocation([0.5, 1.0]) != Allocation([0.5, 0.0])
        assert Allocation([0.5, 1.0]) != Allocation([0.5, 1.0, 0.0])

    def test_params_invariants(self):
        with pytest.raises(ValueError):
            make_params(alpha=0.0)
        with pytest.raises(ValueError):
            make_params(theta_b=0.0)
        with pytest.raises(ValueError):
            make_params(xi=-0.1)
        with pytest.raises(ValueError):
            make_params(gamma=-0.01)
        with pytest.raises(ValueError):
            make_params(beta_a=float("inf"))

    @pytest.mark.parametrize("value", [True, False, "0.5", None, np.bool_(True)])
    def test_params_reject_a_bool_or_a_string(self, value):
        # float() would take each of these as a number
        for name in ("alpha", "gamma"):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
                make_params(**{name: value})
        got = make_params(alpha=np.float32(0.5), gamma=1, xi=np.int64(2))
        assert (got.alpha, got.gamma, got.xi) == (0.5, 1.0, 2.0)
        assert type(got.alpha) is float

    @pytest.mark.parametrize("value", [True, False, "1e-6", None])
    def test_constraint_set_tolerance_rejects_a_bool_or_a_string(self, value):
        with pytest.raises(ValueError, match="^tolerance must be a finite number"):
            ConstraintSet.parity(tolerance=value)
        assert ConstraintSet.parity(tolerance=0).tolerance == 0.0
        assert ConstraintSet.parity(tolerance=np.float64(0.5)).tolerance == 0.5

    def test_constraint_set_tolerance(self):
        with pytest.raises(ValueError):
            ConstraintSet(tolerance=-1e-9)
        assert ConstraintSet.all().active == (
            "parity_exposure", "equality_opportunity", "equality_herm_opportunity")

    def test_constraint_set_active_is_kept_and_ignored_by_equality(self):
        cs = ConstraintSet(equality_herm_opportunity=True, parity_exposure=True)
        assert cs.active == ("parity_exposure", "equality_herm_opportunity")
        assert cs.active is cs.active
        assert replace(cs, parity_exposure=False).active == ("equality_herm_opportunity",)
        assert replace(cs, tolerance=0.5).active == cs.active
        assert "active" not in repr(cs)
        assert ConstraintSet.all() == ConstraintSet(True, True, True)
        assert hash(ConstraintSet.all()) == hash(ConstraintSet(True, True, True))
        assert ConstraintSet().active == () and not ConstraintSet().any_active

    def test_misaligned_allocation(self):
        pop = pop_from(["A", "B"], [0.1, 0.2], [0.3, 0.4])
        with pytest.raises(ValueError):
            economic_utility(pop, Allocation.binary([1.0]), make_params())


# ------------------------------------------------------------ per-user terms

def one_user(group, p, rho):
    """A population whose first user is the one under test; the second user,
    of the other group, is always withheld and adds a known constant."""
    other = "B" if group == "A" else "A"
    return pop_from([group, other], [p, 0.0], [rho, 0.0])


class TestUserTerms:
    # withholding the filler user adds beta_other to the utility and xi to the cost
    def test_withheld_utility_is_beta(self):
        pop = one_user("A", p=0.7, rho=0.2)
        params = make_params(beta_a=0.03, beta_b=0.05)
        assert economic_utility(pop, Allocation.binary([0.0, 0.0]), params) == 0.03 + 0.05

    def test_certain_click_full_exposure(self):
        pop = one_user("B", p=1.0, rho=0.2)
        params = make_params(alpha=0.2, beta_a=0.0)
        assert economic_utility(pop, Allocation.binary([1.0, 0.0]), params) == 0.2

    def test_half_click(self):
        # alpha*p*d + beta*(1-d) = 0.2*0.5*1 = 0.1
        pop = one_user("A", p=0.5, rho=0.2)
        params = make_params(alpha=0.2, beta_a=0.03, beta_b=0.0)
        got = economic_utility(pop, Allocation.binary([1.0, 0.0]), params)
        assert got == pytest.approx(0.1)

    def test_withheld_cost_is_exclusion_penalty(self):
        pop = one_user("B", p=0.5, rho=0.9)
        params = make_params(xi=0.2)
        assert hermeneutical_cost(pop, Allocation.binary([0.0, 0.0]), params) == 0.2 + 0.2

    def test_perfect_uptake(self):
        pop = one_user("A", p=0.5, rho=1.0)
        params = make_params(theta_a=0.05, xi=0.2)
        got = hermeneutical_cost(pop, Allocation.binary([1.0, 0.0]), params)
        assert got - 0.2 == pytest.approx(-0.05)

    def test_total_uptake_failure(self):
        pop = one_user("A", p=0.5, rho=0.0)
        params = make_params(omega_a=0.01, xi=0.2)
        got = hermeneutical_cost(pop, Allocation.binary([1.0, 0.0]), params)
        assert got - 0.2 == pytest.approx(0.01)

    def test_decision_domain(self):
        pop = one_user("A", p=0.5, rho=0.5)
        with pytest.raises(ValueError):
            economic_utility(pop, Allocation([1.1, 0.0]), make_params())
        with pytest.raises(ValueError):
            hermeneutical_cost(pop, Allocation([-0.2, 0.0]), make_params())


# ----------------------------------------------------------------- aggregates

class TestAggregateObjective:
    def test_gamma_zero_equals_economic(self):
        pop = pop_from(["A", "B", "A"], [0.3, 0.9, 0.1], [0.2, 0.8, 0.5])
        alloc = Allocation([0.2, 1.0, 0.7])
        params = make_params(gamma=0.0)
        assert herm_aware_utility(pop, alloc, params) == economic_utility(pop, alloc, params)

    def test_single_user_hand_value(self):
        # 0.1 - 0.01*(-0.05*0.4 + 0.01*0.6) = 0.10014 for the shown user,
        # 0.05 - 0.01*0.2 = 0.048 for the withheld one
        pop = pop_from(["A", "B"], [0.5, 0.0], [0.4, 0.5])
        params = make_params()
        got = herm_aware_utility(pop, Allocation.binary([1.0, 0.0]), params)
        assert got - 0.048 == pytest.approx(0.10014, abs=1e-12)
        # withholding the first user instead would earn 0.03 - 0.01*0.2
        assert decision_gains(pop, params)[0] == pytest.approx(0.10014 - 0.028, abs=1e-12)

    def test_all_withheld_closed_form(self):
        # beta_a + beta_b - gamma * 2 * xi
        params = make_params(beta_a=0.03, beta_b=0.05, gamma=0.01, xi=0.2)
        pop = pop_from(["A", "B"], [0.9, 0.8], [0.1, 0.2])
        got = herm_aware_utility(pop, Allocation.binary([0.0, 0.0]), params)
        assert got == pytest.approx(0.03 + 0.05 - 0.01 * 2 * 0.2, abs=1e-15)

    def test_decision_gains_match_objective_difference(self):
        pop = pop_from(["A", "B", "B"], [0.3, 0.6, 0.05], [0.7, 0.2, 0.9])
        params = make_params()
        gains = decision_gains(pop, params)
        for i in range(pop.size):
            lo = np.zeros(pop.size)
            hi = lo.copy()
            hi[i] = 1.0
            diff = herm_aware_utility(pop, Allocation.binary(hi), params) - herm_aware_utility(
                pop, Allocation.binary(lo), params
            )
            assert diff == pytest.approx(gains[i], rel=1e-12, abs=1e-14)


# ----------------------------------------------------------------------- gaps

class TestGaps:
    def test_full_and_empty_exposure(self):
        pop = pop_from(["A", "A", "B"], [0.2, 0.4, 0.6], [0.5, 0.6, 0.7])
        for d in ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]):
            alloc = Allocation.binary(d)
            assert parity_gap(pop, alloc) == 0.0
            assert eo_gap(pop, alloc) == 0.0
            assert eho_gap(pop, alloc) == 0.0

    def test_parity_worked_example(self):
        pop = pop_from(["A", "A", "B", "B"], [0.5] * 4, [0.5] * 4)
        alloc = Allocation.binary([1.0, 0.0, 1.0, 1.0])
        assert parity_gap(pop, alloc) == pytest.approx(-0.5)

    def test_eo_worked_example(self):
        pop = pop_from(["A", "A", "B", "B"], [0.8, 0.2, 0.5, 0.5], [0.5] * 4)
        alloc = Allocation.binary([1.0, 0.0, 1.0, 1.0])
        assert eo_gap(pop, alloc) == pytest.approx(-0.2)

    def test_eho_worked_example(self):
        pop = pop_from(["A", "A", "B", "B"], [0.5] * 4, [0.9, 0.1, 0.4, 0.6])
        alloc = Allocation.binary([0.0, 1.0, 1.0, 0.0])
        assert eho_gap(pop, alloc) == pytest.approx(-0.3)

    def test_uniform_weights_reduce_to_parity(self):
        pop = pop_from(["A", "A", "B", "B", "B"], [0.3] * 5, [0.8] * 5)
        alloc = Allocation([0.1, 0.9, 0.4, 0.2, 0.8])
        assert eo_gap(pop, alloc) == pytest.approx(parity_gap(pop, alloc), abs=1e-12)
        assert eho_gap(pop, alloc) == pytest.approx(parity_gap(pop, alloc), abs=1e-12)

    def test_zero_mass_group_raises(self):
        pop = pop_from(["A", "B"], [0.0, 0.5], [0.5, 0.5])
        with pytest.raises(DegenerateGroupError):
            eo_gap(pop, Allocation.binary([1.0, 1.0]))
        pop = pop_from(["A", "B"], [0.5, 0.5], [0.5, 0.0])
        with pytest.raises(DegenerateGroupError):
            eho_gap(pop, Allocation.binary([1.0, 1.0]))

    def test_mirrored_groups_have_zero_gaps(self):
        pop = pop_from(["A", "A", "B", "B"], [0.7, 0.1, 0.7, 0.1], [0.6, 0.2, 0.6, 0.2])
        alloc = Allocation.binary([1.0, 0.0, 1.0, 0.0])
        assert parity_gap(pop, alloc) == 0.0
        assert eo_gap(pop, alloc) == 0.0
        assert eho_gap(pop, alloc) == 0.0


# ----------------------------------------------------------------- properties

def _populations(min_per_group=1, max_per_group=6):
    probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

    @st.composite
    def build(draw):
        n_a = draw(st.integers(min_per_group, max_per_group))
        n_b = draw(st.integers(min_per_group, max_per_group))
        n = n_a + n_b
        groups = ["A"] * n_a + ["B"] * n_b
        perm = draw(st.permutations(list(range(n))))
        groups = [groups[i] for i in perm]
        p = draw(st.lists(probs, min_size=n, max_size=n))
        rho = draw(st.lists(probs, min_size=n, max_size=n))
        return pop_from(groups, p, rho)

    return build()


def _params_strategy():
    pos = st.floats(min_value=1e-3, max_value=5.0, allow_nan=False)
    nonneg = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
    return st.builds(
        ModelParams,
        alpha=pos, beta_a=nonneg, beta_b=nonneg,
        theta_a=pos, theta_b=pos, omega_a=pos, omega_b=pos,
        xi=pos, gamma=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )


def _fractional_for(pop, draw, probs):
    vals = draw(st.lists(probs, min_size=pop.size, max_size=pop.size))
    return Allocation(vals)


@st.composite
def _pop_two_allocs(draw):
    pop = draw(_populations())
    probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    return pop, _fractional_for(pop, draw, probs), _fractional_for(pop, draw, probs)


class TestProperties:
    @given(_pop_two_allocs(), _params_strategy(),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_objective_linearity(self, pop_allocs, params, lam):
        pop, a1, a2 = pop_allocs
        mix = Allocation(
            np.clip(lam * a1.values + (1.0 - lam) * a2.values, 0.0, 1.0)
        )
        lhs = herm_aware_utility(pop, mix, params)
        rhs = lam * herm_aware_utility(pop, a1, params) + (1.0 - lam) * herm_aware_utility(
            pop, a2, params
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    @given(_params_strategy(),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_cost_strictly_decreasing_in_rho(self, params, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        # the shown group-A user's cost, with the withheld group-B user's xi
        # as the same constant in both
        shown = Allocation.binary([1.0, 0.0])
        c_lo = hermeneutical_cost(pop_from(["A", "B"], [0.5, 0.5], [lo, 0.5]), shown, params)
        c_hi = hermeneutical_cost(pop_from(["A", "B"], [0.5, 0.5], [hi, 0.5]), shown, params)
        # slope is -(theta + omega)
        expected = -(params.theta_a + params.omega_a) * (hi - lo)
        assert c_hi - c_lo == pytest.approx(expected, rel=1e-9, abs=1e-12)
        # strictness is only observable when the slope effect clears rounding
        if expected < -1e-12 * (abs(c_lo) + 1.0):
            assert c_hi < c_lo

    @given(_pop_two_allocs())
    def test_gap_antisymmetry_exact(self, pop_allocs):
        pop, alloc, _ = pop_allocs
        swapped = Population.from_arrays(
            np.where(pop.groups == "A", "B", "A"), pop.p, pop.rho
        )
        assert parity_gap(swapped, alloc) == -parity_gap(pop, alloc)
        for fn in (eo_gap, eho_gap):
            try:
                original = fn(pop, alloc)
            except DegenerateGroupError:
                continue
            assert fn(swapped, alloc) == -original

    @given(_pop_two_allocs(), _params_strategy())
    def test_gamma_zero_reduction_bitwise(self, pop_allocs, params):
        pop, alloc, _ = pop_allocs
        zero = ModelParams(
            alpha=params.alpha, beta_a=params.beta_a, beta_b=params.beta_b,
            theta_a=params.theta_a, theta_b=params.theta_b,
            omega_a=params.omega_a, omega_b=params.omega_b,
            xi=params.xi, gamma=0.0,
        )
        assert herm_aware_utility(pop, alloc, zero) == economic_utility(pop, alloc, zero)

    @given(_pop_two_allocs(), st.randoms(use_true_random=False))
    def test_gaps_invariant_under_within_group_permutation(self, pop_allocs, rnd):
        pop, alloc, _ = pop_allocs
        idx = list(range(pop.size))
        idx_a = [i for i in idx if pop.groups[i] == "A"]
        idx_b = [i for i in idx if pop.groups[i] == "B"]
        rnd.shuffle(idx_a)
        rnd.shuffle(idx_b)
        ita, itb = iter(idx_a), iter(idx_b)
        perm = [next(ita) if pop.groups[i] == "A" else next(itb) for i in idx]
        pop2 = Population.from_arrays(pop.groups[perm], pop.p[perm], pop.rho[perm])
        alloc2 = Allocation(alloc.values[perm])
        for fn in (parity_gap, eo_gap, eho_gap):
            try:
                g1 = fn(pop, alloc)
            except DegenerateGroupError:
                continue
            g2 = fn(pop2, alloc2)
            assert g2 == pytest.approx(g1, rel=1e-12, abs=1e-12)


@st.composite
def _scoring_cases(draw):
    """A population with interleaved group labels, one group's ``p`` or
    ``rho`` possibly all zero, and a fractional decision vector."""
    pop = draw(_populations())
    zeroed = draw(st.sampled_from([None, ("p", "A"), ("p", "B"), ("rho", "A"), ("rho", "B")]))
    if zeroed is not None:
        column, group = zeroed
        columns = {"p": pop.p.copy(), "rho": pop.rho.copy()}
        columns[column][pop.groups == group] = 0.0
        pop = Population.from_arrays(pop.groups, columns["p"], columns["rho"])
    probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    return pop, _fractional_for(pop, draw, probs), zeroed


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestScorer:
    @given(_scoring_cases(), _params_strategy())
    def test_one_pass_scorer_matches_the_public_functions_bitwise(self, case, params):
        pop, alloc, zeroed = case
        _, objective, gaps = _context(pop, params).score(alloc)
        # the public functions on a population that has cached nothing
        fresh = Population.from_arrays(pop.groups, pop.p, pop.rho)
        assert _bits(objective) == _bits(herm_aware_utility(fresh, alloc, params))
        for gap, fn in zip(gaps, (parity_gap, eo_gap, eho_gap)):
            try:
                want = fn(fresh, alloc)
            except DegenerateGroupError:
                assert math.isnan(gap)
            else:
                assert _bits(gap) == _bits(want)
        if zeroed is not None:
            assert math.isnan(gaps[1 if zeroed[0] == "p" else 2])

    def test_zero_mass_gap_is_nan_on_every_call(self):
        pop = pop_from(["B", "A", "B", "A"], [0.4, 0.0, 0.2, 0.0], [0.5, 0.3, 0.9, 0.1])
        d = np.array([0.25, 1.0, 0.0, 0.5])
        for _ in range(2):
            _, objective, (parity, eo, eho) = _context(pop, make_params()).score(Allocation(d))
            assert math.isnan(eo) and not math.isnan(parity) and not math.isnan(eho)
            assert parity == parity_gap(pop, Allocation(d)) == 0.75 - 0.125
            assert objective == herm_aware_utility(pop, Allocation(d), make_params())


# ---------------------------------------------------------- population cache

class TestPopulationCache:
    @staticmethod
    def _population(seed=41, n=60):
        rng = np.random.default_rng(seed)
        groups = np.where(rng.random(n) < 0.4, "A", "B")
        groups[:2] = ["A", "B"]
        return Population.from_arrays(groups, rng.random(n) ** 3, rng.beta(2.0, 3.0, n))

    def test_solves_match_a_fresh_population(self):
        from hermfair.scenarios import AllocationRule
        from hermfair.solver import SolveRequest, solve

        pop = self._population()
        p1, p2 = make_params(), make_params(gamma=0.3, beta_b=0.08, theta_a=0.2)
        for params in (p1, p2, p1):
            for rule in AllocationRule:
                cs = rule.constraint_set(1e-6)
                got = solve(SolveRequest(pop, params, cs))
                fresh = Population.from_arrays(pop.groups, pop.p, pop.rho)
                want = solve(SolveRequest(fresh, params, cs))
                assert got.allocation.values.tobytes() == want.allocation.values.tobytes()
                assert (got.objective, got.gaps, got.status, got.n_fractional) == (
                    want.objective, want.gaps, want.status, want.n_fractional
                )

    def test_cached_arrays_are_read_only(self):
        pop = self._population()
        params = make_params()
        ctx = _context(pop, params)
        gains = ctx.gains
        assert _context(pop, params) is ctx and ctx.gains is gains
        ctx.score(Allocation(np.ones(pop.size)))
        ctx.pop_rows.rows(ConstraintSet.all().active)
        cached = [gains, ctx.threshold_values, *ctx.terms[1:], *ctx.pop_rows._rows.values()]
        assert len(cached) == 8
        for arr in cached:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5
        # the public function builds its own read-only copy, bit for bit
        public = decision_gains(pop, params)
        assert public is not gains and public.tobytes() == gains.tobytes()
        assert not public.flags.writeable

    def test_a_solve_holds_gains_and_masses_only(self, monkeypatch):
        import hermfair.solver
        from hermfair.solver import SolveRequest, solve_constrained_lp

        pop = self._population()
        held = []
        real = hermfair.solver._dual_simplex

        def spy(c, rows, eps, threshold, start):
            held.append((sorted(vars(pop._context)), dict(pop._rows._masses)))
            return real(c, rows, eps, threshold, start)

        monkeypatch.setattr(hermfair.solver, "_dual_simplex", spy)
        solve_constrained_lp(SolveRequest(pop, make_params(), ConstraintSet.all()))
        (names, masses), = held
        # while the engine runs: the gains and masses, not the objective's terms
        assert "gains" in names and "terms" not in names
        assert masses.keys() == {None, "p", "rho"}
        assert all(type(m) is float for pair in masses.values() for m in pair)

    def test_a_population_holds_one_parameter_sets_arrays(self):
        import weakref

        from hermfair.solver import SolveRequest, constraint_rows, solve

        pop = self._population()
        p1, p2 = make_params(), make_params(gamma=0.3)
        results = [solve(SolveRequest(pop, p1, cs)) for cs in (ConstraintSet(), ConstraintSet.all())]
        ctx = pop._context
        built = [ctx.gains, ctx.threshold_values, *ctx.terms[1:]]
        threshold = weakref.ref(vars(ctx)["threshold"].allocation.values)
        assert results[0].allocation.values is threshold()
        refs = [weakref.ref(arr) for arr in built]
        pop_rows, rows = pop._rows, dict(pop._rows._rows)
        assert ctx.pop_rows is pop_rows
        _, block = pop_rows.rows(ConstraintSet.all().active)
        del ctx, built
        solve(SolveRequest(pop, p2, ConstraintSet.all()))
        ctx = pop._context
        assert ctx.params is p2
        # no reference cycle: the old parameter set's arrays are freed with
        # no collection
        assert all(ref() is None for ref in refs)
        # the rows are the population's: the new parameter object's solve
        # read the same block, and built no row
        assert pop._rows is pop_rows and ctx.pop_rows is pop_rows
        assert pop_rows._rows.keys() == rows.keys()
        assert all(pop_rows._rows[name] is row for name, row in rows.items())
        assert pop_rows.rows(ConstraintSet.all().active)[1] is block
        # a context holds its parameter object's arrays and the rows object,
        # and no row, mass or matrix of its own
        assert set(vars(ctx)) <= {"pop_rows", "params", "terms", "gains",
                                  "threshold_values", "threshold"}
        assert not any(hasattr(ctx, name) for name in (
            "masses", "share_gap", "rows", "block", "_masses", "_rows", "_retained",
            "_matrices", "_gap_row", "_matrix", "_extend", "shared"))
        assert threshold() is not None  # a result still holds its allocation
        del results
        assert threshold() is None
        # the public functions build nothing on the population
        fresh = Population.from_arrays(pop.groups, pop.p, pop.rho)
        alloc = Allocation(np.ones(fresh.size))
        for gap in (parity_gap, eo_gap, eho_gap):
            gap(fresh, alloc)
        for objective in (economic_utility, hermeneutical_cost, herm_aware_utility):
            objective(fresh, alloc, p1)
        decision_gains(fresh, p1)
        constraint_rows(fresh, ConstraintSet.all())
        assert fresh._rows is None and fresh._context is None

    def test_equality_ignores_the_cache(self):
        pop = self._population()
        decision_gains(pop, make_params())
        eho_gap(pop, Allocation(np.zeros(pop.size)))
        fresh = Population.from_arrays(pop.groups, pop.p, pop.rho)
        assert pop == fresh and fresh == pop
        decision_gains(fresh, make_params(gamma=0.5))
        assert pop == fresh

    def test_degenerate_group_raises_on_every_call(self):
        from hermfair.solver import constraint_rows

        pop = pop_from(["A", "A", "B"], [0.0, 0.0, 0.5], [0.5, 0.5, 0.5])
        alloc = Allocation(np.ones(3))
        for _ in range(2):
            with pytest.raises(DegenerateGroupError):
                eo_gap(pop, alloc)
            with pytest.raises(DegenerateGroupError):
                constraint_rows(pop, ConstraintSet.opportunity())
        assert eho_gap(pop, alloc) == 0.0
