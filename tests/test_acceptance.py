"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; without
``-s`` the lines still appear for failing criteria.  The sweep-based criteria
share session-scoped sweeps (scenarios A-D plus the two baseline sweeps) at
their default sizes: 100 replications, 1000 users per group.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import integrate, stats

from hermfair.model import (
    Allocation,
    ConstraintSet,
    ModelParams,
    Population,
    decision_gains,
    economic_utility,
    eho_gap,
    eo_gap,
    herm_aware_utility,
    parity_gap,
)
from hermfair.population import UptakeConfig, sample_population, PopulationSpec, subseed
from hermfair.scenarios import AllocationRule, builtin_scenario, run_sweep
from hermfair.solver import (
    SolveMode,
    SolveRequest,
    solve,
    solve_binary_exact,
    solve_constrained_lp,
    solve_unconstrained,
)
from hermfair.stats import ContingencyTable, chi2_independence, wilson_interval

JOBS = min(4, os.cpu_count() or 1)

SINGLE_RULES = (
    AllocationRule.PARITY_OF_EXPOSURE,
    AllocationRule.EQUALITY_OF_OPPORTUNITY,
    AllocationRule.EQUALITY_OF_HERM_OPPORTUNITY,
)
CONSTRAINED = SINGLE_RULES + (AllocationRule.ALL_CONSTRAINTS,)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert ok, line


def median_by(records, rule, value, field="utility_pct"):
    vals = [getattr(r, field) for r in records
            if r.rule == rule.value and r.param_value == value
            and not r.status.startswith("failed")]
    return float(np.median(vals))


def _timed_sweep(scenario, seed):
    spec = builtin_scenario(scenario)
    t0 = time.perf_counter()
    result = run_sweep(spec, base_seed=seed, jobs=JOBS)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sweep_a():
    return _timed_sweep("A", 101)


@pytest.fixture(scope="session")
def sweep_b():
    return _timed_sweep("B", 102)


@pytest.fixture(scope="session")
def sweep_c():
    return _timed_sweep("C", 103)


@pytest.fixture(scope="session")
def sweep_d():
    return _timed_sweep("D", 104)


@pytest.fixture(scope="session")
def sweep_gamma0():
    return _timed_sweep("baseline-gamma0", 105)


@pytest.fixture(scope="session")
def sweep_gamma():
    return _timed_sweep("gamma", 106)


# ------------------------------------------------------- closed-form bounds
#
# Criteria 5b and 7b test bounds implied by the per-user gain of showing over
# withholding, alpha*p - beta_g + gamma*(theta_g*rho - omega_g*(1-rho) + xi)
# (see decision_gains); the unconstrained optimum shows exactly the users
# whose gain is non-negative.

def _group_params(params, group):
    if group == "A":
        return params.beta_a, params.theta_a, params.omega_a
    return params.beta_b, params.theta_b, params.omega_b


def _saturation_gamma(params, group):
    """Cost weight from which every user of ``group`` has a non-negative gain.

    The gain is smallest at p = rho = 0, where it is gamma*(xi - omega_g) - beta_g.
    """
    beta, _, omega = _group_params(params, group)
    assert params.xi > omega, "no saturation weight unless xi > omega_g"
    return beta / (params.xi - omega)


def _b_exclusion_bound(params):
    """The beta_b above which no group-B user has a non-negative gain.

    The gain is largest at p = rho = 1, where it is alpha - beta_b + gamma*(theta_b + xi).
    """
    return params.alpha + params.gamma * (params.theta_b + params.xi)


def _group_show_rate(params, group, uptake, click):
    """Expected unconstrained show rate of ``group``, by quadrature over rho.

    Clicks are p = u**(1/k), so P(p >= t) = 1 - t**k for t in [0, 1]; t(rho)
    is the threshold of the unconstrained solve, clipped to [0, 1].
    """
    beta, theta, omega = _group_params(params, group)
    shape = uptake.beta_a if group == "A" else uptake.beta_b
    k = click.k_a if group == "A" else click.k_b

    def withheld(rho):
        t = (beta - params.gamma * (theta * rho - omega * (1.0 - rho) + params.xi)) / params.alpha
        return min(max(t, 0.0), 1.0) ** k * stats.beta.pdf(rho, *shape)

    return 1.0 - integrate.quad(withheld, 0.0, 1.0)[0]


# ------------------------------------------------------------------ criterion 1

def test_criterion_1_chi2_goldens():
    cases = [
        ([[883, 219], [1975, 122]],
         dict(statistic=(148.37, 0.01), cramers_v=(0.215, 0.001))),
        ([[50, 43, 32], [12, 15, 7]],
         dict(statistic=(1.12, 0.01), p_value=(0.572, 0.005), cramers_v=(0.084, 0.001))),
        ([[136, 66], [133, 185], [107, 179], [230, 280]],
         dict(statistic=(47.87, 0.01), cramers_v=(0.191, 0.001))),
        ([[9, 13, 7, 20], [144, 191, 157, 368]],
         dict(statistic=(0.91, 0.01), p_value=(0.824, 0.005))),
    ]
    t0 = time.perf_counter()
    failures = []
    for counts, expectations in cases:
        res = chi2_independence(ContingencyTable(counts))
        for fieldname, (want, tol) in expectations.items():
            got = getattr(res, fieldname)
            if abs(got - want) > tol:
                failures.append(f"{fieldname}={got:.4f} vs {want}±{tol}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report("1 chi-squared goldens", ok,
           f"4 tables in {elapsed*1000:.0f} ms" + ("; " + "; ".join(failures) if failures else ""))


# ------------------------------------------------------------------ criterion 2

def test_criterion_2_wilson_goldens():
    goldens = [
        (883, 1102, 0.801, 0.777, 0.824), (219, 1102, 0.199, 0.176, 0.223),
        (1975, 2097, 0.942, 0.931, 0.951), (122, 2097, 0.058, 0.049, 0.069),
        (50, 125, 0.400, 0.318, 0.488), (43, 125, 0.344, 0.266, 0.431),
        (32, 125, 0.256, 0.188, 0.339), (12, 34, 0.353, 0.215, 0.521),
        (15, 34, 0.441, 0.289, 0.605), (7, 34, 0.206, 0.103, 0.368),
        (9, 49, 0.184, 0.100, 0.314), (13, 49, 0.265, 0.162, 0.403),
        (7, 49, 0.143, 0.071, 0.267), (20, 49, 0.408, 0.282, 0.548),
        (144, 860, 0.167, 0.144, 0.194), (191, 860, 0.222, 0.196, 0.251),
        (157, 860, 0.183, 0.158, 0.210), (368, 860, 0.428, 0.395, 0.461),
    ]
    t0 = time.perf_counter()
    bad = 0
    for successes, n, point, lo, hi in goldens:
        res = wilson_interval(successes, n, 0.95)
        if (round(res.point, 3), round(res.lo, 3), round(res.hi, 3)) != (point, lo, hi):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    report("2 Wilson goldens", ok,
           f"{len(goldens)} intervals to 3 decimals in {elapsed*1000:.0f} ms, {bad} mismatches")


# ------------------------------------------------------------------ criterion 3

def _random_oracle_instance(rng):
    n = int(rng.integers(2, 15))
    n_a = int(rng.integers(1, n))
    groups = np.array(["A"] * n_a + ["B"] * (n - n_a))
    p = rng.random(n) ** rng.choice([1.0, 5.0, 20.0])
    rho = rng.beta(2.0, 2.0, n)
    pop = Population.from_arrays(groups, p, rho)
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
    return pop, params


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2024)
    constraint_makers = (ConstraintSet.parity, ConstraintSet.opportunity,
                         ConstraintSet.herm_opportunity)
    t0 = time.perf_counter()
    dominance_violations = 0
    threshold_mismatches = 0
    for i in range(500):
        pop, params = _random_oracle_instance(rng)
        # unconstrained: threshold rule must equal exhaustive enumeration exactly
        unc = solve_unconstrained(SolveRequest(pop, params))
        oracle = solve_binary_exact(SolveRequest(pop, params, mode=SolveMode.BINARY_EXACT))
        if not np.array_equal(unc.allocation.values, oracle.allocation.values):
            threshold_mismatches += 1
        cs = constraint_makers[i % 3](0.05)
        lp = solve_constrained_lp(SolveRequest(pop, params, cs))
        binary = solve_binary_exact(SolveRequest(pop, params, cs, mode=SolveMode.BINARY_EXACT))
        if lp.objective < binary.objective - 1e-9:
            dominance_violations += 1
    elapsed = time.perf_counter() - t0
    ok = dominance_violations == 0 and threshold_mismatches == 0 and elapsed < 120.0
    report("3 oracle equivalence", ok,
           f"500 instances in {elapsed:.1f} s; dominance violations "
           f"{dominance_violations}, threshold mismatches {threshold_mismatches}")


# ------------------------------------------------------------------ criterion 4

def test_criterion_4_near_zero_cost_of_fairness(sweep_a, sweep_b, sweep_c, sweep_d):
    worst_median = math.inf
    min_observed = math.inf
    total_time = 0.0
    for result, elapsed in (sweep_a, sweep_b, sweep_c, sweep_d):
        total_time += elapsed
        for rule in CONSTRAINED:
            for value in result.spec.grid:
                worst_median = min(worst_median, median_by(result.records, rule, value))
        observed = [r.utility_pct for r in result.records
                    if r.rule != AllocationRule.UNCONSTRAINED.value
                    and not r.status.startswith("failed")]
        min_observed = min(min_observed, min(observed))
    ok = worst_median >= 97.0 and min_observed >= 96.0 and total_time < 600.0
    report("4 near-zero cost of fairness", ok,
           f"worst median utility {worst_median:.2f}% (need >= 97), "
           f"min observed {min_observed:.2f}% (need >= 96), "
           f"A-D sweeps in {total_time:.0f} s (need < 600)")


# ------------------------------------------------------------------ criterion 5

def test_criterion_5_unconstrained_disparity_sign(sweep_a):
    result, _ = sweep_a
    unc_medians = {v: median_by(result.records, AllocationRule.UNCONSTRAINED, v, "parity_gap")
                   for v in result.spec.grid}
    all_positive = all(m > 0.0 for m in unc_medians.values())
    worst_constrained = max(
        abs(median_by(result.records, rule, v, "parity_gap"))
        for rule in CONSTRAINED for v in result.spec.grid
    )
    ok = all_positive and worst_constrained <= 0.02
    report("5a unconstrained disparity sign", ok,
           f"unconstrained exposure-gap medians positive at all {len(result.spec.grid)} grid "
           f"values: {all_positive}; max constrained |median| {worst_constrained:.2e} (need <= 0.02)")


def test_criterion_5_unconstrained_disparity_magnitude(sweep_a):
    # At the top of the beta_b grid the unconstrained disparity reaches its
    # full magnitude: beta_b lies beyond the B-exclusion bound, so no group-B
    # user is shown the ad and the exposure gap is all of group A's show rate
    # r_A, which group A's parameters alone fix.  The median gap must lie
    # within 4 standard errors of r_A; the median of `reps` replication means
    # of n_a Bernoulli(r_A) draws has SE sqrt(pi/2)*sqrt(r_A*(1-r_A)/n_a)/sqrt(reps).
    result, _ = sweep_a
    spec = result.spec
    top = result.spec.grid[-1]
    params = spec.params_for(top)
    bound = _b_exclusion_bound(params)
    r_a = _group_show_rate(params, "A", spec.uptake, spec.click)
    band = 4.0 * math.sqrt(math.pi / 2.0) * math.sqrt(r_a * (1.0 - r_a) / result.spec.n_a) \
        / math.sqrt(result.spec.replications)
    median_top = median_by(result.records, AllocationRule.UNCONSTRAINED, top, "parity_gap")
    ok = top > bound and abs(median_top - r_a) <= band
    report("5b unconstrained disparity magnitude", ok,
           f"beta_b={top} beyond B-exclusion bound {bound:.4f}: {top > bound}; "
           f"median exposure gap {median_top:.4f} (need {r_a:.4f} ± {band:.4f})")


# ------------------------------------------------------------------ criterion 6

def test_criterion_6_constraint_cost_ordering(sweep_a):
    # The stated claim: click-weighted equality is the costliest single
    # constraint at the lowest beta_b grid value.  With identical click
    # distributions across groups the three single-constraint optima nearly
    # coincide (equalizing counts, click shares, or uptake shares all amount
    # to equalizing group thresholds), so this ordering is decided by
    # margins of ~0.01 percentage points inside replication noise.
    result, _ = sweep_a
    low = result.spec.grid[0]
    medians = {rule: median_by(result.records, rule, low) for rule in SINGLE_RULES}
    eo = medians[AllocationRule.EQUALITY_OF_OPPORTUNITY]
    ok = eo <= medians[AllocationRule.PARITY_OF_EXPOSURE] and \
        eo <= medians[AllocationRule.EQUALITY_OF_HERM_OPPORTUNITY]
    report("6 constraint cost ordering", ok,
           f"at beta_b={low}: utility medians "
           + ", ".join(f"{r.value}={m:.4f}%" for r, m in medians.items()))


# ------------------------------------------------------------------ criterion 7

def test_criterion_7_baseline_gamma0(sweep_gamma0):
    result, _ = sweep_gamma0
    grid = list(result.spec.grid)
    unc = [median_by(result.records, AllocationRule.UNCONSTRAINED, v, "parity_gap")
           for v in grid]
    # rises with beta_b: monotone within replication noise, with a clear
    # overall increase (the gap saturates once no group-B user clears the
    # threshold, so strict step-by-step increase is not required)
    steps_ok = all(b - a >= -0.005 for a, b in zip(unc, unc[1:]))
    overall_rise = unc[-1] - unc[0]
    worst_constrained = max(
        abs(median_by(result.records, rule, v, "parity_gap"))
        for rule in CONSTRAINED for v in grid
    )
    ok = steps_ok and overall_rise > 0.03 and worst_constrained <= 0.02
    report("7a baseline gamma=0 disparity growth", ok,
           f"gap medians rise {unc[0]:.4f} -> {unc[-1]:.4f} (rise {overall_rise:.4f}), "
           f"monotone within noise: {steps_ok}; max constrained |median| {worst_constrained:.2e}")


def test_criterion_7_gamma_sweep_decline(sweep_gamma):
    # Every group-g user has a non-negative gain once gamma reaches the
    # saturation weight beta_g / (xi - omega_g).  (a) Below the smaller of the
    # two weights the constrained utility share declines from its gamma = 0
    # value.  (b) From the larger one on, the optimum shows the ad to everyone:
    # every constraint is slack, so every constrained share is 100% and every
    # gap is zero.
    result, _ = sweep_gamma
    spec = result.spec
    lo, hi = result.spec.grid[0], result.spec.grid[-1]
    assert lo == 0.0 and hi == 1.0
    saturation = [_saturation_gamma(spec.base_params, g) for g in ("A", "B")]
    below = max(v for v in result.spec.grid if v < min(saturation))
    deltas = {}
    ok = True
    for rule in CONSTRAINED:
        at0 = median_by(result.records, rule, lo)
        at_below = median_by(result.records, rule, below)
        deltas[rule.value] = (at0, at_below)
        if not at_below < at0:
            ok = False
    saturated = [r for r in result.records
                 if r.param_value >= max(saturation)
                 and r.rule != AllocationRule.UNCONSTRAINED.value
                 and not r.status.startswith("failed")]
    off = [r for r in saturated
           if r.utility_pct != 100.0
           or (r.parity_gap, r.eo_gap, r.eho_gap) != (0.0, 0.0, 0.0)]
    ok = ok and bool(saturated) and not off
    detail = (f"gamma={lo} -> {below} (below {min(saturation):.4f}): "
              + "; ".join(f"{k}: {v0:.3f}% -> {v1:.3f}%" for k, (v0, v1) in deltas.items())
              + f"; gamma >= {max(saturation):.4f}: {len(off)} of {len(saturated)} "
              f"constrained records off 100% or with a non-zero gap")
    report("7b gamma-sweep utility decline", ok, detail)


# ------------------------------------------------------------------ criterion 8

def _random_population(rng, n_max=30):
    n = int(rng.integers(2, n_max + 1))
    n_a = int(rng.integers(1, n))
    groups = np.array(["A"] * n_a + ["B"] * (n - n_a))
    return Population.from_arrays(groups, rng.random(n), rng.random(n))


def _random_params(rng, gamma=None):
    return ModelParams(
        alpha=float(rng.uniform(0.05, 2.0)),
        beta_a=float(rng.uniform(0.0, 1.0)),
        beta_b=float(rng.uniform(0.0, 1.0)),
        theta_a=float(rng.uniform(0.01, 1.0)),
        theta_b=float(rng.uniform(0.01, 1.0)),
        omega_a=float(rng.uniform(0.01, 1.0)),
        omega_b=float(rng.uniform(0.01, 1.0)),
        xi=float(rng.uniform(0.01, 1.0)),
        gamma=float(rng.uniform(0.0, 2.0)) if gamma is None else gamma,
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(777)
    checks = {}

    # objective linearity, 200 cases
    bad = 0
    for _ in range(200):
        pop = _random_population(rng)
        params = _random_params(rng)
        d1, d2 = rng.random(pop.size), rng.random(pop.size)
        lam = float(rng.random())
        mix = Allocation(np.clip(lam * d1 + (1 - lam) * d2, 0, 1))
        lhs = herm_aware_utility(pop, mix, params)
        rhs = lam * herm_aware_utility(pop, Allocation(d1), params) + \
            (1 - lam) * herm_aware_utility(pop, Allocation(d2), params)
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)) + 1e-9:
            bad += 1
    checks["linearity"] = bad

    # gap antisymmetry under group swap, 200 cases, exact
    bad = 0
    for _ in range(200):
        pop = _random_population(rng)
        alloc = Allocation(rng.random(pop.size))
        swapped = Population.from_arrays(
            np.where(pop.groups == "A", "B", "A"), pop.p, pop.rho)
        if parity_gap(swapped, alloc) != -parity_gap(pop, alloc):
            bad += 1
        if eo_gap(swapped, alloc) != -eo_gap(pop, alloc):
            bad += 1
        if eho_gap(swapped, alloc) != -eho_gap(pop, alloc):
            bad += 1
    checks["antisymmetry"] = bad

    # scale invariance of the unconstrained decision set, 200 cases
    bad = 0
    for _ in range(200):
        pop = _random_population(rng)
        params = _random_params(rng)
        c = float(2.0 ** rng.integers(-6, 7))
        scaled = ModelParams(
            alpha=c * params.alpha, beta_a=c * params.beta_a, beta_b=c * params.beta_b,
            theta_a=c * params.theta_a, theta_b=c * params.theta_b,
            omega_a=c * params.omega_a, omega_b=c * params.omega_b,
            xi=c * params.xi, gamma=params.gamma)
        if not np.array_equal(solve(SolveRequest(pop, params)).allocation.values,
                              solve(SolveRequest(pop, scaled)).allocation.values):
            bad += 1
    checks["scale_invariance"] = bad

    # vertex sparsity of the constrained LP, 200 cases
    bad = 0
    sets = (ConstraintSet.parity(), ConstraintSet.opportunity(),
            ConstraintSet.herm_opportunity(), ConstraintSet.all(),
            ConstraintSet(parity_exposure=True, equality_opportunity=True))
    for i in range(200):
        pop = _random_population(rng, n_max=40)
        params = _random_params(rng, gamma=float(rng.uniform(0, 0.1)))
        cs = sets[i % len(sets)]
        res = solve_constrained_lp(SolveRequest(pop, params, cs))
        if res.n_fractional > len(cs.active):
            bad += 1
    checks["vertex_sparsity"] = bad

    # gamma = 0 reduction, 200 cases, bitwise
    bad = 0
    for _ in range(200):
        pop = _random_population(rng)
        params = _random_params(rng, gamma=0.0)
        alloc = Allocation(rng.random(pop.size))
        if herm_aware_utility(pop, alloc, params) != economic_utility(pop, alloc, params):
            bad += 1
    checks["gamma0_reduction"] = bad

    # sampler moments at the stated draw counts
    sampler_rng = np.random.default_rng(4242)
    mean_a = float(sampler_rng.beta(4, 6, size=100_000).mean())
    mean_b = float(sampler_rng.beta(7, 3, size=100_000).mean())
    pop = sample_population(PopulationSpec(
        n_a=50_000, n_b=50_000, uptake=UptakeConfig((4, 6), (7, 3)), seed=3))
    click_mean = float(pop.p.mean())
    checks["moments"] = int(abs(mean_a - 0.4) > 0.005) + int(abs(mean_b - 0.7) > 0.005) \
        + int(abs(click_mean - 1.0 / 21.0) > 0.002)

    # sweep determinism and parallelism independence (200 records compared)
    spec = builtin_scenario("A", grid=(0.05, 0.2), replications=20, n_a=40, n_b=40)
    s1 = run_sweep(spec, base_seed=55, jobs=1)
    s2 = run_sweep(spec, base_seed=55, jobs=1)
    s3 = run_sweep(spec, base_seed=55, jobs=2)
    checks["determinism"] = int(s1 != s2) + int(s1 != s3)
    assert len(s1.records) >= 200

    ok = all(v == 0 for v in checks.values())
    report("8 property suites", ok,
           ", ".join(f"{k}: {v} failures" for k, v in checks.items()))


# ------------------------------------------------------------------ criterion 9

# +1 where a rule's optimum never falls as the swept parameter rises, -1
# where it never rises: the sign of its derivative at any allocation
# (tests/test_solver.py::test_optimum_along_the_swept_parameter).
_MONOTONE = {"beta_b": 1.0, "theta_b": 1.0, "omega_b": -1.0, "xi": -1.0}


def test_criterion_9_one_population_along_the_grid(
        sweep_a, sweep_b, sweep_c, sweep_d, sweep_gamma0, sweep_gamma):
    # A replication solves one population at every grid value, and the gap
    # rows do not read the parameters, so each rule's optimum along the grid
    # is a maximum of functions affine in the swept parameter.  Per rule and
    # replication on the sweeps' own records: (a) no grid value lies above
    # the chord of its neighbours by more than 1e-14 of the sum of |gains|
    # (recomputed from the replication's seed); (b) the optimum is monotone
    # in the direction of _MONOTONE, within 1e-14 of the larger |objective|;
    # (c) in A and baseline-gamma0 the unconstrained parity gap never falls,
    # since raising beta_b only removes group-B users from the threshold set.
    curves = bends = turns = gap_drops = 0
    worst = 0.0
    for result, _ in (sweep_a, sweep_b, sweep_c, sweep_d, sweep_gamma0, sweep_gamma):
        spec = result.spec
        grid = np.array(spec.grid)
        left, right = grid[1:-1] - grid[:-2], grid[2:] - grid[1:-1]
        all_params = [spec.params_for(value) for value in spec.grid]
        scales = []
        for rep in range(spec.replications):
            pop = sample_population(PopulationSpec(
                n_a=spec.n_a, n_b=spec.n_b, uptake=spec.uptake, click=spec.click,
                seed=subseed(result.base_seed, 0, rep)))
            scales.append(np.array([np.abs(decision_gains(pop, p)).sum() for p in all_params]))
        by_curve = {}
        for rec in result.records:
            by_curve.setdefault((rec.rule, rec.replication), []).append(rec)
        for (rule, rep), recs in by_curve.items():
            assert [r.param_value for r in recs] == list(spec.grid)
            curves += 1
            f = np.array([r.objective for r in recs])
            chord = (right * f[:-2] + left * f[2:]) / (left + right)
            excess = (f[1:-1] - chord) / scales[rep][1:-1]
            worst = max(worst, float(excess.max()))
            bends += int(np.count_nonzero(~(excess <= 1e-14)))
            if spec.varying in _MONOTONE:
                rise = _MONOTONE[spec.varying] * np.diff(f)
                bound = 1e-14 * np.maximum(np.abs(f[:-1]), np.abs(f[1:]))
                turns += int(np.count_nonzero(~(rise >= -bound)))
            if spec.varying == "beta_b" and rule == AllocationRule.UNCONSTRAINED.value:
                gaps = np.array([r.parity_gap for r in recs])
                gap_drops += int(np.count_nonzero(~(np.diff(gaps) >= 0.0)))
    ok = bends == 0 and turns == 0 and gap_drops == 0
    report("9 one population along the grid", ok,
           f"{curves} curves: worst chord excess {worst:.1e} of sum|gain| (need <= 1e-14), "
           f"{bends} convexity breaks, {turns} monotonicity breaks, "
           f"{gap_drops} drops of the unconstrained parity gap in beta_b")
