"""
Constrained allocation, checked against the enumeration oracle
==============================================================

Solve a fairness-constrained allocation as a fractional LP and verify it
against the exhaustive search over binary vectors.  On small instances the
two bracket each other: the LP can only do better than the best
tolerance-feasible binary vector, and it leaves at most one coordinate
fractional per active constraint.
"""

import numpy as np

from hermfair import (
    ConstraintSet,
    ModelParams,
    Population,
    SolveMode,
    SolveRequest,
    solve,
)

rng = np.random.default_rng(12)
n_a, n_b = 6, 6
pop = Population.from_arrays(
    groups=np.array(["A"] * n_a + ["B"] * n_b),
    p=rng.random(n_a + n_b) ** 5,
    rho=rng.beta(2, 2, n_a + n_b),
)
params = ModelParams(alpha=0.2, beta_a=0.03, beta_b=0.08, theta_a=0.05,
                     theta_b=0.1, omega_a=0.01, omega_b=0.01, xi=0.2, gamma=0.01)

unconstrained = solve(SolveRequest(pop, params))
print("unconstrained objective      :", unconstrained.objective)
print("unconstrained exposure gap   :", unconstrained.parity_gap)

# Ask for exposure parity, to a 2% tolerance for the binary search.
constraints = ConstraintSet.parity(tolerance=0.02)
lp = solve(SolveRequest(pop, params, constraints))
oracle = solve(SolveRequest(pop, params, constraints, mode=SolveMode.BINARY_EXACT))

print("\nLP objective                 :", lp.objective)
print("LP fractional coordinates    :", lp.n_fractional, "(at most one per constraint)")
print("LP exposure gap              :", lp.parity_gap)
print("\noracle objective             :", oracle.objective)
print("oracle decisions             :", oracle.allocation.values)
print("\nLP dominates the oracle      :", lp.objective >= oracle.objective - 1e-9)
print("fairness costs               :",
      f"{100 * (1 - lp.objective / unconstrained.objective):.3f}% of utility")

# All three constraints at once: the LP may leave up to three fractional
# coordinates, and the objective can only drop further.
all_constraints = ConstraintSet.all(tolerance=0.02)
lp_all = solve(SolveRequest(pop, params, all_constraints))
print("\nall constraints, objective   :", lp_all.objective)
print("all constraints, gaps        :", [f"{g:.2e}" for g in lp_all.gaps])
