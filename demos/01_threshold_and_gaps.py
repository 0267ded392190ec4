"""
Scoring allocations and reading the fairness gaps
=================================================

A minimal tour of the model layer: build a tiny population by hand, score a
few allocations, and see how the threshold rule and the three group gaps
behave.
"""

import numpy as np

from hermfair import (
    Allocation,
    ModelParams,
    Population,
    SolveRequest,
    eho_gap,
    eo_gap,
    herm_aware_utility,
    parity_gap,
    round_allocation,
    solve,
)

# Six users: three in group A, three in group B.  p is the click
# probability, rho the probability the user makes sense of the ad.
pop = Population.from_arrays(
    groups=np.array(["A", "A", "A", "B", "B", "B"]),
    p=np.array([0.60, 0.20, 0.05, 0.50, 0.30, 0.02]),
    rho=np.array([0.30, 0.50, 0.40, 0.80, 0.70, 0.60]),
)

# Showing earns alpha*p, withholding earns the group's beta.  The uptake
# reward/penalty (theta, omega) and the exclusion penalty (xi) enter the
# objective through the cost weight gamma.
params = ModelParams(
    alpha=0.2, beta_a=0.03, beta_b=0.05,
    theta_a=0.05, theta_b=0.10, omega_a=0.01, omega_b=0.01,
    xi=0.2, gamma=0.01,
)

show_all = Allocation.binary(np.ones(6))
show_none = Allocation.binary(np.zeros(6))
print("objective, show everyone :", herm_aware_utility(pop, show_all, params))
print("objective, show no one   :", herm_aware_utility(pop, show_none, params))

# The unconstrained optimum is a per-user threshold on p.
best = solve(SolveRequest(pop, params)).allocation
print("\nthreshold decisions      :", best.values)
print("objective at the optimum :", herm_aware_utility(pop, best, params))

# Gap functions are oriented group A minus group B.
print("\nexposure gap   (A - B)   :", parity_gap(pop, best))
print("click-share gap (A - B)  :", eo_gap(pop, best))
print("uptake-share gap (A - B) :", eho_gap(pop, best))

# Fractional allocations are randomized policies; realize one with a seed.
half = Allocation(np.full(6, 0.5))
drawn = round_allocation(half, seed=7)
print("\nall-0.5 policy realized  :", drawn.values)
