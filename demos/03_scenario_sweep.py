"""
A replicated scenario sweep in miniature
========================================

Run a reduced copy of the opportunity-cost scenario (varying group B's
withholding utility beta_b) and print the aggregate picture: how much
utility each fairness rule gives up, and what happens to the exposure
disparity.  The full-size version (14 grid values, 100 replications, 1000
users per group) is what the acceptance suite and the command line run.

Takes roughly ten seconds.
"""

import numpy as np

from hermfair import aggregate, builtin_scenario, run_sweep

spec = builtin_scenario(
    "A",                      # vary beta_b, everything else at its fixed value
    grid=(0.04, 0.13, 0.22, 0.31, 0.40),
    replications=20,
    n_a=400,
    n_b=400,
)
result = run_sweep(spec, base_seed=7, jobs=1)
rows = aggregate(result)
print(f"scenario {result.spec.scenario.value}: {len(result.records)} records, "
      f"{result.n_failed} failed\n")

# Exposure disparity of the unconstrained optimizer, by grid value.
# Positive numbers mean group B is under-delivered relative to group A.
print("unconstrained exposure disparity (A minus B), median [q25, q75]:")
for row in rows:
    if row.rule == "unconstrained":
        print(f"  beta_b={row.param_value:<5} {row.parity_gap_median:+.4f} "
              f"[{row.parity_gap_q25:+.4f}, {row.parity_gap_q75:+.4f}]")

# Utility kept by each constrained rule, as a share of the unconstrained
# optimum, at the ends of the grid.
print("\nmedian utility kept (% of unconstrained):")
ends = (spec.grid[0], spec.grid[-1])
for rule in ("parity_of_exposure", "equality_of_opportunity",
             "equality_of_herm_opportunity", "all_constraints"):
    cells = {row.param_value: row.utility_pct_median
             for row in rows if row.rule == rule}
    print(f"  {rule:<30} beta_b={ends[0]}: {cells[ends[0]]:7.3f}%   "
          f"beta_b={ends[1]}: {cells[ends[1]]:7.3f}%")

# The same population is solved under every rule within a replication, so
# per-replication comparisons are exact, not sampling noise.
unc = [r for r in result.records if r.rule == "unconstrained"]
con = [r for r in result.records if r.rule == "parity_of_exposure"]
gaps_before = np.median([abs(r.parity_gap) for r in unc])
gaps_after = np.median([abs(r.parity_gap) for r in con])
print(f"\nmedian |exposure gap|: {gaps_before:.4f} unconstrained "
      f"-> {gaps_after:.2e} under parity")
