"""Brute-force verification of the relaxation theory on a scenario tree.

On a finite tree everything is checkable: the strong (density-valued)
problem has a Gibbs closed form, the relaxed problem over randomized
densities is a linear program, and the two must coincide with the relaxed
optimum collapsing to a point mass. From a feasible relaxed control one
can also extract per-node drifts and confirm they respect the rate
bounds.

Run: python3 demos/relaxed_oracle.py
"""

import numpy as np

from brokerfee import oracle
from brokerfee.model import ModelParams

params = ModelParams(epsilon=0.5)

print("=== two-atom instance with a pencil-and-paper answer ===")
flat = oracle.build_tree(1, 2, ModelParams(), channels=1)
sol = oracle.solve_strong_discrete(flat, np.array([1.0, -1.0]), 1.0)
print(f"  solver value  : {sol.value:.9f}")
print(f"  log cosh(1)   : {np.log(np.cosh(1.0)):.9f}")

print()
print("=== strong vs relaxed on a rate-constrained tree ===")
tree = oracle.build_tree(2, 2, params)
u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
cons = oracle.node_constraint_set(tree, params.rate_lower, params.rate_upper)
print(f"  tree: {tree.n_atoms} atoms, {cons.n_constraints} constraints")
strong = oracle.solve_strong_discrete(tree, u, 0.25, cons)
grid = oracle.default_density_grid(strong.density)
relaxed_value, control = oracle.solve_relaxed_discrete(tree, u, 0.25, grid,
                                                       cons)
print(f"  strong value  : {strong.value:.10f} "
      f"(KKT residual {strong.kkt_residual:.1e}, "
      f"converged: {strong.converged})")
print(f"  relaxed value : {relaxed_value:.10f}")
print(f"  gap           : {abs(relaxed_value - strong.value):.2e}")

print()
print("=== randomization never helps (collapse) ===")
report = oracle.verify_collapse(tree, 0.25, trials=200, seed=7,
                                control=control)
print(f"  {report.trials} random two-point randomizations, "
      f"{len(report.counterexamples)} counterexamples")
print(f"  smallest Jensen gap: {report.min_jensen_gap:.2e} (positive)")
print(f"  relaxed optimum is a point mass: {report.relaxed_is_dirac}")

print()
print("=== drift extraction from the relaxed optimum ===")
extraction = oracle.extract_strong_control(tree, control,
                                           params.rate_lower,
                                           params.rate_upper)
root_drift = extraction.drifts[(0, 0)]
print(f"  root drift (P, Z, W): {np.round(root_drift, 4)}")
print(f"  max constraint violation : {extraction.max_violation:.2e}")
print(f"  density reconstruction   : {extraction.reconstruction_error:.2e}")
