"""Sanity checks on the measure-change machinery.

Simulates reference-measure paths, reweights them by the policy density,
and verifies three facts one can compute by hand: the density averages to
one, both sides of the relative-entropy identity agree, and the stopped
constraint-increment moments are nonpositive exactly for admissible
trading rates.

Run: python3 demos/girsanov_checks.py
"""

import numpy as np

from brokerfee import simulate
from brokerfee.model import ConstraintSpec, FeedbackPolicy, ModelParams

params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=250,
                     n_paths=40_000, seed=2024)

print("=== density normalization, E[m] = 1 ===")
for label, rate in (("lower bound", params.rate_lower),
                    ("no trading", 0.0),
                    ("upper bound", params.rate_upper)):
    policy = FeedbackPolicy.constant(rate, params)
    batch = simulate.simulate_reference(params, params.n_paths, params.seed)
    weighted = simulate.girsanov_weights(batch, policy, params)
    mean, se = simulate._mean_se(weighted.m)
    print(f"  {label:12s} E[m] = {mean:.4f} +- {se:.4f}")

print()
print("=== entropy identity, one-dimensional reduced mode ===")
# constant drift c: both estimators should find c^2 T / 2 = 2.0
x = simulate.reduced_reference(40_000, 250, 1.0, params.seed + 1)
report = simulate.reduced_entropy_report(x, 2.0, 1.0)
print(f"  E[M log M]           = {report.lhs:.4f} +- {report.lhs_se:.4f}")
print(f"  (1/2) E[M int nu^2]  = {report.rhs:.4f} +- {report.rhs_se:.4f}")
print(f"  closed form          = {2.0:.4f}")

print()
print("=== constraint moments under an admissible policy ===")
policy = FeedbackPolicy.constant(0.7, params)
batch = simulate.simulate_reference(params, params.n_paths, params.seed + 2)
weighted = simulate.girsanov_weights(batch, policy, params)
spec = ConstraintSpec.from_params(params)
family = simulate.eta_family(params.horizon)[:3]
for eta, report in zip(family,
                       simulate.constraint_moments(weighted, family, spec)):
    worst = np.max(report.estimates - 3 * report.ses)
    print(f"  eta kind {eta.kind:12s} max (estimate - 3 se) = {worst:+.4f}"
          f"  (nonpositive = consistent)")

print()
print("=== the same moments flag an out-of-bounds rate ===")
bad = FeedbackPolicy.from_function(
    lambda t, w, z: np.full_like(t + w + z, params.rate_upper + 1.0),
    np.array([0.0, 1.0]), np.array([-1.0, 1.0]), np.array([-1.0, 1.0]),
    (-3.0, 3.0))
weighted = simulate.girsanov_weights(batch, bad, params)
eta = simulate.EtaTest("const", s=0.5, t=1.0)
[report] = simulate.constraint_moments(weighted, [eta], spec)
print(f"  rate-upper row estimate = {report.estimates[4]:.4f} "
      f"+- {report.ses[4]:.4f}  (positive = violation detected)")
