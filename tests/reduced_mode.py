"""One-dimensional reduced mode: a single Brownian coordinate with constant
drift. A test harness with analytic Girsanov and entropy values; it
exercises the package's estimator formulas with k = 1."""

import numpy as np

from brokerfee.rng import gaussians
from brokerfee.simulate import EntropyReport, _mean_se


def reduced_reference(count: int, n_steps: int, horizon: float,
                      seed: int) -> np.ndarray:
    """Paths of a single standard Brownian coordinate, shape (count, N+1)."""
    root_dt = np.sqrt(horizon / n_steps)
    xi = gaussians(seed, (count, n_steps))
    x = np.zeros((count, n_steps + 1))
    np.cumsum(root_dt * xi, axis=1, out=x[:, 1:])
    return x


def reduced_weights(x: np.ndarray, drift: float, horizon: float) -> np.ndarray:
    """Densities exp(-c^2 T / 2 + c x_T) for constant drift c."""
    return np.exp(-0.5 * drift**2 * horizon + drift * x[:, -1])


def reduced_entropy_report(x: np.ndarray, drift: float,
                           horizon: float) -> EntropyReport:
    """Entropy identity estimates in the reduced mode (analytic value
    c^2 T / 2 on both sides)."""
    m = reduced_weights(x, drift, horizon)
    log_m = np.log(m)
    lhs, lhs_se = _mean_se(m * log_m)
    rhs, rhs_se = _mean_se(0.5 * m * drift**2 * horizon)
    return EntropyReport(lhs, rhs, lhs_se, rhs_se)
