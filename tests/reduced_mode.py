"""One-dimensional reduced mode: a single Brownian coordinate with constant
drift. A test harness with analytic Girsanov and entropy values; it
exercises the package's estimator formulas with k = 1."""

import numpy as np

from brokerfee.rng import gaussians
from brokerfee.simulate import _CHUNK_DRAWS, EntropyReport, mean_se


def reduced_terminal(count: int, n_steps: int, horizon: float,
                     seed: int) -> np.ndarray:
    """Terminal values x_T of ``count`` paths of a single standard Brownian
    coordinate, shape (count,). The paths are drawn and summed in row
    chunks of about ``_CHUNK_DRAWS`` draws; the rows per chunk are a
    multiple of 4, so each chunk starts on a Philox block."""
    root_dt = np.sqrt(horizon / n_steps)
    rows = max(4, 4 * (_CHUNK_DRAWS // (4 * n_steps)))
    x_t = np.empty(count)
    for lo in range(0, count, rows):
        xi = gaussians(seed, np.empty((min(rows, count - lo), n_steps)),
                       offset=lo * n_steps)
        xi *= root_dt
        x_t[lo:lo + len(xi)] = np.cumsum(xi, axis=1)[:, -1]
    return x_t


def reduced_weights(x_t: np.ndarray, drift: float,
                    horizon: float) -> np.ndarray:
    """Densities exp(-c^2 T / 2 + c x_T) for constant drift c."""
    return np.exp(-0.5 * drift**2 * horizon + drift * x_t)


def reduced_entropy_report(x_t: np.ndarray, drift: float,
                           horizon: float) -> EntropyReport:
    """Entropy identity estimates in the reduced mode (analytic value
    c^2 T / 2 on both sides)."""
    m = reduced_weights(x_t, drift, horizon)
    log_m = np.log(m)
    lhs, lhs_se = mean_se(m * log_m)
    rhs, rhs_se = mean_se(0.5 * m * drift**2 * horizon)
    return EntropyReport(lhs, rhs, lhs_se, rhs_se)
