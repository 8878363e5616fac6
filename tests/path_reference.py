"""Reference-measure Monte Carlo on whole paths: the check on the library's
time-major weighted sampler. The paths are (count, n_steps + 1) arrays of
P, Z and W built from the draws the library reads, and log M is summed
along them term by term."""

from dataclasses import dataclass

import numpy as np

from brokerfee.rng import gaussians


@dataclass(frozen=True)
class Paths:
    """Reference-measure paths: ``p``, ``z`` and ``w`` have shape
    (count, n_steps + 1)."""

    times: np.ndarray
    p: np.ndarray
    z: np.ndarray
    w: np.ndarray

    @property
    def count(self) -> int:
        return self.p.shape[0]


def reference_paths(params, count, seed) -> Paths:
    """The rows 0, ..., ``count`` - 1 of the seed's stream as reference
    paths: each coordinate is the cumulative sum of its Euler increments,
    scale * sqrt(dt) * standard normal, with scales (sigma, eps, 1)."""
    n = params.n_steps
    xi = gaussians(seed, np.empty((count, n, 3)), offset=0)
    coords = []
    for k, scale in enumerate((params.sigma, params.epsilon, 1.0)):
        path = np.zeros((count, n + 1))
        np.cumsum(xi[:, :, k] * (scale * np.sqrt(params.dt)), axis=1,
                  out=path[:, 1:])
        coords.append(path)
    return Paths(params.times, *coords)


def reference_log_density(paths, rate, params) -> tuple:
    """(log M, int W^2 dt) per path for the constant rate ``rate``,
    left-point sums:

    log M = sum_i [ (W_i / sigma^2) dP_i + (rate / eps^2) dZ_i
                    - (1/2) ((W_i / sigma)^2 + (rate / eps)^2) dt ]
    """
    dt = params.dt
    w = paths.w[:, :-1]
    terms = (w / params.sigma**2 * np.diff(paths.p, axis=1)
             + rate / params.epsilon**2 * np.diff(paths.z, axis=1)
             - 0.5 * ((w / params.sigma)**2
                      + (rate / params.epsilon)**2) * dt)
    return np.sum(terms, axis=1), np.sum(w**2, axis=1) * dt
