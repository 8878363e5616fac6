"""Monte Carlo engine: path simulation, Girsanov weights, moment checks.

Paths are simulated under the scaled reference measure (independent
Brownian coordinates) or under a controlled measure induced by a feedback
trading rate. Reweighting reference paths by the exponential density of
a policy reproduces controlled expectations; the routines here estimate
the normalization, the effective sample size of the weights, the entropy
identity relating E[M log M] to half the expected squared drift, and the
constraint moments that characterize admissibility.

The constraint rows are linear in the state increments, so the stopped
moments telescope: one batch needs one running integral of W, one
stopping index and one window [T/2, T], and the seven built-in test
functionals scale the same six row increments.

Both measures are sampled one row chunk at a time, and only per-path
results are kept. :func:`weighted_reference` keeps 46 floats per path
with the constraint moments (4 without) and :func:`simulate_controlled`
4 (the terminal P and Z and the integrals of Z W and pi^2), while a whole
batch of 250 steps would hold about 1,750. Each chunk reads its rows'
own draws and every result is computed along one path, so the chunk size
changes no bit of any estimate. At 20,000 paths x 250 steps the verify
mode took 0.83-1.15 s and peaked at 95 MB of process memory, against
1.02-1.30 s and 347 MB as one batch (2 cores, numpy 2.4).

All stochastic integrals are discretized with left-point (Ito) evaluation:
right-point rules bias the mean of the density away from 1.
"""

from dataclasses import dataclass, fields

import numpy as np

from .model import ConstraintSpec, FeedbackPolicy, ModelParams
from .rng import gaussians

__all__ = [
    "PathBatch", "ControlledSample", "WeightedSample",
    "simulate_reference", "simulate_controlled",
    "girsanov_weights", "weighted_reference",
    "effective_sample_size", "DEGENERATE_ESS_FRACTION",
    "entropy_report",
    "constraint_moments",
]


@dataclass(frozen=True)
class PathBatch:
    """A batch of reference-measure trajectories: ``p``, ``z`` and ``w``
    have shape (count, n_steps + 1)."""

    times: np.ndarray
    p: np.ndarray
    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.p.shape != self.z.shape or self.p.shape != self.w.shape:
            raise ValueError("coordinate arrays must share a shape")

    @property
    def count(self) -> int:
        return self.p.shape[0]


def simulate_reference(params: ModelParams, count: int, seed: int,
                       first_row: int = 0) -> PathBatch:
    """Sample ``count`` paths of (P, Z, W) under the reference measure,
    the rows ``first_row``, ``first_row + 1``, ... of the seed's stream.

    Each coordinate is an independent scaled Brownian motion built from
    Euler increments sqrt(dt) * standard normals; deterministic in seed.
    Row r reads the draws at stream positions 3 n_steps r on, so a
    ``first_row`` that is a multiple of 4 gives those rows of a larger
    batch bit for bit.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    n = params.n_steps
    root_dt = np.sqrt(params.dt)
    xi = gaussians(seed, (count, n, 3), offset=3 * n * first_row)
    p = np.zeros((count, n + 1))
    z = np.zeros((count, n + 1))
    w = np.zeros((count, n + 1))
    # the drivers are scaled in place, then summed into the paths
    for k, (scale, path) in enumerate(((params.sigma * root_dt, p),
                                       (params.epsilon * root_dt, z),
                                       (root_dt, w))):
        xi[:, :, k] *= scale
        np.cumsum(xi[:, :, k], axis=1, out=path[:, 1:])
    return PathBatch(params.times, p, z, w)


@dataclass(frozen=True)
class ControlledSample:
    """Per-path results of paths simulated under a feedback policy.

    ``p_T`` and ``z_T`` are the terminal price and inventory, and
    ``int_zw`` and ``int_pi_sq`` the left-point integrals of Z W and pi^2,
    each of shape (count,).
    """

    times: np.ndarray
    p_T: np.ndarray
    z_T: np.ndarray
    int_zw: np.ndarray
    int_pi_sq: np.ndarray

    @property
    def count(self) -> int:
        return self.p_T.shape[0]


def simulate_controlled(params: ModelParams, policy: FeedbackPolicy,
                        seed: int) -> ControlledSample:
    """Euler scheme for ``params.n_paths`` paths under the controlled
    measure of ``policy``, run in row chunks (:func:`_in_row_chunks`) that
    keep only the per-path results.

    dP = W dt + sigma dB1, dZ = pi(t, W, Z) dt + eps dB2, dW = dB3 with
    independent Brownian motions and pi read at the left point of each step.
    A chunk runs time-major: its draws are transposed once to
    (n_steps, 3, rows), and P, Z, W and the running sums of Z W and pi^2
    are row vectors updated in place, step by step.
    """
    n = params.n_steps
    dt, root_dt = params.dt, np.sqrt(params.dt)
    scales = np.array([params.sigma, params.epsilon, 1.0]) * root_dt
    times = params.times

    def chunk(first_row, rows):
        draws = gaussians(seed, (rows, n, 3), offset=3 * n * first_row)
        steps = np.ascontiguousarray(draws.transpose(1, 2, 0))
        del draws
        steps *= scales[:, None]
        p, z, w = np.zeros(rows), np.zeros(rows), np.zeros(rows)
        int_zw, int_pi_sq = np.zeros(rows), np.zeros(rows)
        term = np.empty(rows)
        for i in range(n):
            pi = policy(times[i], w, z)
            np.multiply(z, w, out=term)
            int_zw += term
            np.multiply(pi, pi, out=term)
            int_pi_sq += term
            np.multiply(w, dt, out=term)
            p += term
            p += steps[i, 0]
            np.multiply(pi, dt, out=term)
            z += term
            z += steps[i, 1]
            w += steps[i, 2]
        int_zw *= dt
        int_pi_sq *= dt
        return p, z, int_zw, int_pi_sq

    return ControlledSample(times, *_in_row_chunks(params.n_paths, n, chunk))


@dataclass(frozen=True)
class WeightedSample:
    """Per-path results of reference paths reweighted by one policy.

    ``m`` is the density dQ^pi / dW of each path, ``log_m`` its log, and
    ``int_pi_sq`` and ``int_w_sq`` are the left-point integrals of pi^2 and
    W^2, each of shape (count,). ``moments[e, r]`` holds the samples
    M eta_e (Y_{t ^ tau} - Y_{s ^ tau}) of constraint row r for built-in
    test functional e (see :func:`constraint_moments`), shape (7, 6, count),
    or (0, 6, count) for a sample weighted without moments.
    """

    m: np.ndarray
    log_m: np.ndarray
    int_pi_sq: np.ndarray
    int_w_sq: np.ndarray
    moments: np.ndarray


def _log_density(batch: PathBatch, policy: FeedbackPolicy,
                 params: ModelParams) -> tuple:
    """(log M, int pi^2 dt, int W^2 dt) per path, left-point sums.

    log M = sum_i [ -(1/2)((W_i/sigma)^2 + (pi_i/eps)^2) dt
                    + (W_i/sigma^2) dP_i + (pi_i/eps^2) dZ_i ]
    """
    n = len(batch.times) - 1
    dt = batch.times[1] - batch.times[0]
    rates = np.empty((batch.count, n))
    for i in range(n):
        rates[:, i] = policy(batch.times[i], batch.w[:, i], batch.z[:, i])
    w_left = batch.w[:, :-1]
    s2, e2 = params.sigma**2, params.epsilon**2
    # log M summed term by term into three (count, n_steps) buffers:
    # -(1/2)(W^2/s2 + pi^2/e2) dt + (W/s2) dP + (pi/e2) dZ
    log_m_terms = np.square(w_left)
    int_w_sq = np.sum(log_m_terms, axis=1) * dt
    log_m_terms /= s2
    term = np.square(rates)
    int_pi_sq = np.sum(term, axis=1) * dt
    term /= e2
    log_m_terms += term
    log_m_terms *= -0.5
    log_m_terms *= dt
    increment = np.empty_like(term)
    for left, scale, path in ((w_left, s2, batch.p), (rates, e2, batch.z)):
        np.divide(left, scale, out=term)
        np.subtract(path[:, 1:], path[:, :-1], out=increment)
        term *= increment
        log_m_terms += term
    return np.sum(log_m_terms, axis=1), int_pi_sq, int_w_sq


def girsanov_weights(batch: PathBatch, policy: FeedbackPolicy,
                     params: ModelParams, moments: bool = False
                     ) -> WeightedSample:
    """The density dQ^pi / dW of every path of a reference batch, with the
    integrals of the entropy identity and, if ``moments``, the
    constraint-moment samples of the built-in test functionals: the
    per-chunk step of :func:`weighted_reference`. W_i and pi_i are
    evaluated at the left point of each step.
    """
    # the buffers of log M are freed before the moment samples are taken
    log_m, int_pi_sq, int_w_sq = _log_density(batch, policy, params)
    m = np.exp(log_m)
    samples = (_moment_samples(batch, m, ConstraintSpec.from_params(params))
               if moments else np.empty((0, 6, batch.count)))
    return WeightedSample(m, log_m, int_pi_sq, int_w_sq, samples)


# Draws per row chunk, 1,396 rows at 250 steps. A reference chunk in
# flight holds about 7 floats per path and step (the paths, the rates and
# three buffers of log M), about 20 MB at this size. The verify mode at
# 20,000 x 250 peaked at 90, 95 and 103 MB of process memory with 1 << 19,
# 1 << 20 and 1 << 21 draws per chunk, and ran 0.1 s slower at 1 << 18,
# where the per-step lookups are short. A controlled chunk holds its draws
# twice for a moment, as drawn and transposed to time-major order, 6 floats
# per path and step, and then only the transposed 3; its paths are 6 row
# vectors.
_CHUNK_DRAWS = 1 << 20


def _in_row_chunks(count: int, n_steps: int, chunk) -> list:
    """Run ``chunk(first_row, rows)`` over the rows 0, ..., ``count`` - 1
    in chunks of about ``_CHUNK_DRAWS`` draws, each starting at a multiple
    of 4, and join the per-path arrays it returns along their last axis.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rows = max(4, 4 * (_CHUNK_DRAWS // (12 * n_steps)))
    parts = [chunk(lo, min(rows, count - lo)) for lo in range(0, count, rows)]
    return [np.concatenate(arrays, axis=-1) for arrays in zip(*parts)]


def weighted_reference(params: ModelParams, policy: FeedbackPolicy,
                       seed: int, moments: bool = False) -> WeightedSample:
    """Reweight the ``params.n_paths`` reference paths of ``seed`` by
    ``policy``.

    The paths are simulated and weighted in row chunks
    (:func:`_in_row_chunks`, :func:`girsanov_weights`), and only the
    per-path results are kept, so memory grows by 46 floats per path with
    ``moments`` and by 4 without. The sample equals that of the whole batch
    taken as one chunk, bit for bit.
    """
    def chunk(first_row, rows):
        part = girsanov_weights(
            simulate_reference(params, rows, seed, first_row),
            policy, params, moments)
        return [getattr(part, field.name) for field in fields(part)]

    return WeightedSample(*_in_row_chunks(params.n_paths, params.n_steps,
                                          chunk))


# A weighted batch whose Kong ESS is below this fraction of its paths is
# degenerate: its estimates rest on a handful of paths.
DEGENERATE_ESS_FRACTION = 0.01


def effective_sample_size(sample: WeightedSample) -> float:
    """Kong's effective sample size (sum m)^2 / sum m^2 of the weights.

    About ``count`` for light weights and near 1 when a few paths carry
    all of the mass, as at wide rate bounds. Computed from log M scaled by
    its maximum, so weights that underflow to 0 still give a value.
    """
    ratio = np.exp(sample.log_m - np.max(sample.log_m))
    return float(np.sum(ratio)**2 / np.sum(ratio**2))


@dataclass(frozen=True)
class EntropyReport:
    lhs: float       # E^W[M log M]
    rhs: float       # (1/2) E^W[M ((pi/eps)^2 + (W/sigma)^2 integrated)]
    lhs_se: float
    rhs_se: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs

    @property
    def combined_se(self) -> float:
        return float(np.hypot(self.lhs_se, self.rhs_se))


def _mean_se(samples: np.ndarray) -> tuple:
    n = len(samples)
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return mean, se


def entropy_report(sample: WeightedSample,
                   params: ModelParams) -> EntropyReport:
    """Both sides of the relative-entropy identity, with standard errors.

    The expected entropy E[M log M] equals half the reweighted expectation
    of the integrated squared (normalized) drift; the report estimates
    both sides from the same weighted sample.
    """
    lhs, lhs_se = _mean_se(sample.m * sample.log_m)
    drift_sq = (sample.int_pi_sq / params.epsilon**2
                + sample.int_w_sq / params.sigma**2)
    rhs, rhs_se = _mean_se(0.5 * sample.m * drift_sq)
    return EntropyReport(lhs, rhs, lhs_se, rhs_se)


# The built-in test functionals eta of the path up to s: the constant 1,
# then indicators of W_s and of Z_s above each threshold, made continuous
# by a linear ramp of this width. The window [s, t] = [T / 2, T] is stopped
# at the exit time tau_N of the truncation level N.
_THRESHOLDS = (-1.0, 0.0, 1.0)
_RAMP_WIDTH = 0.01
_TRUNCATION_LEVEL = 10.0


def _moment_samples(batch: PathBatch, m: np.ndarray,
                    spec: ConstraintSpec) -> np.ndarray:
    """M eta (Y_{t ^ tau} - Y_{s ^ tau}) per path for all six rows and each
    built-in test functional, shape (7, 6, count).

    Y accumulates b dt + A dX (:meth:`ConstraintSpec.rows`) along the path.
    The rows are linear in the increments, so Y_{t ^ tau} - Y_{s ^ tau} is
    the rows of the endpoint differences of P, Z, W and of the left-point
    running integral of W, over a window of (hi - lo) steps. The six row
    increments are taken once; each functional then scales them by M eta.
    """
    # allocated before the temporaries, so that the heap can shrink once
    # they are freed: allocated after them, it raised the verify mode's
    # peak memory on perfbench's mc-verify config from 95 to 100 MB
    out = np.empty((1 + 2 * len(_THRESHOLDS), 6, batch.count))
    horizon = batch.times[-1]
    n = len(batch.times) - 1
    dt = batch.times[1] - batch.times[0]
    paths = np.arange(batch.count)
    int_w = np.zeros_like(batch.w)          # sum_{k < i} W_k dt at index i
    np.cumsum(batch.w[:, :-1], axis=1, out=int_w[:, 1:])
    int_w *= dt
    # tau_N: the first grid index where a coordinate's magnitude reaches
    # the level, n if none does; sub-grid crossings are not refined
    big = np.abs(batch.p) >= _TRUNCATION_LEVEL
    big |= np.abs(batch.z) >= _TRUNCATION_LEVEL
    big |= np.abs(batch.w) >= _TRUNCATION_LEVEL
    stop = np.argmax(big, axis=1)
    stop[~big[paths, stop]] = n
    # the window ends s = T / 2 and t = T as grid indices floor(s n / T)
    i_s = int(np.floor(0.5 * horizon * n / horizon))
    lo = np.minimum(i_s, stop)
    hi = np.minimum(int(np.floor(horizon * n / horizon)), stop)

    def delta(x):
        return x[paths, hi] - x[paths, lo]

    increments = spec.rows(delta(batch.p), delta(batch.z), delta(batch.w),
                           delta(int_w), (hi - lo) * dt)
    etas = [np.ones(batch.count)] + [
        np.clip((coord[:, i_s] - threshold) / _RAMP_WIDTH + 0.5, 0.0, 1.0)
        for coord in (batch.w, batch.z) for threshold in _THRESHOLDS]
    for e, eta in enumerate(etas):
        weights = m * eta
        for r, inc in enumerate(increments):
            np.multiply(weights, inc, out=out[e, r])
    return out


def constraint_moments(sample: WeightedSample) -> tuple:
    """Estimate E^W[M eta (Y_{t ^ tau} - Y_{s ^ tau})] for all six rows and
    each built-in test functional: (estimates, standard errors), two arrays
    of shape (7, 6), from a sample weighted with ``moments=True``.

    Rows 1-4 have zero mean under the controlled measure (martingale rows);
    rows 5-6 have nonpositive mean exactly when the reweighting policy is
    admissible.
    """
    estimates = np.empty(sample.moments.shape[:2])
    ses = np.empty_like(estimates)
    for index in np.ndindex(estimates.shape):
        estimates[index], ses[index] = _mean_se(sample.moments[index])
    return estimates, ses
