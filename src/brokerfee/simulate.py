"""Monte Carlo engine: path simulation, Girsanov weights, moment checks.

Paths are simulated under a controlled measure induced by a feedback
trading rate, or under the scaled reference measure (independent
Brownian coordinates) and reweighted by the exponential density of the
policy, which reproduces controlled expectations. The client moves only
the drift, so both are one Euler scheme on the same draws: the controlled
sampler applies the drift to the path, the weighted sampler prices it
into log M. The routines here estimate the normalization, the effective
sample size of the weights, the entropy identity relating E[M log M] to
half the expected squared drift, and the constraint moments that
characterize admissibility.

The constraint rows are linear in the state increments, so the stopped
moments telescope: one path needs one running integral of W, one
stopping index and one window [T/2, T], and the seven built-in test
functionals scale the same six row increments.

Both measures are sampled one row chunk at a time, time-major: a chunk's
draws are transposed once to (n_steps, 3, rows), and the state is a few
row vectors updated in place, step by step. Only per-path results are
kept: :func:`weighted_reference` keeps 46 floats per path with the
constraint moments (4 without) and :func:`simulate_controlled` 4 (the
terminal P and Z and the integrals of Z W and pi^2). A chunk in flight
holds 3 floats per path and step, its scaled draws, where a whole batch
of 250 steps would hold about 1,750 floats per path. Each chunk reads its
rows' own draws and every result is computed along one path, so the
chunk size changes no bit of any estimate. At 20,000 paths x 250 steps
the verify mode took 0.93-1.37 s and peaked at 90 MB of process memory,
against 1.12-1.56 s and 95 MB when a weighted chunk built whole
(rows, n_steps + 1) paths (10 runs each, 2 cores, numpy 2.4).

All stochastic integrals are discretized with left-point (Ito) evaluation:
right-point rules bias the mean of the density away from 1.
"""

from dataclasses import dataclass

import numpy as np

from .model import ConstraintSpec, FeedbackPolicy, ModelParams
from .rng import gaussians

__all__ = [
    "ControlledSample", "WeightedSample",
    "simulate_controlled", "weighted_reference",
    "effective_sample_size", "DEGENERATE_ESS_FRACTION", "is_degenerate",
    "entropy_report",
    "constraint_moments",
]


def _scaled_steps(params: ModelParams, seed: int, first_row: int,
                  rows: int) -> np.ndarray:
    """The Brownian increments (sigma dB1, eps dB2, dB3) of ``rows`` paths,
    the rows ``first_row``, ``first_row + 1``, ... of the seed's stream,
    time-major: shape (n_steps, 3, rows).

    Row r reads the draws at stream positions 3 n_steps r on, so a
    ``first_row`` that is a multiple of 4 gives those rows of a larger
    batch bit for bit. The draws are transposed once and scaled in place.
    """
    n = params.n_steps
    draws = gaussians(seed, (rows, n, 3), offset=3 * n * first_row)
    steps = np.ascontiguousarray(draws.transpose(1, 2, 0))
    del draws
    steps *= (np.array([params.sigma, params.epsilon, 1.0])
              * np.sqrt(params.dt))[:, None]
    return steps


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
    A chunk runs time-major on :func:`_scaled_steps`: P, Z, W and the
    running sums of Z W and pi^2 are row vectors updated in place.
    """
    n = params.n_steps
    dt = params.dt
    times = params.times

    def chunk(first_row, rows):
        steps = _scaled_steps(params, seed, first_row, rows)
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


# Draws per row chunk, 1,396 rows at 250 steps. A chunk holds its draws
# twice for a moment, as drawn and transposed to time-major order, 6 floats
# per path and step (17 MB at this size), and then only the transposed 3;
# its state is about 20 row vectors. The verify mode at 20,000 x 250
# peaked at 89-90, 93, 90 and 93 MB of process memory with 1 << 18,
# 1 << 19, 1 << 20 and 1 << 21 draws per chunk, and ran slowest at
# 1 << 18 (1.30-1.42 s against 0.96-1.21 s at 1 << 20), where the per-step
# lookups are short.
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
    ``policy``: the density dQ^pi / dW of every path, the integrals of the
    entropy identity and, if ``moments``, the constraint-moment samples of
    the built-in test functionals.

    Under the reference measure dP = sigma dB1, dZ = eps dB2 and dW = dB3,
    and with W_i and pi_i read at the left point of each step,

        log M = sum_i [ (W_i / sigma^2) dP_i + (pi_i / eps^2) dZ_i
                        - (1/2) ((W_i / sigma)^2 + (pi_i / eps)^2) dt ],

    formed after the loop from the running sums of W dP, pi dZ, W^2 and
    pi^2. A chunk (:func:`_in_row_chunks`) runs time-major on the draws
    of :func:`simulate_controlled` (:func:`_scaled_steps`) and keeps only
    the per-path results, so memory grows by 46 floats per path with
    ``moments`` and by 4 without. The sample equals that of the whole
    batch taken as one chunk, bit for bit.

    With ``moments``, the state (P, Z, W, sum of W) is frozen at tau_N,
    the first grid index where |P|, |Z| or |W| reaches the truncation
    level (n_steps if none does; sub-grid crossings are not refined). The
    window starts at min(n_steps // 2, tau_N), and W and Z at n_steps // 2
    give the ramps of the test functionals (:func:`_window_moments`).
    """
    n = params.n_steps
    dt, times = params.dt, params.times
    s2, e2 = params.sigma**2, params.epsilon**2
    spec = ConstraintSpec.from_params(params)
    i_s = n // 2

    def chunk(first_row, rows):
        # the per-path results and the state are allocated before the
        # draws, so that the heap can shrink once the draws are freed:
        # allocated after them, the verify mode on perfbench's mc-verify
        # config peaked at 97 MB of process memory, against 90 MB
        samples = np.empty((1 + 2 * len(_THRESHOLDS) if moments else 0,
                            6, rows))
        state = np.zeros((4, rows))         # P, Z, W and sum_{k < i} W_k
        _, z, w, sum_w = state
        w_dp, pi_dz, w_sq, pi_sq = (np.zeros(rows) for _ in range(4))
        term = np.empty(rows)
        if moments:
            stop = np.full(rows, n)         # tau_N
            live = np.ones(rows, dtype=bool)
            end = np.empty((4, rows))       # the state at tau_N
            start = np.zeros((4, rows))     # the state at min(i_s, tau_N)
            at_s = np.zeros((2, rows))      # W and Z at i_s
        steps = _scaled_steps(params, seed, first_row, rows)
        for i in range(n):
            pi = policy(times[i], w, z)
            np.multiply(w, steps[i, 0], out=term)
            w_dp += term
            np.multiply(pi, steps[i, 1], out=term)
            pi_dz += term
            np.multiply(w, w, out=term)
            w_sq += term
            np.multiply(pi, pi, out=term)
            pi_sq += term
            sum_w += w
            state[:3] += steps[i]
            if not moments:
                continue
            hit = np.any(np.abs(state[:3]) >= _TRUNCATION_LEVEL, axis=0)
            hit &= live
            if hit.any():
                end[:, hit] = state[:, hit]
                stop[hit] = i + 1
                live &= ~hit
            if i + 1 == i_s:
                start = np.where(live, state, end)
                at_s = state[[2, 1]]
        log_m = w_dp / s2 + pi_dz / e2 - 0.5 * dt * (w_sq / s2 + pi_sq / e2)
        m = np.exp(log_m)
        if moments:
            end[:, live] = state[:, live]
            _window_moments(m, start, end, (stop - np.minimum(i_s, stop)) * dt,
                            at_s, spec, dt, samples)
        return m, log_m, pi_sq * dt, w_sq * dt, samples

    return WeightedSample(*_in_row_chunks(params.n_paths, n, chunk))


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


def is_degenerate(sample: WeightedSample) -> bool:
    """Whether the weights are degenerate: an effective sample size below
    ``DEGENERATE_ESS_FRACTION`` of the paths."""
    return (effective_sample_size(sample)
            < DEGENERATE_ESS_FRACTION * len(sample.m))


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


def _window_moments(m: np.ndarray, start: np.ndarray, end: np.ndarray,
                    span: np.ndarray, at_s: np.ndarray, spec: ConstraintSpec,
                    dt: float, out: np.ndarray) -> None:
    """Write M eta (Y_{t ^ tau} - Y_{s ^ tau}) per path for all six rows
    and each built-in test functional into ``out``, shape (7, 6, count).

    Y accumulates b dt + A dX (:meth:`ConstraintSpec.rows`) along the path.
    The rows are linear in the increments, so Y_{t ^ tau} - Y_{s ^ tau} is
    the rows of the differences of P, Z, W and of the left-point running
    integral of W (the state ``start`` and ``end`` at the window ends, with
    the sum of W times ``dt``), over the stopped window's length ``span``.
    ``at_s`` holds W_s and Z_s, which the indicators read. The six row
    increments are taken once; each functional then scales them by M eta.
    """
    dp, dz, dw = end[:3] - start[:3]
    increments = spec.rows(dp, dz, dw, end[3] * dt - start[3] * dt, span)
    etas = [np.ones(len(m))] + [
        np.clip((coord - threshold) / _RAMP_WIDTH + 0.5, 0.0, 1.0)
        for coord in at_s for threshold in _THRESHOLDS]
    for e, eta in enumerate(etas):
        weights = m * eta
        for r, inc in enumerate(increments):
            np.multiply(weights, inc, out=out[e, r])


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
