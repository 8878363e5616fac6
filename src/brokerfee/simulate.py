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
functionals scale the same six row increments. A weighted sample keeps
those increments and the two coordinates the functionals read, and
forms the products one functional at a time when they are estimated.

Both measures are sampled one row chunk at a time, time-major: the draws
of a chunk fill one (n_steps, 3, rows) buffer, allocated once per sampler
call, through its transposed view, and the state is a few row vectors
updated in place, step by step. Only per-path results are kept, in
arrays allocated once per call: :func:`weighted_reference` keeps 12
floats per path with the constraint moments (4 without) and
:func:`simulate_controlled` 4 (the terminal P and Z and the integrals of
Z W and pi^2). The draw buffer holds 3 floats per path and step of one
chunk, where a whole batch of 250 steps would hold about 1,750 floats
per path. Each chunk reads its rows' own draws and every result is
computed along one path, so the chunk size changes no bit of any
estimate.

The controlled sampler also takes a batch of K policies on one grid
(:meth:`FeedbackPolicy.stack`), which the broker search uses to score
contracts under common random numbers: every member steps on the same
draws in one pass, so the draws are made and P and W are stepped once
for all. Its lookup finds the t and w cells once per step and blends
every member's corners in one gather. The terminal P is shared, with
shape (count,), and Z_T and the two integrals gain the leading batch
axis: the pass keeps 1 + 3K floats per path, holds one draw buffer
whatever K is, and adds the stacked tables. Each member's results
equal those of its own call bit for bit.

All stochastic integrals are discretized with left-point (Ito) evaluation:
right-point rules bias the mean of the density away from 1.
"""

from dataclasses import dataclass

import numpy as np

from .model import FeedbackPolicy, ModelParams, constraint_rows
from .rng import gaussians

__all__ = [
    "ControlledSample", "WeightedSample",
    "simulate_controlled", "weighted_reference", "draw_chunk_bytes",
    "effective_sample_size", "DEGENERATE_ESS_FRACTION", "is_degenerate",
    "entropy_report", "mean_se",
    "constraint_moments",
]


@dataclass(frozen=True)
class ControlledSample:
    """Per-path results of paths simulated under a feedback policy.

    ``p_T`` and ``z_T`` are the terminal price and inventory, and
    ``int_zw`` and ``int_pi_sq`` the left-point integrals of Z W and pi^2.
    ``p_T`` has shape (count,) and the other three the policy's batch shape
    plus (count,): a batch's members share P.
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
    A chunk runs time-major on its scaled increments: P, Z, W and the
    running sums of Z W and pi^2 are row vectors updated in place. For a
    batch of policies (:meth:`FeedbackPolicy.stack`) every member steps on
    the same draws: P and W, which no rate moves, are stepped once, and
    each member's Z and running sums are one row of a (K, rows) array, so
    every member's results equal those of its own call bit for bit.
    """
    n = params.n_steps
    dt = params.dt
    times = params.times

    def chunk(steps):
        rows = steps.shape[-1]
        p, w, drift = np.zeros(rows), np.zeros(rows), np.empty(rows)
        z, int_zw, int_pi_sq, term = (np.zeros(policy.batch_shape + (rows,))
                                      for _ in range(4))
        for i in range(n):
            pi = policy(times[i], w, z)
            np.multiply(z, w, out=term)
            int_zw += term
            np.multiply(pi, pi, out=term)
            int_pi_sq += term
            np.multiply(w, dt, out=drift)
            p += drift
            p += steps[i, 0]
            np.multiply(pi, dt, out=term)
            z += term
            z += steps[i, 1]
            w += steps[i, 2]
        int_zw *= dt
        int_pi_sq *= dt
        return p, z, int_zw, int_pi_sq

    return ControlledSample(times, *_in_row_chunks(params, seed, chunk))


@dataclass(frozen=True)
class WeightedSample:
    """Per-path results of reference paths reweighted by one policy.

    ``m`` is the density dQ^pi / dW of each path, ``log_m`` its log, and
    ``int_pi_sq`` and ``int_w_sq`` are the left-point integrals of pi^2 and
    W^2, each of shape (count,). ``increments[r]`` holds the stopped
    window's increment Y_{t ^ tau} - Y_{s ^ tau} of constraint row r, shape
    (6, count), and ``at_s`` holds W_s and Z_s, which the test functionals
    read, shape (2, count); both have no rows, (0, count), for a sample
    weighted without moments.
    """

    m: np.ndarray
    log_m: np.ndarray
    int_pi_sq: np.ndarray
    int_w_sq: np.ndarray
    increments: np.ndarray
    at_s: np.ndarray

    def moment_samples(self, e: int, out: np.ndarray) -> np.ndarray:
        """Write M eta_e (Y_{t ^ tau} - Y_{s ^ tau}) per path for all six
        rows and built-in test functional ``e`` into ``out``, shape
        (6, count), and return it.

        The functionals are the constant 1 (e = 0), then the indicators of
        W_s (e = 1, 2, 3) and of Z_s (e = 4, 5, 6) above each of
        :data:`_THRESHOLDS`, made continuous by a linear ramp of width
        :data:`_RAMP_WIDTH`.
        """
        if e == 0:
            weights = self.m
        else:
            coord, threshold = divmod(e - 1, len(_THRESHOLDS))
            weights = self.m * np.clip(
                (self.at_s[coord] - _THRESHOLDS[threshold]) / _RAMP_WIDTH
                + 0.5, 0.0, 1.0)
        return np.multiply(weights, self.increments, out=out)


# Draws per row chunk, 2,796 rows at 250 steps. A chunk holds its draws
# once, time-major and scaled, 3 floats per path and step (16.8 MB at this
# size), in one buffer for the whole sampler call; its state is about 20
# row vectors. The verify mode at 20,000 x 250 peaked at 91, 91 and 99 MB
# of process memory with 1 << 20, 1 << 21 and 1 << 22 draws per chunk,
# and took 1.01-1.42 s (median 1.25 s), 0.97-1.33 s (1.10 s) and
# 0.88-1.44 s (1.04 s) in 8 interleaved runs each: longer chunks make
# fewer per-step numpy calls, but past 1 << 21 the buffer costs more
# memory than they save time.
_CHUNK_DRAWS = 1 << 21


def draw_chunk_bytes() -> int:
    """Bytes of one row chunk's draw buffer at full size, which a
    controlled batch's stacked policy tables may match: a pass then holds
    at most twice the draws' memory."""
    return 8 * _CHUNK_DRAWS


def _in_row_chunks(params: ModelParams, seed: int, chunk) -> list:
    """Run ``chunk(steps)`` over the rows 0, ..., ``params.n_paths`` - 1 of
    the seed's stream in chunks of about ``_CHUNK_DRAWS`` draws, each
    starting at a multiple of 4 rows, and gather the per-path arrays it
    returns along their last axis.

    ``steps`` holds a chunk's Brownian increments (sigma dB1, eps dB2,
    dB3), time-major: shape (n_steps, 3, rows). Row r reads the draws at
    stream positions 3 n_steps r on. One draw buffer serves every chunk:
    :func:`gaussians` fills it through its (rows, n_steps, 3) view, it is
    scaled in place, and each chunk's results are copied into its slice
    of outputs allocated once, so memory grows only with those results.
    """
    count, n = params.n_paths, params.n_steps
    if count < 1:
        raise ValueError("count must be at least 1")
    rows = min(count, max(4, 4 * (_CHUNK_DRAWS // (12 * n))))
    buffer = np.empty(3 * n * rows)
    scale = (np.array([params.sigma, params.epsilon, 1.0])
             * np.sqrt(params.dt))[:, None]
    outputs = None
    for lo in range(0, count, rows):
        size = min(rows, count - lo)
        steps = buffer[:3 * n * size].reshape(n, 3, size)
        gaussians(seed, steps.transpose(2, 0, 1), 3 * n * lo)
        steps *= scale
        parts = chunk(steps)
        if outputs is None:
            outputs = [np.empty((*part.shape[:-1], count)) for part in parts]
        for out, part in zip(outputs, parts):
            out[..., lo:lo + size] = part
    return outputs


def weighted_reference(params: ModelParams, policy: FeedbackPolicy,
                       seed: int, moments: bool = False) -> WeightedSample:
    """Reweight the ``params.n_paths`` reference paths of ``seed`` by
    ``policy``: the density dQ^pi / dW of every path, the integrals of the
    entropy identity and, if ``moments``, what the constraint moments of
    the built-in test functionals are formed from.

    Under the reference measure dP = sigma dB1, dZ = eps dB2 and dW = dB3,
    and with W_i and pi_i read at the left point of each step,

        log M = sum_i [ (W_i / sigma^2) dP_i + (pi_i / eps^2) dZ_i
                        - (1/2) ((W_i / sigma)^2 + (pi_i / eps)^2) dt ],

    formed after the loop from the running sums of W dP, pi dZ, W^2 and
    pi^2. A chunk (:func:`_in_row_chunks`) runs time-major on the
    increments of :func:`simulate_controlled` and keeps only the per-path
    results, so memory grows by 12 floats per path with
    ``moments`` and by 4 without. The sample equals that of the whole
    batch taken as one chunk, bit for bit.

    With ``moments``, the state (P, Z, W, sum of W) is frozen at tau_N,
    the first grid index where |P|, |Z| or |W| reaches the truncation
    level (n_steps if none does; sub-grid crossings are not refined). The
    window starts at min(n_steps // 2, tau_N). The sample keeps the six
    rows' increments over the window (:func:`_window_increments`) and W
    and Z at n_steps // 2, which give the ramps of the test functionals
    (:meth:`WeightedSample.moment_samples`).
    """
    n = params.n_steps
    dt, times = params.dt, params.times
    s2, e2 = params.sigma**2, params.epsilon**2
    i_s = n // 2

    def chunk(steps):
        rows = steps.shape[-1]
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
        if moments:
            end[:, live] = state[:, live]
            increments = _window_increments(
                start, end, (stop - np.minimum(i_s, stop)) * dt, params)
        else:
            increments = at_s = np.empty((0, rows))
        return np.exp(log_m), log_m, pi_sq * dt, w_sq * dt, increments, at_s

    return WeightedSample(*_in_row_chunks(params, seed, chunk))


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


def mean_se(samples: np.ndarray) -> tuple:
    """Sample mean and standard error over the last axis of ``samples``:
    floats for a 1-D sample, else two arrays of its leading shape. The
    standard error of a single sample is inf."""
    n = samples.shape[-1]
    mean = np.mean(samples, axis=-1)
    se = (np.std(samples, axis=-1, ddof=1) / np.sqrt(n) if n > 1
          else np.full_like(mean, np.inf))
    if samples.ndim == 1:
        return float(mean), float(se)
    return mean, se


def entropy_report(sample: WeightedSample,
                   params: ModelParams) -> EntropyReport:
    """Both sides of the relative-entropy identity, with standard errors.

    The expected entropy E[M log M] equals half the reweighted expectation
    of the integrated squared (normalized) drift; the report estimates
    both sides from the same weighted sample.
    """
    lhs, lhs_se = mean_se(sample.m * sample.log_m)
    drift_sq = (sample.int_pi_sq / params.epsilon**2
                + sample.int_w_sq / params.sigma**2)
    rhs, rhs_se = mean_se(0.5 * sample.m * drift_sq)
    return EntropyReport(lhs, rhs, lhs_se, rhs_se)


# The built-in test functionals eta of the path up to s: the constant 1,
# then indicators of W_s and of Z_s above each threshold, made continuous
# by a linear ramp of this width. The window [s, t] = [T / 2, T] is stopped
# at the exit time tau_N of the truncation level N.
_THRESHOLDS = (-1.0, 0.0, 1.0)
_RAMP_WIDTH = 0.01
_TRUNCATION_LEVEL = 10.0


# built-in test functionals: the constant and one per coordinate and
# threshold (:meth:`WeightedSample.moment_samples`)
_FUNCTIONALS = 1 + 2 * len(_THRESHOLDS)


def _window_increments(start: np.ndarray, end: np.ndarray, span: np.ndarray,
                       params: ModelParams) -> np.ndarray:
    """Y_{t ^ tau} - Y_{s ^ tau} per path for all six rows, shape
    (6, count).

    Y accumulates b dt + A dX (:func:`constraint_rows`) along the path.
    The rows are linear in the increments, so Y_{t ^ tau} - Y_{s ^ tau} is
    the rows of the differences of P, Z, W and of the left-point running
    integral of W (the state ``start`` and ``end`` at the window ends, with
    the sum of W times the step of ``params``), over the stopped window's
    length ``span``, at the rate bounds of ``params``.
    """
    dp, dz, dw = end[:3] - start[:3]
    dt = params.dt
    return np.array(constraint_rows(dp, dz, dw, end[3] * dt - start[3] * dt,
                                    span, params.rate_lower,
                                    params.rate_upper))


def constraint_moments(sample: WeightedSample) -> tuple:
    """Estimate E^W[M eta (Y_{t ^ tau} - Y_{s ^ tau})] for all six rows and
    each built-in test functional: (estimates, standard errors), two arrays
    of shape (7, 6), from a sample weighted with ``moments=True``.

    Each functional's samples are formed in one (6, count) scratch, taken
    once per call (:meth:`WeightedSample.moment_samples`), and reduced
    before the next functional's overwrite them.

    Rows 1-4 have zero mean under the controlled measure (martingale rows);
    rows 5-6 have nonpositive mean exactly when the reweighting policy is
    admissible.
    """
    scratch = np.empty_like(sample.increments)
    estimates, ses = zip(*(mean_se(sample.moment_samples(e, scratch))
                           for e in range(_FUNCTIONALS)))
    return np.array(estimates), np.array(ses)
