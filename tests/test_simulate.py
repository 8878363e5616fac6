import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokerfee import simulate
from brokerfee.model import ConstraintSpec, FeedbackPolicy, ModelParams

import reduced_mode

# modest rate bounds keep the importance weights light-tailed enough for
# Monte Carlo certification; see the girsanov notes in the decisions log
PARAMS = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=100,
                     n_paths=20_000)


# the built-in family, then the whole-horizon constant (martingale rows)
ETAS = simulate.eta_family(PARAMS.horizon) + [
    simulate.EtaTest("const", s=0.0, t=1.0)]


@pytest.fixture(scope="module")
def weighted_sample():
    policy = FeedbackPolicy.constant(0.8, PARAMS)
    return simulate.weighted_reference(PARAMS, policy, PARAMS.n_paths, 31,
                                       ETAS)


def test_reference_batch_statistics():
    batch = simulate.simulate_reference(PARAMS, 50_000, 5)
    assert batch.p.shape == (50_000, PARAMS.n_steps + 1)
    assert np.all(batch.p[:, 0] == 0.0)
    T = PARAMS.horizon
    assert np.std(batch.p[:, -1]) == pytest.approx(PARAMS.sigma * np.sqrt(T),
                                                   rel=0.02)
    assert np.std(batch.z[:, -1]) == pytest.approx(PARAMS.epsilon * np.sqrt(T),
                                                   rel=0.02)
    assert np.std(batch.w[:, -1]) == pytest.approx(np.sqrt(T), rel=0.02)


def test_reference_determinism():
    a = simulate.simulate_reference(PARAMS, 100, 9)
    b = simulate.simulate_reference(PARAMS, 100, 9)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.w, b.w)


def test_controlled_simulation_drift():
    policy = FeedbackPolicy.constant(1.0, PARAMS)
    sample = simulate.simulate_controlled(PARAMS, policy, 20_000, 3)
    assert sample.count == 20_000
    # Z gains drift pi = 1; P gains the integrated W drift (mean zero, with
    # standard deviation sqrt(sigma^2 T + T^3 / 3))
    assert np.mean(sample.z_T) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(sample.p_T)) < 0.035
    assert np.std(sample.p_T) == pytest.approx(np.sqrt(4.0 / 3.0), rel=0.02)
    assert np.allclose(sample.int_pi_sq, PARAMS.horizon)


# 10 steps are 30 draws per path: 49 paths run as 8 x 6 + 1 rows in
# chunks of 8 and as 16 x 3 + 1 in chunks of 16
@pytest.mark.parametrize("rows", [8, 16])
def test_chunks_match_the_whole_batch(rows, monkeypatch):
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=10)
    nodes = np.linspace(-2.0, 2.0, 5)
    tt, ww, zz = np.meshgrid([0.0, 1.0], nodes, nodes, indexing="ij")
    policy = FeedbackPolicy(np.array([0.0, 1.0]), nodes, nodes,
                            np.clip(ww - 0.5 * zz + tt, -1.0, 1.0),
                            (-1.0, 1.0))
    whole = simulate.girsanov_weights(
        simulate.simulate_reference(params, 49, 23), policy, params, ETAS)
    # at the default chunk size all 49 rows are one chunk
    whole_controlled = simulate.simulate_controlled(params, policy, 49, 23)

    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", rows * 3 * params.n_steps)
    chunks = []
    draw = simulate.gaussians

    def recording(seed, shape, offset=0):
        first_row = offset // (3 * params.n_steps)
        chunks.append((first_row, first_row + shape[0]))
        return draw(seed, shape, offset)

    monkeypatch.setattr(simulate, "gaussians", recording)
    expected = [(lo, min(lo + rows, 49)) for lo in range(0, 49, rows)]
    chunked = simulate.weighted_reference(params, policy, 49, 23, ETAS)
    assert chunks == expected
    assert whole.moments.shape == (len(ETAS), 6, 49)
    for field in fields(simulate.WeightedSample):
        assert np.array_equal(getattr(chunked, field.name),
                              getattr(whole, field.name)), field.name

    chunks.clear()
    controlled = simulate.simulate_controlled(params, policy, 49, 23)
    assert chunks == expected
    assert controlled.count == 49
    for name in ("p_T", "z_T", "int_zw", "int_pi_sq"):
        assert np.array_equal(getattr(controlled, name),
                              getattr(whole_controlled, name)), name


def test_controlled_sample_matches_path_reference():
    # the Euler scheme on whole (count, n_steps + 1) path arrays: the
    # terminal values agree bit for bit, and the integrals, summed in
    # another order, to rounding
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=40)
    nodes = np.linspace(-2.0, 2.0, 9)
    tt, ww, zz = np.meshgrid([0.0, 0.5, 1.0], nodes, nodes, indexing="ij")
    policy = FeedbackPolicy(np.array([0.0, 0.5, 1.0]), nodes, nodes,
                            np.clip(2 * ww - zz + tt, -1.0, 1.0),
                            (-1.0, 1.0))
    n, dt = params.n_steps, params.dt
    root_dt = np.sqrt(dt)
    xi = simulate.gaussians(17, (300, n, 3))
    p, z, w = (np.zeros((300, n + 1)) for _ in range(3))
    rates = np.empty((300, n))
    for i in range(n):
        rates[:, i] = policy(params.times[i], w[:, i], z[:, i])
        p[:, i + 1] = (p[:, i] + w[:, i] * dt
                       + params.sigma * root_dt * xi[:, i, 0])
        z[:, i + 1] = (z[:, i] + rates[:, i] * dt
                       + params.epsilon * root_dt * xi[:, i, 1])
        w[:, i + 1] = w[:, i] + root_dt * xi[:, i, 2]
    sample = simulate.simulate_controlled(params, policy, 300, 17)
    assert sample.p_T.tobytes() == p[:, -1].tobytes()
    assert sample.z_T.tobytes() == z[:, -1].tobytes()
    assert np.allclose(sample.int_zw,
                       np.sum(z[:, :-1] * w[:, :-1], axis=1) * dt,
                       rtol=1e-12, atol=1e-15)
    assert np.allclose(sample.int_pi_sq, np.sum(rates**2, axis=1) * dt,
                       rtol=1e-12, atol=0.0)
    assert 0.0 < np.mean(sample.int_pi_sq) < 1.0


def test_weighted_reference_memory_is_per_path():
    # memory stays bounded as the path count grows: the sample keeps
    # 4 + 6 x 7 = 46 floats per path for the built-in family, where one
    # batch of 250 steps holds about 1,750 floats per path in flight
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=250)
    policy = FeedbackPolicy.constant(0.5, params)
    family = simulate.eta_family(params.horizon)

    def peak_bytes(count):
        tracemalloc.start()
        try:
            simulate.weighted_reference(params, policy, count, 3, family)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(4_000), peak_bytes(16_000)
    assert large - small < 12_000 * 64 * 8


def test_controlled_memory_is_per_path():
    # the sample keeps 4 floats per path, where one batch of 250 steps
    # holds about 1,750 floats per path in flight
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=250)
    policy = FeedbackPolicy.constant(0.5, params)

    def peak_bytes(count):
        tracemalloc.start()
        try:
            simulate.simulate_controlled(params, policy, count, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(4_000), peak_bytes(16_000)
    assert large - small < 12_000 * 16 * 8


def test_girsanov_normalization(weighted_sample):
    mean, se = simulate._mean_se(weighted_sample.m)
    assert abs(mean - 1.0) <= 3 * se
    assert se < 0.05


def test_girsanov_zero_rate_isolates_w_channel():
    policy = FeedbackPolicy.constant(0.0, PARAMS)
    wb = simulate.weighted_reference(PARAMS, policy, 20_000, 13)
    mean, se = simulate._mean_se(wb.m)
    assert abs(mean - 1.0) <= 3 * se
    assert np.all(wb.int_pi_sq == 0.0)


def test_entropy_identity_full_model(weighted_sample):
    report = simulate.entropy_report(weighted_sample, PARAMS)
    assert abs(report.gap) <= 3 * report.combined_se


def test_entropy_reduced_mode_closed_form():
    # constant drift c: E[M log M] = c^2 T / 2 exactly
    x_t = reduced_mode.reduced_terminal(50_000, 100, 1.0, 21)
    report = reduced_mode.reduced_entropy_report(x_t, 2.0, 1.0)
    assert abs(report.lhs - 2.0) <= 3 * report.lhs_se
    assert abs(report.rhs - 2.0) <= 3 * report.rhs_se


def test_reduced_weights_normalize():
    x_t = reduced_mode.reduced_terminal(50_000, 100, 1.0, 22)
    m = reduced_mode.reduced_weights(x_t, 1.0, 1.0)
    mean, se = simulate._mean_se(m)
    assert abs(mean - 1.0) <= 3 * se


def test_eta_family_composition():
    family = simulate.eta_family(1.0)
    assert len(family) == 7
    kinds = [eta.kind for eta in family]
    assert kinds.count("const") == 1
    assert kinds.count("w_indicator") == 3
    assert kinds.count("z_indicator") == 3


def test_eta_values_bounded():
    batch = simulate.simulate_reference(PARAMS, PARAMS.n_paths, 31)
    for eta in simulate.eta_family(PARAMS.horizon):
        vals = eta.values(batch)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_constraint_moments_admissible_policy(weighted_sample):
    reports = simulate.constraint_moments(weighted_sample)
    assert len(reports) == len(ETAS)
    for report in reports:
        assert np.all(report.estimates <= 3 * report.ses)


def test_constraint_moments_martingale_rows(weighted_sample):
    # rows 1-4 are martingale increments: mean zero, not just nonpositive
    report = simulate.constraint_moments(weighted_sample)[-1]
    assert np.all(np.abs(report.estimates[:4]) <= 3 * report.ses[:4])


def test_constraint_moments_flag_inadmissible_rate():
    params = ModelParams(sigma=2.0, epsilon=1.0, rate_lower=-0.5,
                         rate_upper=0.5, n_steps=100)
    bad = FeedbackPolicy(np.array([0.0, 1.0]), np.array([-1.0, 1.0]),
                         np.array([-1.0, 1.0]), np.full((2, 2, 2), 1.5),
                         (-2.0, 2.0))
    eta = simulate.EtaTest("const", s=0.5, t=1.0)
    [report] = simulate.constraint_moments(
        simulate.weighted_reference(params, bad, 20_000, 17, [eta]))
    assert report.estimates[4] > 3 * report.ses[4]


@settings(deadline=None, max_examples=20)
@given(st.floats(0.0, 0.5), st.floats(0.5, 1.0))
def test_moment_window_ordering(s, t):
    eta = simulate.EtaTest("const", s=s, t=t)
    assert eta.s <= eta.t


def per_step_moments(batch, m, eta, spec):
    """Reference estimator: cumulative sums of the rows of every step,
    read at the stopped window ends (s ^ tau, t ^ tau)."""
    horizon = batch.times[-1]
    n = len(batch.times) - 1
    dt = batch.times[1] - batch.times[0]
    stop = per_step_stopping_index(batch, eta.truncation_level)
    lo = np.minimum(int(np.floor(eta.s * n / horizon)), stop)
    hi = np.minimum(int(np.floor(eta.t * n / horizon)), stop)
    increments = spec.rows(np.diff(batch.p, axis=1), np.diff(batch.z, axis=1),
                           np.diff(batch.w, axis=1), batch.w[:, :-1] * dt, dt)
    weights = m * eta.values(batch)
    paths = np.arange(batch.count)
    estimates, ses = [], []
    for inc in increments:
        y = np.concatenate([np.zeros((batch.count, 1)),
                            np.cumsum(inc, axis=1)], axis=1)
        samples = weights * (y[paths, hi] - y[paths, lo])
        estimates.append(np.mean(samples))
        ses.append(np.std(samples, ddof=1) / np.sqrt(batch.count))
    return np.array(estimates), np.array(ses)


def per_step_stopping_index(batch, level):
    big = np.maximum(np.abs(batch.p),
                     np.maximum(np.abs(batch.z), np.abs(batch.w))) >= level
    hit = np.argmax(big, axis=1)
    hit[~big[np.arange(batch.count), hit]] = len(batch.times) - 1
    return hit


def test_rows_of_summed_increments_are_summed_rows():
    # the linearity the telescoped estimator rests on
    spec = ConstraintSpec(rate_lower=-0.7, rate_upper=1.3)
    dp, dz, dw, w = np.random.default_rng(4).normal(size=(4, 60))
    dt = 1.0 / 60
    stepwise = np.sum(spec.rows(dp, dz, dw, w * dt, dt), axis=1)
    summed = spec.rows(np.sum(dp), np.sum(dz), np.sum(dw), np.sum(w * dt),
                       60 * dt)
    np.testing.assert_allclose(stepwise, summed, rtol=1e-12, atol=1e-12)


def test_family_moments_match_per_step_reference():
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=100)
    spec = ConstraintSpec.from_params(params)
    batch = simulate.simulate_reference(params, 4_000, 41)
    low = 0.6
    # tau_N binds before s = T / 2 on most paths at the low level
    assert np.mean(per_step_stopping_index(batch, low) < 50) > 0.5
    family = [
        simulate.EtaTest("const", s=0.3, t=0.8),
        simulate.EtaTest("w_indicator", threshold=0.0, s=0.5, t=1.0,
                         truncation_level=low),
        simulate.EtaTest("z_indicator", threshold=0.1, s=0.5, t=0.5),
        simulate.EtaTest("z_indicator", threshold=-0.2, s=0.0, t=1.0,
                         truncation_level=1.5),
        simulate.EtaTest("w_indicator", threshold=0.5, s=0.0, t=1.0,
                         truncation_level=low),
    ]
    sample = simulate.weighted_reference(
        params, FeedbackPolicy.constant(0.8, params), 4_000, 41, family)
    reports = simulate.constraint_moments(sample)
    assert len(reports) == len(family)
    for eta, report in zip(family, reports):
        estimates, ses = per_step_moments(batch, sample.m, eta, spec)
        np.testing.assert_allclose(report.estimates, estimates,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(report.ses, ses, rtol=1e-12, atol=1e-12)
    # an empty window (s = t) has no increment at all
    assert np.all(reports[2].estimates == 0.0)
