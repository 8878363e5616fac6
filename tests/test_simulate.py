import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from brokerfee import rng, simulate
from brokerfee.model import FeedbackPolicy, ModelParams, constraint_rows

import path_reference
import reduced_mode

# modest rate bounds keep the importance weights light-tailed enough for
# Monte Carlo certification; see the girsanov notes in the decisions log
PARAMS = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=100,
                     n_paths=20_000)


@pytest.fixture(scope="module")
def weighted_sample():
    policy = FeedbackPolicy.constant(0.8, PARAMS)
    return simulate.weighted_reference(PARAMS, policy, 31, moments=True)


def test_reference_batch_statistics():
    # the test-side reference paths are scaled Brownian motions, and the
    # library's left-point integral of W^2 over them has its mean
    # dt^2 n (n - 1) / 2
    batch = path_reference.reference_paths(PARAMS, 50_000, 5)
    assert batch.p.shape == (50_000, PARAMS.n_steps + 1)
    assert np.all(batch.p[:, 0] == 0.0)
    T = PARAMS.horizon
    assert np.std(batch.p[:, -1]) == pytest.approx(PARAMS.sigma * np.sqrt(T),
                                                   rel=0.02)
    assert np.std(batch.z[:, -1]) == pytest.approx(PARAMS.epsilon * np.sqrt(T),
                                                   rel=0.02)
    assert np.std(batch.w[:, -1]) == pytest.approx(np.sqrt(T), rel=0.02)
    sample = simulate.weighted_reference(
        replace(PARAMS, n_paths=50_000), FeedbackPolicy.constant(0.0, PARAMS),
        5)
    n = PARAMS.n_steps
    assert np.mean(sample.int_w_sq) == pytest.approx(
        PARAMS.dt**2 * n * (n - 1) / 2, rel=0.02)


def test_reference_determinism():
    params = replace(PARAMS, n_paths=100)
    policy = FeedbackPolicy.constant(0.8, params)
    a = simulate.weighted_reference(params, policy, 9, moments=True)
    b = simulate.weighted_reference(params, policy, 9, moments=True)
    for field in fields(simulate.WeightedSample):
        assert np.array_equal(getattr(a, field.name),
                              getattr(b, field.name)), field.name
    first = path_reference.reference_paths(params, 100, 9)
    second = path_reference.reference_paths(params, 100, 9)
    assert np.array_equal(first.p, second.p)
    assert np.array_equal(first.z, second.z)
    assert np.array_equal(first.w, second.w)


def test_controlled_simulation_drift():
    policy = FeedbackPolicy.constant(1.0, PARAMS)
    sample = simulate.simulate_controlled(PARAMS, policy, 3)
    assert sample.count == 20_000
    # Z gains drift pi = 1; P gains the integrated W drift (mean zero, with
    # standard deviation sqrt(sigma^2 T + T^3 / 3))
    assert np.mean(sample.z_T) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(sample.p_T)) < 0.035
    assert np.std(sample.p_T) == pytest.approx(np.sqrt(4.0 / 3.0), rel=0.02)
    assert np.allclose(sample.int_pi_sq, PARAMS.horizon)


# 10 steps are 30 draws per path: 49 paths run as 8 x 6 + 1 rows in
# chunks of 8 and as 16 x 3 + 1 in chunks of 16, each chunk filled in
# blocks of 4 rows
@pytest.mark.parametrize("rows", [8, 16])
def test_chunks_match_the_whole_batch(rows, monkeypatch):
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=10,
                         n_paths=49)
    nodes = np.linspace(-2.0, 2.0, 5)
    tt, ww, zz = np.meshgrid([0.0, 1.0], nodes, nodes, indexing="ij")
    policy = FeedbackPolicy(np.array([0.0, 1.0]), nodes, nodes,
                            np.clip(ww - 0.5 * zz + tt, -1.0, 1.0),
                            (-1.0, 1.0))
    # at the default chunk size all 49 rows are one chunk
    whole = simulate.weighted_reference(params, policy, 23, moments=True)
    assert_matches_path_reference(whole, params, policy, 23)
    whole_controlled = simulate.simulate_controlled(params, policy, 23)

    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", rows * 3 * params.n_steps)
    # fill blocks of 4 rows, drawn by 3 workers: each chunk spans several
    monkeypatch.setattr(rng, "_BLOCK_DRAWS", 4 * 3 * params.n_steps)
    monkeypatch.setattr(rng, "usable_cpus", lambda: 3)
    chunks = []
    draw = simulate.gaussians

    def recording(seed, out, offset):
        first_row = offset // (3 * params.n_steps)
        chunks.append((first_row, first_row + out.shape[0]))
        return draw(seed, out, offset)

    monkeypatch.setattr(simulate, "gaussians", recording)
    expected = [(lo, min(lo + rows, 49)) for lo in range(0, 49, rows)]
    chunked = simulate.weighted_reference(params, policy, 23, moments=True)
    assert chunks == expected
    assert whole.increments.shape == (6, 49)
    assert whole.at_s.shape == (2, 49)
    for field in fields(simulate.WeightedSample):
        assert np.array_equal(getattr(chunked, field.name),
                              getattr(whole, field.name)), field.name

    chunks.clear()
    controlled = simulate.simulate_controlled(params, policy, 23)
    assert chunks == expected
    assert controlled.count == 49
    for name in ("p_T", "z_T", "int_zw", "int_pi_sq"):
        assert np.array_equal(getattr(controlled, name),
                              getattr(whole_controlled, name)), name


def test_controlled_sample_matches_path_reference():
    # the Euler scheme on whole (count, n_steps + 1) path arrays: the
    # terminal values agree bit for bit, and the integrals, summed in
    # another order, to rounding
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=40,
                         n_paths=300)
    nodes = np.linspace(-2.0, 2.0, 9)
    tt, ww, zz = np.meshgrid([0.0, 0.5, 1.0], nodes, nodes, indexing="ij")
    policy = FeedbackPolicy(np.array([0.0, 0.5, 1.0]), nodes, nodes,
                            np.clip(2 * ww - zz + tt, -1.0, 1.0),
                            (-1.0, 1.0))
    n, dt = params.n_steps, params.dt
    root_dt = np.sqrt(dt)
    xi = simulate.gaussians(17, np.empty((300, n, 3)), offset=0)
    p, z, w = (np.zeros((300, n + 1)) for _ in range(3))
    rates = np.empty((300, n))
    for i in range(n):
        rates[:, i] = policy(params.times[i], w[:, i], z[:, i])
        p[:, i + 1] = (p[:, i] + w[:, i] * dt
                       + params.sigma * root_dt * xi[:, i, 0])
        z[:, i + 1] = (z[:, i] + rates[:, i] * dt
                       + params.epsilon * root_dt * xi[:, i, 1])
        w[:, i + 1] = w[:, i] + root_dt * xi[:, i, 2]
    sample = simulate.simulate_controlled(params, policy, 17)
    assert sample.p_T.tobytes() == p[:, -1].tobytes()
    assert sample.z_T.tobytes() == z[:, -1].tobytes()
    assert np.allclose(sample.int_zw,
                       np.sum(z[:, :-1] * w[:, :-1], axis=1) * dt,
                       rtol=1e-12, atol=1e-15)
    assert np.allclose(sample.int_pi_sq, np.sum(rates**2, axis=1) * dt,
                       rtol=1e-12, atol=0.0)
    assert 0.0 < np.mean(sample.int_pi_sq) < 1.0


def test_weighted_reference_memory_is_per_path(monkeypatch):
    # memory stays bounded as the path count grows: the sample keeps
    # 4 + 6 + 2 = 12 floats per path with the constraint moments (the
    # density, its log, two integrals, six row increments, and W and Z at
    # T / 2), where one batch of 100 steps holds about 700 floats per path
    # in flight.
    # With chunks of 216 rows both runs have several, and the peak grows
    # by the sample alone: chunk results gathered by concatenation would
    # double that growth
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=100)
    policy = FeedbackPolicy.constant(0.5, params)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 1 << 16)
    # a first call loads the lazily imported scipy outside the trace
    simulate.weighted_reference(replace(params, n_paths=4), policy, 3)

    def peak_bytes(count):
        tracemalloc.start()
        try:
            sample = simulate.weighted_reference(
                replace(params, n_paths=count), policy, 3, moments=True)
            assert sample.increments.shape == (6, count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(4_000), peak_bytes(8_000)
    assert large - small <= 1.25 * 12 * 8 * 4_000


def test_controlled_memory_is_per_path():
    # the sample keeps 4 floats per path, where one batch of 250 steps
    # holds about 1,750 floats per path in flight
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=250)
    policy = FeedbackPolicy.constant(0.5, params)

    def peak_bytes(count):
        tracemalloc.start()
        try:
            simulate.simulate_controlled(replace(params, n_paths=count),
                                         policy, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(4_000), peak_bytes(16_000)
    assert large - small < 12_000 * 16 * 8


def distinct_policies(n_t=3, n_nodes=5):
    """Four policies on one (t, w, z) grid with bounds [-1, 1]: three
    tables that vary and clip differently, and a constant one (third),
    whose rate a blend of its corners would not always reproduce."""
    t_nodes = np.linspace(0.0, 1.0, n_t)
    nodes = np.linspace(-2.0, 2.0, n_nodes)
    tt, ww, zz = np.meshgrid(t_nodes, nodes, nodes, indexing="ij")
    tables = (ww - 0.5 * zz + tt, 0.3 - ww * zz + 0.5 * tt,
              np.full(tt.shape, 0.3), np.sin(3.0 * ww) * zz - tt)
    return [FeedbackPolicy(t_nodes, nodes, nodes, table, (-1.0, 1.0))
            for table in tables]


# members are indices into distinct_policies(): batches of 1, 2 and 3,
# with the constant table alone, first and last
@pytest.mark.parametrize("members", [[0], [2], [2, 0], [1, 3, 2]],
                         ids=["one", "constant", "two", "three"])
def test_batch_matches_separate_calls(members, monkeypatch):
    # each member of a batch steps on the same draws as its own call,
    # bit for bit, also when the batch runs in chunks that cut across
    # the draw workers' fill blocks
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=10,
                         n_paths=49)
    policies = [distinct_policies()[k] for k in members]
    alone = [simulate.simulate_controlled(params, policy, 23)
             for policy in policies]
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 16 * 3 * params.n_steps)
    monkeypatch.setattr(rng, "_BLOCK_DRAWS", 4 * 3 * params.n_steps)
    monkeypatch.setattr(rng, "usable_cpus", lambda: 3)
    batch = simulate.simulate_controlled(
        params, FeedbackPolicy.stack(policies), 23)
    assert batch.p_T.shape == (49,)
    for name in ("z_T", "int_zw", "int_pi_sq"):
        assert getattr(batch, name).shape == (len(members), 49)
    for k, sample in enumerate(alone):
        assert batch.p_T.tobytes() == sample.p_T.tobytes()
        for name in ("z_T", "int_zw", "int_pi_sq"):
            assert (getattr(batch, name)[k].tobytes()
                    == getattr(sample, name).tobytes()), (k, name)


def test_batch_memory_is_one_draw_buffer(monkeypatch):
    # a batch of K policies draws into one buffer: its peak grows with K
    # by the stacked tables and the 3 floats per path (Z_T and the two
    # integrals) of each member; a draw buffer per member would add 150
    # floats per row of an 872-row chunk for each, 2.4 times as much
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=50,
                         n_paths=16_000)
    policies = distinct_policies(n_t=17, n_nodes=21)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 1 << 17)
    # a first call loads the lazily imported scipy outside the trace
    simulate.simulate_controlled(replace(params, n_paths=4), policies[0], 3)

    def peak_bytes(count):
        tracemalloc.start()
        try:
            batch = FeedbackPolicy.stack(policies[:count])
            simulate.simulate_controlled(params, batch, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak_bytes(1), peak_bytes(4)
    per_member = policies[0].table.nbytes + 3 * 8 * params.n_paths
    assert four - one <= 1.25 * 3 * per_member


def test_girsanov_normalization(weighted_sample):
    mean, se = simulate.mean_se(weighted_sample.m)
    assert abs(mean - 1.0) <= 3 * se
    assert se < 0.05


def test_girsanov_zero_rate_isolates_w_channel():
    policy = FeedbackPolicy.constant(0.0, PARAMS)
    wb = simulate.weighted_reference(PARAMS, policy, 13)
    mean, se = simulate.mean_se(wb.m)
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
    mean, se = simulate.mean_se(m)
    assert abs(mean - 1.0) <= 3 * se


def test_eta_family_composition(monkeypatch):
    # the seven built-in functionals are the constant, three functionals
    # of W_{T/2} alone and three of Z_{T/2} alone: moving one coordinate
    # from s = T / 2 on moves only its three indicators, and upwards
    params = replace(PARAMS, n_paths=2_000)
    policy = FeedbackPolicy.constant(0.8, params)
    half = params.n_steps // 2
    draw = simulate.gaussians

    def etas(coord=None, scale=None):
        # the draw of the step into s raises the coordinate by 1 from s on
        def moving(seed, out, offset):
            draw(seed, out, offset)
            if coord is not None:
                out[:, half - 1, coord] += 1.0 / (scale * np.sqrt(params.dt))
            return out

        monkeypatch.setattr(simulate, "gaussians", moving)
        sample = simulate.weighted_reference(params, policy, 31, moments=True)
        samples = moment_samples(sample)
        assert samples.shape == (7, 6, params.n_paths)
        return samples[:, 4] / samples[0, 4]

    base = etas()
    for moved, own in ((etas(2, 1.0), slice(1, 4)),
                       (etas(1, params.epsilon), slice(4, 7))):
        np.testing.assert_array_equal(moved[0], 1.0)
        other = np.ones(7, dtype=bool)
        other[own] = False
        np.testing.assert_allclose(moved[other], base[other],
                                   rtol=1e-9, atol=1e-12)
        assert np.all(moved[own] >= base[own] - 1e-12)
        assert np.all(np.any(moved[own] > base[own] + 0.5, axis=1))


def test_eta_values_bounded():
    # the seven built-in functionals, read back as the ratio of their
    # samples to the constant's on row 5 (dZ - U dt, nonzero on every
    # path): the constant 1, then smoothed indicators of W_s and of Z_s
    # at s = T / 2 over the thresholds -1, 0 and 1, each in [0, 1], 0 below
    # its ramp and 1 above it
    batch = path_reference.reference_paths(PARAMS, 4_000, 31)
    sample = simulate.weighted_reference(
        replace(PARAMS, n_paths=4_000), FeedbackPolicy.constant(0.8, PARAMS),
        31, moments=True)
    samples = moment_samples(sample)
    assert samples.shape == (7, 6, 4_000)
    base = samples[0, 4]
    assert np.all(base != 0.0)
    etas = samples[:, 4] / base
    assert np.all((etas >= -1e-12) & (etas <= 1.0 + 1e-12))
    half = PARAMS.n_steps // 2
    for first, coord in ((1, batch.w[:, half]), (4, batch.z[:, half])):
        for k, threshold in enumerate((-1.0, 0.0, 1.0)):
            eta = etas[first + k]
            assert np.allclose(eta[coord <= threshold - 0.005], 0.0,
                               atol=1e-12)
            assert np.allclose(eta[coord >= threshold + 0.005], 1.0,
                               rtol=1e-12)
            # the ramp is linear, through 1/2 at the threshold
            ramp = np.abs(coord - threshold) < 0.005
            np.testing.assert_allclose(
                eta[ramp], (coord[ramp] - threshold) / 0.01 + 0.5,
                rtol=1e-9, atol=1e-12)


def test_constraint_moments_admissible_policy(weighted_sample):
    estimates, ses = simulate.constraint_moments(weighted_sample)
    assert estimates.shape == ses.shape == (7, 6)
    assert np.all(estimates <= 3 * ses)


def test_constraint_moments_martingale_rows(weighted_sample):
    # rows 1-4 are martingale increments: mean zero, not just nonpositive;
    # the first built-in functional is the constant
    estimates, ses = simulate.constraint_moments(weighted_sample)
    assert np.all(np.abs(estimates[0, :4]) <= 3 * ses[0, :4])


def test_constraint_moments_flag_inadmissible_rate():
    params = ModelParams(sigma=2.0, epsilon=1.0, rate_lower=-0.5,
                         rate_upper=0.5, n_steps=100, n_paths=20_000)
    bad = FeedbackPolicy(np.array([0.0, 1.0]), np.array([-1.0, 1.0]),
                         np.array([-1.0, 1.0]), np.full((2, 2, 2), 1.5),
                         (-2.0, 2.0))
    estimates, ses = simulate.constraint_moments(
        simulate.weighted_reference(params, bad, 17, moments=True))
    # the constant functional on [T / 2, T]
    assert estimates[0, 4] > 3 * ses[0, 4]


def moment_samples(sample):
    """Every built-in functional's samples of a sample weighted with
    moments, shape (7, 6, count), each in an array of its own."""
    return np.array([sample.moment_samples(e, np.empty_like(sample.increments))
                     for e in range(7)])


def reference_etas(batch):
    """The built-in family spelled out: the constant, then indicators of
    W_s and Z_s at s = T / 2 over thresholds -1, 0, 1, ramped over 0.01."""
    half = (len(batch.times) - 1) // 2
    return [np.ones(batch.count)] + [
        np.clip((coord[:, half] - threshold) / 0.01 + 0.5, 0.0, 1.0)
        for coord in (batch.w, batch.z) for threshold in (-1.0, 0.0, 1.0)]


def per_step_samples(batch, m, eta, bounds, stop):
    """Reference samples, shape (6, count): cumulative sums of the rows of
    every step, read at the stopped window ends (T / 2 ^ tau, T ^ tau)."""
    n = len(batch.times) - 1
    dt = batch.times[1] - batch.times[0]
    lo = np.minimum(n // 2, stop)
    hi = np.minimum(n, stop)
    increments = constraint_rows(
        np.diff(batch.p, axis=1), np.diff(batch.z, axis=1),
        np.diff(batch.w, axis=1), batch.w[:, :-1] * dt, dt, *bounds)
    weights = m * eta
    paths = np.arange(batch.count)
    samples = []
    for inc in increments:
        y = np.concatenate([np.zeros((batch.count, 1)),
                            np.cumsum(inc, axis=1)], axis=1)
        samples.append(weights * (y[paths, hi] - y[paths, lo]))
    return np.array(samples)


def per_step_moments(batch, m, eta, bounds, stop):
    """Reference estimator: the mean and standard error of each row's
    per-step samples."""
    samples = per_step_samples(batch, m, eta, bounds, stop)
    return (np.mean(samples, axis=1),
            np.std(samples, axis=1, ddof=1) / np.sqrt(batch.count))


def per_step_stopping_index(batch, level):
    big = np.maximum(np.abs(batch.p),
                     np.maximum(np.abs(batch.z), np.abs(batch.w))) >= level
    hit = np.argmax(big, axis=1)
    hit[~big[np.arange(batch.count), hit]] = len(batch.times) - 1
    return hit


def assert_matches_path_reference(sample, params, policy, seed):
    """Every per-path result of ``sample`` agrees with the whole-path
    reference to rounding: the library sums log M, the integrals and the
    telescoped moments in another order."""
    batch = path_reference.reference_paths(params, params.n_paths, seed)
    log_m, int_pi_sq, int_w_sq = path_reference.reference_log_density(
        batch, policy, params)
    m = np.exp(log_m)
    for name, expected in (("m", m), ("log_m", log_m),
                           ("int_pi_sq", int_pi_sq), ("int_w_sq", int_w_sq)):
        np.testing.assert_allclose(getattr(sample, name), expected,
                                   rtol=1e-12, atol=1e-12, err_msg=name)
    bounds = (params.rate_lower, params.rate_upper)
    stop = per_step_stopping_index(batch, 10.0)
    for e, eta in enumerate(reference_etas(batch)):
        np.testing.assert_allclose(
            sample.moment_samples(e, np.empty((6, params.n_paths))),
            per_step_samples(batch, m, eta, bounds, stop),
            rtol=1e-12, atol=1e-12, err_msg=f"functional {e}")


def test_weighted_sample_matches_path_reference():
    # a grid policy at sigma = 10: the price reaches the truncation level
    # 10 before T / 2 on some paths, inside [T / 2, T] on others and never
    # on the rest
    params = ModelParams(sigma=10.0, rate_lower=-1.0, rate_upper=1.0,
                         n_steps=60, n_paths=1_000)
    nodes = np.linspace(-2.0, 2.0, 9)
    tt, ww, zz = np.meshgrid([0.0, 0.5, 1.0], nodes, nodes, indexing="ij")
    policy = FeedbackPolicy(np.array([0.0, 0.5, 1.0]), nodes, nodes,
                            np.clip(2 * ww - zz + tt, -1.0, 1.0),
                            (-1.0, 1.0))
    stop = per_step_stopping_index(
        path_reference.reference_paths(params, params.n_paths, 43), 10.0)
    early, full = stop < 30, stop == 60
    assert np.any(early) and np.any(~early & ~full) and np.any(full)
    sample = simulate.weighted_reference(params, policy, 43, moments=True)
    assert_matches_path_reference(sample, params, policy, 43)


def test_rows_of_summed_increments_are_summed_rows():
    # the linearity the telescoped estimator rests on
    dp, dz, dw, w = np.random.default_rng(4).normal(size=(4, 60))
    dt = 1.0 / 60
    stepwise = np.sum(constraint_rows(dp, dz, dw, w * dt, dt, -0.7, 1.3),
                      axis=1)
    summed = constraint_rows(np.sum(dp), np.sum(dz), np.sum(dw),
                             np.sum(w * dt), 60 * dt, -0.7, 1.3)
    np.testing.assert_allclose(stepwise, summed, rtol=1e-12, atol=1e-12)


def test_family_moments_match_per_step_reference():
    # at sigma = 10 the price reaches the truncation level 10 before
    # T / 2 on some paths, inside [T / 2, T] on others and never on the
    # rest; each share is positive
    params = ModelParams(sigma=10.0, rate_lower=-1.0, rate_upper=1.0,
                         n_steps=100, n_paths=4_000)
    bounds = (params.rate_lower, params.rate_upper)
    batch = path_reference.reference_paths(params, params.n_paths, 41)
    stop = per_step_stopping_index(batch, 10.0)
    reached = np.max(np.abs([batch.p, batch.z, batch.w]), axis=(0, 2)) >= 10
    early = stop < 50
    late = reached & ~early
    assert np.mean(early) > 0 and np.mean(late) > 0 and np.mean(~reached) > 0
    sample = simulate.weighted_reference(
        params, FeedbackPolicy.constant(0.8, params), 41, moments=True)
    estimates, ses = simulate.constraint_moments(sample)
    assert estimates.shape == (7, 6)
    for e, eta in enumerate(reference_etas(batch)):
        expected, expected_ses = per_step_moments(batch, sample.m, eta, bounds,
                                                  stop)
        np.testing.assert_allclose(estimates[e], expected,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ses[e], expected_ses,
                                   rtol=1e-12, atol=1e-12)
    # a path stopped before T / 2 has an empty window, so no increment
    assert np.all(moment_samples(sample)[:, :, early] == 0.0)
