import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokerfee import simulate
from brokerfee.model import ConstraintSpec, FeedbackPolicy, ModelParams

# modest rate bounds keep the importance weights light-tailed enough for
# Monte Carlo certification; see the girsanov notes in the decisions log
PARAMS = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=100,
                     n_paths=20_000)


@pytest.fixture(scope="module")
def weighted_batch():
    batch = simulate.simulate_reference(PARAMS, PARAMS.n_paths, 31)
    policy = FeedbackPolicy.constant(0.8, PARAMS)
    return simulate.girsanov_weights(batch, policy, PARAMS)


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
    batch = simulate.simulate_controlled(PARAMS, policy, 20_000, 3)
    # Z gains drift pi = 1; P gains the integrated W drift (mean zero)
    assert np.mean(batch.z[:, -1]) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(batch.w[:, -1])) < 0.03
    assert np.allclose(batch.rates, 1.0)


def test_girsanov_normalization(weighted_batch):
    mean, se = simulate._mean_se(weighted_batch.m)
    assert abs(mean - 1.0) <= 3 * se
    assert se < 0.05


def test_girsanov_zero_rate_isolates_w_channel():
    batch = simulate.simulate_reference(PARAMS, 20_000, 13)
    policy = FeedbackPolicy.constant(0.0, PARAMS)
    wb = simulate.girsanov_weights(batch, policy, PARAMS)
    mean, se = simulate._mean_se(wb.m)
    assert abs(mean - 1.0) <= 3 * se
    assert np.all(wb.int_pi_sq == 0.0)


def test_entropy_identity_full_model(weighted_batch):
    report = simulate.entropy_report(weighted_batch, PARAMS)
    assert abs(report.gap) <= 3 * report.combined_se


def test_entropy_reduced_mode_closed_form():
    # constant drift c: E[M log M] = c^2 T / 2 exactly
    x = simulate.reduced_reference(50_000, 100, 1.0, 21)
    report = simulate.reduced_entropy_report(x, 2.0, 1.0)
    assert abs(report.lhs - 2.0) <= 3 * report.lhs_se
    assert abs(report.rhs - 2.0) <= 3 * report.rhs_se


def test_reduced_weights_normalize():
    x = simulate.reduced_reference(50_000, 100, 1.0, 22)
    m = simulate.reduced_weights(x, 1.0, 1.0)
    mean, se = simulate._mean_se(m)
    assert abs(mean - 1.0) <= 3 * se


def test_eta_family_composition():
    family = simulate.eta_family(1.0)
    assert len(family) == 7
    kinds = [eta.kind for eta in family]
    assert kinds.count("const") == 1
    assert kinds.count("w_indicator") == 3
    assert kinds.count("z_indicator") == 3


def test_eta_values_bounded(weighted_batch):
    for eta in simulate.eta_family(PARAMS.horizon):
        vals = eta.values(weighted_batch)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_constraint_moments_admissible_policy(weighted_batch):
    spec = ConstraintSpec.from_params(PARAMS)
    for eta in simulate.eta_family(PARAMS.horizon):
        report = simulate.constraint_moments(weighted_batch, eta, spec)
        assert np.all(report.estimates <= 3 * report.ses)


def test_constraint_moments_martingale_rows(weighted_batch):
    # rows 1-4 are martingale increments: mean zero, not just nonpositive
    spec = ConstraintSpec.from_params(PARAMS)
    eta = simulate.EtaTest("const", s=0.0, t=1.0)
    report = simulate.constraint_moments(weighted_batch, eta, spec)
    assert np.all(np.abs(report.estimates[:4]) <= 3 * report.ses[:4])


def test_constraint_moments_flag_inadmissible_rate():
    params = ModelParams(sigma=2.0, epsilon=1.0, rate_lower=-0.5,
                         rate_upper=0.5, n_steps=100)
    batch = simulate.simulate_reference(params, 20_000, 17)
    bad = FeedbackPolicy.from_function(
        lambda t, w, z: np.full_like(t + w + z, 1.5),
        np.array([0.0, 1.0]), np.array([-1.0, 1.0]), np.array([-1.0, 1.0]),
        (-2.0, 2.0))
    wb = simulate.girsanov_weights(batch, bad, params)
    spec = ConstraintSpec.from_params(params)
    eta = simulate.EtaTest("const", s=0.5, t=1.0)
    report = simulate.constraint_moments(wb, eta, spec)
    assert report.estimates[4] > 3 * report.ses[4]


@settings(deadline=None, max_examples=20)
@given(st.floats(0.0, 0.5), st.floats(0.5, 1.0))
def test_moment_window_ordering(s, t):
    eta = simulate.EtaTest("const", s=s, t=t)
    assert eta.s <= eta.t
