import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokerfee.model import (ConstraintSpec, DiscretizedPath, FeedbackPolicy,
                             ModelParams, params_from_config,
                             params_to_config, validate_params)


def test_default_params_accepted():
    validate_params(ModelParams())


@pytest.mark.parametrize("kwargs,message", [
    (dict(sigma=0.0), "sigma must be positive"),
    (dict(epsilon=-1.0), "epsilon must be positive"),
    (dict(phi_a=0.0), "phi_a must be positive"),
    (dict(phi_p=-0.1), "phi_p must be nonnegative"),
    (dict(horizon=0.0), "horizon must be positive"),
    (dict(rate_lower=5.0, rate_upper=-5.0), "rate_lower exceeds rate_upper"),
    (dict(n_steps=0), "n_steps must be at least 1"),
    (dict(n_paths=0), "n_paths must be at least 1"),
])
def test_validation_messages(kwargs, message):
    with pytest.raises(ValueError, match=message):
        validate_params(ModelParams(**kwargs))


def test_config_round_trip():
    params = ModelParams(sigma=2.0, epsilon=0.3, n_steps=100, seed=99)
    assert params_from_config(params_to_config(params)) == params


def test_config_rejects_unknown_key():
    items = params_to_config(ModelParams())
    items["model.volatility"] = 1.0
    with pytest.raises(ValueError, match="unknown model parameter"):
        params_from_config(items)


def test_dt_and_times():
    params = ModelParams(horizon=2.0, n_steps=4)
    assert params.dt == 0.5
    assert np.allclose(params.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_path_requires_uniform_grid():
    t = np.array([0.0, 0.1, 0.3])
    zeros = np.zeros(3)
    with pytest.raises(ValueError, match="uniform"):
        DiscretizedPath(t, zeros, zeros, zeros)


def test_path_requires_origin_start():
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="origin"):
        DiscretizedPath(t, np.array([1.0, 0.0, 0.0]), np.zeros(3), np.zeros(3))


def test_constant_policy():
    params = ModelParams(rate_lower=-2.0, rate_upper=2.0)
    policy = FeedbackPolicy.constant(1.5, params)
    assert policy(0.3, 0.7, -0.2) == pytest.approx(1.5)
    clamped = FeedbackPolicy.constant(5.0, params)
    assert clamped(0.0, 0.0, 0.0) == pytest.approx(2.0)


def test_policy_interpolation_matches_linear_function():
    params = ModelParams(rate_lower=-50.0, rate_upper=50.0)
    t_nodes = np.linspace(0.0, 1.0, 5)
    w_nodes = np.linspace(-3.0, 3.0, 7)
    z_nodes = np.linspace(-2.0, 2.0, 5)
    policy = FeedbackPolicy.from_function(
        lambda t, w, z: w * (1.0 - t) + 0.5 * z,
        t_nodes, w_nodes, z_nodes, (params.rate_lower, params.rate_upper))
    # trilinear interpolation reproduces multilinear functions exactly
    assert policy(0.35, 1.2, -0.7) == pytest.approx(1.2 * 0.65 - 0.35)


@settings(deadline=None, max_examples=50)
@given(st.floats(-20, 20), st.floats(-10, 10), st.floats(-10, 10),
       st.floats(0, 1))
def test_policy_always_within_bounds(value, w, z, t):
    params = ModelParams(rate_lower=-1.5, rate_upper=2.5)
    policy = FeedbackPolicy.constant(value, params)
    rate = float(policy(t, w, z))
    assert params.rate_lower <= rate <= params.rate_upper


def residuals(spec, w, rate):
    # b + A nu at nu = (W, pi, 0): the rows of b dt + A dX at dt = 1, dX = nu
    return np.array(spec.rows(w, rate, 0.0, w, 1.0))


def test_constraint_rows_example():
    spec = ConstraintSpec(rate_lower=-10.0, rate_upper=10.0)
    rows = residuals(spec, 0.3, 2.0)
    assert np.allclose(rows, [0.0, 0.0, 0.0, 0.0, -8.0, -12.0])


def test_constraint_rows_boundary_rate():
    spec = ConstraintSpec(rate_lower=-1.0, rate_upper=1.0)
    rows = residuals(spec, 0.5, 1.0)
    assert rows[4] == pytest.approx(0.0)
    assert np.all(rows <= 1e-14)


@settings(deadline=None, max_examples=50)
@given(st.floats(-5, 5), st.floats(-0.9, 0.9))
def test_first_four_rows_vanish_for_any_state(w, rate):
    # rows 1-4 cancel identically at nu = (W, pi, 0); admissibility is
    # decided by the rate rows alone
    spec = ConstraintSpec(rate_lower=-1.0, rate_upper=1.0)
    rows = residuals(spec, w, rate)
    assert np.allclose(rows[:4], 0.0)
    assert np.all(rows <= 0)
