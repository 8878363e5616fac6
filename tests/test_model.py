import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokerfee.agent import solve_hjb
from brokerfee.contracts import Constant
from brokerfee.model import (FeedbackPolicy, ModelParams, constraint_rows,
                             interpolate, locate)


def test_default_params_accepted():
    ModelParams()


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
        ModelParams(**kwargs)


def test_replace_is_validated():
    with pytest.raises(ValueError, match="n_paths must be at least 1"):
        dataclasses.replace(ModelParams(), n_paths=0)


def test_inverted_bounds_never_reach_the_solver():
    # unchecked, solve_hjb returned -12.5 and the rate -5 everywhere
    with pytest.raises(ValueError, match="rate_lower exceeds rate_upper"):
        solve_hjb(Constant(0.0), ModelParams(rate_lower=5.0,
                                             rate_upper=-5.0))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["sigma", "epsilon", "phi_a", "phi_p",
                                  "rate_lower", "rate_upper", "horizon",
                                  "reservation"])
def test_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ModelParams(**{name: float(value)})


@pytest.mark.parametrize("value", [10.5, float("nan"), 1.0, True, "3"])
@pytest.mark.parametrize("name", ["n_steps", "n_paths", "seed"])
def test_integer_fields_must_be_integers(name, value):
    # 10.5 paths and a NaN step count used to be accepted; a bool is not
    # an integer here either
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ModelParams(**{name: value})


def test_integer_fields_accept_numpy_integers():
    assert ModelParams(n_paths=np.int64(100), seed=np.uint64(3)).seed == 3


def test_dt_and_times():
    params = ModelParams(horizon=2.0, n_steps=4)
    assert params.dt == 0.5
    assert np.allclose(params.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def one_value_policy(value, bounds):
    """The policy of a (2, 2, 2) table that holds ``value`` alone."""
    nodes = np.array([-1.0, 1.0])
    return FeedbackPolicy(np.array([0.0, 1.0]), nodes, nodes,
                          np.full((2, 2, 2), value), bounds)


def test_constant_policy():
    # a table of one value returns it, clamped to the bounds
    policy = one_value_policy(1.5, (-2.0, 2.0))
    assert policy(0.3, 0.7, -0.2) == pytest.approx(1.5)
    clamped = one_value_policy(5.0, (-2.0, 2.0))
    assert clamped(0.0, 0.0, 0.0) == pytest.approx(2.0)


def test_constant_policy_returns_its_clamped_rate_exactly():
    # a table of one value is blended, and the clamp at L = U makes its
    # every rate exact: the one constant table a solve makes
    w = np.linspace(-3.0, 3.0, 7)[:, None]
    policy = FeedbackPolicy(np.array([0.0, 0.4, 1.0]), np.linspace(-1, 1, 4),
                            np.linspace(-2, 2, 3), np.full((3, 4, 3), 0.3),
                            (0.3, 0.3))
    out = policy(0.5, w, 0.25)
    assert out.shape == (7, 1)
    assert np.all(out == 0.3)


@pytest.mark.parametrize("axis", ["w", "z"])
def test_policy_rejects_non_uniform_nodes(axis):
    nodes = {"w": np.linspace(-1.0, 1.0, 5), "z": np.linspace(-2.0, 2.0, 4)}
    table = np.zeros((2, 5, 4))
    for bad in (nodes[axis] ** 3, nodes[axis][::-1]):
        with pytest.raises(ValueError, match=f"{axis} nodes must be uniform"):
            FeedbackPolicy(np.array([0.0, 1.0]), *{**nodes, axis: bad}.values(),
                           table, (-1.0, 1.0))


def test_policy_keeps_a_table_within_bounds_and_never_writes_it():
    t_nodes, w_nodes, z_nodes = (np.array([0.0, 0.5, 1.0]),
                                 np.linspace(-1.0, 1.0, 5),
                                 np.linspace(-2.0, 2.0, 4))
    table = np.random.default_rng(3).uniform(-2.0, 2.0, (3, 5, 4))
    before = table.copy()
    clipped = FeedbackPolicy(t_nodes, w_nodes, z_nodes, table, (-1.0, 1.0))
    assert np.array_equal(table, before)
    assert np.array_equal(clipped.table, np.clip(table, -1.0, 1.0))
    within = FeedbackPolicy(t_nodes, w_nodes, z_nodes, table, (-2.0, 2.0))
    assert np.shares_memory(within.table, table)


def test_stack_needs_one_grid_and_bounds():
    t_nodes, w_nodes, z_nodes = (np.array([0.0, 0.5, 1.0]),
                                 np.linspace(-1.0, 1.0, 5),
                                 np.linspace(-2.0, 2.0, 4))
    first = FeedbackPolicy(t_nodes, w_nodes, z_nodes, np.zeros((3, 5, 4)),
                           (-1.0, 1.0))
    others = [
        FeedbackPolicy(np.array([0.0, 0.4, 1.0]), w_nodes, z_nodes,
                       np.zeros((3, 5, 4)), (-1.0, 1.0)),
        FeedbackPolicy(t_nodes, 2.0 * w_nodes, z_nodes, np.zeros((3, 5, 4)),
                       (-1.0, 1.0)),
        FeedbackPolicy(t_nodes, w_nodes, np.linspace(-2.0, 2.0, 5),
                       np.zeros((3, 5, 5)), (-1.0, 1.0)),
        FeedbackPolicy(t_nodes, w_nodes, z_nodes, np.zeros((3, 5, 4)),
                       (-1.0, 2.0)),
    ]
    for other in others:
        with pytest.raises(ValueError, match="one grid"):
            FeedbackPolicy.stack([first, other])
    batch = FeedbackPolicy.stack([first, first])
    assert batch.batch_shape == (2,) and first.batch_shape == ()


def test_policy_interpolation_matches_linear_function():
    params = ModelParams(rate_lower=-50.0, rate_upper=50.0)
    t_nodes = np.linspace(0.0, 1.0, 5)
    w_nodes = np.linspace(-3.0, 3.0, 7)
    z_nodes = np.linspace(-2.0, 2.0, 5)
    tt, ww, zz = np.meshgrid(t_nodes, w_nodes, z_nodes, indexing="ij")
    policy = FeedbackPolicy(t_nodes, w_nodes, z_nodes,
                            ww * (1.0 - tt) + 0.5 * zz,
                            (params.rate_lower, params.rate_upper))
    # trilinear interpolation reproduces multilinear functions exactly
    assert policy(0.35, 1.2, -0.7) == pytest.approx(1.2 * 0.65 - 0.35)


def multilinear(coeffs, *x):
    """sum over corners c of coeffs[c] * prod_k x_k^c_k."""
    out = 0.0
    for corner in np.ndindex(coeffs.shape):
        term = coeffs[corner]
        for xk, ck in zip(x, corner):
            term = term * xk**ck
        out = out + term
    return out


@pytest.mark.parametrize("n_axes", [1, 2, 3, 4])
def test_interpolate_exact_on_multilinear_functions(n_axes):
    rng = np.random.default_rng(n_axes)
    # uneven node spacing, a different node count on every axis
    axes = [np.sort(rng.uniform(-2.0, 2.0, 3 + k)) for k in range(n_axes)]
    coeffs = rng.normal(size=(2,) * n_axes)
    table = multilinear(coeffs, *np.meshgrid(*axes, indexing="ij"))
    # queries inside and beyond the edges: beyond an edge the value is that
    # of the nearest edge (constant extrapolation)
    x = [rng.uniform(a[0] - 1.0, a[-1] + 1.0, 200) for a in axes]
    clamped = [np.clip(xk, a[0], a[-1]) for xk, a in zip(x, axes)]
    assert np.any([np.any(xk != ck) for xk, ck in zip(x, clamped)])
    got = interpolate(axes, table, *x)
    assert got.shape == (200,)
    assert np.allclose(got, multilinear(coeffs, *clamped), rtol=1e-12,
                       atol=1e-12)
    # the nodes themselves are reproduced and scalars give a scalar
    corner = [a[1] for a in axes]
    assert interpolate(axes, table, *corner) == pytest.approx(
        table[(1,) * n_axes], rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError, match="one coordinate per axis"):
        interpolate(axes, table, *x[:-1])


def trilinear_reference(policy, t, w, z):
    """The explicit eight-corner loop FeedbackPolicy evaluated before it
    blended two time planes and located w and z by arithmetic."""
    t, w, z = (np.asarray(a, dtype=float) for a in (t, w, z))
    it, ft = locate(policy.t_nodes, t)
    iw, fw = locate(policy.w_nodes, w)
    iz, fz = locate(policy.z_nodes, z)
    out = np.zeros(np.broadcast_shapes(t.shape, w.shape, z.shape))
    for dt_, wt_ in ((0, 1 - ft), (1, ft)):
        for dw_, ww_ in ((0, 1 - fw), (1, fw)):
            for dz_, wz_ in ((0, 1 - fz), (1, fz)):
                out += (wt_ * ww_ * wz_
                        * policy.table[it + dt_, iw + dw_, iz + dz_])
    return np.clip(out, policy.bounds[0], policy.bounds[1])


def test_policy_lookup_matches_trilinear_reference():
    rng = np.random.default_rng(5)
    # uneven t nodes, as solve_hjb saves them
    t_nodes = np.array([0.0, 0.2, 0.45, 0.6, 0.8, 1.0])
    w_nodes = np.linspace(-3.0, 3.0, 9)
    z_nodes = np.linspace(-2.0, 2.0, 7)
    table = rng.normal(size=(6, 9, 7))
    policy = FeedbackPolicy(t_nodes, w_nodes, z_nodes, table, (-1.5, 1.5))
    # inside, on and beyond the edges, and on every node
    on_w, on_z = np.meshgrid(np.append(w_nodes, [-3.5, 3.5]),
                             np.append(z_nodes, [-2.5, 2.5]), indexing="ij")
    w = np.append(rng.uniform(-4.0, 4.0, 500), on_w)
    z = np.append(rng.uniform(-3.0, 3.0, 500), on_z)
    for t in (-0.1, 0.0, 0.37, 0.45, 1.0, 1.2):
        got = policy(t, w, z)
        assert got.shape == w.shape
        assert np.allclose(got, trilinear_reference(policy, t, w, z),
                           rtol=0.0, atol=1e-12)
    assert np.array_equal(policy(0.45, w_nodes[:, None], z_nodes),
                          np.clip(table[2], -1.5, 1.5))


def clipped_formula(policy, t, w, z):
    """The lookup as it was written with np.clip: the t cell by a search,
    the w and z cells by arithmetic, then the blended bilinear formula."""
    def cell(nodes, x):
        x = np.asarray(x, dtype=float)
        step = (nodes[-1] - nodes[0]) / (len(nodes) - 1)
        idx = np.clip(np.floor((x - nodes[0]) / step), 0, len(nodes) - 2)
        idx = idx.astype(np.intp)
        left = nodes.take(idx)
        return idx, np.clip((x - left) / (nodes.take(idx + 1) - left),
                            0.0, 1.0)

    it, ft = locate(policy.t_nodes, float(t))
    plane = (1 - ft) * policy.table[it] + ft * policy.table[it + 1]
    iw, fw = cell(policy.w_nodes, w)
    iz, fz = cell(policy.z_nodes, z)
    flat, n_z = plane.ravel(), len(policy.z_nodes)
    base = iw * n_z + iz
    gz = 1 - fz
    low = gz * flat.take(base) + fz * flat.take(base + 1)
    high = gz * flat.take(base + n_z) + fz * flat.take(base + n_z + 1)
    return np.clip((1 - fw) * low + fw * high, *policy.bounds)


def test_policy_lookup_is_bit_identical_to_clipped_formula():
    rng = np.random.default_rng(11)
    t_nodes = np.array([0.0, 0.1, 0.35, 0.5, 0.75, 0.9, 1.0])
    w_nodes = np.linspace(-6.0, 6.0, 101)
    z_nodes = np.linspace(-7.5, 7.5, 61)
    table = 3.0 * rng.normal(size=(7, 101, 61))
    policy = FeedbackPolicy(t_nodes, w_nodes, z_nodes, table, (-4.0, 5.0))
    for t in np.append(rng.uniform(-0.2, 1.2, 40), t_nodes):
        # within the grid and up to 30 % beyond its edges
        w = rng.uniform(-8.0, 8.0, 1000)
        z = rng.uniform(-10.0, 10.0, 1000)
        got, expected = policy(t, w, z), clipped_formula(policy, t, w, z)
        assert got.tobytes() == expected.tobytes()
        assert (policy(t, w[0], z[0]).tobytes()
                == clipped_formula(policy, t, w[0], z[0]).tobytes())


def frozen_policies():
    """Two fixed rate tables, one on uneven and one on even t nodes, with
    values that integer arithmetic makes exact on every platform."""
    policies = []
    for t_nodes, n_w, n_z, w_max, z_max in (
            (np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.62, 0.8, 0.9, 1.0]),
             21, 17, 6.0, 7.5),
            (np.linspace(0.0, 1.0, 5), 11, 13, 4.0, 5.0)):
        size = len(t_nodes) * n_w * n_z
        table = np.arange(size) * 7919 % 1009 / 1009 * 6.0 - 3.0
        policies.append(FeedbackPolicy(
            t_nodes, np.linspace(-w_max, w_max, n_w),
            np.linspace(-z_max, z_max, n_z),
            table.reshape(len(t_nodes), n_w, n_z), (-2.0, 2.5)))
    return policies


def frozen_queries(policy):
    """Times on, between and beyond the t nodes; for each, array, broadcast
    and scalar queries inside and up to 30 % beyond the (w, z) grid."""
    mid = 0.5 * (policy.t_nodes[1:] + policy.t_nodes[:-1])
    times = np.concatenate([policy.t_nodes, mid, [-0.1, 1.2],
                            np.linspace(-0.05, 1.05, 23)])
    w_max, z_max = policy.w_nodes[-1], policy.z_nodes[-1]
    w = np.linspace(-1.3 * w_max, 1.3 * w_max, 157)
    z = np.linspace(1.3 * z_max, -1.3 * z_max, 157)
    for t in times:
        for query in ((w, z), (w[::10, None], z[::20]), (w[3], z[100]),
                      (w_max, -z_max)):
            yield t, query


def test_policy_lookup_is_frozen():
    # taken when the lookup blended whole time planes, before model._blend;
    # any change to the lookup's float operations or their order moves it
    digest = hashlib.sha256()
    for policy in frozen_policies():
        for t, query in frozen_queries(policy):
            out = policy(t, *query)
            digest.update(str(np.shape(out)).encode())
            digest.update(np.asarray(out).tobytes())
    assert digest.hexdigest() == ("f5bb164bc897135e9fc8a5b480d0083c"
                                  "eb07ad3cb605108405d99fda2ad979c7")


def test_policy_is_interpolate_over_w_z_t():
    # both blend the same corners in the same order; they differ only where
    # a point lies on a cell boundary, which locate's search and the
    # policy's arithmetic can put in neighbouring cells with fractions an
    # ulp from 1 and 0 (4.9e-15 at most here, at 68 of 21,812 points)
    for policy in frozen_policies():
        axes = (policy.w_nodes, policy.z_nodes, policy.t_nodes)
        table = policy.table.transpose(1, 2, 0)
        for t, (w, z) in frozen_queries(policy):
            expected = np.clip(interpolate(axes, table, w, z, t),
                               *policy.bounds)
            np.testing.assert_allclose(policy(t, w, z), expected,
                                       rtol=0.0, atol=1e-14)


@settings(deadline=None, max_examples=50)
@given(st.floats(-20, 20), st.floats(-10, 10), st.floats(-10, 10),
       st.floats(0, 1))
def test_policy_always_within_bounds(value, w, z, t):
    policy = one_value_policy(value, (-1.5, 2.5))
    rate = float(policy(t, w, z))
    assert -1.5 <= rate <= 2.5


def residuals(bounds, w, rate):
    # b + A nu at nu = (W, pi, 0): the rows of b dt + A dX at dt = 1, dX = nu
    return np.array(constraint_rows(w, rate, 0.0, w, 1.0, *bounds))


def test_constraint_rows_example():
    rows = residuals((-10.0, 10.0), 0.3, 2.0)
    assert np.allclose(rows, [0.0, 0.0, 0.0, 0.0, -8.0, -12.0])


def test_constraint_rows_boundary_rate():
    rows = residuals((-1.0, 1.0), 0.5, 1.0)
    assert rows[4] == pytest.approx(0.0)
    assert np.all(rows <= 1e-14)


@settings(deadline=None, max_examples=50)
@given(st.floats(-5, 5), st.floats(-0.9, 0.9))
def test_first_four_rows_vanish_for_any_state(w, rate):
    # rows 1-4 cancel identically at nu = (W, pi, 0); admissibility is
    # decided by the rate rows alone
    rows = residuals((-1.0, 1.0), w, rate)
    assert np.allclose(rows[:4], 0.0)
    assert np.all(rows <= 0)
