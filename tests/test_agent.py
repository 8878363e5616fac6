import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from brokerfee import agent, simulate
from brokerfee.agent import estimate_agent_value, solve_hjb
from brokerfee.contracts import Constant, LinearPolynomial, LipschitzTable
from brokerfee.model import FeedbackPolicy, ModelParams, zeta_integral
from brokerfee.rng import split_seed

import path_reference
from solver_constants import hjb_grid

WIDE = ModelParams(rate_lower=-100.0, rate_upper=100.0)

# smaller grid than the acceptance instance; enough for the closed form
FAST = dict(n_w=101, n_z=101)


@pytest.fixture(scope="module")
def zero_fee_solution():
    with hjb_grid(**FAST):
        return solve_hjb(Constant(0.0), WIDE)


def test_closed_form_value(zero_fee_solution):
    _, grid = zero_fee_solution
    assert grid.value_at_origin == pytest.approx(1.0 / 24.0, rel=0.01)


def test_closed_form_policy(zero_fee_solution):
    policy, _ = zero_fee_solution
    t = policy.t_nodes
    w = policy.w_nodes
    inner = slice(len(w) // 10, len(w) - len(w) // 10)
    approx = np.array([policy(s, w[inner], 0.0) for s in t])
    exact = w[inner] * (1.0 - t[:, None])
    assert np.max(np.abs(approx - exact)) <= 0.02 * np.max(np.abs(exact))


def test_constant_fee_shifts_value(zero_fee_solution):
    _, grid0 = zero_fee_solution
    with hjb_grid(**FAST):
        _, grid_c = solve_hjb(Constant(0.25), WIDE)
    shift = grid0.value_at_origin - grid_c.value_at_origin
    assert shift == pytest.approx(0.25, abs=1e-10)


def test_forced_zero_rate():
    params = ModelParams(rate_lower=0.0, rate_upper=0.0)
    with hjb_grid(**FAST):
        policy, grid = solve_hjb(Constant(0.4), params)
    assert np.all(policy.table == 0.0)
    # no trading: value reduces to minus the fee
    assert grid.value_at_origin == pytest.approx(-0.4, abs=2e-3)


def test_mc_agrees_with_grid(zero_fee_solution):
    policy, grid = zero_fee_solution
    value, se = estimate_agent_value(Constant(0.0), policy,
                                     replace(WIDE, n_paths=20_000), 5)
    tol = max(0.01 * abs(grid.value_at_origin), 3 * se)
    assert abs(value - grid.value_at_origin) <= tol


def _known_defect(item, detail):
    return pytest.mark.xfail(reason=f"ROADMAP {item}: {detail}")


# one case per fee class the grid solver accepts, on the default grids and
# model at 20,000 paths. Every case draws the stream that `brokerfee agent`
# draws at the model's default seed, so each outcome is the same on every
# run; over random seeds the two cases that pass would raise at least one
# false alarm with probability 1 - (1 - 0.0027)^2 = 0.54 %. A known defect
# is a strict xfail that names the ROADMAP item that owns it
FEE_CLASSES = [
    pytest.param(Constant(0.0), ModelParams(), id="constant-zero"),
    pytest.param(LipschitzTable([-1.0, 1.0], [-0.5, 0.0, 0.5],
                                [[0.3, -0.2, 0.3]] * 2, 1.0),
                 ModelParams(), id="z-only-table",
                 marks=_known_defect("items 11 and 18", "first-order upwind "
                                     "slopes undervalue a kinked fee")),
    # item 1 puts the grid 0.0036 above this policy's value (200,000
    # paths at another seed), 2.5 SE at 20,000 paths: too little to show
    # at this stream, where it reads 1.5 SE
    pytest.param(LinearPolynomial([[0.1]], 1.0), ModelParams(),
                 id="degree-1-a=0.1"),
    pytest.param(LinearPolynomial([[1.0]], 1.0), ModelParams(),
                 id="degree-1-a=1",
                 marks=_known_defect("item 1", "the policy keeps the rates "
                                     "of the central p plane only")),
    pytest.param(LipschitzTable([-1.0, 1.0], [-1.0, 1.0],
                                [[0.94, -0.45], [-0.86, 0.57]], 1.0),
                 ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=50),
                 id="p-z-table",
                 marks=_known_defect("item 1", "the policy keeps the rates "
                                     "of the central p plane only")),
]


@pytest.mark.parametrize("contract, params", FEE_CLASSES)
def test_grid_value_is_earned_by_the_returned_policy(contract, params):
    # criterion 4's rule for every fee class: the grid value is within
    # max(1 %, 3 SE) of the Monte Carlo value of the policy it returns
    policy, grid = solve_hjb(contract, params)
    value, se = estimate_agent_value(
        contract, policy, replace(params, n_paths=20_000),
        split_seed(params.seed, "agent-mc"))
    tol = max(0.01 * abs(grid.value_at_origin), 3 * se)
    assert abs(value - grid.value_at_origin) <= tol


def test_default_settings_error(zero_fee_solution):
    # fourth order in time at six times the Euler monotonicity bound, on
    # a value that is a quartic in t: exact up to rounding, about 7e-12 off
    _, grid = zero_fee_solution
    assert abs(grid.value_at_origin - 1.0 / 24.0) <= 1e-10


def test_time_stepping_is_exact_on_the_zero_fee():
    # the zero-fee value is linear in z, quadratic in w and a quartic in
    # t; the differences resolve the first two exactly away from the
    # edges and a fourth-order step the third, so at CFL steps of 1/7,
    # 1/20 and 1/63 every grid reads 1/24 up to rounding
    for n in (51, 101, 201):
        with hjb_grid(n_w=n, n_z=n):
            _, grid = solve_hjb(Constant(0.0), WIDE)
        assert abs(grid.value_at_origin - 1.0 / 24.0) <= 1e-10


def test_linear_quadratic_reference_value():
    # fee a P_T Z_T with non-binding bounds is linear-quadratic in
    # (p, w, z); its Riccati solution gives V = 1/24 - a/8 + 3 a^2 / 8.
    # The p differences set the error: 1.8e-4 relative at a = 0.1 and
    # 2.0e-3 at a = 1 (upwinding w V_p alone gave 0.74 % and 8.4 %)
    for a, rel in ((0.1, 5e-4), (1.0, 5e-3)):
        _, grid = solve_hjb(LinearPolynomial(np.array([[a]]), cap=1.0),
                            ModelParams())
        exact = 1.0 / 24.0 - a / 8.0 + 3.0 * a**2 / 8.0
        assert grid.value_at_origin == pytest.approx(exact, rel=rel)


def test_time_step_is_the_cfl_step(zero_fee_solution):
    # the Euler bound of the 101 x 101 grid; every SSP(10,4) stage is an
    # Euler step of dt / 6, so the step is the longest that divides T
    # within six times the bound
    policy, _ = zero_fee_solution
    _, w_max, z_max = agent._half_widths(WIDE, WIDE.horizon)
    dw, dz = 2.0 * w_max / 100, 2.0 * z_max / 100
    euler = 1.0 / (WIDE.epsilon**2 / dz**2 + 1.0 / dw**2
                   + WIDE.rate_upper / dz)
    n_t = int(np.ceil(WIDE.horizon / (6.0 * euler)))
    # every step boundary is saved
    assert n_t == 20 == len(policy.t_nodes) - 1
    assert np.allclose(np.diff(policy.t_nodes), WIDE.horizon / n_t,
                       rtol=1e-12, atol=0.0)


def test_zeta_quadrature():
    params = ModelParams(n_steps=4)
    w = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    z = np.array([0.0, 0.0, 2.0, 2.0, 2.0])
    coef = params.epsilon**2 * params.phi_a / params.sigma**2
    expected = (coef * np.sum(w[:-1] ** 2) + np.sum(z[:-1] * w[:-1])) * 0.25
    assert zeta_integral(z, w, params.dt, params) == pytest.approx(expected)
    # batched over leading axes: one value per path
    batch = zeta_integral(np.stack([z, -z, z]), np.stack([w, w, 0 * w]),
                          params.dt, params)
    assert batch.shape == (3,)
    assert batch[0] == pytest.approx(expected)
    assert batch[1] == pytest.approx(expected - 2 * 4.0 * 0.25)
    assert batch[2] == 0.0


def test_objective_forms_agree():
    # E^W[M (-xi - lambda log M + zeta)] and E^Q[pathwise] estimate the
    # same value
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=100,
                         n_paths=40_000)
    contract = Constant(0.1)
    # the controlled side holds the rate 0.5 in a table of one value
    nodes = np.array([-1.0, 1.0])
    policy = FeedbackPolicy(np.array([0.0, params.horizon]), nodes, nodes,
                            np.full((2, 2, 2), 0.5), (-1.0, 1.0))

    v_q, se_q = estimate_agent_value(contract, policy, params, 11)

    # the objective reads the paths: they are built whole from the draws
    # that the library weights, row for row
    reference = path_reference.reference_paths(params, 40_000, 12)
    weights = simulate.weighted_reference(params, 0.5, 12)
    xi = contract.terminal_payoff(reference.p[:, -1], reference.z[:, -1])
    zeta = zeta_integral(reference.z, reference.w, params.dt, params)
    v_w, se_w = simulate.mean_se(
        weights.m * (-xi - params.entropy_weight * weights.log_m + zeta))
    assert abs(v_q - v_w) <= 3 * np.hypot(se_q, se_w)


def test_table_contract_through_grid_solver():
    nodes = np.linspace(-4.0, 4.0, 9)
    values = np.clip(0.25 * nodes[None, :] + 0 * nodes[:, None], -1, 1)
    fee = LipschitzTable(nodes, nodes, values, cap=1.0)
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0)
    with hjb_grid(n_w=61, n_z=61):
        policy, grid = solve_hjb(fee, params)
    assert np.isfinite(grid.value_at_origin)


@pytest.mark.parametrize("step, on_3d_grid", [(0.0, False), (1e-9, True)])
def test_fee_unequal_in_p_gets_the_3d_grid(step, on_3d_grid):
    # rows 1e-9 apart used to be solved on the 2-D grid from the row at
    # p = -p_max, 0.15 at z = 0, where the fee is 0.1500000005 at the origin
    values = np.array([[0.1, 0.2], [0.1 + step, 0.2 + step]])
    fee = LipschitzTable(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]),
                         values, cap=1.0)
    with hjb_grid(n_p=9, n_w=21, n_z=21):
        _, grid = solve_hjb(fee, BOUNDED)
    assert (grid.p_nodes is not None) == on_3d_grid
    assert grid.values.shape == (9,) * on_3d_grid + (21, 21)


# --- the sweep against a plain per-term explicit step -------------------

def _upwind_advection(v, speed, dx, axis):
    """speed * dV/dx with the difference chosen by the sign of speed."""
    d = np.diff(v, axis=axis) / dx
    first = np.take(d, [0], axis=axis)
    last = np.take(d, [-1], axis=axis)
    fwd = np.concatenate([d, last], axis=axis)
    bwd = np.concatenate([first, d], axis=axis)
    return np.maximum(speed, 0.0) * fwd + np.minimum(speed, 0.0) * bwd


def _second_diff(v, dx, axis):
    """Central second difference, zero at the boundary slices."""
    out = np.zeros_like(v)
    inner = [slice(None)] * v.ndim
    inner[axis] = slice(1, -1)
    d = np.diff(v, n=2, axis=axis) / dx**2
    out[tuple(inner)] = d
    return out


def _reference_rate(v, params, dz):
    vz = np.gradient(v, dz, axis=-1)
    return np.clip(vz / (2 * params.phi_a), params.rate_lower,
                   params.rate_upper)


def _price_advection(v, w, dp, sigma):
    """w dV/dp on (n_p, n_w, n_z): central on the w rows where the cell
    Peclet number |w| dp / sigma^2 is at most 1, upwind on the others, and
    the one-sided difference on the edge planes either way."""
    upwind = _upwind_advection(v, w, dp, axis=0)
    d = np.diff(v, axis=0) / dp
    below, above = np.concatenate([d[:1], d]), np.concatenate([d, d[-1:]])
    central = w * (below + above) / 2
    return np.where(np.abs(w) * dp <= sigma**2, central, upwind)


def _reference_step(v, dt, params, w_nodes, z_nodes, p_nodes=None):
    """One explicit Euler step, a stage of the scheme's SSP(10,4) step, on
    (n_w, n_z), or (n_p, n_w, n_z) for a price-dependent fee, one numpy
    expression per term."""
    dw = w_nodes[1] - w_nodes[0]
    dz = z_nodes[1] - z_nodes[0]
    w = w_nodes[:, None]
    pi = _reference_rate(v, params, dz)
    rhs = (w * z_nodes[None, :]
           + _upwind_advection(v, pi, dz, axis=-1)
           - params.phi_a * pi**2
           + 0.5 * params.epsilon**2 * _second_diff(v, dz, axis=-1)
           + 0.5 * _second_diff(v, dw, axis=-2))
    if p_nodes is not None:
        dp = p_nodes[1] - p_nodes[0]
        rhs = rhs + (_price_advection(v, w[None], dp, params.sigma)
                     + 0.5 * params.sigma**2 * _second_diff(v, dp, axis=0))
    return v + dt * rhs


BOUNDED = ModelParams(rate_lower=-1.0, rate_upper=1.0)


def _table_fee():
    # constant in p, so the solve takes a single p plane; curved in z, so
    # the upwind differences on either side of a node differ
    nodes = np.linspace(-4.0, 4.0, 9)
    values = 0.05 * nodes[None, :]**2 + 0 * nodes[:, None]
    return LipschitzTable(nodes, nodes, values, cap=1.0)


# each fee with the grid it is solved on: 4 steps in 2-D and 5 in 3-D
SWEEP_CASES = {
    "2d": (_table_fee(), dict(n_w=41, n_z=41)),
    # xi = 0.5 P Z + 0.05 P Z^2 + 0.05 P^2 Z^2: V_z takes both signs and
    # passes the rate bounds, and V is curved in z and p
    "3d": (LinearPolynomial(np.array([[0.5, 0.05], [0.0, 0.05]]), cap=1.0),
           dict(n_p=9, n_w=41, n_z=41)),
}


def _solve_case(case):
    fee, shape = SWEEP_CASES[case]
    with hjb_grid(**shape):
        return solve_hjb(fee, BOUNDED)


def _box(params, grid, t):
    """The cells the step from t updates, one slice per axis of the grid
    ((p,) w, z): those within 6 sd of the origin's reach plus a margin,
    two planes on p and three cells on w and z."""
    rate_bound = max(abs(params.rate_lower), abs(params.rate_upper))
    reach = {"p": 6.0 * np.sqrt(params.sigma**2 * t + t**3 / 3.0),
             "w": 6.0 * np.sqrt(t),
             "z": 6.0 * params.epsilon * np.sqrt(t) + rate_bound * t}
    box = []
    for axis, cells in (("p", 2), ("w", 3), ("z", 3)):
        nodes = getattr(grid, f"{axis}_nodes")
        if nodes is not None:
            margin = cells * (nodes[1] - nodes[0])
            inside = np.flatnonzero(np.abs(nodes) <= reach[axis] + margin)
            box.append(slice(inside[0], inside[-1] + 1))
    return tuple(box)


def _spy_saved_values(monkeypatch):
    """A list that gets a copy of all of V at each saved step of the next
    solves, from t = T down to t = 0: the argument of the extension along
    p, the last of a saved step, is the whole of V."""
    saved = []
    extend = agent._extend_linearly

    def spy(v, lo, hi, axis):
        extend(v, lo, hi, axis)
        if axis == 0:
            saved.append(v.copy())

    monkeypatch.setattr(agent, "_extend_linearly", spy)
    return saved


def _terminal_slice(fee, grid):
    """-xi on the grid's ((p,) w, z) nodes, read off the fee itself; a fee
    solved on the 2-D grid is read at p = 0."""
    n_w = len(grid.w_nodes)
    if grid.p_nodes is None:
        xi = fee.terminal_payoff(np.zeros_like(grid.z_nodes), grid.z_nodes)
        return np.repeat(-xi[None, :], n_w, axis=0)
    pp, zz = np.meshgrid(grid.p_nodes, grid.z_nodes, indexing="ij")
    return np.repeat(-fee.terminal_payoff(pp, zz)[:, None, :], n_w, axis=1)


def _extend(v, box):
    """``v`` with each cell outside ``box`` on the line through the two
    edge cells of the box on its side: along z inside the box's (p and) w
    ranges, then along w inside its p range, then along p."""
    out = v.copy()
    for axis in reversed(range(v.ndim)):
        u = np.moveaxis(out[box[:axis]], axis, 0)
        lo, hi = box[axis].start, box[axis].stop
        for j in range(lo):
            u[j] = u[lo] + (j - lo) * (u[lo + 1] - u[lo])
        for j in range(hi, len(u)):
            u[j] = u[hi - 1] + (j - hi + 1) * (u[hi - 1] - u[hi - 2])
    return out


# slabs of 1, 2, 4 (9 = 4 + 4 + 1 leaves a short last slab) and 9 p planes
@pytest.mark.parametrize("case, planes", [("2d", 1), ("3d", 1), ("3d", 2),
                                          ("3d", 4), ("3d", 9)])
def test_sweep_matches_reference_step(case, planes, monkeypatch):
    fee, shape = SWEEP_CASES[case]
    monkeypatch.setattr(agent, "_SLAB_CELLS",
                        planes * shape["n_w"] * shape["n_z"])
    saved_values = _spy_saved_values(monkeypatch)
    policy, grid = _solve_case(case)

    # few enough steps that every step boundary is saved; V is saved from
    # t = T down, and the sweep ends on V at t = 0
    n_t = len(policy.t_nodes) - 1
    dt = BOUNDED.horizon / n_t
    steps = np.rint(policy.t_nodes / dt).astype(int)
    assert len(saved_values) == len(steps)
    v = _terminal_slice(fee, grid)
    saved_values = [s.reshape(v.shape) for s in saved_values]
    assert grid.values.tobytes() == saved_values[-1].tobytes()
    saved = dict(zip(steps[::-1], zip(saved_values, policy.table[::-1])))
    assert sorted(saved) == list(range(n_t + 1))
    price = grid.p_nodes is not None
    # the step from t_(k+1) updates the box of that time, with each axis's
    # boundary rule on the edge slices of the box; a saved slice extends
    # the box linearly beyond it
    box = tuple(slice(0, n) for n in v.shape)
    widths = []

    def euler_stages(u, stages):
        w_nodes, z_nodes = grid.w_nodes[box[-2]], grid.z_nodes[box[-1]]
        p_nodes = grid.p_nodes[box[0]] if price else None
        for _ in range(stages):
            u = _reference_step(u, dt / 6, BOUNDED, w_nodes, z_nodes, p_nodes)
        return u

    for k in range(n_t, -1, -1):
        if k < n_t:
            box = _box(BOUNDED, grid, (k + 1) * dt)
            widths.append([cut.stop - cut.start for cut in box])
            # SSP(10,4) built from ten Euler stages of dt / 6
            q1 = euler_stages(v[box], 5)
            q2 = (v[box] + 9 * q1) / 25
            q1 = euler_stages(15 * q2 - 5 * q1, 4)
            v = v.copy()
            v[box] = q2 + 3 / 5 * euler_stages(q1, 1)
        if k in saved:
            values, rates = saved[k]
            v = _extend(v, box)
            scale = np.max(np.abs(v))
            assert np.max(np.abs(values - v)) <= 1e-12 * scale
            ref_rates = _reference_rate(v, BOUNDED, grid.z_nodes[1]
                                        - grid.z_nodes[0])
            if grid.p_nodes is not None:
                ref_rates = ref_rates[len(grid.p_nodes) // 2]
            assert np.max(np.abs(rates - ref_rates)) <= 1e-12
    # the clamp binds and the rate takes both signs somewhere on the grid
    assert policy.table.min() == -1.0 and policy.table.max() == 1.0
    # the box narrows on every axis; in 3-D from all 9 p planes to 7
    widths = np.array(widths)
    assert np.all(widths[0] == v.shape)
    assert np.all(widths[-1] < v.shape)
    if price:
        assert set(widths[:, 0]) == {9, 7}


def test_price_dependent_terminal_slice_is_the_fee(monkeypatch):
    fee, _ = SWEEP_CASES["3d"]
    saved = _spy_saved_values(monkeypatch)
    _, grid = _solve_case("3d")
    assert grid.values.shape == saved[0].shape == (9, 41, 41)
    assert np.array_equal(saved[0], _terminal_slice(fee, grid))


def _march_every_plane(monkeypatch):
    """Make the sweep march every p plane of the 3-D grid for every
    polynomial, the zero polynomial included."""
    monkeypatch.setattr(LinearPolynomial, "reads_price", True)


def test_zero_polynomial_keeps_p_planes_identical(monkeypatch):
    # the w and z axes of FAST: a 21 x 21 grid is 6 % off the closed form;
    # all 9 planes are marched, so their equality is the sweep's
    fee = LinearPolynomial(np.zeros((1, 1)), cap=1.0)
    _march_every_plane(monkeypatch)
    with hjb_grid(n_p=9, **FAST):
        _, grid = solve_hjb(fee, WIDE)
    assert grid.p_nodes is not None
    assert np.all(grid.values == grid.values[:1])
    assert grid.value_at_origin == pytest.approx(1.0 / 24.0, rel=0.01)


# a 3 x 3 table with nodes inside the cone, curved in both p and z
CONE_TABLE = LipschitzTable(np.array([-2.0, 0.0, 2.0]),
                            np.array([-1.0, 0.0, 1.0]),
                            np.array([[0.5, 0.0, -0.5], [0.0, 0.2, 0.0],
                                      [-0.5, 0.0, 0.5]]), cap=1.0)
# the default p axis: the cone's effect grows as dp does; 4.1e-8 at 31
# planes for a = 1
CONE_GRID = dict(n_p=31, n_w=31, n_z=31)


def test_price_axis_self_converges():
    # the table is kinked at its nodes, so no difference scheme is exact on
    # it: refining p from 61 to 121 planes moves the value by at most half
    # of what refining from 31 to 61 does (a quarter with w V_p central
    # where monotone; 0.82 when it was upwinded everywhere)
    values = []
    for n_p in (31, 61, 121):
        with hjb_grid(n_p=n_p, n_w=51, n_z=51):
            values.append(solve_hjb(CONE_TABLE, ModelParams())[1]
                          .value_at_origin)
    assert (abs(values[2] - values[1])
            <= 0.5 * abs(values[1] - values[0]))


def _full_width(monkeypatch, axes=(0, 1, 2)):
    """Make the box span the whole grid on ``axes`` (0 p, 1 w, 2 z) at
    every step."""
    half_widths = agent._half_widths

    def widths(params, t):
        at_t, at_end = half_widths(params, t), half_widths(params,
                                                           params.horizon)
        return tuple(at_end[i] if i in axes else at_t[i] for i in range(3))

    monkeypatch.setattr(agent, "_half_widths", widths)


@pytest.mark.parametrize("fee, grid, bound", [
    (LinearPolynomial(np.array([[0.05]]), cap=1.0), CONE_GRID, 1e-6),
    (LinearPolynomial(np.array([[1.0]]), cap=1.0), CONE_GRID, 1e-6),
    (LinearPolynomial(np.array([[0.5, 0.05], [0.0, 0.05]]), cap=1.0),
     CONE_GRID, 1e-6),
    (CONE_TABLE, CONE_GRID, 1e-6),
    (LinearPolynomial(np.array([[1.0]]), cap=1.0), {}, 1e-6),
], ids=["a=0.05", "a=1", "degree-2", "table", "a=1-default-grid"])
def test_cone_keeps_value_at_origin(fee, grid, bound, monkeypatch):
    # with two planes of p margin, 4.4e-8 relative at most on 31^3 (one
    # plane gave 5.3e-7); on the default grid's finer w and z axes, whose
    # shorter step leaves fewer p planes in the last boxes, 4.1e-7 at
    # a = 1 and 8.4e-9 at a = 0.05 (one plane gave 1.19e-5 and 2.4e-7)
    with hjb_grid(**grid):
        cone = solve_hjb(fee, ModelParams())[1]
        _full_width(monkeypatch)
        full = solve_hjb(fee, ModelParams())[1]
    assert cone.values.shape == full.values.shape
    assert np.all(np.isfinite(cone.values))
    assert (abs(cone.value_at_origin - full.value_at_origin)
            <= bound * abs(full.value_at_origin))


def test_full_march_memory_is_bounded():
    # the traced peak of one 31 x 31 x 31 march, in full grids of 238 KB:
    # 11.23 for V, its two stage targets, the step kernel's buffers (here
    # one slab holds every plane) and the rate table; a value history of
    # the 7 saved times would add 7 more grids
    with hjb_grid(**CONE_GRID):
        solve_hjb(CONE_TABLE, ModelParams())
        tracemalloc.start()
        try:
            solve_hjb(CONE_TABLE, ModelParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 13 * 8 * np.prod(list(CONE_GRID.values()))


def test_one_plane_march_equals_full_march(monkeypatch):
    # the zero polynomial is equal on every p plane: one marched plane
    # stands for all 31, bit for bit, signed zeros included
    fee = LinearPolynomial(np.zeros((1, 1)), cap=1.0)
    planes = []
    build = agent._ExplicitStep.__init__

    def spy(self, params, dt, w_nodes, z_nodes, p_nodes=None):
        planes.append(1 if p_nodes is None else len(p_nodes))
        build(self, params, dt, w_nodes, z_nodes, p_nodes)

    monkeypatch.setattr(agent._ExplicitStep, "__init__", spy)
    with hjb_grid(**CONE_GRID):
        policy, one = solve_hjb(fee, ModelParams())
        _march_every_plane(monkeypatch)
        full_policy, full = solve_hjb(fee, ModelParams())
    assert planes == [1, 31]
    assert np.array_equal(one.p_nodes, full.p_nodes)
    assert np.array_equal(policy.t_nodes, full_policy.t_nodes)
    assert one.values.shape == full.values.shape == (31, 31, 31)
    assert one.values.tobytes() == full.values.tobytes()
    assert policy.table.tobytes() == full_policy.table.tobytes()
    assert one.value_at_origin == full.value_at_origin


def test_table_beyond_the_p_axis_marches_every_plane(monkeypatch):
    # a table that reads the price takes every p plane of the 3-D grid,
    # also when all its p nodes lie beyond the grid's p_max, where every
    # plane reads its first row and the planes stay equal
    fee = LipschitzTable(np.array([10.0, 11.0]), np.array([-1.0, 1.0]),
                         np.array([[0.1, -0.1], [0.2, 0.0]]), cap=1.0)
    planes = []
    build = agent._ExplicitStep.__init__

    def spy(self, params, dt, w_nodes, z_nodes, p_nodes=None):
        planes.append(1 if p_nodes is None else len(p_nodes))
        build(self, params, dt, w_nodes, z_nodes, p_nodes)

    monkeypatch.setattr(agent._ExplicitStep, "__init__", spy)
    with hjb_grid(n_p=9, n_w=21, n_z=21):
        _, grid = solve_hjb(fee, BOUNDED)
    assert fee.reads_price and planes == [9]
    assert grid.p_nodes[-1] < fee.p_nodes[0]
    assert np.all(grid.values == grid.values[:1])


def test_cone_keeps_zero_polynomial_bit_identical(monkeypatch):
    # on the full march the p planes stay identical, so cutting p alone
    # changes no bit
    fee = LinearPolynomial(np.zeros((1, 1)), cap=1.0)
    _march_every_plane(monkeypatch)
    with hjb_grid(**CONE_GRID):
        policy, cone = solve_hjb(fee, WIDE)
        _full_width(monkeypatch, axes=(0,))
        full_policy, full = solve_hjb(fee, WIDE)
    assert cone.value_at_origin == full.value_at_origin
    assert cone.values.tobytes() == full.values.tobytes()
    assert policy.table.tobytes() == full_policy.table.tobytes()
    assert np.all(cone.values == cone.values[:1])


def test_box_keeps_2d_value_at_origin(monkeypatch):
    # the zero fee on the default 2-D grid, cut on w and z
    box = solve_hjb(Constant(0.0), ModelParams())[1]
    _full_width(monkeypatch)
    full = solve_hjb(Constant(0.0), ModelParams())[1]
    assert box.values.shape == full.values.shape
    assert (abs(box.value_at_origin - full.value_at_origin)
            <= 1e-8 * abs(full.value_at_origin))


def test_sweep_is_bit_reproducible():
    first = _solve_case("3d")
    second = _solve_case("3d")
    assert first[1].values.tobytes() == second[1].values.tobytes()
    assert first[0].table.tobytes() == second[0].table.tobytes()


def _force_groups(monkeypatch, n_groups):
    """Slabs of 2 p planes of the 3-D sweep case, cut into ``n_groups``
    worker groups whatever the number of CPUs."""
    _, shape = SWEEP_CASES["3d"]
    monkeypatch.setattr(agent, "_SLAB_CELLS", 2 * shape["n_w"] * shape["n_z"])
    monkeypatch.setattr(agent, "usable_cpus", lambda: n_groups)


def test_sweep_does_not_depend_on_group_count(monkeypatch):
    # 9 planes in slabs of 2: 3 groups are more than a 2-core machine has,
    # and every group but the first of 2 ends on a short 1-plane slab
    _, shape = SWEEP_CASES["3d"]
    layouts = {1: [[(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]],
               2: [[(0, 2), (2, 4)], [(4, 6), (6, 8), (8, 9)]],
               3: [[(0, 2), (2, 3)], [(3, 5), (5, 6)], [(6, 8), (8, 9)]]}
    nodes = np.linspace(-1.0, 1.0, shape["n_w"])
    p_nodes = np.linspace(-1.0, 1.0, shape["n_p"])
    solves = []
    # a short switch interval interleaves the workers as often as it can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n_groups, layout in layouts.items():
            _force_groups(monkeypatch, n_groups)
            step = agent._ExplicitStep(BOUNDED, 0.01, nodes, nodes, p_nodes)
            assert step.groups == layout
            solves.append(_solve_case("3d"))
    finally:
        sys.setswitchinterval(interval)
    policy, grid = solves[0]
    for other_policy, other_grid in solves[1:]:
        assert other_grid.values.tobytes() == grid.values.tobytes()
        assert other_policy.table.tobytes() == policy.table.tobytes()


def test_sweep_without_sched_getaffinity(monkeypatch):
    # the CPU count falls back to os.cpu_count() where the OS has no
    # affinity mask (macOS, Windows); the values do not change
    _, shape = SWEEP_CASES["3d"]
    monkeypatch.setattr(agent, "_SLAB_CELLS", shape["n_w"] * shape["n_z"])
    expected = _solve_case("3d")[1].values
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    _, grid = _solve_case("3d")
    assert grid.values.tobytes() == expected.tobytes()


def test_sweep_leaves_no_thread(monkeypatch):
    _force_groups(monkeypatch, 2)
    workers = set()
    sweep = agent._ExplicitStep._sweep

    def spy(self, *args):
        workers.add(threading.get_ident())
        sweep(self, *args)

    monkeypatch.setattr(agent._ExplicitStep, "_sweep", spy)
    before = threading.active_count()
    _solve_case("3d")
    # the groups ran on pool threads while the box spanned several slabs
    # (inline once it fits in one), and the pool is gone with the solve
    assert workers - {threading.get_ident()}
    assert threading.active_count() == before
