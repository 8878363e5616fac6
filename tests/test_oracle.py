import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as sp_minimize
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

import relaxed_control
from solver_constants import strong_tol
from brokerfee import oracle
from brokerfee.contracts import Constant, LinearPolynomial
from brokerfee.model import ROW_NAMES, ModelParams, constraint_rows
from brokerfee.rng import split_seed, uniforms

PARAMS = ModelParams(epsilon=0.5)


def price_step_tree():
    """The depth-1 binomial tree and u = sign of the price step: half the
    atoms at u = 1 and half at u = -1, the two-atom problem with u = +-1
    spread over 8 atoms."""
    tree = oracle.build_tree(1, 2, ModelParams())
    return tree, np.sign(tree.paths[:, 1, 0])


def brute_force_two_atom(u, lam):
    """Grid-plus-refine maximizer over m1 in (0, 2), m2 = 2 - m1."""
    def neg_objective(m1):
        m2 = 2.0 - m1
        return -(0.5 * (m1 * u[0] + m2 * u[1])
                 - 0.5 * lam * (m1 * np.log(m1) + m2 * np.log(m2)))

    grid = np.linspace(1e-6, 2.0 - 1e-6, 2001)
    best = grid[np.argmin([neg_objective(m) for m in grid])]
    lo = max(best - 2e-3, 1e-9)
    hi = min(best + 2e-3, 2.0 - 1e-9)
    res = minimize_scalar(neg_objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return -res.fun


def test_gibbs_two_atom_closed_form():
    tree, u = price_step_tree()
    sol = oracle.solve_strong_discrete(tree, u, 1.0)
    target = np.log(np.cosh(1.0))
    assert sol.converged
    assert abs(sol.value - target) <= 1e-10
    expected_m = np.exp(u) / np.cosh(1.0)
    assert np.allclose(sol.density, expected_m, atol=1e-12)


def test_gibbs_matches_brute_force_grid():
    tree, u = price_step_tree()
    sol = oracle.solve_strong_discrete(tree, u, 1.0)
    assert abs(sol.value - brute_force_two_atom([1.0, -1.0], 1.0)) <= 1e-8


def test_constant_utility_gives_uniform_density():
    tree = oracle.build_tree(2, 2, PARAMS)
    sol = oracle.solve_strong_discrete(tree, np.full(tree.n_atoms, 0.7), 0.5)
    assert np.allclose(sol.density, 1.0, atol=1e-12)
    assert sol.value == pytest.approx(0.7, abs=1e-12)


def test_large_entropy_weight_flattens_density():
    tree, u = price_step_tree()
    sol = oracle.solve_strong_discrete(tree, u, 1e3)
    assert abs(sol.value - float(tree.probs @ u)) <= 1e-2 * np.ptp(u)


def test_tree_increment_variance_matching():
    for branching in (2, 3):
        tree = oracle.build_tree(2, branching, PARAMS)
        # per-step second moment of each channel equals scale^2 dt
        for ch, scale in enumerate((PARAMS.sigma, PARAMS.epsilon, 1.0)):
            inc = tree.combos[tree.choices][:, 0, ch]
            assert np.mean(inc**2) == pytest.approx(scale**2 * tree.dt)
            assert np.mean(inc) == pytest.approx(0.0, abs=1e-15)


def test_tree_atom_cap():
    with pytest.raises(ValueError, match="exceeds"):
        oracle.build_tree(4, 3, PARAMS)


def test_node_constraints_adapted():
    tree = oracle.build_tree(2, 2, PARAMS)
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    assert cons.n_rows == 6 * (1 + tree.n_combos)
    assert [block.shape for block in cons.blocks] == \
        [(1, 6, tree.n_combos), (tree.n_combos, 6, tree.n_combos)]


def test_uniform_density_moments_by_row():
    # m = 1 keeps the driftless base measure: the signal rows vanish and
    # the rate rows hold with slack, but the price rows need a genuine
    # tilt toward W and are violated at any node where W is nonzero
    tree = oracle.build_tree(2, 2, PARAMS)
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    moments = cons.moments(tree.probs)
    # node-major, ROW_NAMES order within a node
    for moment, name in zip(moments, ROW_NAMES * (1 + tree.n_combos)):
        if "drift_w" in name:
            assert abs(moment) <= 1e-14
        elif "rate" in name:
            assert moment <= 1e-14
    assert np.max(moments) > 0.0


def test_constrained_strong_solver_kkt():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    sol = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    assert sol.kkt_residual <= 1e-9
    moments = cons.moments(tree.probs * sol.density)
    assert np.max(moments) <= 1e-9
    unconstrained = oracle.solve_strong_discrete(tree, u, 0.25)
    assert sol.value <= unconstrained.value + 1e-12


def test_strong_solver_flags_a_solve_stopped_short():
    # the relaxed-oracle demo's instance at a tol below float64 resolution:
    # every node's Newton stalls at the rounding floor, which lies within
    # 1e3 * tol, so the solve returns before any depth reaches its step
    # cap (``iterations`` is the most batched steps of any depth),
    # unconverged
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = oracle.node_constraint_set(tree, PARAMS.rate_lower,
                                      PARAMS.rate_upper)
    with strong_tol(1e-18):
        short = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    assert short.iterations < 10_000
    assert 1e-18 < short.kkt_residual <= 1e-15
    assert not short.converged
    full = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    assert full.converged and full.kkt_residual <= 1e-12
    assert oracle.solve_strong_discrete(tree, u, 0.25).converged


def test_duality_gap_certifies_constrained_optimum():
    # D(mu) at the returned multipliers bounds every relaxed value, so a
    # gap at rounding level certifies the strong optimum; D is read here
    # on the dense forms, built atom by atom
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    sol = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    assert sol.multipliers is not None and np.any(sol.multipliers > 0)
    assert abs(sol.duality_gap) <= 1e-12
    dense = relaxed_control.dense_forms(tree, -1.0, 1.0)
    dual = 0.25 * logsumexp((u - dense.T @ sol.multipliers) / 0.25,
                            b=tree.probs)
    assert dual - sol.value == pytest.approx(sol.duality_gap, abs=1e-15)


def test_relaxed_matches_strong_on_covering_grid():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = np.tanh(tree.paths[:, -1, 0] + tree.paths[:, -1, 2])
    sol = oracle.solve_strong_discrete(tree, u, 0.5)
    value, control = oracle.solve_relaxed_discrete(tree, u, 0.5, sol)
    assert abs(value - sol.value) <= 1e-8
    assert control.is_dirac()
    assert np.allclose(relaxed_control.conditional_mean(control),
                       sol.density, atol=1e-6)


def test_relaxed_constrained_matches_dual():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    sol = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    value, control = oracle.solve_relaxed_discrete(tree, u, 0.25, sol, cons)
    assert abs(value - sol.value) <= 1e-8
    dense = relaxed_control.dense_forms(tree, -1.0, 1.0)
    assert relaxed_control.check_feasibility(tree.probs, control, dense,
                                             tol=1e-8)["feasible"]


def shared_density_grid(density):
    """The grid every atom shared before grids were per atom: 21
    log-spaced atoms and every distinct strong density of the tree, one
    row per atom."""
    row = np.unique(np.concatenate([np.geomspace(1e-3, 1e3, 21), density]))
    return np.broadcast_to(row, (len(density), len(row)))


def relaxed_instance(name):
    """(tree, u, lam, constraints, dense) of a relaxed-LP test instance:
    the library's node forms and the same forms as a dense array for the
    references (:func:`relaxed_control.dense_forms`), both None for no
    rows."""
    if name == "constrained-2":
        tree = oracle.build_tree(2, 2, PARAMS)
        u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
        lam, bounds = 0.25, (-1.0, 1.0)
    elif name == "unconstrained-2":
        tree = oracle.build_tree(2, 2, PARAMS)
        u = np.tanh(tree.paths[:, -1, 0] + tree.paths[:, -1, 2])
        return tree, u, 0.5, None, None
    else:
        # the oracle-tree benchmark instance at depth 1 and 3: zero fee,
        # default parameters
        params = ModelParams()
        tree = oracle.build_tree(int(name[-1]), 2, params)
        u = oracle.atom_utility_from_contract(tree, Constant(0.0), params)
        lam, bounds = params.entropy_weight, (params.rate_lower,
                                              params.rate_upper)
    return (tree, u, lam, oracle.node_constraint_set(tree, *bounds),
            relaxed_control.dense_forms(tree, *bounds))


@pytest.mark.parametrize("name", ["constrained-2", "unconstrained-2",
                                  "oracle-tree-1", "oracle-tree-3"])
def test_per_atom_grid_matches_shared_grid(name):
    # a grid holding each atom's strong density leaves the LP value as it
    # was on the grid shared by all atoms, with 24 columns per atom
    tree, u, lam, cons, dense = relaxed_instance(name)
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    value, control = oracle.solve_relaxed_discrete(tree, u, lam, sol, cons)
    shared = relaxed_control.solve_reference_lp(
        tree, u, lam, shared_density_grid(sol.density), dense)
    assert shared.success
    assert abs(value - -shared.fun) <= 1e-12
    assert control.atoms.shape == (tree.n_atoms, 24)
    assert control.is_dirac()
    assert np.allclose(relaxed_control.conditional_mean(control),
                       sol.density, rtol=0, atol=1e-9)


@pytest.mark.parametrize("lam", [0.3, 0.5])
def test_per_atom_grid_outscores_a_wrong_density(lam):
    # the strong solution at another entropy weight must not certify its
    # density at weight 0.25: the bound its multipliers give stays above
    # that density's value, by 1.5e-3 (0.3) and 3.5e-2 (0.5)
    tree = oracle.build_tree(3, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    wrong = oracle.solve_strong_discrete(tree, u, lam, cons)
    value, _ = oracle.solve_relaxed_discrete(tree, u, 0.25, wrong, cons)
    primal = relaxed_control.objective(
        tree.probs, relaxed_control.dirac(wrong.density), u, 0.25)
    assert value - primal > 1e-8


def test_certificate_bounds_the_lp_at_any_multipliers():
    # weak duality: the bound holds for any mu >= 0, however found; the
    # strong solve's mu makes it tight, and others only widen it
    tree, u, lam, cons, dense = relaxed_instance("constrained-2")
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    value, control = oracle.solve_relaxed_discrete(tree, u, lam, sol, cons)
    reference = relaxed_control.solve_reference_lp(tree, u, lam,
                                                   control.atoms, dense)
    assert reference.success
    assert abs(value - -reference.fun) <= 1e-12
    shifts = uniforms(split_seed(3, "certificate-mu"), (2, cons.n_rows))
    for mu in (np.zeros_like(sol.multipliers),
               sol.multipliers + 0.1 * shifts[0], sol.multipliers + shifts[1]):
        bound, _ = oracle.solve_relaxed_discrete(
            tree, u, lam, replace(sol, multipliers=mu), cons)
        assert bound >= -reference.fun - 1e-12


def test_certificate_splits_a_tie_over_equal_values():
    # u = 0 makes the uniform density optimal, and the grid holds its
    # value 1 twice: the two copies tie and share the row's weight
    tree, _ = price_step_tree()
    u = np.zeros(tree.n_atoms)
    sol = oracle.solve_strong_discrete(tree, u, 1.0)
    assert np.all(sol.density == 1.0)
    value, control = oracle.solve_relaxed_discrete(tree, u, 1.0, sol)
    assert value == pytest.approx(sol.value, abs=1e-15)
    assert np.array_equal(control.weights,
                          np.where(control.atoms == 1.0, 0.5, 0.0))
    assert control.is_dirac() and control.max_secondary_weight() == 0.0


def test_certificate_checks_the_dirac():
    # the density must meet the normalization and every row, and the
    # multipliers must be none or one per row
    tree, u, lam, cons, _ = relaxed_instance("constrained-2")
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    free = oracle.solve_strong_discrete(tree, u, lam)
    assert np.max(cons.moments(tree.probs * free.density)) > 1e-6
    for bad in (replace(sol, density=1.01 * sol.density),
                replace(sol, density=free.density)):
        with pytest.raises(ValueError, match="density misses"):
            oracle.solve_relaxed_discrete(tree, u, lam, bad, cons)
    with pytest.raises(ValueError, match="multipliers for"):
        oracle.solve_relaxed_discrete(
            tree, u, lam, replace(sol, multipliers=sol.multipliers[1:]), cons)
    with pytest.raises(ValueError, match="multipliers for 0 constraint"):
        oracle.solve_relaxed_discrete(tree, u, lam, sol)
    # no multipliers: a bound that is valid, and not tight
    value, _ = oracle.solve_relaxed_discrete(
        tree, u, lam, replace(sol, multipliers=np.zeros(0)), cons)
    assert value > sol.value + 1e-6


def test_dirac_embedding_objective_identity():
    # a strong control embedded as a Dirac relaxed control scores the same
    tree = oracle.build_tree(2, 2, PARAMS)
    u = tree.paths[:, -1, 1]
    sol = oracle.solve_strong_discrete(tree, u, 0.5)
    dirac = relaxed_control.dirac(sol.density)
    assert relaxed_control.objective(tree.probs, dirac, u, 0.5) == \
        pytest.approx(sol.value, abs=1e-12)
    assert dirac.max_secondary_weight() == 0.0
    assert relaxed_control.mean_density(tree.probs, dirac) == pytest.approx(
        1.0, abs=1e-12)


def test_verify_collapse_no_counterexamples():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = np.sin(3.0 * tree.paths[:, -1, 0])
    sol = oracle.solve_strong_discrete(tree, u, 0.5)
    _, control = oracle.solve_relaxed_discrete(tree, u, 0.5, sol)
    report = oracle.verify_collapse(tree, 0.5, trials=50, seed=8)
    assert report.counterexamples == 0
    assert report.min_jensen_gap > 0.0
    assert control.is_dirac()


@settings(deadline=None, max_examples=30)
@given(st.floats(0.1, 10.0), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_jensen_gap_nonnegative(mean, shrink, q):
    # two-point randomization with the given conditional mean never beats
    # the Dirac: the entropy of the mixture exceeds that of the mean
    m1 = mean * shrink
    m2 = (mean - q * m1) / (1.0 - q)
    mix = q * m1 * np.log(m1) + (1.0 - q) * m2 * np.log(m2)
    assert mix - mean * np.log(mean) >= -1e-12


def test_extraction_on_feasible_control():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    sol = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    report = oracle.extract_strong_control(tree, sol.density, -1.0, 1.0)
    assert report.max_violation <= 1e-8
    assert report.reconstruction_error <= 1e-10


def test_extraction_recovers_density_from_transitions():
    # the re-accumulated product of conditional transition ratios must
    # reproduce the conditional-mean density node by node
    tree = oracle.build_tree(2, 2, PARAMS)
    u = np.cos(tree.paths[:, -1, 2])
    sol = oracle.solve_strong_discrete(tree, u, 1.0)
    report = oracle.extract_strong_control(tree, sol.density, -10.0, 10.0)
    assert report.reconstruction_error <= 1e-10


def test_extraction_skips_nodes_without_mass():
    # a node the density gives no mass has no transition ratios: it is
    # left out of the drifts, without a division by zero
    tree = oracle.build_tree(2, 2, PARAMS)
    m = np.cos(tree.paths[:, -1, 2]) + 1.5
    m[:tree.n_combos] = 0.0             # the first depth-1 node's block
    m /= tree.probs @ m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = oracle.extract_strong_control(tree, m, -10.0, 10.0)
    assert np.isfinite(report.max_violation)
    assert report.reconstruction_error <= 1e-12


def strong_instance(name):
    """(tree, u, lam, constraints) of a strong-solve test instance, u the
    zero-fee utility plus a P_T + b Z_T + c tanh(W_T). On
    "small-node-mass" the optimum puts density 2.6e-4 on some atoms. On
    "cycling" a residual test against the current residual, not the least
    so far, hands a pair of points back and forth until the iteration
    cap. On "concentrated" the Gibbs density at mu = 0 puts e^{-40} of
    the mass on half the atoms, and Newton's first step needs 51
    halvings. On "tiny-curvature" it puts e^{-60} there, so a violated
    row's curvature is far below that of the others: a step that cuts
    rows by their pivots' size gives it no step, and the solve raised at
    once. On "underflow" it puts e^{-1200} there, which is 0 in float64,
    so some rows have no curvature at all. On "heavy-atom" one atom
    carries so much of the mass that the centring, applied to the
    unshifted rows, cancels the rest of the Hessian, and the solve
    raises. On "slack-rate-row" a rate row whose partner holds the larger
    multiplier is slack; left where it is, its multiplier stalls the
    solve. On "gap-above-tol" every complementary product is at most
    4.5e-13 after 7 steps while their sum, the duality gap, is -1.6e-12:
    a solve that stopped on the residual alone reported it converged. On
    "point-mass" a node's law leaves its other children a mass so small
    that a row's curvature is subnormal (7e-323), and the unit-diagonal
    scale, its inverse square root, overflows the Newton step."""
    if name.startswith("oracle-tree"):
        return relaxed_instance(name)[:4]
    depth, branching, bound, lam, a, b, c = {
        "small-node-mass": (3, 2, 1.0, 0.25, 0.794, -0.992, 0.0),
        "cycling": (1, 2, 10.0, 0.25, -1.0, 1.0, 0.0),
        "concentrated": (1, 2, 1.0, 0.1, 2.0, 0.0, 0.0),
        "tiny-curvature": (1, 2, 0.5, 0.1, -3.0, 0.0, 0.0),
        "underflow": (1, 2, 0.5, 0.005, -3.0, 0.0, 0.0),
        "heavy-atom": (2, 2, 1.0, 0.05, -2.33, 1.56, 0.0),
        "slack-rate-row": (2, 3, 0.5, 0.1, -1.9027, -0.4257, -0.6424),
        "gap-above-tol": (3, 2, 0.5, 1.0, -0.6418158128314762,
                          0.1527664482092308, 0.9269111764256484),
        "point-mass": (3, 2, 0.5, 0.004, -4.0, 2.0, -6.0)}[name]
    params = ModelParams(rate_lower=-bound, rate_upper=bound)
    tree = oracle.build_tree(depth, branching, params)
    p, z, w = tree.paths[:, -1].T
    u = (oracle.atom_utility_from_contract(tree, Constant(0.0), params)
         + a * p + b * z + c * np.tanh(w))
    return tree, u, lam, oracle.node_constraint_set(tree, -bound, bound)


@pytest.mark.parametrize("name", ["oracle-tree-3", "small-node-mass",
                                  "cycling", "concentrated",
                                  "tiny-curvature", "underflow",
                                  "heavy-atom", "slack-rate-row",
                                  "gap-above-tol"])
def test_strong_solve_converges_in_few_newton_steps(name):
    # projected Newton from mu = 0 takes at most 5 and 7 steps at any
    # depth on the first two (``iterations`` is the most batched steps of
    # any depth), where L-BFGS-B on the global dual took 208 and 866
    # iterations
    tree, u, lam, cons = strong_instance(name)
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    assert sol.converged and sol.iterations <= 20
    assert abs(sol.duality_gap) <= 1e-12


def test_strong_solve_where_a_node_law_is_a_point_mass():
    # a row whose curvature is below the square root of float64's least
    # normal number is scaled by 1; scaled by its inverse square root, it
    # overflows the step. Small lam takes more steps, 24 here
    tree, u, lam, cons = strong_instance("point-mass")
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    assert sol.converged and abs(sol.duality_gap) <= 1e-12


@pytest.mark.parametrize("depth,scale", [(3, 100.0), (2, 1e3)])
def test_gap_is_read_relative_to_the_value(depth, scale):
    # with no rows the first Gibbs density is the optimum, but D and the
    # value, 144.85 and 1311.96 here, differ by their rounding: gaps of
    # -1.6e-12 and 2.9e-10 that an absolute 1e-12 read as not converged
    tree = oracle.build_tree(depth, 2, ModelParams())
    p, _, w = tree.paths[:, -1].T
    sol = oracle.solve_strong_discrete(tree, scale * (np.tanh(w) + 0.3 * p),
                                       0.25)
    assert sol.converged and sol.iterations == 0
    assert abs(sol.duality_gap) <= 1e-12 * abs(sol.value)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: at large utilities each node's exponents cancel "
    "from about 5e4 nats, whose rounding sets its moments' floor: the node "
    "solve stalls and raises at KKT residual 3.68e-09"))
def test_strong_solve_at_large_utilities():
    # the instance above at scale 1e4, depth 3 and with the node rows at
    # bounds +-1; the certificate of solve_relaxed_discrete inherits this
    # solve
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0)
    tree = oracle.build_tree(3, 2, params)
    p, _, w = tree.paths[:, -1].T
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    sol = oracle.solve_strong_discrete(tree, 1e4 * (np.tanh(w) + 0.3 * p),
                                       0.25, cons)
    assert sol.converged
    assert abs(sol.duality_gap) <= 1e-12 * max(1.0, abs(sol.value))


def test_infeasible_rows_are_proved_infeasible():
    # with L = U = 5 no density gives the Z step its mean 5 dt: a node's
    # dual value falls below the least value of any law of its children,
    # which weak duality turns into a proof, where the solve ran its
    # 10,000 steps
    params = ModelParams(rate_lower=5.0, rate_upper=5.0)
    tree = oracle.build_tree(1, 2, params)
    u = oracle.atom_utility_from_contract(tree, Constant(0.0), params)
    cons = oracle.node_constraint_set(tree, 5.0, 5.0)
    with pytest.raises(RuntimeError, match="the instance is infeasible"):
        oracle.solve_strong_discrete(tree, u, params.entropy_weight, cons)


# the zero fee's strong value on the branching-2 tree with node
# constraints, lam = 2 eps^2 phi_a and the default rate bounds, by depth
# (ROADMAP item 5); depth 5 has 32,768 atoms
ZERO_FEE_LADDER = {2: 0.0285756177543066, 3: 0.0330634855655426,
                   4: 0.0348835107280312, 5: 0.0360334408129}


def test_strong_tree_value_approaches_the_closed_form():
    # the strong tree value is a binomial approximation of V_a, 1/24 for
    # the zero fee, and its error shrinks with every step of depth
    params = ModelParams()
    errors = []
    for depth, value in ZERO_FEE_LADDER.items():
        tree = oracle.build_tree(depth, 2, params)
        u = oracle.atom_utility_from_contract(tree, Constant(0.0), params)
        cons = oracle.node_constraint_set(tree, params.rate_lower,
                                          params.rate_upper)
        sol = oracle.solve_strong_discrete(tree, u, params.entropy_weight,
                                           cons)
        assert sol.converged and abs(sol.duality_gap) <= 1e-12
        assert sol.value == pytest.approx(value, rel=1e-6)
        errors.append(abs(sol.value - 1.0 / 24.0))
    assert errors[0] > errors[1] > errors[2] > errors[3]


def test_node_forms_are_the_rows_at_every_atom():
    # the node-by-node solve rests on this: form (node, row) takes, at each
    # atom of the node, the row at the atom's increment of that step, so
    # it reads the atom only through the child it passes. Branching 3 stops
    # at depth 3, the largest tree build_tree makes. The two products
    # agree with the dense forms, built atom by atom.
    for branching, depth in [(2, 1), (2, 2), (2, 3), (2, 4),
                             (3, 1), (3, 2), (3, 3)]:
        tree = oracle.build_tree(depth, branching, PARAMS)
        forms = oracle.node_constraint_set(tree, -1.0, 2.0)
        inc = tree.combos[tree.choices]
        for d, block in enumerate(forms.blocks):
            assert block.shape == (tree.n_combos**d, 6, tree.n_combos)
            rows = np.stack(constraint_rows(
                inc[:, d, 0], inc[:, d, 1], inc[:, d, 2],
                tree.paths[:, d, 2] * tree.dt, tree.dt, -1.0, 2.0))
            node = tree.choices[:, :d] @ tree.n_combos**np.arange(d)[::-1]
            assert np.array_equal(block[node, :, tree.choices[:, d]].T, rows)
        if tree.n_atoms <= 729:
            dense = relaxed_control.dense_forms(tree, -1.0, 2.0)
            mass = uniforms(split_seed(depth, "node-mass"), tree.n_atoms)
            mu = uniforms(split_seed(depth, "node-mu"), forms.n_rows)
            assert np.allclose(forms.moments(mass), dense @ mass,
                               rtol=0, atol=1e-12)
            assert np.allclose(forms.per_atom(mu), dense.T @ mu,
                               rtol=0, atol=1e-12)
    # at depth 4 the forms are 585 x 6 x 8 floats, 225 kB
    tree = oracle.build_tree(4, 2, PARAMS)
    tracemalloc.start()
    try:
        forms = oracle.node_constraint_set(tree, -1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forms.n_rows == 6 * (1 + 8 + 64 + 512)
    assert peak < 2 * 585 * 6 * 8 * 8       # twice their size


def test_extraction_at_small_node_mass():
    # extraction divides node moments by the tilted node mass and dt, so
    # small node masses amplify the KKT residual: here the smallest
    # density is 2.6e-4, and the violations read 5.5e-13 (relaxed) and
    # 5.2e-14 (strong density)
    tree, u, lam, cons = strong_instance("small-node-mass")
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    assert sol.converged and abs(sol.duality_gap) <= 1e-12
    assert np.min(sol.density) < 1e-3
    _, control = oracle.solve_relaxed_discrete(tree, u, lam, sol, cons)
    assert control.is_dirac()
    for density in (relaxed_control.conditional_mean(control),
                    sol.density):
        report = oracle.extract_strong_control(tree, density, -1.0, 1.0)
        assert report.max_violation <= 1e-8


def test_atom_utility_from_contract_shape():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = oracle.atom_utility_from_contract(tree, Constant(0.3), PARAMS)
    assert u.shape == (tree.n_atoms,)
    # the fee enters with a minus sign
    u0 = oracle.atom_utility_from_contract(tree, Constant(0.0), PARAMS)
    assert np.allclose(u - u0, -0.3)


def test_density_grid_contains_extras():
    tree, u = price_step_tree()
    density = np.linspace(0.5, 1.5, tree.n_atoms)
    density /= tree.probs @ density
    sol = replace(oracle.solve_strong_discrete(tree, u, 1.0), density=density)
    _, control = oracle.solve_relaxed_discrete(tree, u, 1.0, sol)
    assert control.atoms.shape == (tree.n_atoms, 24)
    for row, m in zip(control.atoms, density):
        assert np.array_equal(row, np.concatenate([
            np.geomspace(1e-3, 1e3, 21), [0.8 * m, m, 1.25 * m]]))


def test_lam_must_be_positive():
    tree, u = price_step_tree()
    with pytest.raises(ValueError, match="entropy weight"):
        oracle.solve_strong_discrete(tree, u, 0.0)
    with pytest.raises(ValueError, match="entropy weight"):
        oracle.solve_relaxed_discrete(
            tree, u, -1.0, oracle.solve_strong_discrete(tree, u, 1.0))


def test_relaxed_density_must_be_positive():
    # g log g at a grid value of 0 or below, or NaN, would poison the cost
    tree, u = price_step_tree()
    sol = oracle.solve_strong_discrete(tree, u, 1.0)
    for bad in (0.0, -1.0, np.nan):
        density = np.ones(tree.n_atoms)
        density[3] = bad
        with pytest.raises(ValueError, match="density must be positive"):
            oracle.solve_relaxed_discrete(tree, u, 1.0,
                                          replace(sol, density=density))


def test_relaxed_control_is_dirac():
    # a two-point randomization on the first atom, Dirac elsewhere (rows
    # padded by an atom of zero weight)
    tree, _ = price_step_tree()
    atoms = np.tile([1.0, 1.0], (tree.n_atoms, 1))
    weights = np.tile([1.0, 0.0], (tree.n_atoms, 1))
    atoms[0], weights[0] = [0.5, 1.5], [0.3, 0.7]
    two_point = oracle.RelaxedControlDiscrete(atoms, weights)
    assert not two_point.is_dirac()
    assert two_point.max_secondary_weight() == 0.3
    dirac = relaxed_control.dirac(np.ones(tree.n_atoms))
    assert dirac.is_dirac()
    assert dirac.max_secondary_weight() == 0.0


def test_dirac_counts_distinct_density_values():
    # the relaxed LP's grid holds 1.0 twice in a row whose density is 1.0:
    # a weight split over the two copies is still one density value
    tree, u = price_step_tree()
    sol = replace(oracle.solve_strong_discrete(tree, u, 1.0),
                  density=np.ones(tree.n_atoms))
    _, control = oracle.solve_relaxed_discrete(tree, u, 1.0, sol)
    grid = control.atoms
    assert np.count_nonzero(grid[0] == 1.0) == 2
    copies = np.where(grid == 1.0, 0.5, 0.0)
    split = oracle.RelaxedControlDiscrete(grid, copies)
    assert split.is_dirac() and split.max_secondary_weight() == 0.0
    atoms = np.array([[1.0, 2.0, 1.0], [3.0, 3.0, 3.0]])
    weights = np.array([[0.25, 0.5, 0.25], [0.2, 0.3, 0.5]])
    two_values = oracle.RelaxedControlDiscrete(atoms, weights)
    assert not two_values.is_dirac()
    assert two_values.max_secondary_weight() == 0.5


# Reference implementation: the strong solve by projected-gradient dual
# ascent with a separate dual value and gradient, on the global dual over
# the dense forms (relaxed_control.dense_forms). The solver must reproduce
# its optima (the relaxed LP's reference is
# relaxed_control.solve_reference_lp).

def reference_strong(tree, u, lam, c, tol, max_iter=10_000):
    probs = tree.probs
    if c is None:
        m = np.exp(u / lam - logsumexp(u / lam, b=probs))
        return None, m, 0

    def gibbs(adjusted):
        return np.exp(adjusted / lam - logsumexp(adjusted / lam, b=probs))

    def dual(mu):
        return float(lam * logsumexp((u - c.T @ mu) / lam, b=probs))

    def dual_grad(mu):
        return -(c @ (probs * gibbs(u - c.T @ mu)))

    def kkt(mu):
        moments = -dual_grad(mu)
        return max(float(np.max(moments, initial=0.0)),
                   float(np.max(np.abs(mu * moments), initial=0.0)))

    result = sp_minimize(dual, np.zeros(len(c)),
                         jac=dual_grad, method="L-BFGS-B",
                         bounds=[(0.0, None)] * len(c),
                         options={"maxiter": max_iter, "ftol": 1e-16,
                                  "gtol": 1e-14})
    mu = result.x
    iterations = int(result.nit)
    residual = kkt(mu)
    lipschitz = max(float(np.linalg.norm(c * np.sqrt(probs), 2)**2) / lam,
                    1e-12)
    step = 0.5 / lipschitz
    while residual > tol and iterations < max_iter:
        mu = np.maximum(mu - step * dual_grad(mu), 0.0)
        residual = kkt(mu)
        iterations += 1
    return mu, gibbs(u - c.T @ mu), iterations


@pytest.mark.parametrize("constrained", [True, False])
def test_lp_assembly_matches_loop_reference(constrained):
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = (oracle.node_constraint_set(tree, -1.0, 1.0) if constrained
            else None)
    dense = (relaxed_control.dense_forms(tree, -1.0, 1.0) if constrained
             else None)
    sol = oracle.solve_strong_discrete(tree, u, 0.3, cons)
    value, control = oracle.solve_relaxed_discrete(tree, u, 0.3, sol, cons)
    grid = control.atoms
    reference = relaxed_control.solve_reference_lp(tree, u, 0.3, grid, dense)
    assert reference.success
    assert abs(value - -reference.fun) <= 1e-12
    q = reference.x.reshape(grid.shape)
    assert np.allclose(relaxed_control.conditional_mean(control),
                       np.sum(q * grid, axis=1), rtol=0, atol=1e-9)
    reference_secondary = max(float(np.sort(w)[-2]) for w in q)
    assert control.is_dirac() == (reference_secondary <= 1e-6)
    assert np.array_equal(grid[:, 21:],
                          sol.density[:, None] * [0.8, 1.0, 1.25])
    assert np.allclose([np.sum(w) for w in control.weights], 1.0,
                       atol=1e-12)


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_strong_solver_matches_separate_dual_reference(constrained, tol):
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = (oracle.node_constraint_set(tree, -1.0, 1.0) if constrained
            else None)
    dense = (relaxed_control.dense_forms(tree, -1.0, 1.0) if constrained
             else None)
    with strong_tol(tol):
        sol = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    # the reference at its own floor: at tol 1e-9 its density is only
    # good to about 1e-8
    _, density, iterations = reference_strong(tree, u, 0.25, dense, 1e-12)
    assert np.allclose(sol.density, density, rtol=0, atol=1e-9)
    assert sol.kkt_residual <= tol and sol.converged
    if not constrained:
        # the Gibbs closed form, up to the rounding of the normaliser
        assert np.allclose(sol.density, density, rtol=1e-13, atol=0)
        assert sol.multipliers.shape == (0,)
        assert sol.iterations == iterations == 0
