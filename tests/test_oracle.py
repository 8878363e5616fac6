import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize as sp_minimize
from scipy.optimize import minimize_scalar
from scipy.sparse import csr_matrix, issparse
from scipy.special import logsumexp

import relaxed_control
from solver_constants import strong_tol
from brokerfee import oracle
from brokerfee.contracts import Constant, LinearPolynomial
from brokerfee.model import ROW_NAMES, ModelParams
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
    assert cons.shape == (6 * (1 + tree.n_combos), tree.n_atoms)


def test_uniform_density_moments_by_row():
    # m = 1 keeps the driftless base measure: the signal rows vanish and
    # the rate rows hold with slack, but the price rows need a genuine
    # tilt toward W and are violated at any node where W is nonzero
    tree = oracle.build_tree(2, 2, PARAMS)
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    moments = cons @ tree.probs
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
    moments = cons @ (tree.probs * sol.density)
    assert np.max(moments) <= 1e-9
    unconstrained = oracle.solve_strong_discrete(tree, u, 0.25)
    assert sol.value <= unconstrained.value + 1e-12


def test_strong_solver_flags_a_solve_stopped_short():
    # the relaxed-oracle demo's instance at a tol below float64 resolution:
    # Newton stalls at the rounding floor, which lies within 1e3 * tol, so
    # the solve returns before its iteration cap, unconverged
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
    # gap at rounding level certifies the strong optimum
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    sol = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    assert sol.multipliers is not None and np.any(sol.multipliers > 0)
    assert abs(sol.duality_gap) <= 1e-12
    dual = 0.25 * logsumexp((u - cons.T @ sol.multipliers) / 0.25,
                            b=tree.probs)
    assert dual - sol.value == pytest.approx(sol.duality_gap, abs=1e-15)


def test_relaxed_matches_strong_on_covering_grid():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = np.tanh(tree.paths[:, -1, 0] + tree.paths[:, -1, 2])
    sol = oracle.solve_strong_discrete(tree, u, 0.5)
    grid = oracle.default_density_grid(sol.density)
    value, control = oracle.solve_relaxed_discrete(tree, u, 0.5, grid)
    assert abs(value - sol.value) <= 1e-8
    assert control.is_dirac()
    assert np.allclose(control.conditional_mean(), sol.density, atol=1e-6)


def test_relaxed_constrained_matches_dual():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    sol = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    grid = oracle.default_density_grid(sol.density)
    value, control = oracle.solve_relaxed_discrete(tree, u, 0.25, grid, cons)
    assert abs(value - sol.value) <= 1e-8
    assert relaxed_control.check_feasibility(control, cons,
                                             tol=1e-8)["feasible"]


def shared_density_grid(density):
    """The grid every atom shared before grids were per atom: 21
    log-spaced atoms and every distinct strong density of the tree, one
    row per atom."""
    row = np.unique(np.concatenate([np.geomspace(1e-3, 1e3, 21), density]))
    return np.broadcast_to(row, (len(density), len(row)))


def relaxed_instance(name):
    """(tree, u, lam, constraints) of a relaxed-LP test instance."""
    if name == "constrained-2":
        tree = oracle.build_tree(2, 2, PARAMS)
        u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
        return tree, u, 0.25, oracle.node_constraint_set(tree, -1.0, 1.0)
    if name == "unconstrained-2":
        tree = oracle.build_tree(2, 2, PARAMS)
        u = np.tanh(tree.paths[:, -1, 0] + tree.paths[:, -1, 2])
        return tree, u, 0.5, None
    # the oracle-tree benchmark instance at depth 1 and 3: zero fee,
    # default parameters
    params = ModelParams()
    tree = oracle.build_tree(int(name[-1]), 2, params)
    u = oracle.atom_utility_from_contract(tree, Constant(0.0), params)
    cons = oracle.node_constraint_set(tree, params.rate_lower,
                                      params.rate_upper)
    return tree, u, params.entropy_weight, cons


@pytest.mark.parametrize("name", ["constrained-2", "unconstrained-2",
                                  "oracle-tree-1", "oracle-tree-3"])
def test_per_atom_grid_matches_shared_grid(name):
    # a grid holding each atom's strong density leaves the LP value as it
    # was on the grid shared by all atoms, with 24 columns per atom
    tree, u, lam, cons = relaxed_instance(name)
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    grid = oracle.default_density_grid(sol.density)
    value, control = oracle.solve_relaxed_discrete(tree, u, lam, grid, cons)
    shared, _ = oracle.solve_relaxed_discrete(
        tree, u, lam, shared_density_grid(sol.density), cons)
    assert abs(value - shared) <= 1e-12
    assert control.atoms.shape == (tree.n_atoms, 24)
    assert control.is_dirac()
    assert np.allclose(control.conditional_mean(), sol.density, rtol=0,
                       atol=1e-9)


@pytest.mark.parametrize("lam", [0.3, 0.5])
def test_per_atom_grid_outscores_a_wrong_density(lam):
    # a grid built around the strong density at another entropy weight
    # must let the LP beat that density at weight 0.25: the 0.8 and 1.25
    # neighbours carry the 0.3 case (without them the margin is 8e-17)
    tree = oracle.build_tree(3, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = oracle.node_constraint_set(tree, -1.0, 1.0)
    wrong = oracle.solve_strong_discrete(tree, u, lam, cons).density
    value, _ = oracle.solve_relaxed_discrete(
        tree, u, 0.25, oracle.default_density_grid(wrong), cons)
    primal = relaxed_control.objective(relaxed_control.dirac(tree, wrong),
                                       u, 0.25)
    assert value - primal > 1e-8


def test_dirac_embedding_objective_identity():
    # a strong control embedded as a Dirac relaxed control scores the same
    tree = oracle.build_tree(2, 2, PARAMS)
    u = tree.paths[:, -1, 1]
    sol = oracle.solve_strong_discrete(tree, u, 0.5)
    dirac = relaxed_control.dirac(tree, sol.density)
    assert relaxed_control.objective(dirac, u, 0.5) == pytest.approx(
        sol.value, abs=1e-12)
    assert dirac.max_secondary_weight() == 0.0
    assert relaxed_control.mean_density(dirac) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_verify_collapse_no_counterexamples():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = np.sin(3.0 * tree.paths[:, -1, 0])
    sol = oracle.solve_strong_discrete(tree, u, 0.5)
    grid = oracle.default_density_grid(sol.density)
    _, control = oracle.solve_relaxed_discrete(tree, u, 0.5, grid)
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
    control = relaxed_control.dirac(tree, sol.density)
    report = oracle.extract_strong_control(tree, control, -1.0, 1.0)
    assert report.max_violation <= 1e-8
    assert report.reconstruction_error <= 1e-10


def test_extraction_recovers_density_from_transitions():
    # the re-accumulated product of conditional transition ratios must
    # reproduce the conditional-mean density node by node
    tree = oracle.build_tree(2, 2, PARAMS)
    u = np.cos(tree.paths[:, -1, 2])
    sol = oracle.solve_strong_discrete(tree, u, 1.0)
    control = relaxed_control.dirac(tree, sol.density)
    report = oracle.extract_strong_control(tree, control, -10.0, 10.0)
    assert report.reconstruction_error <= 1e-10


def test_extraction_skips_nodes_without_mass():
    # a node the density gives no mass has no transition ratios: it is
    # left out of the drifts, without a division by zero
    tree = oracle.build_tree(2, 2, PARAMS)
    m = np.cos(tree.paths[:, -1, 2]) + 1.5
    m[:tree.n_combos] = 0.0             # the first depth-1 node's block
    m /= tree.probs @ m
    control = relaxed_control.dirac(tree, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = oracle.extract_strong_control(tree, control, -10.0, 10.0)
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
    a solve that stopped on the residual alone reported it converged."""
    if name.startswith("oracle-tree"):
        return relaxed_instance(name)
    depth, branching, bound, lam, a, b, c = {
        "small-node-mass": (3, 2, 1.0, 0.25, 0.794, -0.992, 0.0),
        "cycling": (1, 2, 10.0, 0.25, -1.0, 1.0, 0.0),
        "concentrated": (1, 2, 1.0, 0.1, 2.0, 0.0, 0.0),
        "tiny-curvature": (1, 2, 0.5, 0.1, -3.0, 0.0, 0.0),
        "underflow": (1, 2, 0.5, 0.005, -3.0, 0.0, 0.0),
        "heavy-atom": (2, 2, 1.0, 0.05, -2.33, 1.56, 0.0),
        "slack-rate-row": (2, 3, 0.5, 0.1, -1.9027, -0.4257, -0.6424),
        "gap-above-tol": (3, 2, 0.5, 1.0, -0.6418158128314762,
                          0.1527664482092308, 0.9269111764256484)}[name]
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
    # projected Newton from mu = 0 takes 6 and 16 steps on the first two,
    # where L-BFGS-B took 208 and 866 iterations
    tree, u, lam, cons = strong_instance(name)
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    assert sol.converged and sol.iterations <= 20
    assert abs(sol.duality_gap) <= 1e-12


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


def test_infeasible_rows_are_proved_infeasible():
    # with L = U = 5 no density gives the Z step its mean 5 dt: the dual
    # value falls below the least value of any density, which weak
    # duality turns into a proof, where the solve ran its 10,000 steps
    params = ModelParams(rate_lower=5.0, rate_upper=5.0)
    tree = oracle.build_tree(1, 2, params)
    u = oracle.atom_utility_from_contract(tree, Constant(0.0), params)
    cons = oracle.node_constraint_set(tree, 5.0, 5.0)
    with pytest.raises(RuntimeError, match="the instance is infeasible"):
        oracle.solve_strong_discrete(tree, u, params.entropy_weight, cons)


# the zero fee's strong value on the branching-2 tree with node
# constraints, lam = 2 eps^2 phi_a and the default rate bounds, by depth
# (ROADMAP item 5)
ZERO_FEE_LADDER = {2: 0.0285756177543066, 3: 0.0330634855655426,
                   4: 0.0348835107280312}


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
    assert errors[0] > errors[1] > errors[2]


def test_node_forms_store_their_blocks_only():
    # at depth 4 the forms are 3,510 x 4,096; each stores its node's atom
    # block, 6 entries per atom and depth, where a dense array took 115 MB
    tree = oracle.build_tree(4, 2, PARAMS)
    # a first call loads the lazily imported scipy outside the trace
    oracle.node_constraint_set(tree, -1.0, 1.0)
    tracemalloc.start()
    try:
        forms = oracle.node_constraint_set(tree, -1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert issparse(forms) and forms.format == "csr"
    assert forms.shape == (6 * (1 + 8 + 64 + 512), tree.n_atoms)
    assert forms.nnz <= 6 * tree.depth * tree.n_atoms
    assert peak < 5 * 2**20


def test_extraction_at_small_node_mass():
    # extraction divides node moments by the tilted node mass and dt, so
    # small node masses amplify the KKT residual: here the smallest
    # density is 2.6e-4, and the violations read 5.5e-13 (relaxed) and
    # 5.2e-14 (Dirac embedding)
    tree, u, lam, cons = strong_instance("small-node-mass")
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    assert sol.converged and abs(sol.duality_gap) <= 1e-12
    assert np.min(sol.density) < 1e-3
    grid = oracle.default_density_grid(sol.density)
    _, control = oracle.solve_relaxed_discrete(tree, u, lam, grid, cons)
    assert control.is_dirac()
    for relaxed in (control, relaxed_control.dirac(tree, sol.density)):
        report = oracle.extract_strong_control(tree, relaxed, -1.0, 1.0)
        assert report.max_violation <= 1e-8


def test_atom_utility_from_contract_shape():
    tree = oracle.build_tree(2, 2, PARAMS)
    u = oracle.atom_utility_from_contract(tree, Constant(0.3), PARAMS)
    assert u.shape == (tree.n_atoms,)
    # the fee enters with a minus sign
    u0 = oracle.atom_utility_from_contract(tree, Constant(0.0), PARAMS)
    assert np.allclose(u - u0, -0.3)


def test_density_grid_contains_extras():
    density = np.array([0.123, 4.56])
    grid = oracle.default_density_grid(density)
    assert grid.shape == (2, 24)
    for row, m in zip(grid, density):
        assert np.array_equal(row, np.concatenate([
            np.geomspace(1e-3, 1e3, 21), [0.8 * m, m, 1.25 * m]]))


def test_lam_must_be_positive():
    tree, u = price_step_tree()
    with pytest.raises(ValueError, match="entropy weight"):
        oracle.solve_strong_discrete(tree, u, 0.0)
    with pytest.raises(ValueError, match="entropy weight"):
        oracle.solve_relaxed_discrete(
            tree, u, -1.0,
            np.broadcast_to([0.5, 1.0, 2.0], (tree.n_atoms, 3)))


def test_relaxed_grid_must_have_a_row_per_atom():
    tree, u = price_step_tree()
    for grid in (np.array([0.5, 1.0, 2.0]), np.ones((tree.n_atoms - 1, 3)),
                 np.zeros((tree.n_atoms, 3))):
        with pytest.raises(ValueError, match="density grid"):
            oracle.solve_relaxed_discrete(tree, u, 1.0, grid)


def test_relaxed_control_is_dirac():
    # a two-point randomization on the first atom, Dirac elsewhere (rows
    # padded by an atom of zero weight)
    tree, _ = price_step_tree()
    atoms = np.tile([1.0, 1.0], (tree.n_atoms, 1))
    weights = np.tile([1.0, 0.0], (tree.n_atoms, 1))
    atoms[0], weights[0] = [0.5, 1.5], [0.3, 0.7]
    two_point = oracle.RelaxedControlDiscrete(tree.probs, atoms, weights)
    assert not two_point.is_dirac()
    assert two_point.max_secondary_weight() == 0.3
    dirac = relaxed_control.dirac(tree, np.ones(tree.n_atoms))
    assert dirac.is_dirac()
    assert dirac.max_secondary_weight() == 0.0


def test_dirac_counts_distinct_density_values():
    # default_density_grid holds 1.0 twice in a row whose density is 1.0:
    # a weight split over the two copies is still one density value
    probs = np.full(2, 0.5)
    grid = oracle.default_density_grid(np.ones(2))
    assert np.count_nonzero(grid[0] == 1.0) == 2
    copies = np.where(grid == 1.0, 0.5, 0.0)
    split = oracle.RelaxedControlDiscrete(probs, grid, copies)
    assert split.is_dirac() and split.max_secondary_weight() == 0.0
    atoms = np.array([[1.0, 2.0, 1.0], [3.0, 3.0, 3.0]])
    weights = np.array([[0.25, 0.5, 0.25], [0.2, 0.3, 0.5]])
    two_values = oracle.RelaxedControlDiscrete(probs, atoms, weights)
    assert not two_values.is_dirac()
    assert two_values.max_secondary_weight() == 0.5


# Reference implementations: the relaxed LP with per-atom loops and the
# constraint moments spelled out on every (atom, grid point) weight, and
# the strong solve by projected-gradient dual ascent with a separate dual
# value and gradient, both on the dense forms. The solvers must reproduce
# their optima.

def reference_lp(tree, u, lam, grid, constraints):
    probs = tree.probs
    n_atoms, n_grid = grid.shape
    n_var = n_atoms * n_grid
    cost = np.concatenate([-probs[x] * (grid[x] * u[x] - lam * grid[x]
                                        * np.log(grid[x]))
                           for x in range(n_atoms)])
    rows, cols, vals = [], [], []
    for x in range(n_atoms):
        rows.extend([x] * n_grid)
        cols.extend(range(x * n_grid, (x + 1) * n_grid))
        vals.extend([1.0] * n_grid)
    rows.extend([n_atoms] * n_var)
    cols.extend(range(n_var))
    vals.extend(np.concatenate([probs[x] * grid[x] for x in range(n_atoms)]))
    a_eq = csr_matrix((vals, (rows, cols)), shape=(n_atoms + 1, n_var))
    a_ub = None
    if constraints is not None:
        constraints = constraints.toarray()
        rows, cols, vals = [], [], []
        for r in range(len(constraints)):
            coeff = constraints[r]
            for x in range(n_atoms):
                if coeff[x] == 0.0:
                    continue
                rows.extend([r] * n_grid)
                cols.extend(range(x * n_grid, (x + 1) * n_grid))
                vals.extend(probs[x] * coeff[x] * grid[x])
        a_ub = csr_matrix((vals, (rows, cols)),
                          shape=(len(constraints), n_var))
    return cost, a_eq, a_ub


def reference_strong(tree, u, lam, constraints, tol, max_iter=10_000):
    probs = tree.probs
    if constraints is None:
        m = np.exp(u / lam - logsumexp(u / lam, b=probs))
        return None, m, 0
    c = constraints.toarray()

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
    grid = oracle.default_density_grid(
        oracle.solve_strong_discrete(tree, u, 0.3, cons).density)
    value, control = oracle.solve_relaxed_discrete(tree, u, 0.3, grid, cons)
    cost, a_eq, a_ub = reference_lp(tree, u, 0.3, grid, cons)
    reference = linprog(
        cost, A_ub=a_ub,
        b_ub=None if a_ub is None else np.zeros(cons.shape[0]),
        A_eq=a_eq, b_eq=np.ones(tree.n_atoms + 1), bounds=(0, None),
        method="highs")
    assert reference.success
    assert abs(value - -reference.fun) <= 1e-12
    q = reference.x.reshape(grid.shape)
    assert np.allclose(control.conditional_mean(), np.sum(q * grid, axis=1),
                       rtol=0, atol=1e-9)
    reference_secondary = max(float(np.sort(w)[-2]) for w in q)
    assert control.is_dirac() == (reference_secondary <= 1e-6)
    assert np.array_equal(control.atoms, grid)
    assert np.allclose([np.sum(w) for w in control.weights], 1.0,
                       atol=1e-12)


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_strong_solver_matches_separate_dual_reference(constrained, tol):
    tree = oracle.build_tree(2, 2, PARAMS)
    u = 0.3 * tree.paths[:, -1, 0] - 0.2 * tree.paths[:, -1, 1]
    cons = (oracle.node_constraint_set(tree, -1.0, 1.0) if constrained
            else None)
    with strong_tol(tol):
        sol = oracle.solve_strong_discrete(tree, u, 0.25, cons)
    # the reference at its own floor: at tol 1e-9 its density is only
    # good to about 1e-8
    _, density, iterations = reference_strong(tree, u, 0.25, cons, 1e-12)
    assert np.allclose(sol.density, density, rtol=0, atol=1e-9)
    assert sol.kkt_residual <= tol and sol.converged
    if not constrained:
        # the Gibbs closed form, up to the rounding of the normaliser
        assert np.allclose(sol.density, density, rtol=1e-13, atol=0)
        assert sol.multipliers.shape == (0,)
        assert sol.iterations == iterations == 0
