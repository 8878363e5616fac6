"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Each test prints its verdict line before asserting, so a full run shows
the complete scoreboard (run pytest with -s to see the lines as they
happen; they also appear in captured output on failure).

Monte Carlo instances use rate bounds of +-1 (or comparable) rather than
the package defaults of +-10: the importance weights are lognormal with
log-variance (pi/eps)^2 T, so certifying the mean of the density at the
default bounds would need e^400 paths. The bounds are not fixed by the
criteria; the modest ones exercise the identical code path with
estimators whose standard errors are meaningful.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from brokerfee import oracle, principal, simulate
from brokerfee.agent import estimate_agent_value, solve_hjb
from brokerfee.contracts import Constant
from brokerfee.model import FeedbackPolicy, ModelParams
from brokerfee.rng import split_seed, uniforms

import reduced_mode

MC = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=250,
                 n_paths=100_000)
WIDE = ModelParams(rate_lower=-100.0, rate_upper=100.0, phi_p=0.25,
                   reservation=0.0)


def verdict(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): "
          f"{detail}")
    return ok


def clamped_closed_form_policy(params):
    t_nodes = np.linspace(0.0, params.horizon, 9)
    w_nodes = np.linspace(-6.0, 6.0, 61)
    z_nodes = np.array([-1.0, 1.0])
    tt, ww, _ = np.meshgrid(t_nodes, w_nodes, z_nodes, indexing="ij")
    return FeedbackPolicy(t_nodes, w_nodes, z_nodes,
                          ww * (params.horizon - tt) / (2 * params.phi_a),
                          (params.rate_lower, params.rate_upper))


def policy_suite(params):
    return [
        ("lower", FeedbackPolicy.constant(params.rate_lower, params)),
        ("zero", FeedbackPolicy.constant(0.0, params)),
        ("upper", FeedbackPolicy.constant(params.rate_upper, params)),
        ("closed_form", clamped_closed_form_policy(params)),
    ]


@pytest.fixture(scope="module")
def weighted_samples():
    return {label: simulate.weighted_reference(
                MC, policy, split_seed(MC.seed, f"acc1-{k}"))
            for k, (label, policy) in enumerate(policy_suite(MC))}


def test_criterion_01_girsanov_normalization(weighted_samples):
    ok = True
    details = []
    for label, sample in weighted_samples.items():
        start = time.time()
        mean, se = simulate.mean_se(sample.m)
        elapsed = time.time() - start
        good = abs(mean - 1.0) <= 3 * se and elapsed < 30.0
        ok = ok and good
        details.append(f"{label}: |E[m]-1|={abs(mean - 1.0):.2e} (3se="
                       f"{3 * se:.2e})")
    assert verdict(1, "girsanov normalization", ok, "; ".join(details))


def test_criterion_02_entropy_identity(weighted_samples):
    x_t = reduced_mode.reduced_terminal(MC.n_paths, MC.n_steps, MC.horizon,
                                        split_seed(MC.seed, "acc2"))
    reduced = reduced_mode.reduced_entropy_report(x_t, 2.0, MC.horizon)
    ok = (abs(reduced.lhs - 2.0) <= 3 * reduced.lhs_se
          and abs(reduced.rhs - 2.0) <= 3 * reduced.rhs_se)
    details = [f"reduced: lhs={reduced.lhs:.3f} rhs={reduced.rhs:.3f}"]
    for label, sample in weighted_samples.items():
        report = simulate.entropy_report(sample, MC)
        good = abs(report.gap) <= 3 * report.combined_se
        ok = ok and good
        details.append(f"{label}: gap={report.gap:.2e} "
                       f"(3se={3 * report.combined_se:.2e})")
    assert verdict(2, "entropy identity", ok, "; ".join(details))


@pytest.fixture(scope="module")
def agent_solution():
    start = time.time()
    policy, grid = solve_hjb(Constant(0.0), WIDE)
    return policy, grid, time.time() - start


def test_criterion_03_agent_closed_form(agent_solution):
    policy, grid, elapsed = agent_solution
    value = grid.value_at_origin
    value_err = abs(value - 1.0 / 24.0) * 24.0

    w = policy.w_nodes
    inner = slice(len(w) // 10, len(w) - len(w) // 10)
    approx = np.array([policy(t, w[inner], 0.0) for t in policy.t_nodes])
    exact = w[inner] * (WIDE.horizon - policy.t_nodes[:, None])
    policy_err = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))

    ok = value_err <= 0.01 and policy_err <= 0.02 and elapsed < 60.0
    assert verdict(3, "agent closed form", ok,
                   f"value rel err {value_err:.2%}, policy sup err "
                   f"{policy_err:.2%}, solve {elapsed:.1f}s")


def test_criterion_04_mc_hjb_agreement(agent_solution):
    policy, grid, _ = agent_solution
    value, se = estimate_agent_value(Constant(0.0), policy,
                                     replace(WIDE, n_paths=50_000),
                                     split_seed(MC.seed, "acc4"))
    gap = abs(value - grid.value_at_origin)
    tol = max(0.01 * abs(grid.value_at_origin), 3 * se)
    assert verdict(4, "Monte Carlo/HJB agreement", gap <= tol,
                   f"gap {gap:.2e} vs tol {tol:.2e}")


def test_criterion_05_principal_constant_optimum():
    start = time.time()
    family = principal.ContractFamily("constant", cap=1.0)
    params = ModelParams(rate_lower=-100.0, rate_upper=100.0, phi_p=0.25,
                         reservation=0.0, n_paths=65_536, seed=3)
    best, seq = principal.optimize(family, params, budget=50)
    elapsed = time.time() - start
    fee_err = abs(best.value - 1.0 / 24.0) * 24.0
    j_p = seq.records[seq.best_index]["j_p"]
    jp_err = abs(j_p - 1.0 / 48.0) * 48.0
    ok = fee_err <= 0.02 and jp_err <= 0.02 and elapsed < 600.0
    assert verdict(5, "principal constant optimum", ok,
                   f"fee rel err {fee_err:.2%}, J_p rel err {jp_err:.2%}, "
                   f"{len(seq)} evals in {elapsed:.0f}s")


def test_criterion_06_gibbs_against_brute_force():
    # u = sign of the price step on the depth-1 binomial tree: the
    # two-atom problem with u = +-1, each value on half of the 8 atoms
    tree = oracle.build_tree(1, 2, ModelParams())
    u = np.sign(tree.paths[:, 1, 0])
    sol = oracle.solve_strong_discrete(tree, u, 1.0)

    def neg_objective(m1):
        m2 = 2.0 - m1
        return -(0.5 * (m1 - m2)
                 - 0.5 * (m1 * np.log(m1) + m2 * np.log(m2)))

    grid = np.linspace(1e-6, 2.0 - 1e-6, 2001)
    coarse = grid[np.argmin([neg_objective(m) for m in grid])]
    refined = minimize_scalar(neg_objective, bounds=(coarse - 2e-3,
                                                     coarse + 2e-3),
                              method="bounded", options={"xatol": 1e-13})
    brute = -refined.fun
    gap = abs(sol.value - brute)
    closed = abs(sol.value - np.log(np.cosh(1.0)))
    ok = gap <= 1e-8 and closed <= 1e-8
    assert verdict(6, "Gibbs oracle", ok,
                   f"|solver-brute|={gap:.2e}, |solver-logcosh|={closed:.2e}")


def test_criterion_07_strong_relaxed_equality():
    start = time.time()
    raw = uniforms(split_seed(MC.seed, "acc7"), (100, 3))
    worst_gap = 0.0
    bad_collapse = 0
    non_dirac = 0
    for k in range(100):
        depth = 1 + int(raw[k, 0] < 0.5)
        tree = oracle.build_tree(depth, 2, ModelParams(epsilon=0.5))
        amp = 0.2 + 1.5 * raw[k, 1]
        u = amp * np.tanh(tree.paths[:, -1, 0] + 0.5 * tree.paths[:, -1, 1]
                          - tree.paths[:, -1, 2])
        lam = 0.2 + 1.8 * raw[k, 2]
        sol = oracle.solve_strong_discrete(tree, u, lam)
        grid = oracle.default_density_grid(sol.density)
        value, control = oracle.solve_relaxed_discrete(tree, u, lam, grid)
        worst_gap = max(worst_gap, abs(value - sol.value))
        report = oracle.verify_collapse(tree, lam, trials=100,
                                        seed=split_seed(k, "acc7-collapse"))
        bad_collapse += len(report.counterexamples)
        non_dirac += not control.is_dirac()
    elapsed = time.time() - start
    ok = worst_gap <= 1e-8 and bad_collapse == 0 and non_dirac == 0
    ok = ok and elapsed < 300.0
    assert verdict(7, "strong/relaxed equality", ok,
                   f"worst gap {worst_gap:.2e}, {bad_collapse} collapse "
                   f"counterexamples, {non_dirac} non-Dirac, {elapsed:.0f}s")


def test_criterion_08_extraction_admissibility():
    raw = uniforms(split_seed(MC.seed, "acc8"), (20, 2))
    worst = 0.0
    worst_recon = 0.0
    for k in range(20):
        tree = oracle.build_tree(2, 2, ModelParams(epsilon=0.5))
        amp = 0.1 + raw[k, 0]
        u = amp * (tree.paths[:, -1, 0] - 0.5 * tree.paths[:, -1, 1])
        lam = 0.2 + raw[k, 1]
        cons = oracle.node_constraint_set(tree, -1.0, 1.0)
        sol = oracle.solve_strong_discrete(tree, u, lam, cons)
        grid = oracle.default_density_grid(sol.density)
        _, control = oracle.solve_relaxed_discrete(tree, u, lam, grid, cons)
        report = oracle.extract_strong_control(tree, control, -1.0, 1.0)
        worst = max(worst, report.max_violation)
        worst_recon = max(worst_recon, report.reconstruction_error)
    # the brokerfee oracle instance at depth 3: zero fee, the default
    # entropy weight 2 eps^2 phi_a and the default rate bounds
    params = ModelParams()
    tree = oracle.build_tree(3, 2, params)
    u = oracle.atom_utility_from_contract(tree, Constant(0.0), params)
    lam = 2 * params.epsilon**2 * params.phi_a
    cons = oracle.node_constraint_set(tree, params.rate_lower,
                                      params.rate_upper)
    sol = oracle.solve_strong_discrete(tree, u, lam, cons)
    grid = oracle.default_density_grid(sol.density)
    _, control = oracle.solve_relaxed_discrete(tree, u, lam, grid, cons)
    report = oracle.extract_strong_control(tree, control, params.rate_lower,
                                           params.rate_upper)
    worst = max(worst, report.max_violation)
    worst_recon = max(worst_recon, report.reconstruction_error)
    ok = worst <= 1e-8 and worst_recon <= 1e-10
    assert verdict(8, "extraction admissibility", ok,
                   f"max violation {worst:.2e}, max reconstruction error "
                   f"{worst_recon:.2e} over 20 constrained depth-2 "
                   f"instances and the depth-3 tree")


def test_criterion_09_condition5_moments():
    params = ModelParams(sigma=2.0, epsilon=1.0, rate_lower=-0.5,
                         rate_upper=0.5, n_steps=250, n_paths=50_000)
    ok = True
    for k, (label, policy) in enumerate(policy_suite(params)):
        sample = simulate.weighted_reference(
            params, policy, split_seed(MC.seed, f"acc9-{k}"), moments=True)
        estimates, ses = simulate.constraint_moments(sample)
        ok = ok and bool(np.all(estimates <= 3 * ses))

    bad_rate = params.rate_upper + 1.0
    bad = FeedbackPolicy(np.array([0.0, 1.0]), np.array([-1.0, 1.0]),
                         np.array([-1.0, 1.0]), np.full((2, 2, 2), bad_rate),
                         (-2.0, 2.0))
    sample = simulate.weighted_reference(
        params, bad, split_seed(MC.seed, "acc9-bad"), moments=True)
    estimates, ses = simulate.constraint_moments(sample)
    margin = float(np.max(estimates[:, 4] - 3 * ses[:, 4]))
    ok = ok and margin > 0
    assert verdict(9, "condition-5 moments", ok,
                   f"admissible all within 3se; inadmissible row-5 excess "
                   f"{margin:.3f}")


def test_criterion_10_determinism(tmp_path):
    from brokerfee import cli
    config = (
        "model.rate_lower = -1.0\nmodel.rate_upper = 1.0\n"
        "model.n_steps = 100\nmodel.n_paths = 5000\nmodel.seed = 7\n"
        "run.mode = simulate\n")
    outs = []
    for rep in (1, 2):
        cfg = tmp_path / f"run{rep}.cfg"
        out = tmp_path / f"out{rep}"
        cfg.write_text(config + f"run.out = {out}\n")
        assert cli.run(cfg) == 0
        outs.append(out)
    a = (outs[0] / "girsanov.csv").read_bytes()
    b = (outs[1] / "girsanov.csv").read_bytes()
    assert verdict(10, "determinism", a == b,
                   f"{len(a)} CSV bytes bit-identical across reruns")
