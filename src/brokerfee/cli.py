"""Batch front-end: config parsing, mode dispatch, artifact persistence.

Configs are flat ``key = value`` text files with dotted prefixes for
sections (model.*, family.*, run.*). Every run writes a manifest listing
each output file with a SHA-256 content hash, the echoed config, and the
master seed, plus a human-readable summary. All randomness flows from the
single master seed through the documented splitting function, so a rerun
with the same config reproduces bit-identical outputs.

This is the only module that writes files: the library modules return
data, and every output format is chosen here.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import traceback
from dataclasses import dataclass, replace

import numpy as np

from . import agent, contracts, oracle, principal, simulate
from .model import (FeedbackPolicy, ModelParams, params_from_config,
                    params_to_config)
from .rng import split_seed

__all__ = ["ExperimentConfig", "parse_config", "run", "main"]

MODES = ("simulate", "agent", "oracle", "optimize", "verify", "report")

_FAMILY_KEYS = ("class", "cap", "degree", "p_nodes", "z_nodes",
                "coefficients")
# family keys that only one contract class reads
_CLASS_KEYS = {"degree": "linear_polynomial", "p_nodes": "lipschitz_table",
               "z_nodes": "lipschitz_table"}
_RUN_KEYS = ("mode", "budget", "out", "trials", "depth", "branching")


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    family: dict
    run: dict

    def __post_init__(self):
        if self.run.get("mode") not in MODES:
            raise ValueError(f"run.mode must be one of {MODES}")

    def echo(self) -> dict:
        out = params_to_config(self.params)
        out.update({f"family.{k}": v for k, v in self.family.items()})
        out.update({f"run.{k}": v for k, v in self.run.items()})
        return out


def _parse_list(text):
    return [float(v) for v in str(text).split(",") if v.strip()]


def parse_config(path, mode=None) -> ExperimentConfig:
    """Parse a flat dotted key-value config; errors cite line and key.

    A key given twice, or a family key that the family's class does not
    read, is an error. ``mode``, when given, replaces the file's
    ``run.mode``.
    """
    model_items, family, run = {}, {}, {}
    line_of = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, "
                                 f"got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in line_of:
                raise ValueError(f"{path}:{lineno}: {key} is given twice, "
                                 f"first at line {line_of[key]}")
            line_of[key] = lineno
            try:
                if key.startswith("model."):
                    model_items[key] = value
                elif key.startswith("family."):
                    name = key[len("family."):]
                    if name not in _FAMILY_KEYS:
                        raise ValueError(f"unknown family key: {name}")
                    family[name] = value
                elif key.startswith("run."):
                    name = key[len("run."):]
                    if name not in _RUN_KEYS:
                        raise ValueError(f"unknown run key: {name}")
                    # the convergence report of a search needs two records
                    if name == "budget" and not (value.isdecimal()
                                                 and int(value) >= 2):
                        raise ValueError(f"run.budget must be an integer of "
                                         f"at least 2, got {value!r}")
                    run[name] = value
                else:
                    raise ValueError(f"unknown config section for key: {key}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    kind = family.get("class", "constant")
    for name, reader in _CLASS_KEYS.items():
        if name in family and kind != reader:
            raise ValueError(f"{path}:{line_of['family.' + name]}: family "
                             f"class {kind} does not read family.{name}")
    if mode is not None:
        run["mode"] = mode
    params = params_from_config(model_items) if model_items else ModelParams()
    return ExperimentConfig(params, family, run)


def _family_from_config(config: ExperimentConfig) -> principal.ContractFamily:
    fam = config.family
    kwargs = {"kind": fam.get("class", "constant"),
              "cap": float(fam.get("cap", 1.0))}
    if "degree" in fam:
        kwargs["degree"] = int(fam["degree"])
    if "p_nodes" in fam:
        kwargs["p_nodes"] = np.array(_parse_list(fam["p_nodes"]))
    if "z_nodes" in fam:
        kwargs["z_nodes"] = np.array(_parse_list(fam["z_nodes"]))
    return principal.ContractFamily(**kwargs)


def _contract_from_config(config: ExperimentConfig):
    family = _family_from_config(config)
    coeffs = np.array(_parse_list(config.family.get("coefficients", "0")))
    if len(coeffs) > family.dimension:
        raise ValueError(f"family.coefficients has {len(coeffs)} entries, "
                         f"but the family has dimension {family.dimension}")
    theta = np.zeros(family.dimension)
    theta[:len(coeffs)] = coeffs
    return family.make(theta)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def _fmt(value):
    return repr(float(value))


def _mode_simulate(config, out_dir, lines):
    """Reference-measure batch, density normalization, effective sample
    size of the weights, entropy identity. A policy whose weights have
    degenerated is flagged and gets no E[m] in the summary."""
    params = config.params
    rows = []
    for label, rate in (("lower", params.rate_lower), ("zero", 0.0),
                        ("upper", params.rate_upper)):
        weighted = simulate.weighted_reference(
            params, FeedbackPolicy.constant(rate, params),
            split_seed(params.seed, f"sim-{label}"))
        mean, se = simulate._mean_se(weighted.m)
        ess = simulate.effective_sample_size(weighted)
        degenerate = simulate.is_degenerate(weighted)
        report = simulate.entropy_report(weighted, params)
        rows.append([label, _fmt(rate), _fmt(mean), _fmt(se),
                     _fmt(report.lhs), _fmt(report.lhs_se),
                     _fmt(report.rhs), _fmt(report.rhs_se), _fmt(ess),
                     int(degenerate)])
        density = (f"degenerate (ess {ess:.1f} of {params.n_paths})"
                   if degenerate else
                   f"E[m] = {mean:.6f} (se {se:.2g}), "
                   f"ess {ess:.1f} of {params.n_paths}")
        lines.append(f"policy {label}: {density}, "
                     f"entropy gap {report.gap:.3g}")
    _write_csv(os.path.join(out_dir, "girsanov.csv"),
               ["policy", "rate", "mean_density", "se",
                "entropy_lhs", "entropy_lhs_se", "entropy_rhs",
                "entropy_rhs_se", "ess", "degenerate"], rows)
    return ["girsanov.csv"]


def _mode_agent(config, out_dir, lines):
    """The client's best response and a Monte Carlo check of its value:
    ``mc_z`` in ``agent.csv`` is (mc_value - value) / mc_se.

    ``agent.npz`` holds the policy's nodes and rate table and the value
    grid on the same nodes (with ``p_nodes`` for a price-dependent fee)."""
    params = config.params
    contract = _contract_from_config(config)
    response = agent.best_response(contract, params)
    mc_value, mc_se = agent.estimate_agent_value(
        contract, response.policy, params, split_seed(params.seed, "agent-mc"))
    mc_z = (mc_value - response.value) / mc_se
    policy, grid = response.policy, response.grid
    arrays = {"t_nodes": policy.t_nodes, "w_nodes": policy.w_nodes,
              "z_nodes": policy.z_nodes, "rates": policy.table,
              "values": grid.values}
    if grid.p_nodes is not None:
        arrays["p_nodes"] = grid.p_nodes
    np.savez(os.path.join(out_dir, "agent.npz"), **arrays)
    _write_csv(os.path.join(out_dir, "agent.csv"),
               ["quantity", "value"],
               [["value", _fmt(response.value)],
                ["mc_value", _fmt(mc_value)],
                ["mc_se", _fmt(mc_se)],
                ["mc_z", _fmt(mc_z)]])
    lines.append(f"agent value {response.value:.6f}, "
                 f"Monte Carlo check {mc_value:.6f} (se {mc_se:.2g}, "
                 f"z {mc_z:.2f})")
    return ["agent.csv", "agent.npz"]


def _mode_oracle(config, out_dir, lines):
    params = config.params
    depth = int(config.run.get("depth", 2))
    branching = int(config.run.get("branching", 2))
    lam = params.entropy_weight
    trials = int(config.run.get("trials", 100))
    tree = oracle.build_tree(depth, branching, params)
    contract = _contract_from_config(config)
    u = oracle.atom_utility_from_contract(tree, contract, params)
    constraints = oracle.node_constraint_set(tree, params.rate_lower,
                                             params.rate_upper)
    strong = oracle.solve_strong_discrete(tree, u, lam, constraints)
    grid = oracle.default_density_grid(strong.density)
    relaxed_value, control = oracle.solve_relaxed_discrete(
        tree, u, lam, grid, constraints)
    collapse = oracle.verify_collapse(tree, lam, trials,
                                      split_seed(params.seed, "collapse"),
                                      control)
    extraction = oracle.extract_strong_control(
        tree, control, params.rate_lower, params.rate_upper)
    rows = [
        ["strong_value", _fmt(strong.value)],
        ["relaxed_value", _fmt(relaxed_value)],
        ["value_gap", _fmt(abs(relaxed_value - strong.value))],
        ["kkt_residual", _fmt(strong.kkt_residual)],
        ["duality_gap", _fmt(strong.duality_gap)],
        ["collapse_counterexamples", len(collapse.counterexamples)],
        ["min_jensen_gap", _fmt(collapse.min_jensen_gap)],
        ["relaxed_is_dirac", int(collapse.relaxed_is_dirac)],
        ["max_constraint_violation", _fmt(extraction.max_violation)],
        ["reconstruction_error", _fmt(extraction.reconstruction_error)],
    ]
    _write_csv(os.path.join(out_dir, "oracle.csv"), ["quantity", "value"],
               rows)
    lines.append(f"tree depth {depth} branching {branching}: strong "
                 f"{strong.value:.8f}, relaxed {relaxed_value:.8f}, "
                 f"gap {abs(relaxed_value - strong.value):.2e}")
    return ["oracle.csv"]


def _mode_optimize(config, out_dir, lines):
    params = config.params
    family = _family_from_config(config)
    budget = int(config.run.get("budget", 200))
    best, sequence = principal.optimize(family, params, budget)
    _write_csv(os.path.join(out_dir, "sequence.csv"),
               ["iteration", "stage"]
               + [f"coef_{k}" for k in range(family.dimension)]
               + ["j_p", "j_p_se", "v_a", "participation", "best_so_far"],
               [[r["iteration"], r["stage"]]
                + [float(c) for c in r["coefficients"]]
                + [r["j_p"], r["j_p_se"], r["v_a"], int(r["participation"]),
                   r["best_so_far"]]
                for r in sequence.records])
    _write_json(os.path.join(out_dir, "sequence.json"),
                [{**r, "coefficients": r["coefficients"].tolist(),
                  "contract": contracts.contract_to_record(
                      family.make(r["coefficients"]))}
                 for r in sequence.records])
    _write_json(os.path.join(out_dir, "best_contract.json"),
                contracts.contract_to_record(best))
    report = principal.convergence_report(sequence)
    _write_csv(os.path.join(out_dir, "convergence.csv"),
               ["quantity", "value"],
               [["n_updates", report.n_updates],
                ["cauchy_tail", _fmt(report.cauchy_tail)],
                ["limit_value", _fmt(report.limit_value)]]
               + [[f"limit_coef_{k}", _fmt(v)]
                  for k, v in enumerate(report.limit_point)])
    lines.append(f"optimize: {len(sequence)} evaluations, "
                 + report.summary())
    return ["sequence.csv", "sequence.json", "best_contract.json",
            "convergence.csv"]


def _verify_rate(params):
    """The constant rate ``verify`` reweights by: the midpoint (L + U) / 2
    capped at c = eps / sqrt(T) (c where the midpoint is 0, so that the Z
    channel is reweighted too), then clamped to [L, U]. The cap keeps the
    density's log-variance (pi / eps)^2 T at most 1 where [L, U] allows; at
    the default bounds U / 2 = 5 would leave an ESS of 2 in 10,000 paths."""
    cap = params.epsilon / params.horizon**0.5
    rate = min(max(0.5 * (params.rate_lower + params.rate_upper), -cap),
               cap) or cap
    return min(max(rate, params.rate_lower), params.rate_upper)


def _mode_verify(config, out_dir, lines):
    """Invariant battery: density normalization, entropy identity,
    constraint moments, and the discrete oracle equalities. The three Monte
    Carlo checks read ``degenerate``, not pass or FAIL, when the weights
    are (:func:`simulate.is_degenerate`)."""
    params = config.params
    checks = []

    policy = FeedbackPolicy.constant(_verify_rate(params), params)
    sample = simulate.weighted_reference(
        params, policy, split_seed(params.seed, "verify-sim"), moments=True)
    mean, se = simulate._mean_se(sample.m)
    checks.append(("girsanov_normalization", abs(mean - 1.0) <= 3 * se,
                   f"|E[m]-1| = {abs(mean - 1.0):.2e}, 3se = {3 * se:.2e}"))

    report = simulate.entropy_report(sample, params)
    checks.append(("entropy_identity",
                   abs(report.gap) <= 3 * report.combined_se,
                   f"gap = {report.gap:.2e}, "
                   f"3se = {3 * report.combined_se:.2e}"))

    estimates, ses = simulate.constraint_moments(sample)
    worst = float(np.max(estimates - 3 * ses))
    checks.append(("constraint_moments", worst <= 0.0,
                   f"max (estimate - 3se) = {worst:.2e}"))
    weighted = len(checks)
    degenerate = simulate.is_degenerate(sample)

    tree = oracle.build_tree(2, 2, params)
    contract = _contract_from_config(config)
    u = oracle.atom_utility_from_contract(tree, contract, params)
    lam = params.entropy_weight
    strong = oracle.solve_strong_discrete(tree, u, lam)
    grid = oracle.default_density_grid(strong.density)
    relaxed_value, control = oracle.solve_relaxed_discrete(tree, u, lam, grid)
    gap = abs(relaxed_value - strong.value)
    checks.append(("oracle_value_equality", gap <= 1e-8,
                   f"|relaxed - strong| = {gap:.2e}"))
    checks.append(("oracle_collapse", control.is_dirac(),
                   f"max secondary weight = "
                   f"{control.max_secondary_weight():.2e}"))

    rows = []
    for k, (name, passed, detail) in enumerate(checks):
        status = ("degenerate" if degenerate and k < weighted
                  else "pass" if passed else "FAIL")
        rows.append([name, status, detail])
        lines.append(f"{name}: {status} ({detail})")
    _write_csv(os.path.join(out_dir, "verify.csv"),
               ["check", "status", "detail"], rows)
    return ["verify.csv"]


def _mode_report(config, out_dir, lines):
    """Closed-form reference table for the configured parameters."""
    params = config.params
    t4 = params.horizon**4
    rows = [
        ["agent_value_zero_fee", _fmt(t4 / (48 * params.phi_a))],
        ["expected_rate_energy", _fmt(t4 / (48 * params.phi_a**2))],
        ["binding_constant_fee",
         _fmt(t4 / (48 * params.phi_a) - params.reservation)],
        ["principal_value",
         _fmt(t4 / (48 * params.phi_a) - params.reservation
              - params.phi_p * t4 / (48 * params.phi_a**2))],
    ]
    _write_csv(os.path.join(out_dir, "report.csv"), ["quantity", "value"],
               rows)
    lines.append("closed-form reference table written "
                 "(valid when the rate bounds are non-binding)")
    return ["report.csv"]


_MODE_RUNNERS = {
    "simulate": _mode_simulate,
    "agent": _mode_agent,
    "oracle": _mode_oracle,
    "optimize": _mode_optimize,
    "verify": _mode_verify,
    "report": _mode_report,
}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(config_path, seed=None, out_dir=None, mode=None) -> int:
    """Execute one configured run; returns a process exit status.

    ``mode`` replaces the config's ``run.mode``. A run whose mode raises
    still writes ``summary.txt``, ending in the traceback, and a manifest
    with status "failed", and returns 1.
    """
    try:
        config = parse_config(config_path, mode)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    mode = config.run["mode"]
    if seed is not None:
        config = ExperimentConfig(replace(config.params, seed=int(seed)),
                                  config.family, config.run)
    master_seed = config.params.seed
    out_dir = out_dir or config.run.get("out", "results")
    os.makedirs(out_dir, exist_ok=True)

    lines = [f"mode: {mode}", f"seed: {master_seed}"]
    status = "ok"
    try:
        outputs = _MODE_RUNNERS[mode](config, out_dir, lines)
    except Exception:
        trace = traceback.format_exc().rstrip("\n")
        print(f"{mode} failed:\n{trace}", file=sys.stderr)
        lines += [f"{mode} failed:", trace]
        status, outputs = "failed", []

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    outputs.append("summary.txt")

    manifest = {
        "mode": mode,
        "status": status,
        "seed": master_seed,
        "config": {k: str(v) for k, v in config.echo().items()},
        "outputs": {name: _sha256(os.path.join(out_dir, name))
                    for name in sorted(outputs)},
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    if status != "ok":
        return 1
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="brokerfee",
        description="Brokerage-fee contract solver and verification suite")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    # the positional mode overrides whatever the config file says
    return run(args.config, args.seed, args.out, args.mode)


if __name__ == "__main__":
    sys.exit(main())
