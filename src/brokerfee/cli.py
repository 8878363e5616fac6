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
import contextlib
import csv
import hashlib
import json
import os
import re
import sys
import traceback
from dataclasses import dataclass, fields, replace

import numpy as np

from . import agent, contracts, oracle, principal, simulate
from .model import FeedbackPolicy, ModelParams, validate_params
from .rng import split_seed

__all__ = ["ExperimentConfig", "parse_config", "run", "main"]

# family keys that only one contract class reads
_CLASS_KEYS = {"degree": "linear_polynomial", "p_nodes": "lipschitz_table",
               "z_nodes": "lipschitz_table"}


def _parse_array(text):
    return np.array([float(v) for v in str(text).split(",") if v.strip()])


def _at_least(least):
    """The cast to an integer of at least ``least``."""
    def cast(text):
        if not (text.isdecimal() and int(text) >= least):
            raise ValueError(f"must be an integer of at least {least}, "
                             f"got {text!r}")
        return int(text)
    return cast


# each model, family and run key: the cast of its value, and the value used
# when the file leaves the key out. A search's convergence report needs two
# records; oracle.check_tree bounds the tree's depth and branching.
_KEYS = {"model": {field.name: (field.type, field.default)
                   for field in fields(ModelParams)},
         "family": {"class": (str, "constant"), "cap": (float, 1.0),
                    "degree": (int, 1), "p_nodes": (_parse_array, None),
                    "z_nodes": (_parse_array, None),
                    "coefficients": (_parse_array, np.zeros(1))},
         "run": {"mode": (str, None), "budget": (_at_least(2), 200),
                 "trials": (_at_least(1), 100), "depth": (int, 2),
                 "branching": (int, 2), "out": (str, "results")}}


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    run: dict
    contract_family: principal.ContractFamily
    contract: object
    given: dict     # the text of each family and run key the file gives

    def echo(self) -> dict:
        return {**{f"model.{field.name}": getattr(self.params, field.name)
                   for field in fields(ModelParams)}, **self.given}


def parse_config(path, mode=None) -> ExperimentConfig:
    """Parse a flat dotted key-value config; errors cite line and key.

    Each value is cast on its line by its key's cast in ``_KEYS``, and a
    key the file leaves out takes its default there. ``mode``, when given,
    replaces the file's ``run.mode``. A key given twice, an unknown mode,
    a family or run key that the mode (``_MODE_KEYS``) or the family's
    class does not read, a tree that :func:`oracle.check_tree` refuses, a
    coefficient outside the family's box, or model, family or coefficient
    values that make no valid model or contract, is an error.
    """
    values = {section: {name: default for name, (_, default) in keys.items()}
              for section, keys in _KEYS.items()}
    text = {section: {} for section in _KEYS}
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
            section, _, name = key.partition(".")
            if section not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config section "
                                 f"for key: {key}")
            if name not in _KEYS[section]:
                raise ValueError(f"{path}:{lineno}: unknown {section} key: "
                                 f"{name}")
            try:
                values[section][name] = _KEYS[section][name][0](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
            text[section][name] = value
    family, run = values["family"], values["run"]
    if mode is not None:
        run["mode"] = text["run"]["mode"] = mode
    if run["mode"] not in MODES:
        where = (f"{path}:{line_of['run.mode']}" if "run.mode" in line_of
                 else path)
        raise ValueError(f"{where}: run.mode must be one of {MODES}")
    for key, line in line_of.items():
        if key.startswith(("family.", "run.")) and not (
                key in _MODE_KEYS[run["mode"]] or key in _EVERY_MODE_KEYS):
            raise ValueError(f"{path}:{line}: mode {run['mode']} does not "
                             f"read {key}")
    for name, reader in _CLASS_KEYS.items():
        if name in text["family"] and family["class"] != reader:
            raise ValueError(f"{path}:{line_of['family.' + name]}: family "
                             f"class {family['class']} does not read "
                             f"family.{name}")
    with _citing(path, line_of, "run."):
        oracle.check_tree(run["depth"], run["branching"])
    with _citing(path, line_of, "model."):
        params = validate_params(ModelParams(**values["model"]))
    with _citing(path, line_of, "family."):
        contract_family = principal.ContractFamily(
            family["class"], family["cap"], family["degree"],
            family["p_nodes"], family["z_nodes"])
        coeffs = family["coefficients"]
        if len(coeffs) > contract_family.dimension:
            raise ValueError(f"family.coefficients has {len(coeffs)} "
                             f"entries, but the family has dimension "
                             f"{contract_family.dimension}")
        outside = coeffs[np.abs(coeffs) > contract_family.cap]
        if len(outside):
            raise ValueError(f"family.coefficients has {float(outside[0])} "
                             f"outside [-{contract_family.cap}, "
                             f"{contract_family.cap}]")
        theta = np.zeros(contract_family.dimension)
        theta[:len(coeffs)] = coeffs
        contract = contract_family.make(theta)
    given = {f"{section}.{name}": value for section in ("family", "run")
             for name, value in text[section].items()}
    return ExperimentConfig(params, run, contract_family, contract, given)


@contextlib.contextmanager
def _citing(path, line_of, section):
    """Re-raise a ``ValueError`` citing the last line of the ``section``
    keys that its message names, or else of all the section's keys."""
    try:
        yield
    except ValueError as exc:
        lines = {key[len(section):]: line for key, line in line_of.items()
                 if key.startswith(section)}
        named = [line for name, line in lines.items()
                 if re.search(rf"\b{name}\b", str(exc))]
        line = max(named or lines.values(), default=0)
        raise ValueError(f"{path}:{line}: {exc}") from exc


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v))
                             if isinstance(v, (float, np.floating)) else v
                             for v in row])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


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
        mean, se = simulate.mean_se(weighted.m)
        ess = simulate.effective_sample_size(weighted)
        degenerate = simulate.is_degenerate(weighted)
        report = simulate.entropy_report(weighted, params)
        rows.append([label, rate, mean, se, report.lhs, report.lhs_se,
                     report.rhs, report.rhs_se, ess, int(degenerate)])
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

    ``agent.npz`` holds the policy's nodes and rates (n_t, n_w, n_z) and
    ``values``, the value at t = 0 on the planes the solve marched: shape
    (n_w, n_z) on the 2-D grid, and on the 3-D grid, with ``p_nodes``,
    (n_p, n_w, n_z), or (1, n_w, n_z) when the fee is equal on every p
    plane and one marched plane stands for every p node."""
    params = config.params
    policy, grid = agent.solve_hjb(config.contract, params)
    value = grid.value_at_origin
    mc_value, mc_se = agent.estimate_agent_value(
        config.contract, policy, params, split_seed(params.seed, "agent-mc"))
    mc_z = (mc_value - value) / mc_se
    arrays = {"t_nodes": policy.t_nodes, "w_nodes": policy.w_nodes,
              "z_nodes": policy.z_nodes, "rates": policy.table,
              "values": grid.values}
    if grid.p_nodes is not None:
        arrays["p_nodes"] = grid.p_nodes
        # one marched plane is broadcast over the p nodes with stride 0
        if grid.values.strides[0] == 0:
            arrays["values"] = grid.values[:1]
    np.savez(os.path.join(out_dir, "agent.npz"), **arrays)
    _write_csv(os.path.join(out_dir, "agent.csv"),
               ["quantity", "value"],
               [["value", value], ["mc_value", mc_value],
                ["mc_se", mc_se], ["mc_z", mc_z]])
    lines.append(f"agent value {value:.6f}, "
                 f"Monte Carlo check {mc_value:.6f} (se {mc_se:.2g}, "
                 f"z {mc_z:.2f})")
    return ["agent.csv", "agent.npz"]


def _mode_oracle(config, out_dir, lines):
    params = config.params
    depth, branching = config.run["depth"], config.run["branching"]
    lam = params.entropy_weight
    tree = oracle.build_tree(depth, branching, params)
    u = oracle.atom_utility_from_contract(tree, config.contract, params)
    constraints = oracle.node_constraint_set(tree, params.rate_lower,
                                             params.rate_upper)
    strong = oracle.solve_strong_discrete(tree, u, lam, constraints)
    grid = oracle.default_density_grid(strong.density)
    relaxed_value, control = oracle.solve_relaxed_discrete(
        tree, u, lam, grid, constraints)
    collapse = oracle.verify_collapse(tree, lam, config.run["trials"],
                                      split_seed(params.seed, "collapse"))
    extraction = oracle.extract_strong_control(
        tree, control, params.rate_lower, params.rate_upper)
    rows = [
        ["strong_value", strong.value],
        ["relaxed_value", relaxed_value],
        ["value_gap", abs(relaxed_value - strong.value)],
        ["kkt_residual", strong.kkt_residual],
        ["duality_gap", strong.duality_gap],
        ["collapse_counterexamples", len(collapse.counterexamples)],
        ["min_jensen_gap", collapse.min_jensen_gap],
        ["relaxed_is_dirac", int(control.is_dirac())],
        ["max_constraint_violation", extraction.max_violation],
        ["reconstruction_error", extraction.reconstruction_error],
    ]
    _write_csv(os.path.join(out_dir, "oracle.csv"), ["quantity", "value"],
               rows)
    lines.append(f"tree depth {depth} branching {branching}: strong "
                 f"{strong.value:.8f}, relaxed {relaxed_value:.8f}, "
                 f"gap {abs(relaxed_value - strong.value):.2e}")
    return ["oracle.csv"]


def _mode_optimize(config, out_dir, lines):
    params = config.params
    family = config.contract_family
    best, sequence = principal.optimize(family, params, config.run["budget"])
    _write_csv(os.path.join(out_dir, "sequence.csv"),
               ["iteration", "stage"]
               + [f"coef_{k}" for k in range(family.dimension)]
               + ["j_p", "j_p_se", "v_a", "participation", "best_so_far"],
               [[r["iteration"], r["stage"]]
                + list(r["coefficients"])
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
                ["cauchy_tail", report.cauchy_tail],
                ["limit_value", report.limit_value]]
               + [[f"limit_coef_{k}", v]
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


def _weighted_checks(params):
    """The three Monte Carlo checks of ``verify`` on one weighted sample:
    density normalization, entropy identity and constraint moments, as
    (name, passed, detail) rows, and whether the weights are degenerate
    (:func:`simulate.is_degenerate`). The sample is dropped on return."""
    policy = FeedbackPolicy.constant(_verify_rate(params), params)
    sample = simulate.weighted_reference(
        params, policy, split_seed(params.seed, "verify-sim"), moments=True)
    mean, se = simulate.mean_se(sample.m)
    checks = [("girsanov_normalization", abs(mean - 1.0) <= 3 * se,
               f"|E[m]-1| = {abs(mean - 1.0):.2e}, 3se = {3 * se:.2e}")]

    report = simulate.entropy_report(sample, params)
    checks.append(("entropy_identity",
                   abs(report.gap) <= 3 * report.combined_se,
                   f"gap = {report.gap:.2e}, "
                   f"3se = {3 * report.combined_se:.2e}"))

    estimates, ses = simulate.constraint_moments(sample)
    worst = float(np.max(estimates - 3 * ses))
    checks.append(("constraint_moments", worst <= 0.0,
                   f"max (estimate - 3se) = {worst:.2e}"))
    return checks, simulate.is_degenerate(sample)


def _mode_verify(config, out_dir, lines):
    """Invariant battery: density normalization, entropy identity,
    constraint moments, and the discrete oracle equalities. The three Monte
    Carlo checks read ``degenerate``, not pass or FAIL, when the weights
    are (:func:`simulate.is_degenerate`). Their weighted sample, 12 floats
    per path, is dropped before the oracle checks load their solvers."""
    params = config.params
    checks, degenerate = _weighted_checks(params)
    weighted = len(checks)

    tree = oracle.build_tree(2, 2, params)
    u = oracle.atom_utility_from_contract(tree, config.contract, params)
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
        ["agent_value_zero_fee", t4 / (48 * params.phi_a)],
        ["expected_rate_energy", t4 / (48 * params.phi_a**2)],
        ["binding_constant_fee",
         t4 / (48 * params.phi_a) - params.reservation],
        ["principal_value",
         t4 / (48 * params.phi_a) - params.reservation
         - params.phi_p * t4 / (48 * params.phi_a**2)],
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
MODES = tuple(_MODE_RUNNERS)

# the family and run keys each mode reads, besides those that every run
# reads: a mode that solves for the configured fee reads the whole family,
# and the search reads every family key but the fee's coefficients
_EVERY_MODE_KEYS = {"run.mode", "run.out"}
_FAMILY_KEYS = {f"family.{name}" for name in _KEYS["family"]}
_SEARCH_KEYS = _FAMILY_KEYS - {"family.coefficients"} | {"run.budget"}
_TREE_KEYS = {"run.depth", "run.branching", "run.trials"}
_MODE_KEYS = {"simulate": set(), "agent": _FAMILY_KEYS,
              "oracle": _FAMILY_KEYS | _TREE_KEYS, "optimize": _SEARCH_KEYS,
              "verify": _FAMILY_KEYS, "report": set()}


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
        config = replace(config, params=replace(config.params,
                                                seed=int(seed)))
    master_seed = config.params.seed
    out_dir = out_dir or config.run["out"]
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
