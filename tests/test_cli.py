import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from brokerfee import cli, oracle
from brokerfee.model import ModelParams, interpolate

import solver_constants

MODEL_CONFIG = """\
model.epsilon = 0.5
model.rate_lower = -1.0
model.rate_upper = 1.0
model.n_steps = 50
model.n_paths = 2000
model.seed = 7
"""
FEE_CONFIG = """\
family.class = constant
family.cap = 1.0
family.coefficients = 0.01
"""
# the family keys and the run keys each mode reads, beyond run.mode and
# run.out, which every mode reads: the family keys from line 7, run.mode
# and run.out next, and the mode's own run keys last
MODE_CONFIG = {
    "simulate": ("", ""), "report": ("", ""), "agent": (FEE_CONFIG, ""),
    "verify": (FEE_CONFIG, ""),
    "optimize": ("family.class = constant\nfamily.cap = 1.0\n",
                 "run.budget = 6\n"),
    "oracle": (FEE_CONFIG,
               "run.depth = 2\nrun.branching = 2\nrun.trials = 10\n"),
}


def write_config(tmp_path, mode, name="run.cfg"):
    out = tmp_path / f"out_{mode}"
    cfg = tmp_path / name
    family, run = MODE_CONFIG[mode]
    cfg.write_text(f"{MODEL_CONFIG}{family}run.mode = {mode}\n"
                   f"run.out = {out}\n{run}")
    return cfg, out


def test_parse_round_trip(tmp_path):
    cfg, _ = write_config(tmp_path, "simulate")
    config = cli.parse_config(cfg)
    echoed = config.echo()
    rewritten = tmp_path / "echo.cfg"
    rewritten.write_text("\n".join(f"{k} = {v}" for k, v in echoed.items()))
    again = cli.parse_config(rewritten)
    assert again.params == config.params
    assert again.run["mode"] == config.run["mode"]


def test_parse_error_cites_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.sigma = 1.0\nthis line has no equals\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2"):
        cli.parse_config(cfg)


# the oracle's entropy weight is the model's 2 eps^2 phi_a, not a run key
@pytest.mark.parametrize("section, key", [
    pytest.param("run", "colour", id="colour"),
    pytest.param("run", "lam", id="lam"),
    ("model", "volatility"), ("family", "colour")])
def test_parse_error_names_unknown_key(tmp_path, section, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"run.mode = simulate\n{section}.{key} = 1\n")
    with pytest.raises(ValueError,
                       match=f"bad.cfg:2: unknown {section} key: {key}"):
        cli.parse_config(cfg)


def test_defaults_of_a_config_that_gives_only_the_mode(tmp_path):
    cfg = tmp_path / "mode.cfg"
    cfg.write_text("run.mode = optimize\n")
    config = cli.parse_config(cfg)
    assert config.run == {"mode": "optimize", "budget": 200, "trials": 100,
                          "depth": 2, "branching": 2, "out": "results"}
    assert config.params == ModelParams()
    assert (config.contract_family.kind, config.contract_family.cap) == \
        ("constant", 1.0)
    assert config.contract.value == 0.0
    echoed = config.echo()
    assert list(echoed) == [f"model.{field.name}"
                            for field in fields(ModelParams)] + ["run.mode"]
    assert echoed["run.mode"] == "optimize"


@pytest.mark.parametrize("workload", sorted(
    (Path(__file__).parent.parent / "perfbench" / "workloads").glob("*.cfg")),
    ids=lambda path: path.stem)
def test_benchmark_workloads_parse(workload):
    # a config key the benchmark sets cannot be removed unnoticed
    config = cli.parse_config(workload)
    assert config.run["mode"] in cli.MODES


def test_traced_benchmark_run(tmp_path):
    # the benchmark's traced mode wraps the library and names the 3-D
    # solve from its result; a fee that reads the price takes that solve
    root = Path(__file__).parent.parent
    cfg = tmp_path / "agent.cfg"
    cfg.write_text("model.n_paths = 500\nmodel.n_steps = 50\n"
                   "family.class = linear_polynomial\n"
                   "family.coefficients = 0.05\nrun.mode = agent\n")
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(root / "perfbench" / "child.py"),
                    "--src", str(root / "src"), "--result", str(result),
                    "--trace", "--", "agent", "--config", str(cfg),
                    "--out", str(tmp_path / "out")],
                   cwd=root, capture_output=True, check=True, timeout=300)
    record = json.loads(result.read_text())
    assert record["status"] == 0
    names = {span[1] for span in record["spans"]}
    assert {"agent.solve_hjb_3d", "simulate.simulate_controlled"} <= names


def test_key_given_twice_is_exit_2(tmp_path, capsys):
    # the second value used to win silently
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("run.mode = report\nmodel.sigma = 1.0\n# comment\n"
                   "model.sigma = 3.0\n")
    with pytest.raises(ValueError, match=r"twice\.cfg:4: model\.sigma is "
                       r"given twice, first at line 2"):
        cli.parse_config(cfg)
    assert cli.run(cfg) == 2
    assert "model.sigma is given twice" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["1", "0", "2.5", "two"])
def test_budget_below_two_is_exit_2(tmp_path, capsys, budget):
    # the convergence report needs two records: a budget of 1 used to run
    # the whole search and then fail with a traceback
    cfg, out = write_config(tmp_path, "optimize")
    cfg.write_text(cfg.read_text().replace("run.budget = 6",
                                           f"run.budget = {budget}"))
    message = (f"run.cfg:11: run.budget: must be an integer of at least 2, "
               f"got '{budget}'")
    assert cli.run(cfg) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3", "1.5"])
@pytest.mark.parametrize("line, key", [(12, "depth"), (13, "branching"),
                                       (14, "trials")])
def test_tree_key_below_one_is_exit_2(tmp_path, capsys, line, key, value):
    # trials 0 used to run both solves and then fail in verify_collapse,
    # and trials -3 or depth 1.5 failed with a traceback. The depth and
    # branching are integers that oracle.check_tree bounds.
    cfg, out = write_config(tmp_path, "oracle")
    cfg.write_text(re.sub(rf"run\.{key} = \d+", f"run.{key} = {value}",
                          cfg.read_text()))
    if key == "trials":
        error = f"run.trials: must be an integer of at least 1, got '{value}'"
    elif value == "1.5":
        error = f"run.{key}: invalid literal for int() with base 10: '1.5'"
    else:
        choices = oracle.DEPTHS if key == "depth" else oracle.BRANCHINGS
        error = (f"{key} must be one of {', '.join(map(str, choices))}, "
                 f"got {value}")
    message = f"run.cfg:{line}: {error}"
    assert cli.run(cfg) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, key, value, choices", [
    (12, "depth", "5", "1, 2, 3, 4"), (12, "depth", "9", "1, 2, 3, 4"),
    (13, "branching", "1", "2, 3"), (13, "branching", "4", "2, 3")])
def test_tree_the_oracle_cannot_build_is_exit_2(tmp_path, capsys, line, key,
                                                value, choices):
    # these used to reach oracle.build_tree after the output directory was
    # made, and exit 1
    cfg, out = write_config(tmp_path, "oracle")
    cfg.write_text(re.sub(rf"run\.{key} = \d+", f"run.{key} = {value}",
                          cfg.read_text()))
    message = f"run.cfg:{line}: {key} must be one of {choices}, got {value}"
    assert cli.run(cfg) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, key, value", [
    ("constant", "degree", "4"),
    ("lipschitz_table", "degree", "2"),
    ("linear_polynomial", "p_nodes", "-1, 1"),
    ("constant", "z_nodes", "-1, 1"),
])
def test_family_key_the_class_does_not_read_is_exit_2(tmp_path, capsys,
                                                      kind, key, value):
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(f"run.mode = agent\nfamily.class = {kind}\n"
                   f"family.{key} = {value}\n")
    message = f"unread.cfg:3: family class {kind} does not read family.{key}"
    with pytest.raises(ValueError, match=message):
        cli.parse_config(cfg)
    assert cli.run(cfg) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mode, key, value", [
    ("verify", "run.trials", "10"), ("verify", "run.depth", "2"),
    ("verify", "run.branching", "2"), ("agent", "run.budget", "6"),
    ("optimize", "family.coefficients", "0.01"),
    ("simulate", "family.class", "constant"), ("report", "family.cap", "1.0"),
    ("oracle", "run.budget", "6"), ("optimize", "run.trials", "10"),
])
def test_key_the_mode_does_not_read_is_exit_2(tmp_path, capsys, mode, key,
                                              value):
    # these used to parse and be ignored, while the manifest echoed them
    cfg, out = write_config(tmp_path, mode)
    lines = cfg.read_text().splitlines()
    lines.insert(6, f"{key} = {value}")
    cfg.write_text("\n".join(lines) + "\n")
    message = f"run.cfg:7: mode {mode} does not read {key}"
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.parse_config(cfg)
    assert cli.run(cfg) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_mode_override_decides_the_keys_read(tmp_path, capsys):
    # the positional mode, not the file's run.mode, decides which keys are
    # read: an oracle config is no verify config, but a verify config is
    # an oracle config with the tree's defaults
    cfg, out = write_config(tmp_path, "oracle")
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    assert "run.cfg:12: mode verify does not read run.depth" in \
        capsys.readouterr().err
    assert not out.exists()
    cfg, _ = write_config(tmp_path, "verify")
    config = cli.parse_config(cfg, mode="oracle")
    assert (config.run["mode"], config.run["depth"]) == ("oracle", 2)


def test_family_keys_of_the_class_parse(tmp_path):
    cfg = tmp_path / "table.cfg"
    cfg.write_text("run.mode = agent\nfamily.p_nodes = -1, 1\n"
                   "family.z_nodes = -1, 1\nfamily.class = lipschitz_table\n")
    assert cli.parse_config(cfg).contract_family.kind == "lipschitz_table"


@pytest.mark.parametrize("key", ["gamma", "holder_const", "operator"])
def test_removed_keys_are_not_family_keys(tmp_path, key, capsys):
    # the search set of a table family is its value box, with no Holder
    # data, and every fee pays on (P_T, Z_T), so there is no operator tag
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"run.mode = optimize\nfamily.{key} = 1.0\n")
    with pytest.raises(ValueError, match=f"unknown family key: {key}"):
        cli.parse_config(cfg)
    assert cli.run(cfg) == 2
    assert f"unknown family key: {key}" in capsys.readouterr().err


def test_non_finite_parameter_is_exit_2(tmp_path, capsys):
    # a non-finite value is a config error, caught before any solve
    cfg, _ = write_config(tmp_path, "agent")
    cfg.write_text(cfg.read_text().replace("model.rate_lower = -1.0",
                                           "model.rate_lower = nan"))
    assert cli.run(cfg) == 2
    assert "rate_lower must be finite" in capsys.readouterr().err


def test_unknown_mode_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("run.mode = frobnicate\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:1: run\.mode must be"):
        cli.parse_config(cfg)


def test_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# header\n\nrun.mode = report  # trailing comment\n")
    assert cli.parse_config(cfg).run["mode"] == "report"


def test_missing_config_is_exit_2(tmp_path, capsys):
    assert cli.run(tmp_path / "absent.cfg") == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["simulate", "agent", "verify", "report"])
def test_mode_writes_manifest(tmp_path, mode, capsys):
    cfg, out = write_config(tmp_path, mode)
    assert cli.run(cfg) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == mode
    assert manifest["status"] == "ok"
    assert manifest["seed"] == 7
    # every declared output exists and its hash is recorded
    for name, digest in manifest["outputs"].items():
        assert (out / name).exists()
        assert len(digest) == 64
    listed = set(manifest["outputs"])
    actual = {p for p in os.listdir(out) if p != "manifest.json"}
    assert listed == actual
    assert (out / "summary.txt").read_text().startswith(f"mode: {mode}")


def test_simulate_reports_degenerate_weights_at_default_bounds(tmp_path):
    # at the default rate bounds +-10 a few paths carry all the weight
    cfg, out = write_config(tmp_path, "simulate")
    cfg.write_text("\n".join(line for line in cfg.read_text().splitlines()
                             if not line.startswith("model.rate_")))
    assert cli.run(cfg) == 0
    header, *rows = (out / "girsanov.csv").read_text().splitlines()
    assert header.split(",")[-2:] == ["ess", "degenerate"]
    ess = {row.split(",")[0]: float(row.split(",")[-2]) for row in rows}
    flag = {row.split(",")[0]: row.split(",")[-1] for row in rows}
    assert ess["lower"] < 20 and ess["upper"] < 20    # n_paths is 2000
    assert ess["zero"] > 200
    # below 1 % of the paths the weights are flagged as degenerate
    assert flag == {"lower": "1", "zero": "0", "upper": "1"}
    summary = (out / "summary.txt").read_text()
    assert (f"policy upper: degenerate (ess {ess['upper']:.1f} of 2000)"
            in summary)
    assert "policy zero: E[m] = " in summary
    assert "policy upper: E[m]" not in summary


def test_simulate_reweights_at_rates_clamped_into_the_bounds(tmp_path,
                                                            monkeypatch):
    # 0 lies below L = 0.5, so the zero row is reweighted at L
    rates = []

    def recording(params, rate, seed):
        rates.append(rate)
        return weighted(params, rate, seed)

    weighted = cli.simulate.weighted_reference
    monkeypatch.setattr(cli.simulate, "weighted_reference", recording)
    cfg, out = write_config(tmp_path, "simulate")
    cfg.write_text(cfg.read_text()
                   .replace("rate_lower = -1.0", "rate_lower = 0.5")
                   .replace("rate_upper = 1.0", "rate_upper = 2.0"))
    assert cli.run(cfg) == 0
    assert rates == [0.5, 0.5, 2.0]
    # and each row prints the rate it was reweighted at
    with open(out / "girsanov.csv") as f:
        assert [float(row["rate"]) for row in csv.DictReader(f)] == rates


def test_agent_mode_arrays(tmp_path):
    cfg, out = write_config(tmp_path, "agent")
    assert cli.run(cfg) == 0
    with np.load(out / "agent.npz") as npz:
        arrays = dict(npz)
    # a constant fee: the value at t = 0 is on the policy's nodes, in 2-D
    assert set(arrays) == {"t_nodes", "w_nodes", "z_nodes", "rates",
                           "values"}
    shape = tuple(len(arrays[f"{axis}_nodes"]) for axis in "twz")
    assert arrays["rates"].shape == shape
    assert arrays["values"].shape == shape[1:]
    rows = dict(line.split(",") for line in
                (out / "agent.csv").read_text().splitlines()[1:])
    origin = interpolate((arrays["w_nodes"], arrays["z_nodes"]),
                         arrays["values"], 0.0, 0.0)
    assert float(origin) == pytest.approx(float(rows["value"]), abs=1e-12)
    value, mc_value, mc_se, mc_z = (float(rows[k]) for k in
                                    ("value", "mc_value", "mc_se", "mc_z"))
    assert mc_z == pytest.approx((mc_value - value) / mc_se, rel=1e-12)
    assert abs(mc_z) <= 3.0
    assert f"z {mc_z:.2f})" in (out / "summary.txt").read_text()
    rerun = tmp_path / "rerun"
    assert cli.run(cfg, out_dir=rerun) == 0
    for name in ("agent.npz", "agent.csv"):
        assert (out / name).read_bytes() == (rerun / name).read_bytes()


@pytest.mark.parametrize("coefficient, planes", [("0", 1), ("0.05", 9)],
                         ids=["zero-polynomial", "price-dependent"])
def test_agent_mode_saves_the_marched_planes(tmp_path, coefficient, planes):
    # the zero polynomial is solved on the 3-D grid but marched on one p
    # plane, which agent.npz keeps once instead of once per p node
    cfg, out = write_config(tmp_path, "agent")
    cfg.write_text(cfg.read_text()
                   .replace("= constant", "= linear_polynomial")
                   .replace("= 0.01", f"= {coefficient}"))
    with solver_constants.hjb_grid(n_w=21, n_z=21, n_p=9):
        assert cli.run(cfg) == 0
    with np.load(out / "agent.npz") as npz:
        arrays = dict(npz)
    assert arrays["p_nodes"].shape == (9,)
    assert arrays["values"].shape == (planes, 21, 21)
    value = float(dict(line.split(",") for line in
                       (out / "agent.csv").read_text().splitlines()[1:])
                  ["value"])
    axes = (arrays["w_nodes"], arrays["z_nodes"])
    if planes == 1:
        origin = interpolate(axes, arrays["values"][0], 0.0, 0.0)
    else:
        origin = interpolate((arrays["p_nodes"],) + axes, arrays["values"],
                             0.0, 0.0, 0.0)
    assert float(origin) == pytest.approx(value, abs=1e-12)


def test_optimize_mode_consistent_with_convergence(tmp_path):
    cfg, out = write_config(tmp_path, "optimize")
    assert cli.run(cfg) == 0
    rows = (out / "sequence.csv").read_text().splitlines()
    final_best = float(rows[-1].rsplit(",", 1)[-1])
    conv = dict(line.split(",") for line in
                (out / "convergence.csv").read_text().splitlines()[1:])
    assert float(conv["limit_value"]) == pytest.approx(final_best, abs=1e-12)
    best = json.loads((out / "best_contract.json").read_text())
    assert best["class"] == "constant"
    assert best["value"] == pytest.approx(float(conv["limit_coef_0"]))


def test_oracle_mode_outputs(tmp_path):
    cfg, out = write_config(tmp_path, "oracle")
    assert cli.run(cfg) == 0
    rows = dict(line.split(",") for line in
                (out / "oracle.csv").read_text().splitlines()[1:])
    assert float(rows["value_gap"]) <= 1e-8
    assert int(rows["collapse_counterexamples"]) == 0


def test_oracle_mode_depth_three_collapses(tmp_path):
    cfg, out = write_config(tmp_path, "oracle")
    cfg.write_text(cfg.read_text().replace("run.depth = 2", "run.depth = 3"))
    assert cli.run(cfg) == 0
    rows = dict(line.split(",") for line in
                (out / "oracle.csv").read_text().splitlines()[1:])
    assert int(rows["relaxed_is_dirac"]) == 1
    assert float(rows["max_constraint_violation"]) <= 1e-8
    assert abs(float(rows["duality_gap"])) <= 1e-12


def test_oracle_mode_solves_each_program_once(tmp_path, monkeypatch):
    # the collapse check reads the relaxed optimum instead of re-solving
    calls = []

    def counting(solve):
        def counted(*args, **kwargs):
            calls.append(solve.__name__)
            return solve(*args, **kwargs)
        return counted

    for solve in (oracle.solve_strong_discrete, oracle.solve_relaxed_discrete):
        monkeypatch.setattr(oracle, solve.__name__, counting(solve))
    cfg, _ = write_config(tmp_path, "oracle")
    assert cli.run(cfg) == 0
    assert sorted(calls) == ["solve_relaxed_discrete", "solve_strong_discrete"]


def test_deterministic_reruns(tmp_path):
    # girsanov.csv prints full-precision floats of the threaded draws
    for mode, output in (("verify", "verify.csv"),
                         ("simulate", "girsanov.csv")):
        cfg, out1 = write_config(tmp_path, mode)
        assert cli.run(cfg) == 0
        cfg2, out2 = write_config(tmp_path, mode, name="run2.cfg")
        cfg2.write_text(cfg.read_text().replace(str(out1), str(out2)))
        assert cli.run(cfg2) == 0
        assert (out1 / output).read_bytes() == (out2 / output).read_bytes()


def test_verify_reweights_the_z_channel_at_default_bounds(tmp_path,
                                                          monkeypatch):
    # the midpoint of the default bounds +-10 is 0, which would leave the Z
    # channel unweighted; verify uses min(U / 2, eps / sqrt(T)) = 0.5
    rates = []

    def recording(params, rate, seed):
        rates.append(rate)
        return weighted(params, rate, seed)

    weighted = cli.simulate.weighted_reference
    monkeypatch.setattr(cli.simulate, "weighted_reference", recording)
    cfg, out = write_config(tmp_path, "verify")
    cfg.write_text("\n".join(line for line in cfg.read_text().splitlines()
                             if not line.startswith("model.rate_")))
    assert cli.run(cfg) == 0
    assert rates == [0.5]
    assert "FAIL" not in (out / "verify.csv").read_text()
    # asymmetric bounds keep their nonzero midpoint
    assert cli._verify_rate(cli.ModelParams(rate_lower=-1.0,
                                            rate_upper=2.0)) == 0.5


def test_verify_passes_no_check_on_degenerate_weights(tmp_path):
    # on [5, 6] no rate keeps the density's log-variance (pi / eps)^2 T at
    # most 1: the rate 5 gives 100, and an effective sample size of a few
    # paths, so the three Monte Carlo checks neither pass nor fail
    cfg, out = write_config(tmp_path, "verify")
    cfg.write_text(cfg.read_text()
                   .replace("rate_lower = -1.0", "rate_lower = 5.0")
                   .replace("rate_upper = 1.0", "rate_upper = 6.0")
                   .replace("n_steps = 50", "n_steps = 100")
                   .replace("n_paths = 2000", "n_paths = 5000"))
    assert cli.run(cfg, seed=1) == 0
    with open(out / "verify.csv") as fh:
        status = {row["check"]: row["status"] for row in csv.DictReader(fh)}
    assert [status[name] for name in ("girsanov_normalization",
                                      "entropy_identity",
                                      "constraint_moments")] == \
        ["degenerate"] * 3
    assert status["oracle_value_equality"] == "pass"
    # wide bounds with a far midpoint take the capped rate eps / sqrt(T)
    assert cli._verify_rate(cli.ModelParams(rate_lower=-1.0,
                                            rate_upper=20.0)) == 0.5
    assert cli._verify_rate(cli.ModelParams(rate_lower=5.0,
                                            rate_upper=6.0)) == 5.0


def test_verify_drops_the_weighted_sample_before_the_oracle(tmp_path,
                                                            monkeypatch):
    # the oracle checks load scipy.optimize and HiGHS, which sets the
    # run's peak memory: no numpy array of a whole number of floats per
    # path may still be traced when they start. The same probe, taken
    # while the weighting flags degenerate weights, sees the sample's five
    # arrays (m, log M, the integral of W^2, the increments and W_s, Z_s)
    n_paths = 2011
    cfg, out = write_config(tmp_path, "verify")
    cfg.write_text(cfg.read_text().replace("n_paths = 2000",
                                           f"n_paths = {n_paths}"))
    seen = {}

    def probing(name, function):
        def probed(*args):
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            seen[name] = [trace.size for trace in snapshot.traces
                          if trace.size % (8 * n_paths) == 0]
            return function(*args)
        return probed

    monkeypatch.setattr(cli.oracle, "build_tree",
                        probing("oracle", oracle.build_tree))
    monkeypatch.setattr(cli.simulate, "is_degenerate",
                        probing("weighted", cli.simulate.is_degenerate))
    tracemalloc.start()
    try:
        assert cli.run(cfg) == 0
    finally:
        tracemalloc.stop()
    assert len(seen["weighted"]) >= 5
    assert seen["oracle"] == []
    assert "FAIL" not in (out / "verify.csv").read_text()


def test_extra_coefficients_fail_the_run(tmp_path, capsys):
    # a constant fee has one coefficient; a second one is a config error,
    # not silently dropped, and it used to exit 1 after the output
    # directory was made. A coefficient outside the box [-cap, cap] is one
    # too, not silently clipped to the cap while the manifest echoes it
    for family_class, coefficients, message in [
            ("constant", "0.01, 0.2", "family.coefficients has 2 entries, "
             "but the family has dimension 1"),
            ("linear_polynomial", "5",
             "family.coefficients has 5.0 outside [-1.0, 1.0]")]:
        cfg, out = write_config(tmp_path, "agent")
        cfg.write_text(cfg.read_text()
                       .replace("= constant", f"= {family_class}")
                       .replace("= 0.01", f"= {coefficients}"))
        assert cli.run(cfg) == 2
        assert f"run.cfg:9: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("line, key, value, message", [
    (1, "model.epsilon", "abc",
     "model.epsilon: could not convert string to float: 'abc'"),
    (4, "model.n_steps", "1.5", "model.n_steps: invalid literal for int()"),
    (3, "model.rate_upper", "-2.0", "rate_lower exceeds rate_upper"),
    (8, "family.cap", "abc",
     "family.cap: could not convert string to float: 'abc'"),
    (8, "family.cap", "0", "coefficient cap must be positive"),
    (7, "family.class", "bogus", "unknown contract family class: bogus"),
], ids=["epsilon-abc", "n_steps-1.5", "rate_upper-below", "cap-abc", "cap-0",
        "class-bogus"])
def test_bad_value_is_exit_2_citing_its_line(tmp_path, capsys, line, key,
                                              value, message):
    # each used to raise with no line, or exit 1 after the output
    # directory was made
    cfg, out = write_config(tmp_path, "agent")
    cfg.write_text(re.sub(rf"{re.escape(key)} = .*", f"{key} = {value}",
                          cfg.read_text()))
    assert cli.run(cfg) == 2
    assert f"run.cfg:{line}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, line, message", [
    ("family.class = linear_polynomial\nfamily.degree = 0\n", 2,
     "polynomial degree must be at least 1"),
    ("family.class = lipschitz_table\nfamily.p_nodes = 1, 0\n"
     "family.z_nodes = -1, 1\n", 2, "p_nodes needs at least two nodes"),
    ("family.z_nodes = -1, 1\nfamily.class = lipschitz_table\n", 1,
     "table family needs p_nodes and z_nodes"),
], ids=["degree-0", "p_nodes-decreasing", "p_nodes-missing"])
def test_family_that_makes_no_contract_is_exit_2(tmp_path, capsys, text,
                                                 line, message):
    cfg = tmp_path / "family.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"{text}run.mode = agent\nrun.out = {out}\n")
    assert cli.run(cfg) == 2
    assert f"family.cfg:{line}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg, out = write_config(tmp_path, "report")
    assert cli.run(cfg, seed=99) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_main_entry_point(tmp_path, capsys):
    cfg, out = write_config(tmp_path, "report")
    assert cli.main(["report", "--config", str(cfg)]) == 0
    assert "mode: report" in capsys.readouterr().out


def test_positional_mode_needs_no_run_mode(tmp_path, capsys):
    cfg, out = write_config(tmp_path, "report")
    cfg.write_text("\n".join(line for line in cfg.read_text().splitlines()
                             if not line.startswith("run.mode")))
    assert cli.main(["report", "--config", str(cfg)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "report"
    assert manifest["config"]["run.mode"] == "report"


def test_positional_mode_overrides_config(tmp_path):
    cfg, _ = write_config(tmp_path, "simulate")
    out = tmp_path / "override"
    assert cli.main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["mode"] == "report"


def test_tree_too_large_to_build_is_exit_2(tmp_path, capsys):
    # depth 4 and branching 3 are each accepted, but together make
    # 27^4 = 531,441 atoms; this used to fail in oracle.build_tree after
    # the output directory was made, and exit 1
    cfg, out = write_config(tmp_path, "oracle")
    cfg.write_text(cfg.read_text().replace("run.depth = 2", "run.depth = 4")
                   .replace("run.branching = 2", "run.branching = 3"))
    message = (f"run.cfg:13: depth 4 and branching 3 make an atom count "
               f"531441 that exceeds {oracle.MAX_ATOMS}")
    assert cli.run(cfg) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_failed_mode_keeps_traceback(tmp_path, capsys):
    # the rate bounds L = U = 5 leave the tree's node constraints no
    # feasible density: the config parses, and the strong solve fails
    cfg, out = write_config(tmp_path, "oracle")
    cfg.write_text(cfg.read_text()
                   .replace("model.rate_lower = -1.0", "model.rate_lower = 5.0")
                   .replace("model.rate_upper = 1.0", "model.rate_upper = 5.0")
                   .replace("run.depth = 2", "run.depth = 1"))
    assert cli.run(cfg) == 1
    err = capsys.readouterr().err
    message = "dual ascent did not converge"
    assert "Traceback (most recent call last)" in err
    assert message in err
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("mode: oracle")
    assert "Traceback (most recent call last)" in summary
    assert "solve_strong_discrete" in summary and message in summary
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert set(manifest["outputs"]) == {"summary.txt"}
