import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brokerfee import cli, oracle
from brokerfee.model import interpolate

BASE_CONFIG = """\
model.epsilon = 0.5
model.rate_lower = -1.0
model.rate_upper = 1.0
model.n_steps = 50
model.n_paths = 2000
model.seed = 7
family.class = constant
family.cap = 1.0
family.coefficients = 0.01
run.mode = {mode}
run.budget = 6
run.depth = 2
run.branching = 2
run.trials = 10
run.out = {out}
"""


def write_config(tmp_path, mode, name="run.cfg"):
    out = tmp_path / f"out_{mode}"
    cfg = tmp_path / name
    cfg.write_text(BASE_CONFIG.format(mode=mode, out=out))
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
@pytest.mark.parametrize("key", ["colour", "lam"])
def test_parse_error_names_unknown_key(tmp_path, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"run.mode = simulate\nrun.{key} = 1\n")
    with pytest.raises(ValueError, match=f"unknown run key: {key}"):
        cli.parse_config(cfg)


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
    message = (f"run.cfg:11: run.budget must be an integer of at least 2, "
               f"got '{budget}'")
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


def test_family_keys_of_the_class_parse(tmp_path):
    cfg = tmp_path / "table.cfg"
    cfg.write_text("run.mode = agent\nfamily.p_nodes = -1, 1\n"
                   "family.z_nodes = -1, 1\nfamily.class = lipschitz_table\n")
    assert cli.parse_config(cfg).family["class"] == "lipschitz_table"


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
    with pytest.raises(ValueError, match="run.mode"):
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


def test_agent_mode_arrays(tmp_path):
    cfg, out = write_config(tmp_path, "agent")
    assert cli.run(cfg) == 0
    with np.load(out / "agent.npz") as npz:
        arrays = dict(npz)
    # a constant fee: the value grid is on the policy's nodes, in 2-D
    assert set(arrays) == {"t_nodes", "w_nodes", "z_nodes", "rates",
                           "values"}
    shape = tuple(len(arrays[f"{axis}_nodes"]) for axis in "twz")
    assert arrays["rates"].shape == shape
    assert arrays["values"].shape == shape
    rows = dict(line.split(",") for line in
                (out / "agent.csv").read_text().splitlines()[1:])
    origin = interpolate((arrays["w_nodes"], arrays["z_nodes"]),
                         arrays["values"][0], 0.0, 0.0)
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

    def recording(params, policy, seed, moments=False):
        rates.append(float(policy(0.0, 0.0, 0.0)))
        return weighted(params, policy, seed, moments)

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


def test_extra_coefficients_fail_the_run(tmp_path, capsys):
    # a constant fee has one coefficient; a second one is an error, not
    # silently dropped
    cfg, out = write_config(tmp_path, "agent")
    cfg.write_text(cfg.read_text().replace("family.coefficients = 0.01",
                                           "family.coefficients = 0.01, 0.2"))
    assert cli.run(cfg) == 1
    assert "has 2 entries, but the family has dimension 1" in \
        capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"


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


def test_failed_mode_keeps_traceback(tmp_path, capsys):
    cfg, out = write_config(tmp_path, "oracle")
    cfg.write_text(cfg.read_text().replace("run.depth = 2", "run.depth = 9"))
    assert cli.run(cfg) == 1
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "depth must lie in 1..4" in err
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("mode: oracle")
    assert "Traceback (most recent call last)" in summary
    assert "build_tree" in summary and "depth must lie in 1..4" in summary
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert set(manifest["outputs"]) == {"summary.txt"}
