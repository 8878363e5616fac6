import json
from dataclasses import replace

import numpy as np
import pytest

from brokerfee import cli, principal, simulate
from brokerfee.agent import solve_hjb
from brokerfee.contracts import Constant, LipschitzTable
from brokerfee.model import ModelParams

from solver_constants import hjb_grid

WIDE = ModelParams(rate_lower=-100.0, rate_upper=100.0, phi_p=0.25,
                   reservation=0.0, n_paths=20_000)
FAST = dict(n_w=101, n_z=101)


@pytest.fixture
def fast():
    """Every solve of the test on the FAST grid."""
    with hjb_grid(**FAST):
        yield


@pytest.mark.usefixtures("fast")
def test_principal_objective_constant_closed_form():
    c = 0.01
    [ev] = principal.principal_objective([Constant(c)], replace(WIDE, seed=5))
    assert ev.v_a == pytest.approx(-c + 1.0 / 24.0, abs=1e-3)
    assert ev.j_p == pytest.approx(c - 1.0 / 48.0,
                                   abs=max(3 * ev.j_p_se, 1e-3))
    assert ev.participation


@pytest.mark.usefixtures("fast")
def test_participation_fails_above_surplus():
    [ev] = principal.principal_objective([Constant(0.1)],
                                         replace(WIDE, seed=5))
    assert ev.v_a < 0.0
    assert not ev.participation


@pytest.mark.usefixtures("fast")
def test_zero_penalty_gives_fee_back():
    params = ModelParams(rate_lower=-100.0, rate_upper=100.0, phi_p=0.0,
                         n_paths=20_000, seed=5)
    [ev] = principal.principal_objective([Constant(0.02)], params)
    assert abs(ev.j_p - 0.02) <= 3 * ev.j_p_se


@pytest.fixture
def solved(monkeypatch):
    """The contracts that optimize passes to solve_hjb, in order."""
    contracts = []

    def counted(contract, *args, **kwargs):
        contracts.append(contract)
        return solve_hjb(contract, *args, **kwargs)

    monkeypatch.setattr(principal, "solve_hjb", counted)
    return contracts


def seed_record(params, family):
    """The seed record of a one-evaluation search, or None."""
    with hjb_grid(**FAST):
        _, seq = principal.optimize(family, replace(params, seed=3), budget=1)
    return next((r for r in seq.records if r["stage"] == "seed"), None)


def test_seed_closed_form():
    family = principal.ContractFamily("constant", cap=1.0)
    record = seed_record(replace(WIDE, n_paths=500), family)
    assert record["coefficients"][0] == pytest.approx(1.0 / 24.0, rel=0.01)
    assert record["participation"]


def test_seed_absorbing_reservation():
    family = principal.ContractFamily("constant", cap=1.0)
    base = seed_record(replace(WIDE, n_paths=500), family)
    params = ModelParams(rate_lower=-100.0, rate_upper=100.0,
                         reservation=base["coefficients"][0], n_paths=500)
    absorbed = seed_record(params, family)
    assert absorbed["coefficients"][0] == pytest.approx(0.0, abs=1e-9)


def test_seed_no_trading():
    params = ModelParams(rate_lower=0.0, rate_upper=0.0, reservation=0.25,
                         n_paths=500)
    family = principal.ContractFamily("constant", cap=1.0)
    record = seed_record(params, family)
    assert record["coefficients"][0] == pytest.approx(-0.25, abs=5e-3)


def test_seed_meets_reservation_after_rounding():
    # x - (x - r) rounds below r for some r; the seed must still bind
    family = principal.ContractFamily("constant", cap=1.0)
    # at reservation 0 the seed is the gross surplus itself
    gross = seed_record(replace(WIDE, n_paths=500),
                        family)["coefficients"][0]
    reservation = next(r for r in np.arange(1, 400) * 1e-4
                       if gross - (gross - r) < r)
    record = seed_record(replace(WIDE, n_paths=500,
                                 reservation=reservation), family)
    assert record["participation"]
    assert record["v_a"] == pytest.approx(reservation, abs=1e-15)


def test_no_seed_beyond_the_cap():
    # the binding constant 1/24 does not fit the box [-0.01, 0.01]
    family = principal.ContractFamily("constant", cap=0.01)
    assert seed_record(replace(WIDE, n_paths=500), family) is None


def test_table_seed_binds_without_a_solve(solved):
    # the seed table is the constant c, so its record is the zero-fee
    # evaluation shifted by c: no table is solved before the screening
    family = principal.ContractFamily(
        "lipschitz_table", cap=1.0, p_nodes=np.array([-1.0, 1.0]),
        z_nodes=np.array([-1.0, 1.0]))
    for reservation in (0.0, 0.01):
        solved.clear()
        params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=50,
                             n_paths=500, reservation=reservation, seed=3)
        with hjb_grid(n_p=9, n_w=41, n_z=41):
            _, seq = principal.optimize(family, params, budget=3)
        assert [r["stage"] for r in seq.records] == ["seed", "screen",
                                                     "refine"]
        assert seq.records[0]["participation"]
        assert solved[0] == Constant(0.0)
        assert all(isinstance(c, LipschitzTable) for c in solved[1:])
        assert len(solved) == len(seq)


@pytest.mark.parametrize("family", [
    principal.ContractFamily("lipschitz_table", cap=1.0,
                             p_nodes=np.array([-1.0, 1.0]),
                             z_nodes=np.array([-1.0, 1.0])),
    principal.ContractFamily("linear_polynomial", cap=1.0),
], ids=["table", "polynomial"])
def test_no_contract_is_solved_twice(solved, family):
    # Nelder-Mead's first vertex is the incumbent: it is served from its
    # record, so no contract is solved again, and the table seed is not
    # re-read as infeasible by rounding; the budget counts distinct records
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=50,
                         n_paths=500, reservation=0.01, seed=3)
    with hjb_grid(n_p=9, n_w=21, n_z=21):
        _, seq = principal.optimize(family, params, budget=5)
    solved_keys = [(c.values if family.kind == "lipschitz_table"
                    else c.coeffs).tobytes()
                   for c in solved if not isinstance(c, Constant)]
    assert len(set(solved_keys)) == len(solved_keys)
    record_keys = [r["coefficients"].tobytes() for r in seq.records]
    assert len(set(record_keys)) == len(record_keys) == 5
    assert seq.records[-1]["stage"] == "refine"


@pytest.mark.parametrize("case", ["simplex", "nelder-mead", "mixed-grids"])
def test_batched_records_equal_one_at_a_time(case, monkeypatch):
    # optimize scores the screening points as one list and the initial
    # simplex as another, with their simulations batched; every record
    # must equal that of scoring one contract at a time, field for field
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=50,
                         n_paths=500, seed=3)
    family = principal.ContractFamily("linear_polynomial", cap=1.0)
    budget = {"simplex": 2, "nelder-mead": 8, "mixed-grids": 15}[case]
    if case == "mixed-grids":
        family = principal.ContractFamily(
            "lipschitz_table", cap=1.0, p_nodes=np.array([-1.0, 1.0]),
            z_nodes=np.array([-1.0, 1.0]))
        # a table whose rows are equal is solved on the 2-D grid, any
        # other on the 3-D grid: screened as 3-D, 3-D, 2-D, 2-D, 3-D
        points = np.array([[0.9, 0.2, 0.7, 0.1], [0.3, 0.6, 0.5, 0.8],
                           [0.2, 0.7, 0.2, 0.7], [0.6, 0.6, 0.6, 0.6],
                           [0.1, 0.4, 0.8, 0.3]])
        monkeypatch.setattr(principal, "_latin_hypercube",
                            lambda n, dim, seed: points[:n])
    objective, sampler = (principal.principal_objective,
                          simulate.simulate_controlled)
    lists, batches = [], []

    def listed(contracts, params):
        lists.append(len(contracts))
        return objective(contracts, params)

    def batched_sampler(params, policy, seed):
        batches.append(policy.batch_shape)
        return sampler(params, policy, seed)

    monkeypatch.setattr(simulate, "simulate_controlled", batched_sampler)
    # on 41 x 41 the 2-D and 3-D solves take 4 and 5 steps, so their
    # policies differ in their t nodes and are not batched together
    with hjb_grid(n_p=9, n_w=41, n_z=41):
        monkeypatch.setattr(principal, "principal_objective", listed)
        _, batched = principal.optimize(family, params, budget)
        monkeypatch.setattr(principal, "principal_objective",
                            lambda contracts, params: [
                                objective([c], params)[0]
                                for c in contracts])
        _, alone = principal.optimize(family, params, budget)
    assert len(batched) == len(alone) == budget
    for got, expected in zip(batched.records, alone.records):
        assert got.keys() == expected.keys()
        for key, value in got.items():
            if key == "coefficients":
                assert value.tobytes() == expected[key].tobytes()
            else:
                assert value == expected[key], key
    refined = [r["stage"] for r in batched.records].count("refine")
    if case == "simplex":
        assert lists == [0, 2] and batches[:1] == [(2,)]
    else:
        # Nelder-Mead went on past its simplex
        assert refined > family.dimension + 1
    if case == "mixed-grids":
        # the zero fee, the screening list, the simplex less its incumbent
        assert lists[:3] == [1, 5, 4]
        assert batches[:4] == [(1,), (2,), (2,), (1,)]


@pytest.mark.usefixtures("fast")
def test_optimize_constant_family():
    family = principal.ContractFamily("constant", cap=1.0)
    best, seq = principal.optimize(family, replace(WIDE, seed=3), budget=20)
    assert best.value == pytest.approx(1.0 / 24.0, rel=0.02)
    record = seq.records[seq.best_index]
    assert record["j_p"] == pytest.approx(1.0 / 48.0, rel=0.05)
    assert len(seq) <= 20


def test_constant_cache_matches_direct_evaluation():
    # optimize shifts one zero-fee evaluation by c; scoring each constant
    # from scratch must give the same record
    family = principal.ContractFamily("constant", cap=1.0)
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=50,
                         n_paths=2_000, seed=7)
    with hjb_grid(n_w=41, n_z=41):
        _, seq = principal.optimize(family, params, budget=6)
        scored = principal.principal_objective(
            [Constant(r["coefficients"][0]) for r in seq.records], params)
    assert {r["participation"] for r in seq.records} == {True, False}
    for record, direct in zip(seq.records, scored):
        assert record["j_p"] == pytest.approx(direct.j_p, abs=1e-12)
        assert record["j_p_se"] == pytest.approx(direct.j_p_se, abs=1e-12)
        # a solve with fee c equals the zero-fee solve shifted by c only up
        # to rounding
        assert record["v_a"] == pytest.approx(direct.v_a, abs=1e-12)
        # the seed record binds participation: there v_a is 0 up to rounding
        if abs(direct.v_a - params.reservation) > 1e-12:
            assert record["participation"] == direct.participation


def test_constant_family_solves_zero_fee_once(solved):
    # the binding constant comes from the one zero-fee evaluation
    family = principal.ContractFamily("constant", cap=1.0)
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=50,
                         n_paths=2_000, seed=7)
    with hjb_grid(n_w=41, n_z=41):
        expected = (solve_hjb(Constant(0.0), params)[1].value_at_origin
                    - params.reservation)
        _, seq = principal.optimize(family, params, budget=6)
    assert solved == [Constant(0.0)]
    assert len(seq) == 6
    assert seq.records[0]["stage"] == "seed"
    assert seq.records[0]["coefficients"].tolist() == [expected]


@pytest.mark.usefixtures("fast")
def test_optimize_budget_one():
    family = principal.ContractFamily("constant", cap=1.0)
    best, seq = principal.optimize(
        family, replace(WIDE, n_paths=5_000, seed=3), budget=1)
    assert len(seq) == 1
    assert seq.records[0]["participation"]


def test_polynomial_family_skips_feasibility_solve(solved):
    # the binding constant cannot anchor a family without a constant term,
    # so the zero fee is never solved
    family = principal.ContractFamily("linear_polynomial", cap=1.0)
    params = ModelParams(rate_lower=-1.0, rate_upper=1.0, n_steps=50,
                         n_paths=500, seed=3)
    with hjb_grid(n_p=9, n_w=21, n_z=21):
        _, seq = principal.optimize(family, params, budget=2)
    assert [r["stage"] for r in seq.records] == ["refine", "refine"]
    assert seq.records[0]["coefficients"].tolist() == [0.0]
    assert len(solved) == 2
    assert not any(isinstance(c, Constant) for c in solved)


@pytest.mark.usefixtures("fast")
def test_best_trace_monotone():
    family = principal.ContractFamily("constant", cap=1.0)
    _, seq = principal.optimize(family, replace(WIDE, n_paths=5_000, seed=9),
                                budget=15)
    trace = [r["best_so_far"] for r in seq.records]
    assert np.all(np.diff(trace) >= -1e-15)


@pytest.mark.usefixtures("fast")
def test_incumbents_respect_participation():
    family = principal.ContractFamily("constant", cap=1.0)
    _, seq = principal.optimize(family, replace(WIDE, n_paths=5_000, seed=9),
                                budget=15)
    for record in seq.incumbent_updates():
        assert record["v_a"] >= WIDE.reservation


@pytest.mark.usefixtures("fast")
def test_fee_shift_identity():
    # for constants the response policy ignores the fee level, so J_p - c
    # is a single number across the feasible range
    evaluations = principal.principal_objective(
        [Constant(c) for c in (-0.05, 0.0, 0.03)], replace(WIDE, seed=4))
    gaps = [ev.j_p - c for ev, c in zip(evaluations, (-0.05, 0.0, 0.03))]
    ses = [ev.j_p_se for ev in evaluations]
    assert max(gaps) - min(gaps) <= 3 * max(ses)


@pytest.mark.usefixtures("fast")
def test_visited_points_stay_in_box():
    family = principal.ContractFamily("constant", cap=0.05)
    _, seq = principal.optimize(family, replace(WIDE, n_paths=5_000, seed=2),
                                budget=15)
    for record in seq.records:
        assert np.all(np.abs(record["coefficients"]) <= 0.05 + 1e-12)


@pytest.mark.usefixtures("fast")
def test_convergence_report_limit_point():
    family = principal.ContractFamily("constant", cap=1.0)
    _, seq = principal.optimize(family, replace(WIDE, seed=3), budget=20)
    report = principal.convergence_report(seq)
    assert report.limit_point[0] == pytest.approx(1.0 / 24.0, rel=0.02)
    objectives = [r["objective"] for r in seq.incumbent_updates()]
    assert np.all(np.diff(objectives) >= -1e-15)


def test_convergence_report_stationary_sequence():
    family = principal.ContractFamily("constant", cap=1.0)
    seq = principal.MaximizingSequence(family)
    ev = principal.PrincipalEvaluation(0.01, 1e-4, 0.02, True)
    for _ in range(8):
        seq.append(np.array([0.3]), ev, "screen")
    report = principal.convergence_report(seq)
    assert report.cauchy_tail == 0.0
    assert report.limit_point[0] == pytest.approx(0.3)


def test_sequence_serves_zero_from_negative_zero():
    # 0.0 and -0.0 are equal coefficients: a proposal of either is served
    # from the record of the other
    family = principal.ContractFamily("constant", cap=1.0)
    seq = principal.MaximizingSequence(family)
    ev = principal.PrincipalEvaluation(0.01, 1e-4, 0.02, True)
    seq.append(np.array([-0.0]), ev, "screen")
    assert seq.objective(np.array([0.0])) == 0.01
    assert seq.objective(np.array([0.5])) is None


def test_sequence_exports(tmp_path):
    # optimize writes the sequence as CSV and as JSON, one row per record
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.rate_lower = -100.0\nmodel.rate_upper = 100.0\n"
                   "model.phi_p = 0.25\nmodel.reservation = 0.0\n"
                   "model.n_paths = 2000\nfamily.class = constant\n"
                   "family.cap = 1.0\nrun.budget = 5\n")
    out = tmp_path / "out"
    assert cli.run(cfg, seed=1, out_dir=out, mode="optimize") == 0
    header, *rows = (out / "sequence.csv").read_text().splitlines()
    assert header.startswith("iteration,stage,coef_0,j_p")
    payload = json.loads((out / "sequence.json").read_text())
    assert len(rows) == len(payload) == 5
    for row, record in zip(rows, payload):
        fields = dict(zip(header.split(","), row.split(",")))
        assert int(fields["iteration"]) == record["iteration"]
        assert float(fields["coef_0"]) == record["coefficients"][0]
        assert float(fields["j_p"]) == record["j_p"]
        assert int(fields["participation"]) == record["participation"]
        assert record["contract"] == {"class": "constant",
                                      "value": record["coefficients"][0]}


def test_sequence_exports_after_rounding(tmp_path):
    # where x - (x - r) rounds below r the seed's constant steps down one
    # float; the records must still export as plain numbers and booleans
    cfg = tmp_path / "run.cfg"
    text = ("model.rate_lower = -100.0\nmodel.rate_upper = 100.0\n"
            "model.phi_p = 0.25\nmodel.n_paths = 2000\n"
            "family.class = constant\nfamily.cap = 1.0\nrun.budget = 5\n"
            "run.mode = optimize\n")
    cfg.write_text(text)
    gross = solve_hjb(Constant(0.0),
                      cli.parse_config(cfg).params)[1].value_at_origin
    reservation = next(r for r in np.arange(1, 400) * 1e-4
                       if gross - (gross - r) < r)
    cfg.write_text(text + f"model.reservation = {float(reservation)!r}\n")
    out = tmp_path / "out"
    assert cli.run(cfg, seed=1, out_dir=out, mode="optimize") == 0
    seed = json.loads((out / "sequence.json").read_text())[0]
    assert seed["stage"] == "seed"
    assert seed["participation"] is True
    assert seed["v_a"] >= reservation
    header, *rows = (out / "sequence.csv").read_text().splitlines()
    for row in rows:
        for name, field in zip(header.split(","), row.split(",")):
            if name != "stage":
                float(field)


def test_budget_must_be_positive():
    family = principal.ContractFamily("constant", cap=1.0)
    with pytest.raises(ValueError, match="budget"):
        principal.optimize(family, WIDE, budget=0)


def test_family_validation():
    with pytest.raises(ValueError, match="unknown contract family"):
        principal.ContractFamily("spline", cap=1.0)
    # a cap of NaN or inf used to make a family whose box is not compact
    for cap in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cap must be positive and "
                                             "finite"):
            principal.ContractFamily("constant", cap=cap)
    assert principal.ContractFamily("linear_polynomial", cap=1.0,
                                    degree=2).dimension == 4
    # degree 0 made a family of dimension 0, degree -1 failed in numpy
    for degree in (0, -1):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            principal.ContractFamily("linear_polynomial", cap=1.0,
                                     degree=degree)
