import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokerfee.contracts import (Constant, LinearPolynomial, LipschitzTable,
                                 contract_to_record)
from brokerfee.model import locate
from brokerfee.principal import ContractFamily


def make_path(n=10, amp=1.0):
    """Time grid and the (P, Z) coordinates of one path."""
    times = np.linspace(0.0, 1.0, n + 1)
    p = amp * np.sin(np.linspace(0.0, 3.0, n + 1))
    p[0] = 0.0
    z = amp * np.linspace(0.0, 1.0, n + 1) ** 2
    return times, p, z


def pay(contract, times, p, z):
    """Payment on one path: ``evaluate_batch`` on a stack of one."""
    return float(contract.evaluate_batch(times, p[None, :], z[None, :])[0])


def test_constant_contract():
    assert pay(Constant(0.7), *make_path()) == pytest.approx(0.7)


def test_linear_polynomial_terminal():
    times, p, z = make_path()
    c = LinearPolynomial(np.array([[2.0]]), cap=5.0, operator="terminal")
    assert pay(c, times, p, z) == pytest.approx(2.0 * p[-1] * z[-1])


def test_linear_polynomial_time_average():
    times, p, z = make_path()
    c = LinearPolynomial(np.array([[1.0]]), cap=5.0, operator="time_average")
    assert pay(c, times, p, z) == pytest.approx(np.mean(p) * np.mean(z))


def test_polynomial_degree_two_cross_terms():
    times, p, z = make_path()
    coeffs = np.array([[0.5, -0.25], [1.0, 0.0]])
    c = LinearPolynomial(coeffs, cap=2.0)
    p_T, z_T = p[-1], z[-1]
    expected = (0.5 * p_T * z_T - 0.25 * p_T * z_T**2 + 1.0 * p_T**2 * z_T)
    assert pay(c, times, p, z) == pytest.approx(expected)


def test_polynomial_box_enforced():
    with pytest.raises(ValueError, match="box"):
        LinearPolynomial(np.array([[3.0]]), cap=1.0)


def test_polynomial_rejects_unknown_operator():
    with pytest.raises(ValueError, match="operator"):
        LinearPolynomial(np.array([[0.1]]), cap=1.0, operator="supremum")


def test_table_interpolation_and_clamp():
    nodes = np.array([-1.0, 0.0, 1.0])
    values = np.array([[0.0, 0.5, 1.0],
                       [0.5, 1.0, 1.5],
                       [1.0, 1.5, 2.0]])
    table = LipschitzTable(nodes, nodes, values, gamma=1.0, holder_const=2.0,
                           cap=2.0)
    assert table.terminal_payoff(0.0, 0.0) == pytest.approx(1.0)
    assert table.terminal_payoff(0.5, 0.0) == pytest.approx(1.25)
    # constant extrapolation beyond the node range
    assert table.terminal_payoff(5.0, 5.0) == pytest.approx(2.0)
    # the unrolled bilinear sum the lookup used before model.interpolate;
    # the corners are now summed in another order, so allow a few ulps
    rng = np.random.default_rng(3)
    p_s, z_s = rng.uniform(-1.5, 1.5, (2, 300))
    ip, fp = locate(nodes, p_s)
    iz, fz = locate(nodes, z_s)
    reference = np.clip((1 - fp) * (1 - fz) * values[ip, iz]
                        + fp * (1 - fz) * values[ip + 1, iz]
                        + (1 - fp) * fz * values[ip, iz + 1]
                        + fp * fz * values[ip + 1, iz + 1], -2.0, 2.0)
    assert np.allclose(table.terminal_payoff(p_s, z_s), reference,
                       rtol=8 * np.finfo(float).eps, atol=0.0)


def test_table_holder_bound_checked_on_nodes():
    nodes = np.array([0.0, 1.0])
    jump = np.array([[0.0, 5.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Holder"):
        LipschitzTable(nodes, nodes, jump, gamma=1.0, holder_const=1.0,
                       cap=10.0)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-3, 3), min_size=4, max_size=4))
def test_projection_idempotent(raw):
    # ContractFamily.make clips proposals into the box [-K, K]; the
    # coefficients of a made contract are already inside, so remaking
    # them changes nothing
    family = ContractFamily("lipschitz_table", cap=1.5,
                            p_nodes=np.array([0.0, 1.0]),
                            z_nodes=np.array([0.0, 1.0]))
    once = family.make(np.array(raw))
    twice = family.make(family.coefficients(once))
    assert np.array_equal(once.values, twice.values)
    assert np.all(np.abs(once.values) <= 1.5)
    assert np.array_equal(once.values.ravel(), np.clip(raw, -1.5, 1.5))


def test_serialization_round_trip():
    # the tagged record of every class survives JSON, as the CLI writes it
    cases = [
        Constant(-0.25),
        LinearPolynomial(np.array([[0.1, 0.2], [-0.3, 0.05]]), cap=0.5,
                         operator="time_average"),
        LipschitzTable(np.linspace(-1, 1, 3), np.linspace(-2, 2, 4),
                       np.zeros((3, 4)), gamma=0.5, holder_const=2.0,
                       cap=1.0, sample_time=0.5),
    ]
    tags = []
    for c in cases:
        record = json.loads(json.dumps(contract_to_record(c)))
        assert record == contract_to_record(c)
        tags.append(record["class"])
    assert tags == ["constant", "linear_polynomial", "lipschitz_table"]


def test_record_rejects_unknown_class():
    with pytest.raises(TypeError, match="unsupported contract type"):
        contract_to_record(object())
