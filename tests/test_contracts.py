import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brokerfee.contracts import (Constant, LinearPolynomial, LipschitzTable,
                                 contract_to_record)
from brokerfee.model import interpolate, locate
from brokerfee.principal import ContractFamily


# terminal values (P_T, Z_T) of three paths
P_T = np.array([0.14, -1.3, 2.0])
Z_T = np.array([1.0, 0.25, -0.5])


def test_constant_contract():
    assert np.array_equal(Constant(0.7).terminal_payoff(P_T, Z_T),
                          np.full(3, 0.7))
    # one path: a scalar payment
    assert Constant(0.7).terminal_payoff(0.0, 1.0) == 0.7


def test_linear_polynomial_terminal():
    c = LinearPolynomial(np.array([[2.0]]), cap=5.0)
    assert np.allclose(c.terminal_payoff(P_T, Z_T), 2.0 * P_T * Z_T)


def test_polynomial_degree_two_cross_terms():
    coeffs = np.array([[0.5, -0.25], [1.0, 0.0]])
    c = LinearPolynomial(coeffs, cap=2.0)
    expected = (0.5 * P_T * Z_T - 0.25 * P_T * Z_T**2 + 1.0 * P_T**2 * Z_T)
    assert np.allclose(c.terminal_payoff(P_T, Z_T), expected)


def test_polynomial_box_enforced():
    with pytest.raises(ValueError, match="box"):
        LinearPolynomial(np.array([[3.0]]), cap=1.0)


def test_table_interpolation_and_clamp():
    nodes = np.array([-1.0, 0.0, 1.0])
    values = np.array([[0.0, 0.5, 1.0],
                       [0.5, 1.0, 1.5],
                       [1.0, 1.5, 2.0]])
    table = LipschitzTable(nodes, nodes, values, cap=2.0)
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


@pytest.mark.parametrize("axis, nodes", [
    # descending nodes paid 1 at p = 1 and -1 where the table says 0
    ("p_nodes", [1.0, 0.0, -1.0]),
    # a repeated node paid NaN
    ("z_nodes", [0.0, 0.0, 1.0]),
    # a single node paid NaN at the node itself
    ("p_nodes", [0.0]),
])
def test_table_nodes_must_increase(axis, nodes):
    grids = {"p_nodes": np.array([-1.0, 0.0, 1.0]),
             "z_nodes": np.array([-1.0, 0.0, 1.0]), axis: np.array(nodes)}
    with pytest.raises(ValueError, match=f"{axis} needs at least two nodes, "
                                         "strictly increasing"):
        ContractFamily("lipschitz_table", cap=1.0, **grids)


# a coefficient or table value: zero, or at least 0.01 away from it, so
# that a price term never rounds away on the grid below
_ENTRIES = st.one_of(st.just(0.0), st.floats(0.01, 1.0),
                     st.floats(-1.0, -0.01))


@st.composite
def _fees(draw):
    """A fee of any class: polynomials of degree 1 or 2, and tables of 2
    or 3 nodes per axis, half of them with every row equal."""
    kind = draw(st.sampled_from(["constant", "polynomial", "table"]))
    if kind == "constant":
        return Constant(draw(st.floats(-1.0, 1.0)))
    if kind == "polynomial":
        degree = draw(st.integers(1, 2))
        coeffs = draw(st.lists(_ENTRIES, min_size=degree**2,
                               max_size=degree**2))
        return LinearPolynomial(np.reshape(coeffs, (degree, degree)), 1.0)
    nodes = [np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=n,
                                     max_size=n))) - 1.0
             for n in draw(st.tuples(st.integers(2, 3), st.integers(2, 3)))]
    rows = 1 if draw(st.booleans()) else len(nodes[0])
    values = draw(st.lists(_ENTRIES, min_size=rows * len(nodes[1]),
                           max_size=rows * len(nodes[1])))
    values = np.broadcast_to(np.reshape(values, (rows, -1)),
                             (len(nodes[0]), len(nodes[1])))
    return LipschitzTable(*nodes, values, cap=1.0)


def _spanning(nodes):
    """The nodes, their midpoints, and a point beyond each end."""
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    return np.sort(np.concatenate([nodes, mid, [nodes[0] - 1.0,
                                                nodes[-1] + 1.0]]))


@settings(deadline=None, max_examples=60)
@given(_fees())
@example(LinearPolynomial(np.zeros((2, 2)), cap=1.0))
@example(LipschitzTable(np.array([-1.0, 1.0]), np.array([-0.5, 0.0, 0.5]),
                        np.array([[0.3, -0.2, 0.3]] * 2), cap=1.0))
def test_reads_price_is_rows_that_differ(fee):
    # reads_price says whether the payoff rows, one per p, differ anywhere
    # on a (p, z) grid that spans the fee's nodes
    table = isinstance(fee, LipschitzTable)
    axes = ((fee.p_nodes, fee.z_nodes) if table
            else (np.linspace(-3.0, 3.0, 7),) * 2)
    pp, zz = np.meshgrid(*map(_spanning, axes), indexing="ij")
    payoff = fee.terminal_payoff(pp, zz)
    assert payoff.shape == pp.shape
    assert fee.reads_price == bool(np.any(payoff != payoff[:1]))
    if table:
        # a table read along z alone is the bilinear read to rounding
        np.testing.assert_allclose(
            payoff, interpolate(axes, fee.values, pp, zz), rtol=0.0,
            atol=1e-15)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-3, 3), min_size=4, max_size=4))
def test_projection_idempotent(raw):
    # ContractFamily.make clips proposals into the box [-K, K]; the
    # values of a made contract are already inside, so remaking them
    # changes nothing
    family = ContractFamily("lipschitz_table", cap=1.5,
                            p_nodes=np.array([0.0, 1.0]),
                            z_nodes=np.array([0.0, 1.0]))
    once = family.make(np.array(raw))
    twice = family.make(once.values.ravel())
    assert np.array_equal(once.values, twice.values)
    assert np.all(np.abs(once.values) <= 1.5)
    assert np.array_equal(once.values.ravel(), np.clip(raw, -1.5, 1.5))


def test_serialization_round_trip():
    # the tagged record of every class survives JSON, as the CLI writes it
    cases = [
        Constant(-0.25),
        LinearPolynomial(np.array([[0.1, 0.2], [-0.3, 0.05]]), cap=0.5),
        LipschitzTable(np.linspace(-1, 1, 3), np.linspace(-2, 2, 4),
                       np.zeros((3, 4)), cap=1.0),
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
