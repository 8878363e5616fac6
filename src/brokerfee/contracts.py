"""Compact admissible families of brokerage-fee contracts.

A contract is a payment function of the terminal values (P_T, Z_T) of
the observable coordinates; it never reads the private signal W. Three
classes are provided: constants, linear polynomials in P_T and Z_T with
coefficients in a compact box [-K, K], and Lipschitz tables on a finite
(P_T, Z_T) grid with values in that box. Coefficient boxes make every
family compact in the parameter space, which is what drives existence of
an optimizer. Every class pays through one entry point,
``terminal_payoff(p_T, z_T)``, vectorized over arrays of terminal values;
a fee of this form is the terminal condition of the client's HJB, so the
grid solver gives the best response to every contract.
"""

from dataclasses import dataclass

import numpy as np

from .model import interpolate

__all__ = [
    "Constant", "LinearPolynomial", "LipschitzTable",
    "contract_to_record",
]


@dataclass(frozen=True)
class Constant:
    value: float

    def terminal_payoff(self, p_T, z_T):
        return np.full(np.broadcast_shapes(np.shape(p_T), np.shape(z_T)),
                       self.value)


@dataclass(frozen=True)
class LinearPolynomial:
    """xi(P, Z) = sum_{i,j=1..degree} a_ij P_T^i Z_T^j.

    ``coeffs`` has shape (degree, degree) with coeffs[i-1, j-1] = a_ij,
    every entry in [-cap, cap].
    """

    coeffs: np.ndarray
    cap: float

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if coeffs.shape[0] != coeffs.shape[1]:
            raise ValueError("coefficient table must be square")
        if np.any(np.abs(coeffs) > self.cap * (1 + 1e-12)):
            raise ValueError("coefficients exceed the box [-K, K]")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0]

    def terminal_payoff(self, p_T, z_T):
        p_T, z_T = np.asarray(p_T), np.asarray(z_T)
        out = np.zeros(np.broadcast_shapes(p_T.shape, z_T.shape))
        for i in range(1, self.degree + 1):
            for j in range(1, self.degree + 1):
                out += self.coeffs[i - 1, j - 1] * p_T**i * z_T**j
        return out


@dataclass(frozen=True)
class LipschitzTable:
    """Lipschitz contract read off a finite (P_T, Z_T) grid.

    ``values`` lives on the rectangular grid ``p_nodes`` x ``z_nodes``,
    each of at least two strictly increasing nodes; payment is
    multilinear interpolation with constant extrapolation, clamped to
    [-cap, cap]. The table lies in the value box, which is the broker's
    search set.
    """

    p_nodes: np.ndarray
    z_nodes: np.ndarray
    values: np.ndarray
    cap: float

    def __post_init__(self):
        p_nodes = np.asarray(self.p_nodes, dtype=float)
        z_nodes = np.asarray(self.z_nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        for axis, nodes in (("p_nodes", p_nodes), ("z_nodes", z_nodes)):
            if (nodes.ndim != 1 or len(nodes) < 2
                    or not np.all(np.diff(nodes) > 0)):
                raise ValueError(f"{axis} needs at least two nodes, "
                                 "strictly increasing")
        if values.shape != (len(p_nodes), len(z_nodes)):
            raise ValueError("table shape must match the node grids")
        if np.any(np.abs(values) > self.cap * (1 + 1e-12)):
            raise ValueError("table values exceed the box [-K, K]")
        object.__setattr__(self, "p_nodes", p_nodes)
        object.__setattr__(self, "z_nodes", z_nodes)
        object.__setattr__(self, "values", values)

    def terminal_payoff(self, p_T, z_T):
        """Bilinear table lookup at terminal values (vectorized). A table
        whose rows are all equal is read at its first p node for every p,
        so that it gives the same bits at every p."""
        if np.all(self.values == self.values[:1]):
            p_T = np.full(np.shape(p_T), self.p_nodes[0])
        out = interpolate((self.p_nodes, self.z_nodes), self.values,
                          p_T, z_T)
        return np.clip(out, -self.cap, self.cap)


# ---------------------------------------------------------------------------
# Serialization: tagged records, plain data that the CLI writes as JSON.

def contract_to_record(contract) -> dict:
    if isinstance(contract, Constant):
        return {"class": "constant", "value": contract.value}
    if isinstance(contract, LinearPolynomial):
        return {"class": "linear_polynomial", "cap": contract.cap,
                "coeffs": contract.coeffs.tolist()}
    if isinstance(contract, LipschitzTable):
        return {"class": "lipschitz_table", "cap": contract.cap,
                "p_nodes": contract.p_nodes.tolist(),
                "z_nodes": contract.z_nodes.tolist(),
                "values": contract.values.tolist()}
    raise TypeError(f"unsupported contract type: {type(contract)!r}")
