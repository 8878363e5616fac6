"""Compact admissible families of brokerage-fee contracts.

A contract is a payment functional of the observable coordinates (P, Z)
of a path; it never reads the private signal W. Three classes are
provided: constants, linear-polynomial contracts built from a bounded
linear operator of each coordinate path (terminal evaluation or time
average) with coefficients in a compact box [-K, K], and finite-partition
Lipschitz/Holder tables. Coefficient boxes make every family compact in
the parameter space, which is what drives existence of an optimizer.
Every class pays through one entry point, ``evaluate_batch(times, p, z)``,
on a stack of (P, Z) paths.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import interpolate

__all__ = [
    "Constant", "LinearPolynomial", "LipschitzTable",
    "contract_to_record",
]


def _apply_operator(operator: str, samples: np.ndarray) -> np.ndarray:
    """Bounded linear operator of one coordinate path; samples (..., N+1)."""
    if operator == "terminal":
        return samples[..., -1]
    if operator == "time_average":
        return np.mean(samples, axis=-1)
    raise ValueError(f"unknown operator: {operator}")


@dataclass(frozen=True)
class Constant:
    value: float

    def evaluate_batch(self, times, p, z):
        return np.full(p.shape[:-1], self.value)


@dataclass(frozen=True)
class LinearPolynomial:
    """xi(P, Z) = sum_{i,j=1..degree} a_ij (L P)^i (L Z)^j.

    ``coeffs`` has shape (degree, degree) with coeffs[i-1, j-1] = a_ij,
    every entry in [-cap, cap]. ``operator`` selects L.
    """

    coeffs: np.ndarray
    cap: float
    operator: str = "terminal"

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if coeffs.shape[0] != coeffs.shape[1]:
            raise ValueError("coefficient table must be square")
        if np.any(np.abs(coeffs) > self.cap * (1 + 1e-12)):
            raise ValueError("coefficients exceed the box [-K, K]")
        _apply_operator(self.operator, np.zeros(2))  # validates the tag
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0]

    def evaluate_batch(self, times, p, z):
        lp = _apply_operator(self.operator, p)
        lz = _apply_operator(self.operator, z)
        out = np.zeros(np.broadcast_shapes(lp.shape, lz.shape))
        for i in range(1, self.degree + 1):
            for j in range(1, self.degree + 1):
                out += self.coeffs[i - 1, j - 1] * lp**i * lz**j
        return out

    def terminal_payoff(self, p_T, z_T):
        """The payoff as a function of terminal values (terminal operator)."""
        if self.operator != "terminal":
            raise ValueError("terminal payoff requires the terminal operator")
        return self.evaluate_batch(None, np.asarray(p_T)[..., None],
                                   np.asarray(z_T)[..., None])


@dataclass(frozen=True)
class LipschitzTable:
    """Holder-continuous contract read off a finite (P, Z) sampling grid.

    The payment depends on the path only through (P, Z) at ``sample_time``
    (a finite-partition member of the Holder ball). ``values`` lives on the
    rectangular grid ``p_nodes`` x ``z_nodes``; evaluation is multilinear
    interpolation with constant extrapolation, clamped to [-cap, cap].
    Given ``holder_const``, the constructor enforces the Holder bound
    pairwise on the grid nodes; without it the table lies only in the
    value box, which is the broker's search set.
    """

    p_nodes: np.ndarray
    z_nodes: np.ndarray
    values: np.ndarray
    cap: float
    gamma: float = 1.0
    holder_const: Optional[float] = None
    sample_time: Optional[float] = None

    def __post_init__(self):
        p_nodes = np.asarray(self.p_nodes, dtype=float)
        z_nodes = np.asarray(self.z_nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(p_nodes), len(z_nodes)):
            raise ValueError("table shape must match the node grids")
        if not 0 < self.gamma <= 1:
            raise ValueError("holder exponent must lie in (0, 1]")
        if np.any(np.abs(values) > self.cap * (1 + 1e-12)):
            raise ValueError("table values exceed the box [-K, K]")
        if self.holder_const is not None:
            pp, zz = np.meshgrid(p_nodes, z_nodes, indexing="ij")
            pts = np.stack([pp.ravel(), zz.ravel()], axis=1)
            vals = values.ravel()
            dist = np.maximum(np.abs(pts[:, None, 0] - pts[None, :, 0]),
                              np.abs(pts[:, None, 1] - pts[None, :, 1]))
            gap = np.abs(vals[:, None] - vals[None, :])
            mask = dist > 0
            if np.any(gap[mask] > self.holder_const * dist[mask]**self.gamma
                      * (1 + 1e-9)):
                raise ValueError("table violates the Holder bound on its nodes")
        object.__setattr__(self, "p_nodes", p_nodes)
        object.__setattr__(self, "z_nodes", z_nodes)
        object.__setattr__(self, "values", values)

    def terminal_payoff(self, p_s, z_s):
        """Bilinear table lookup at coordinate samples (vectorized)."""
        out = interpolate((self.p_nodes, self.z_nodes), self.values,
                          p_s, z_s)
        return np.clip(out, -self.cap, self.cap)

    def evaluate_batch(self, times, p, z):
        if self.sample_time is None:
            i_s = -1
        else:
            n = p.shape[-1] - 1
            i_s = int(round(self.sample_time / times[-1] * n))
        return self.terminal_payoff(p[..., i_s], z[..., i_s])


# ---------------------------------------------------------------------------
# Serialization: tagged records, plain data that the CLI writes as JSON.

def contract_to_record(contract) -> dict:
    if isinstance(contract, Constant):
        return {"class": "constant", "value": contract.value}
    if isinstance(contract, LinearPolynomial):
        return {"class": "linear_polynomial", "cap": contract.cap,
                "operator": contract.operator,
                "coeffs": contract.coeffs.tolist()}
    if isinstance(contract, LipschitzTable):
        return {"class": "lipschitz_table", "gamma": contract.gamma,
                "holder_const": contract.holder_const, "cap": contract.cap,
                "sample_time": contract.sample_time,
                "p_nodes": contract.p_nodes.tolist(),
                "z_nodes": contract.z_nodes.tolist(),
                "values": contract.values.tolist()}
    raise TypeError(f"unsupported contract type: {type(contract)!r}")
