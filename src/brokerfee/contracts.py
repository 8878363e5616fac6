"""Compact admissible families of brokerage-fee contracts.

A contract is a payment functional of the observable coordinates (P, Z)
of a path; it never reads the private signal W. Three classes are
provided: constants, linear-polynomial contracts built from a bounded
linear operator of each coordinate path (terminal evaluation or time
average) with coefficients in a compact box [-K, K], and finite-partition
Lipschitz/Holder tables. Coefficient boxes make every family compact in
the parameter space, which is what drives existence of an optimizer.
"""

import json
from dataclasses import dataclass

import numpy as np

from .model import FeedbackPolicy, ModelParams, locate
from .rng import split_seed
from . import simulate

__all__ = [
    "Constant", "LinearPolynomial", "LipschitzTable",
    "evaluate", "project_to_box", "holder_audit", "tail_expectation_audit",
    "contract_to_record", "contract_from_record",
    "save_contract", "load_contract",
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
    The constructor enforces the Holder bound pairwise on the grid nodes.
    """

    p_nodes: np.ndarray
    z_nodes: np.ndarray
    values: np.ndarray
    gamma: float
    holder_const: float
    cap: float
    sample_time: float = None
    # Constructors emit tables satisfying the bound on nodes; disable only
    # to build deliberate violations for the audit to flag.
    enforce_holder: bool = True

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
        if self.enforce_holder:
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
        p_s = np.asarray(p_s, dtype=float)
        z_s = np.asarray(z_s, dtype=float)
        ip, fp = locate(self.p_nodes, p_s)
        iz, fz = locate(self.z_nodes, z_s)
        out = ((1 - fp) * (1 - fz) * self.values[ip, iz]
               + fp * (1 - fz) * self.values[ip + 1, iz]
               + (1 - fp) * fz * self.values[ip, iz + 1]
               + fp * fz * self.values[ip + 1, iz + 1])
        return np.clip(out, -self.cap, self.cap)

    def evaluate_batch(self, times, p, z):
        if self.sample_time is None or times is None:
            i_s = -1
        else:
            n = p.shape[-1] - 1
            i_s = int(round(self.sample_time / times[-1] * n))
        return self.terminal_payoff(p[..., i_s], z[..., i_s])


def evaluate(contract, path) -> float:
    """Payment of ``contract`` on one discretized path.

    Reads only the (P, Z) coordinates; two paths agreeing on (P, Z) get
    identical payments regardless of W.
    """
    return float(contract.evaluate_batch(path.times, path.p[None, :],
                                         path.z[None, :])[0])


def evaluate_on_batch(contract, batch) -> np.ndarray:
    return contract.evaluate_batch(batch.times, batch.p, batch.z)


def project_to_box(contract):
    """Componentwise clamp of coefficients/table values to [-K, K].

    Idempotent; the identity on contracts already inside the box.
    """
    if isinstance(contract, Constant):
        return contract
    if isinstance(contract, LinearPolynomial):
        clipped = np.clip(contract.coeffs, -contract.cap, contract.cap)
        return LinearPolynomial(clipped, contract.cap, contract.operator)
    if isinstance(contract, LipschitzTable):
        clipped = np.clip(contract.values, -contract.cap, contract.cap)
        return LipschitzTable(contract.p_nodes, contract.z_nodes, clipped,
                              contract.gamma, contract.holder_const,
                              contract.cap, contract.sample_time)
    raise TypeError(f"unsupported contract type: {type(contract)!r}")


def holder_audit(contract, params: ModelParams, count: int, seed: int) -> float:
    """Max observed ratio |xi(x) - xi(y)| / ||x - y||^gamma over sampled
    path pairs (sup-norm over the (P, Z) coordinates). Membership in the
    Holder ball with constant M requires the ratio to stay <= M."""
    gamma = getattr(contract, "gamma", 1.0)
    batch_x = simulate.simulate_reference(params, count, split_seed(seed, "hx"))
    batch_y = simulate.simulate_reference(params, count, split_seed(seed, "hy"))
    fx = evaluate_on_batch(contract, batch_x)
    fy = evaluate_on_batch(contract, batch_y)
    dist = np.maximum(np.max(np.abs(batch_x.p - batch_y.p), axis=1),
                      np.max(np.abs(batch_x.z - batch_y.z), axis=1))
    ok = dist > 0
    if not np.any(ok):
        return 0.0
    return float(np.max(np.abs(fx[ok] - fy[ok]) / dist[ok]**gamma))


def tail_expectation_audit(contracts, params: ModelParams, levels,
                           count: int = 10_000, seed: int = 0) -> np.ndarray:
    """Per-level sup over (contract, extreme policy) of
    E^{Q^pi}[|xi| 1{|xi| >= level}], by controlled simulation.

    The policies span the extremes {L, 0, U} of the admissible rate set.
    Estimates are nonincreasing in the level; for the bounded families
    here they vanish once the level clears the family bound.
    """
    levels = np.asarray(levels, dtype=float)
    sups = np.zeros(len(levels))
    for p_idx, rate in enumerate((params.rate_lower, 0.0, params.rate_upper)):
        policy = FeedbackPolicy.constant(rate, params)
        batch = simulate.simulate_controlled(
            params, policy, count, split_seed(seed, f"tail{p_idx}"))
        for contract in contracts:
            xi = np.abs(evaluate_on_batch(contract, batch))
            for k, level in enumerate(levels):
                est = float(np.mean(np.where(xi >= level, xi, 0.0)))
                sups[k] = max(sups[k], est)
    return sups


# ---------------------------------------------------------------------------
# Serialization: tagged JSON records; round-trip is lossless.

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


def contract_from_record(record: dict):
    tag = record.get("class")
    if tag == "constant":
        return Constant(record["value"])
    if tag == "linear_polynomial":
        return LinearPolynomial(np.array(record["coeffs"]), record["cap"],
                                record["operator"])
    if tag == "lipschitz_table":
        return LipschitzTable(np.array(record["p_nodes"]),
                              np.array(record["z_nodes"]),
                              np.array(record["values"]),
                              record["gamma"], record["holder_const"],
                              record["cap"], record["sample_time"])
    raise ValueError(f"unknown contract class tag: {tag!r}")


def save_contract(filename, contract) -> None:
    with open(filename, "w") as fh:
        json.dump(contract_to_record(contract), fh, indent=1)


def load_contract(filename):
    with open(filename) as fh:
        return contract_from_record(json.load(fh))
