"""Outer contract search for the broker.

The broker picks a contract from a compact coefficient family; for each
candidate the client's best response is computed and the broker's value
J_p = E[xi - phi_p * int pi^2 dt] is estimated under the responding
measure. Candidates violating the client's participation constraint are
rejected outright. The search is derivative-free (the objective is a
noisy black box in the coefficients): a seed at the constant fee that
binds participation, Latin-hypercube screening over the coefficient box,
then Nelder-Mead refinement from the best point so far, with every
proposal projected back into the box. The full evaluation log is the
maximizing sequence the existence argument asks for, and convergence
diagnostics are read off its incumbent trail.

Every contract is scored under common random numbers from one seed, so
contracts whose scores do not depend on each other (the screening
points, and the vertices of Nelder-Mead's initial simplex) are scored as
one list: their controlled simulations share passes over the same draws,
the standard payoff of common random numbers (Glasserman 2004, Monte
Carlo Methods in Financial Engineering, 4.2). Each record equals the one
that scoring its contract alone would give, bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import simulate
from .agent import solve_hjb
from .contracts import Constant, LinearPolynomial, LipschitzTable
from .model import FeedbackPolicy, ModelParams
from .rng import split_seed, uniforms

__all__ = [
    "PrincipalEvaluation", "MaximizingSequence",
    "ContractFamily", "ConvergenceReport",
    "principal_objective", "optimize", "convergence_report",
]

INFEASIBLE_OBJECTIVE = -1e12


@dataclass(frozen=True)
class PrincipalEvaluation:
    j_p: float
    j_p_se: float
    v_a: float
    participation: bool


def principal_objective(contracts, params: ModelParams) -> list:
    """Broker values of ``contracts``, in order, each against the client's
    best response.

    Each client side is solved in turn, and only its policy is kept; the
    broker's per-path value xi(P_T, Z_T) - phi_p int pi^2 dt is then
    averaged over a controlled simulation of ``params.n_paths`` paths at
    the responding policy. ``params.seed`` keys every simulation, so the
    contracts are scored under common random numbers and their values are
    directly comparable. Each run of consecutive policies on one grid is
    simulated as one batch (:meth:`FeedbackPolicy.stack`) on one pass of
    the draws, as long as their tables fit in the bytes of one draw chunk
    (:func:`simulate.draw_chunk_bytes`): twelve 3-D tables, or one 2-D
    table alone. Every evaluation equals that of its contract scored
    alone, bit for bit. The participation flag compares the client's grid
    value with the reservation level.
    """
    seed = split_seed(params.seed, "principal-crn")
    evaluations = []
    batch = []      # (contract, policy, v_a) solved but not yet simulated

    def simulate_batch():
        scored, policies, values = zip(*batch)
        batch.clear()
        policy = FeedbackPolicy.stack(policies)
        # a batch of several holds its own copy of the tables: free the
        # members'
        del policies
        sample = simulate.simulate_controlled(params, policy, seed)
        for contract, v_a, z_T, int_pi_sq in zip(
                scored, values, sample.z_T, sample.int_pi_sq):
            j_p, j_p_se = simulate.mean_se(
                contract.terminal_payoff(sample.p_T, z_T)
                - params.phi_p * int_pi_sq)
            evaluations.append(PrincipalEvaluation(
                j_p, j_p_se, v_a, v_a >= params.reservation))

    for contract in contracts:
        policy, grid = solve_hjb(contract, params)
        v_a = grid.value_at_origin
        # the simulation needs only the policy: free the value grid first
        del grid
        if batch and not (
                batch[0][1].shares_grid(policy)
                and sum(member.table.nbytes for _, member, _ in batch)
                + policy.table.nbytes <= simulate.draw_chunk_bytes()):
            simulate_batch()
        batch.append((contract, policy, v_a))
        # only the batch holds the policy, so that stacking frees it
        del policy
    if batch:
        simulate_batch()
    return evaluations


@dataclass(frozen=True)
class ContractFamily:
    """Compact parametric family searched by the broker.

    ``kind`` selects the contract class; ``cap`` is the coefficient box
    half-width K. Polynomial families need ``degree`` (at least 1); table
    families need the (P_T, Z_T) node grids, checked when the family is
    built.
    """

    kind: str
    cap: float
    degree: int = 1
    p_nodes: Optional[np.ndarray] = None
    z_nodes: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("constant", "linear_polynomial",
                             "lipschitz_table"):
            raise ValueError(f"unknown contract family class: {self.kind}")
        if self.cap <= 0:
            raise ValueError("coefficient cap must be positive")
        if self.degree < 1:
            raise ValueError("polynomial degree must be at least 1")
        if self.kind == "lipschitz_table":
            if self.p_nodes is None or self.z_nodes is None:
                raise ValueError("table family needs p_nodes and z_nodes")
            self.make(np.zeros(self.dimension))  # checks the node grids

    @property
    def dimension(self) -> int:
        if self.kind == "constant":
            return 1
        if self.kind == "linear_polynomial":
            return self.degree**2
        return len(self.p_nodes) * len(self.z_nodes)

    def make(self, theta: np.ndarray):
        theta = np.clip(np.asarray(theta, dtype=float), -self.cap, self.cap)
        if self.kind == "constant":
            return Constant(float(theta[0]))
        if self.kind == "linear_polynomial":
            coeffs = theta.reshape(self.degree, self.degree)
            return LinearPolynomial(coeffs, self.cap)
        values = theta.reshape(len(self.p_nodes), len(self.z_nodes))
        # the box is the search set: a finite table in a box is already
        # compact, so no Holder ball is imposed on proposals
        return LipschitzTable(self.p_nodes, self.z_nodes, values, self.cap)


def _key(theta) -> bytes:
    # + 0.0 makes -0.0 into 0.0, which np.array_equal finds equal to it
    return (np.asarray(theta, dtype=float) + 0.0).tobytes()


class MaximizingSequence:
    """Append-only log of contract evaluations with an incumbent trail."""

    def __init__(self, family: ContractFamily):
        self.family = family
        self.records = []
        self._updates = []      # indices of the records that improved
        self._objectives = {}   # _key of coefficients -> first objective

    def append(self, theta, evaluation: PrincipalEvaluation,
               stage: str) -> float:
        """Log one evaluation; returns its objective, the broker value or
        INFEASIBLE_OBJECTIVE when the client would not participate. A
        participating record improves the incumbent when there is none
        yet or when its objective is larger."""
        objective = (evaluation.j_p if evaluation.participation
                     else INFEASIBLE_OBJECTIVE)
        best = (None if self.best_index is None
                else self.records[self.best_index]["objective"])
        if evaluation.participation and (best is None or objective > best):
            self._updates.append(len(self.records))
            best = objective
        self.records.append({
            "iteration": len(self.records),
            "stage": stage,
            "coefficients": np.asarray(theta, dtype=float).copy(),
            "j_p": evaluation.j_p, "j_p_se": evaluation.j_p_se,
            "v_a": evaluation.v_a,
            "participation": evaluation.participation,
            "objective": objective,
            "best_so_far": objective if best is None else best,
        })
        self._objectives.setdefault(_key(theta), objective)
        return objective

    def objective(self, theta):
        """The objective of the first record whose coefficients equal
        ``theta``, or None."""
        return self._objectives.get(_key(theta))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def best_index(self):
        """Index of the incumbent record, None before a feasible one."""
        return self._updates[-1] if self._updates else None

    @property
    def incumbent(self):
        if self.best_index is None:
            return None
        return self.family.make(self.records[self.best_index]["coefficients"])

    def incumbent_updates(self):
        """Records where the incumbent changed, in order."""
        return [self.records[k] for k in self._updates]


def _latin_hypercube(n: int, dim: int, seed: int) -> np.ndarray:
    """n points in [0, 1]^dim, one per axis stratum in every dimension."""
    u = uniforms(split_seed(seed, "lhs-jitter"), (n, dim))
    order = np.argsort(uniforms(split_seed(seed, "lhs-perm"), (n, dim)),
                       axis=0)
    return (order + u) / n


class _BudgetExhausted(Exception):
    pass


def optimize(family: ContractFamily, params: ModelParams, budget: int):
    """Search the family for the broker-optimal contract, scoring at most
    ``budget`` distinct contracts (at least 1).

    Returns (best contract, MaximizingSequence). Every contract is scored
    by :func:`principal_objective` under common random numbers keyed by
    ``params.seed``. The policy and rate penalty of a constant fee c do not
    depend on c, so the zero fee is evaluated once and shifted: j_p by c,
    v_a by -c. Every family but the polynomials is seeded with the shifted
    record at the largest c <= v_a(0) - reservation whose shifted v_a meets
    reservation, which binds participation. Latin-hypercube screening then
    spends about a third of the budget and Nelder-Mead refines from the
    best point found. A proposal whose clipped coefficients are already in
    the sequence, such as the simplex vertex at the incumbent, is served
    from that record with no solve and no new record, so the budget counts
    distinct contracts.

    No screening point depends on another's score, and neither does a
    vertex of Nelder-Mead's initial simplex, so the screening points are
    scored as one list of :func:`principal_objective` and the vertices as
    another, with their simulations batched on shared passes over the
    common random numbers. Nelder-Mead then finds every vertex served, and
    the records equal those of scoring one contract at a time. scipy's
    optimizer is imported only when budget is left for its iterations.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    sequence = MaximizingSequence(family)
    # polynomial families have no constant term, so no constant fee is
    # ever scored and the binding constant cannot anchor them; they start
    # from the screening points
    zero = (None if family.kind == "linear_polynomial"
            else principal_objective([Constant(0.0)], params)[0])

    def shifted(c):
        v_a = zero.v_a - c
        return PrincipalEvaluation(c + zero.j_p, zero.j_p_se, v_a,
                                   v_a >= params.reservation)

    def score(proposals, stage):
        """Append a record for each clipped proposal that the sequence
        does not hold yet, once and in order, scoring the contracts in one
        :func:`principal_objective` call, and return every proposal's
        objective; raises _BudgetExhausted after the records that fit the
        budget if it cuts the list."""
        thetas = [np.clip(np.asarray(theta, dtype=float), -family.cap,
                          family.cap) for theta in proposals]
        fresh = {}
        for theta in thetas:
            if sequence.objective(theta) is None:
                fresh.setdefault(_key(theta), theta)
        kept = list(fresh.values())[:budget - len(sequence)]
        contracts = [family.make(theta) for theta in kept]
        solved = iter(principal_objective(
            [c for c in contracts if not isinstance(c, Constant)], params))
        for theta, contract in zip(kept, contracts):
            sequence.append(theta, shifted(contract.value)
                            if isinstance(contract, Constant)
                            else next(solved), stage)
        if len(fresh) > len(kept):
            raise _BudgetExhausted
        return [sequence.objective(theta) for theta in thetas]

    try:
        if zero is not None:
            c = zero.v_a - params.reservation
            # x - (x - r) can round below r; the next float down binds
            while zero.v_a - c < params.reservation:
                c = math.nextafter(c, -math.inf)
            if abs(c) <= family.cap:
                sequence.append(np.full(family.dimension, c), shifted(c),
                                "seed")

        n_screen = max(min(budget // 3, budget - len(sequence) - 1), 0)
        points = _latin_hypercube(n_screen, family.dimension, params.seed)
        score(family.cap * (2.0 * points - 1.0), "screen")

        if sequence.best_index is not None:
            start = sequence.records[sequence.best_index]["coefficients"]
        else:
            start = np.zeros(family.dimension)
        remaining = budget - len(sequence)
        if remaining > 0:
            # Nelder-Mead scores its initial simplex first, vertex by
            # vertex: score the vertices as one list, so that it finds
            # them all served
            simplex = _initial_simplex(start, family.cap)
            score(simplex, "refine")
            if len(sequence) < budget:
                from scipy.optimize import minimize

                # a served proposal costs no solve; Nelder-Mead may make
                # up to ``budget`` of them on top of the solves that were
                # left before its simplex, whose vertices it calls again
                minimize(lambda th: -score([th], "refine")[0], start,
                         method="Nelder-Mead",
                         options={"maxfev": remaining + budget,
                                  "xatol": 1e-6, "fatol": 1e-12,
                                  "initial_simplex": simplex})
    except _BudgetExhausted:
        pass

    if sequence.best_index is None:
        raise RuntimeError("no feasible contract found within budget")
    return sequence.incumbent, sequence


def _initial_simplex(start, cap):
    dim = len(start)
    simplex = np.tile(start, (dim + 1, 1))
    step = 0.05 * cap
    for k in range(dim):
        simplex[k + 1, k] = np.clip(start[k] + step, -cap, cap)
        if simplex[k + 1, k] == start[k]:
            simplex[k + 1, k] = start[k] - step
    return simplex


@dataclass(frozen=True)
class ConvergenceReport:
    n_updates: int
    cauchy_tail: float          # max pairwise coefficient distance, last 1/4
    limit_point: np.ndarray
    limit_value: float

    def summary(self) -> str:
        return (f"{self.n_updates} incumbent updates, cauchy tail "
                f"{self.cauchy_tail:.3g}, limit value {self.limit_value:.6g}")


def convergence_report(sequence: MaximizingSequence) -> ConvergenceReport:
    """Diagnostics of the incumbent trail.

    The coefficient box is compact, so a convergent subsequence always
    exists; the report quantifies how settled the trail actually is via
    the max pairwise distance over the last quarter of incumbent updates.
    """
    if len(sequence) < 2:
        raise ValueError("need at least two evaluations")
    updates = sequence.incumbent_updates()
    coeffs = np.array([r["coefficients"] for r in updates])
    tail_start = max(len(updates) - max(len(updates) // 4, 1), 0)
    tail = coeffs[tail_start:]
    return ConvergenceReport(
        n_updates=len(updates),
        # the largest pairwise L-inf distance is the largest coordinate range
        cauchy_tail=float(np.max(np.ptp(tail, axis=0))),
        limit_point=coeffs[-1],
        limit_value=float(updates[-1]["objective"]))
