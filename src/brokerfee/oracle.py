"""Finite scenario-tree oracle for the relaxed-control theory.

Everything the relaxation argument claims in the continuous model has an
exact finite analogue on a scenario tree: relaxed controls are explicit
finite measures over (path-atom, density-atom) pairs, the strong problem
is a finite concave program with a Gibbs closed form, and the claims
(strong controls embed, the relaxed optimum collapses to a Dirac density,
values coincide, an admissible drift can be extracted) can be brute-forced
to solver tolerance. The strong program is solved on its Lagrange dual,
finished by projected Newton steps to a KKT residual at float64
resolution, and the dual value at the multipliers found is a closed-form
bound on the relaxed value over every randomized control (the duality
gap). The relaxed program is one sparse linear program on a density grid
shared by all path-atoms. This module is the verification half of the
package: it never trusts the continuous solvers, only convex duality on
the tree."""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.optimize import linprog, minimize as sp_minimize
from scipy.sparse import csr_matrix, hstack, identity, kron, vstack

from .model import ROW_NAMES, ConstraintSpec, ModelParams, zeta_integral
from .rng import uniforms

__all__ = [
    "ScenarioTree", "DiscreteConstraintSet", "RelaxedControlDiscrete",
    "StrongSolution", "CollapseReport", "ExtractionReport",
    "build_tree", "node_constraint_set", "atom_utility_from_contract",
    "solve_strong_discrete", "solve_relaxed_discrete",
    "verify_collapse", "extract_strong_control",
    "default_density_grid",
]

MAX_ATOMS = 100_000


@dataclass(frozen=True)
class ScenarioTree:
    """Finite discrete analogue of the canonical path space.

    Atoms are root-to-leaf paths; at each of ``depth`` steps every channel
    moves by one of ``branching`` increments whose second moment matches
    dt * scale^2 for the channel. ``choices`` stores, per atom and step,
    the index of the joint increment combination, enumerated so that the
    atoms of any tree node form a contiguous block.
    """

    depth: int
    branching: int
    channels: int
    dt: float
    scales: tuple
    combos: np.ndarray      # (n_combos, channels) per-step increments
    choices: np.ndarray     # (n_atoms, depth) combo index per step
    paths: np.ndarray       # (n_atoms, depth + 1, channels) cumulative
    probs: np.ndarray       # (n_atoms,) uniform base probabilities

    @property
    def n_atoms(self) -> int:
        return self.paths.shape[0]

    @property
    def n_combos(self) -> int:
        return self.combos.shape[0]

    def node_slice(self, depth: int, prefix: int) -> slice:
        """Contiguous atom block of the node given by a length-``depth``
        choice prefix encoded as a base-n_combos integer."""
        block = self.n_combos ** (self.depth - depth)
        return slice(prefix * block, (prefix + 1) * block)


def build_tree(depth: int, branching: int, params: ModelParams,
               channels: int = 3) -> ScenarioTree:
    """Deterministic tree with per-step increments matching the model's
    per-step variances (sigma, eps, 1 channel scales)."""
    if branching not in (2, 3):
        raise ValueError("branching must be 2 (binomial) or 3 (trinomial)")
    if not 1 <= depth <= 4:
        raise ValueError("depth must lie in 1..4")
    n_combos = branching**channels
    n_atoms = n_combos**depth
    if n_atoms > MAX_ATOMS:
        raise ValueError(f"atom count {n_atoms} exceeds {MAX_ATOMS}")
    dt = params.horizon / depth
    scales = (params.sigma, params.epsilon, 1.0)[:channels]
    if branching == 2:
        base = np.array([-1.0, 1.0]) * np.sqrt(dt)
    else:
        # uniform probabilities; stretch so the second moment is still dt
        base = np.array([-1.0, 0.0, 1.0]) * np.sqrt(1.5 * dt)
    per_channel = [s * base for s in scales]
    combos = np.array(list(itertools.product(*per_channel)))
    choices = np.array(list(itertools.product(range(n_combos), repeat=depth)),
                       dtype=int)
    increments = combos[choices]                  # (n_atoms, depth, channels)
    paths = np.zeros((n_atoms, depth + 1, channels))
    np.cumsum(increments, axis=1, out=paths[:, 1:, :])
    probs = np.full(n_atoms, 1.0 / n_atoms)
    return ScenarioTree(depth, branching, channels, dt, tuple(scales),
                        combos, choices, paths, probs)


def atom_utility_from_contract(tree: ScenarioTree, contract,
                               params: ModelParams) -> np.ndarray:
    """Per-atom utility -xi(path) + zeta(path) in model units (3-channel
    trees only); the entropy part is carried by the solver, not by u."""
    if tree.channels != 3:
        raise ValueError("contract utilities require a 3-channel tree")
    times = np.linspace(0.0, tree.depth * tree.dt, tree.depth + 1)
    p, z, w = tree.paths[:, :, 0], tree.paths[:, :, 1], tree.paths[:, :, 2]
    xi = contract.evaluate_batch(times, p, z)
    return -xi + zeta_integral(z, w, tree.dt, params)


@dataclass(frozen=True)
class DiscreteConstraintSet:
    """Linear forms c_r(x) implementing the stopped-increment constraints.

    Each form contributes sum_x p(x) E[m|x] c_r(x) <= 0 to the feasible
    set; adaptedness is recorded via the step index its eta depends on.
    """

    forms: np.ndarray      # (n_constraints, n_atoms)
    labels: tuple
    s_steps: np.ndarray    # (n_constraints,) eta measurability index

    @property
    def n_constraints(self) -> int:
        return self.forms.shape[0]

    def moments(self, probs, cond_mean) -> np.ndarray:
        return self.forms @ (probs * cond_mean)


def node_constraint_set(tree: ScenarioTree, rate_lower: float,
                        rate_upper: float) -> DiscreteConstraintSet:
    """One constraint per (tree node, row): eta = indicator of the node,
    window = the node's own step. These etas are the natural finite test
    family on a tree; feasibility with all six rows pins the tilted drift
    of P to W, keeps W driftless, and bounds the Z drift to [L, U].
    """
    if tree.channels != 3:
        raise ValueError("constraint rows require a 3-channel tree")
    spec = ConstraintSpec(rate_lower, rate_upper)
    forms, labels, s_steps = [], [], []
    inc = tree.combos[tree.choices]           # (n_atoms, depth, channels)
    for d in range(tree.depth):
        row_values = spec.rows(inc[:, d, 0], inc[:, d, 1], inc[:, d, 2],
                               tree.paths[:, d, 2] * tree.dt, tree.dt)
        for prefix in range(tree.n_combos**d):
            sl = tree.node_slice(d, prefix)
            for name, values in zip(ROW_NAMES, row_values):
                form = np.zeros(tree.n_atoms)
                form[sl] = values[sl]
                forms.append(form)
                labels.append(f"d{d}/node{prefix}/{name}")
                s_steps.append(d)
    return DiscreteConstraintSet(np.array(forms), tuple(labels),
                                 np.array(s_steps, dtype=int))


@dataclass(frozen=True)
class StrongSolution:
    value: float
    density: np.ndarray        # optimal m per atom
    multipliers: Optional[np.ndarray]
    kkt_residual: float
    iterations: int
    converged: bool            # kkt_residual <= tol when the solve ended
    duality_gap: float         # D(mu) - value, D(mu) >= every relaxed value


def _gibbs(probs, adjusted_u, lam):
    """Gibbs density e^{u/lam} / sum p e^{u/lam} and its log-normaliser."""
    # shifted by the largest exponent, so the sum is at least its mass;
    # spelled out because scipy's general logsumexp costs several times
    # more per call, and the dual solve makes hundreds of calls
    exponent = adjusted_u / lam
    shift = np.max(exponent)
    log_z = shift + np.log(float(probs @ np.exp(exponent - shift)))
    return np.exp(exponent - log_z), log_z


def _primal_value(probs, m, u, lam):
    # m log m -> 0 as m -> 0; clip keeps the log finite at hard zeros
    safe = np.maximum(m, 1e-300)
    return float(np.sum(probs * (m * u - lam * safe * np.log(safe))))


def _kkt_residual(mu, moments):
    """Worst constraint violation or complementary-slackness product."""
    return max(float(np.max(moments, initial=0.0)),
               float(np.max(np.abs(mu * moments), initial=0.0)))


def _newton_step(forms, tilted, moments, mu, lam):
    """Projected Newton direction for the dual at mu (Bertsekas 1982).

    Multipliers within eps of zero whose constraint is slack are sent to
    the bound, eps being the distance of mu from its projected-gradient
    step. On the other rows the dual Hessian is (1/lam) A A^T with
    A = C diag(sqrt(p m)) and C the forms centred by their moments. The
    node forms are linearly dependent (at every node rows 1+2 and 3+4
    sum to 0 and rows 5+6 to (L - U) dt on the node's atoms), so the
    Newton system is solved on a maximal independent subset of those
    rows, found by pivoted QR of A^T; the dependent rows stay put.
    """
    eps = float(np.max(np.abs(mu - np.maximum(mu + moments, 0.0))))
    active = (mu <= eps) & (moments < 0.0)
    step = np.where(active, -mu, 0.0)
    free = np.flatnonzero(~active)
    a = (forms[free] - moments[free, None]) * np.sqrt(tilted)
    r, pivots = qr(a.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > 1e-10 * np.max(diag, initial=0.0)))
    r11 = r[:rank, :rank]
    keep = free[pivots[:rank]]
    step[keep] = lam * solve_triangular(
        r11, solve_triangular(r11, moments[keep], trans="T"))
    return step


def solve_strong_discrete(tree: ScenarioTree, u: np.ndarray, lam: float,
                          constraints: Optional[DiscreteConstraintSet] = None,
                          tol: float = 1e-12, max_iter: int = 10_000
                          ) -> StrongSolution:
    """Maximize sum p [m u - lam m log m] over densities m > 0 with
    sum p m = 1 and the optional linear constraint set.

    With only the normalization the optimum is the Gibbs density
    m = e^{u/lam} / sum p e^{u/lam}, value lam log sum p e^{u/lam}.
    Otherwise the strictly concave program is solved on its Lagrange dual
    D(mu) = lam log sum p e^{(u - F^T mu)/lam} over multipliers mu >= 0
    (normalization absorbed into the Gibbs form): L-BFGS-B first, then
    projected Newton steps (`_newton_step`) backtracked on the KKT
    residual, since near the optimum D is flat to within its rounding
    and cannot rank trial points. Newton usually needs one or two steps
    to reach float64 resolution. ``duality_gap`` is D(mu) minus the value
    of the returned density; by weak duality D(mu) bounds the relaxed
    value over every randomized control, so a gap near 0 certifies that
    randomization cannot beat the returned strong control. A solve that
    reaches ``max_iter``, or stalls, with the residual above ``tol``
    returns with ``converged`` False, or raises when the residual
    exceeds 1e3 * tol.
    """
    if lam <= 0:
        raise ValueError("entropy weight must be positive")
    probs = tree.probs
    u = np.asarray(u, dtype=float)
    if constraints is None or constraints.n_constraints == 0:
        m, log_z = _gibbs(probs, u, lam)
        value = float(lam * log_z)
        return StrongSolution(value, m, None, 0.0, 0, True,
                              value - _primal_value(probs, m, u, lam))

    c = constraints.forms

    def at(mu):
        # the Gibbs density, dual value and constraint moments E[m c_r]
        m, log_z = _gibbs(probs, u - c.T @ mu, lam)
        return m, float(lam * log_z), c @ (probs * m)

    def dual(mu):
        _, value, moments = at(mu)
        return value, -moments

    result = sp_minimize(dual, np.zeros(constraints.n_constraints),
                         jac=True, method="L-BFGS-B",
                         bounds=[(0.0, None)] * constraints.n_constraints,
                         options={"maxiter": max_iter, "ftol": 1e-16,
                                  "gtol": 1e-14})
    mu = result.x
    iterations = int(result.nit)
    m, dual_value, moments = at(mu)
    residual = _kkt_residual(mu, moments)
    while residual > tol and iterations < max_iter:
        step = _newton_step(c, probs * m, moments, mu, lam)
        for halvings in range(30):
            alpha = 0.5**halvings
            trial = np.maximum(mu + alpha * step, 0.0)
            state = at(trial)
            trial_residual = _kkt_residual(trial, state[2])
            if trial_residual <= (1.0 - 1e-4 * alpha) * residual:
                break
        else:
            break           # no decrease left at float64 resolution
        mu, residual = trial, trial_residual
        m, dual_value, moments = state
        iterations += 1
    if residual > 1e3 * tol:
        raise RuntimeError(
            f"dual ascent did not converge: KKT residual {residual:g} "
            "(instance may be infeasible)")
    value = _primal_value(probs, m, u, lam)
    return StrongSolution(value, m, mu, residual, iterations,
                          residual <= tol, dual_value - value)


def default_density_grid(extra_values=None, n: int = 21,
                         lo: float = 1e-3, hi: float = 1e3) -> np.ndarray:
    """Log-spaced density atoms spanning [lo, hi], optionally extended by
    exact values (e.g. a Gibbs solution) so the Dirac optimum is on-grid."""
    grid = np.geomspace(lo, hi, n)
    if extra_values is not None:
        grid = np.concatenate([grid, np.atleast_1d(extra_values)])
    return np.unique(grid)


@dataclass(frozen=True)
class RelaxedControlDiscrete:
    """A finite measure over (path-atom, density-atom) pairs.

    ``atoms[x]`` lists the admissible density values of path-atom x and
    ``weights[x]`` the conditional distribution over them. Dirac mode is
    the special case of a single unit weight per atom.
    """

    probs: np.ndarray
    atoms: tuple        # tuple of 1-D arrays, one per path-atom
    weights: tuple      # matching conditional probabilities

    def __post_init__(self):
        if not (len(self.atoms) == len(self.weights) == len(self.probs)):
            raise ValueError("per-atom lists must match the base measure")

    @classmethod
    def dirac(cls, tree: ScenarioTree, m: np.ndarray):
        """The embedding of a strong control (density a function of the
        path) as a relaxed control."""
        atoms = tuple(np.array([v]) for v in m)
        weights = tuple(np.array([1.0]) for _ in m)
        return cls(tree.probs, atoms, weights)

    def conditional_mean(self) -> np.ndarray:
        return np.array([float(w @ a)
                         for a, w in zip(self.atoms, self.weights)])

    def mean_density(self) -> float:
        return float(self.probs @ self.conditional_mean())

    def entropy(self) -> float:
        return float(sum(p * float(w @ (a * np.log(a)))
                         for p, a, w in zip(self.probs, self.atoms,
                                            self.weights)))

    def objective(self, u: np.ndarray, lam: float) -> float:
        linear = float(self.probs @ (u * self.conditional_mean()))
        return linear - lam * self.entropy()

    def max_secondary_weight(self) -> float:
        """0 for exact Dirac mode; small for a collapsed optimum."""
        worst = 0.0
        for w in self.weights:
            if len(w) > 1:
                worst = max(worst, float(np.sort(w)[-2]))
        return worst

    def is_dirac(self, tol: float = 1e-6) -> bool:
        return self.max_secondary_weight() <= tol

    def check_feasibility(self, constraints=None, tol: float = 1e-9) -> dict:
        """Conditions of the relaxed-control definition, as diagnostics."""
        cond_mean = self.conditional_mean()
        report = {
            "normalization_gap": abs(float(self.probs @ cond_mean) - 1.0),
            "min_density_atom": float(min(np.min(a) for a in self.atoms)),
            "marginal_gap": float(max(abs(np.sum(w) - 1.0)
                                      for w in self.weights)),
            "entropy": self.entropy(),
        }
        if constraints is not None:
            moments = constraints.moments(self.probs, cond_mean)
            report["max_constraint_moment"] = float(np.max(moments,
                                                           initial=0.0))
        report["feasible"] = (
            report["normalization_gap"] <= tol
            and report["min_density_atom"] > 0
            and report["marginal_gap"] <= tol
            and report.get("max_constraint_moment", 0.0) <= tol)
        return report


def solve_relaxed_discrete(tree: ScenarioTree, u: np.ndarray, lam: float,
                           density_grid: np.ndarray,
                           constraints: Optional[DiscreteConstraintSet] = None,
                           ) -> tuple:
    """Optimize over randomized-mode relaxed controls on a finite density
    grid shared by all path-atoms; returns (value, RelaxedControlDiscrete).

    With the density values fixed to grid atoms the program is linear in
    the conditional weights q(x, j), stored atom-major at x * n_grid + j,
    and in one conditional mean mbar(x) = sum_j g_j q(x, j) per atom,
    stored after them: maximize sum_x p(x) sum_j q(x,j) [g_j u(x) -
    lam g_j log g_j] subject to the per-atom marginals, the definition of
    mbar, the normalization sum_x p(x) mbar(x) = 1 and the constraint
    moments sum_x p(x) c_r(x) mbar(x) <= 0. Reading the last two off mbar
    keeps each constraint row one entry per atom instead of one per
    (atom, grid point).
    """
    if lam <= 0:
        raise ValueError("entropy weight must be positive")
    probs = np.asarray(tree.probs, dtype=float)
    u = np.asarray(u, dtype=float)
    g = np.asarray(density_grid, dtype=float)
    if g.ndim != 1 or np.any(g <= 0):
        raise ValueError("density grid must be one 1-D array of strictly "
                         "positive atoms")
    n_atoms, n_grid = tree.n_atoms, len(g)
    n_weights = n_atoms * n_grid

    cost = np.concatenate([
        (-probs[:, None] * (g * u[:, None] - lam * g * np.log(g))).ravel(),
        np.zeros(n_atoms)])
    eye = identity(n_atoms, format="csr")
    a_eq = vstack([
        hstack([kron(eye, np.ones((1, n_grid))),
                csr_matrix((n_atoms, n_atoms))]),
        hstack([kron(eye, g[None, :]), -eye]),
        hstack([csr_matrix((1, n_weights)), csr_matrix(probs[None, :])]),
    ], format="csr")
    b_eq = np.concatenate([np.ones(n_atoms), np.zeros(n_atoms), [1.0]])

    a_ub = b_ub = None
    if constraints is not None and constraints.n_constraints > 0:
        a_ub = hstack([csr_matrix((constraints.n_constraints, n_weights)),
                       csr_matrix(probs * constraints.forms)], format="csr")
        b_ub = np.zeros(constraints.n_constraints)

    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=(0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"relaxed program failed: {result.message}")
    q = result.x[:n_weights].reshape(n_atoms, n_grid)
    weights = q / np.maximum(np.sum(q, axis=1, keepdims=True), 1e-300)
    control = RelaxedControlDiscrete(probs, (g,) * n_atoms, tuple(weights))
    return float(-result.fun), control


@dataclass(frozen=True)
class CollapseReport:
    trials: int
    counterexamples: tuple
    min_jensen_gap: float
    relaxed_is_dirac: bool
    max_secondary_weight: float


def verify_collapse(tree: ScenarioTree, lam: float, trials: int, seed: int,
                    control: RelaxedControlDiscrete) -> CollapseReport:
    """Check that randomization never helps when the entropy weight is
    positive.

    For random feasible two-point randomizations, the Dirac control at the
    conditional mean dominates by exactly lam times the Jensen gap of
    m log m (strictly when the two points differ); and ``control``, the
    relaxed optimum the caller solved for on a grid containing the strong
    optimum, must be a Dirac-mode control. Any violation of the first is
    reported as a counterexample with the full instance data.
    """
    probs = tree.probs
    raw = uniforms(seed, (trials, tree.n_atoms, 3))
    counterexamples = []
    min_gap = np.inf
    for k in range(trials):
        g = 2.0 * raw[k, :, 0] - 1.0
        cond_mean = np.exp(g)
        cond_mean /= probs @ cond_mean
        shrink = 0.05 + 0.9 * raw[k, :, 1]       # first point below the mean
        q = 0.05 + 0.9 * raw[k, :, 2]
        m1 = cond_mean * shrink
        m2 = (cond_mean - q * m1) / (1.0 - q)
        rand_entropy = float(probs @ (q * m1 * np.log(m1)
                                      + (1 - q) * m2 * np.log(m2)))
        dirac_entropy = float(probs @ (cond_mean * np.log(cond_mean)))
        gap = lam * (rand_entropy - dirac_entropy)  # objective(dirac)-obj(rand)
        min_gap = min(min_gap, gap)
        if gap <= -1e-12 or (gap <= 0 and np.any(np.abs(m1 - m2) > 1e-12)):
            counterexamples.append({
                "trial": k, "gap": gap, "cond_mean": cond_mean.tolist(),
                "m1": m1.tolist(), "m2": m2.tolist(), "q": q.tolist()})

    return CollapseReport(trials, tuple(counterexamples), float(min_gap),
                          control.is_dirac(1e-6),
                          control.max_secondary_weight())


@dataclass(frozen=True)
class ExtractionReport:
    drifts: dict            # (depth, prefix) -> per-channel drift
    max_violation: float
    reconstruction_error: float


def extract_strong_control(tree: ScenarioTree,
                           control: RelaxedControlDiscrete,
                           rate_lower: float, rate_upper: float
                           ) -> ExtractionReport:
    """Per-node drifts of the measure reweighted by E[m | path-atom].

    This is the discrete martingale-representation analogue: conditional
    transition ratios of the tilted tree measure determine a one-step
    drift per node; re-accumulating the density from those transitions
    recovers the conditional-mean density exactly. The report evaluates
    the six constraint rows at every node and records the worst violation.
    """
    spec = ConstraintSpec(rate_lower, rate_upper)
    cond_mean = control.conditional_mean()
    tilted = tree.probs * cond_mean
    inc = tree.combos[tree.choices]
    n_combos = tree.n_combos
    drifts = {}
    max_violation = 0.0
    reconstructed = np.ones(tree.n_atoms)
    for d in range(tree.depth):
        for prefix in range(n_combos**d):
            sl = tree.node_slice(d, prefix)
            mass = float(np.sum(tilted[sl]))
            if mass <= 1e-300:
                continue
            block = tree.node_slice(d, prefix).start
            child_len = n_combos ** (tree.depth - d - 1)
            drift = np.zeros(tree.channels)
            for combo in range(n_combos):
                child = slice(block + combo * child_len,
                              block + (combo + 1) * child_len)
                trans = float(np.sum(tilted[child])) / mass
                drift += trans * tree.combos[combo]
                reconstructed[child] *= trans * n_combos
            drift /= tree.dt
            drifts[(d, prefix)] = drift
            # the rows at dt = 1 (so W dt = W) with the drift in place of
            # dX are b + A nu
            residuals = spec.rows(drift[0], drift[1], drift[2],
                                  float(tree.paths[sl.start, d, 2]), 1.0)
            max_violation = max(max_violation, max(residuals))
    recon_err = float(np.max(np.abs(reconstructed - cond_mean)))
    return ExtractionReport(drifts, float(max_violation), recon_err)
