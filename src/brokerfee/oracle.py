"""Finite scenario-tree oracle for the relaxed-control theory.

Everything the relaxation argument claims in the continuous model has an
exact finite analogue on a scenario tree: relaxed controls are explicit
finite measures over (path-atom, density-atom) pairs, the strong problem
is a finite concave program with a Gibbs closed form, and the claims
(strong controls embed, the relaxed optimum collapses to a Dirac density,
values coincide, an admissible drift can be extracted) can be brute-forced
to solver tolerance. The strong program, with zero or more node
constraint forms, is solved on its Lagrange dual by projected Newton
steps from zero multipliers, whose first iterate is the Gibbs closed
form, to a KKT residual at float64 resolution, and the dual value at the
multipliers found is a closed-form bound on the relaxed value over every
randomized control (the duality gap). The relaxed program is one sparse
linear program on a density grid of its own for each path-atom, so its
columns grow linearly in the atoms.
This module is the verification half of the package: it never trusts the
continuous solvers, only convex duality on the tree.

The atoms of every tree node form one contiguous block (see
:class:`ScenarioTree`), so at depth d a per-atom array reshaped to
(n_combos**d, -1) has one row per node: the node constraint forms and the
drift extraction are built from such reshapes. A relaxed control is two
(n_atoms, k) arrays of density values and their conditional weights, and
the collapse trials are one (trials, n_atoms) array each.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ROW_NAMES, ModelParams, constraint_rows, zeta_integral
from .rng import uniforms

__all__ = [
    "ScenarioTree", "RelaxedControlDiscrete",
    "StrongSolution", "CollapseReport", "ExtractionReport",
    "check_tree", "build_tree", "node_constraint_set",
    "atom_utility_from_contract",
    "solve_strong_discrete", "solve_relaxed_discrete",
    "verify_collapse", "extract_strong_control",
    "default_density_grid",
]

MAX_ATOMS = 100_000
# the tree depths and branchings build_tree accepts
DEPTHS = (1, 2, 3, 4)
BRANCHINGS = (2, 3)


@dataclass(frozen=True)
class ScenarioTree:
    """Finite discrete analogue of the canonical path space.

    Atoms are root-to-leaf paths; at each of ``depth`` steps each of the
    three channels (P, Z, W) moves by one of its branching increments,
    whose second moment matches dt * scale^2 for the channel. ``choices``
    stores, per atom and step, the index of the joint increment
    combination, enumerated so that the atoms of any tree node form a
    contiguous block: the n_combos**d nodes at depth d hold
    n_combos**(depth - d) atoms each, in prefix order.
    """

    depth: int
    dt: float
    combos: np.ndarray      # (n_combos, 3) per-step increments
    choices: np.ndarray     # (n_atoms, depth) combo index per step
    paths: np.ndarray       # (n_atoms, depth + 1, 3) cumulative
    probs: np.ndarray       # (n_atoms,) uniform base probabilities

    @property
    def n_atoms(self) -> int:
        return self.paths.shape[0]

    @property
    def n_combos(self) -> int:
        return self.combos.shape[0]


def check_tree(depth, branching):
    """Raise ValueError unless :func:`build_tree` builds a tree of this
    depth and branching: each is one of its choices, and the tree has at
    most :data:`MAX_ATOMS` atoms, (branching^3)^depth."""
    for name, value, choices in (("depth", depth, DEPTHS),
                                 ("branching", branching, BRANCHINGS)):
        if value not in choices:
            raise ValueError(f"{name} must be one of "
                             f"{', '.join(map(str, choices))}, got {value!r}")
    n_atoms = branching**(3 * depth)
    if n_atoms > MAX_ATOMS:
        raise ValueError(f"depth {depth} and branching {branching} make an "
                         f"atom count {n_atoms} that exceeds {MAX_ATOMS}")


def build_tree(depth: int, branching: int,
               params: ModelParams) -> ScenarioTree:
    """Deterministic tree with per-step increments matching the model's
    per-step variances (sigma, eps, 1 channel scales)."""
    check_tree(depth, branching)
    n_combos = branching**3
    n_atoms = n_combos**depth
    dt = params.horizon / depth
    if branching == 2:
        base = np.array([-1.0, 1.0]) * np.sqrt(dt)
    else:
        # uniform probabilities; stretch so the second moment is still dt
        base = np.array([-1.0, 0.0, 1.0]) * np.sqrt(1.5 * dt)
    per_channel = [s * base for s in (params.sigma, params.epsilon, 1.0)]
    combos = np.array(list(itertools.product(*per_channel)))
    choices = np.array(list(itertools.product(range(n_combos), repeat=depth)),
                       dtype=int)
    increments = combos[choices]                  # (n_atoms, depth, 3)
    paths = np.zeros((n_atoms, depth + 1, 3))
    np.cumsum(increments, axis=1, out=paths[:, 1:, :])
    probs = np.full(n_atoms, 1.0 / n_atoms)
    return ScenarioTree(depth, dt, combos, choices, paths, probs)


def atom_utility_from_contract(tree: ScenarioTree, contract,
                               params: ModelParams) -> np.ndarray:
    """Per-atom utility -xi(P_T, Z_T) + zeta(path) in model units; the entropy
    part is carried by the solver, not by u."""
    p, z, w = tree.paths[:, :, 0], tree.paths[:, :, 1], tree.paths[:, :, 2]
    xi = contract.terminal_payoff(p[:, -1], z[:, -1])
    return -xi + zeta_integral(z, w, tree.dt, params)


def node_constraint_set(tree: ScenarioTree, rate_lower: float,
                        rate_upper: float) -> np.ndarray:
    """The (n_constraints, n_atoms) linear forms c_r of the node
    constraints sum_x p(x) E[m|x] c_r(x) <= 0.

    One form per (tree node, row): eta = indicator of the node, window =
    the node's own step. These etas are the natural finite test family on
    a tree; feasibility with all six rows pins the tilted drift of P to W,
    keeps W driftless, and bounds the Z drift to [L, U]. Forms run over
    the depths in order, node-major within a depth, and in
    :data:`ROW_NAMES` order within a node; a form is zero off its node's
    atom block.
    """
    inc = tree.combos[tree.choices]           # (n_atoms, depth, 3)
    n_rows = len(ROW_NAMES)
    forms = []
    for d in range(tree.depth):
        n_nodes = tree.n_combos**d
        rows = np.stack(constraint_rows(
            inc[:, d, 0], inc[:, d, 1], inc[:, d, 2],
            tree.paths[:, d, 2] * tree.dt, tree.dt, rate_lower, rate_upper))
        # (node, row, node, atom in block), nonzero where the nodes agree
        block = np.zeros((n_nodes, n_rows, n_nodes, tree.n_atoms // n_nodes))
        nodes = np.arange(n_nodes)
        block[nodes, :, nodes, :] = (rows.reshape(n_rows, n_nodes, -1)
                                     .transpose(1, 0, 2))
        forms.append(block.reshape(n_nodes * n_rows, tree.n_atoms))
    return np.concatenate(forms)


@dataclass(frozen=True)
class StrongSolution:
    value: float
    density: np.ndarray        # optimal m per atom
    multipliers: np.ndarray    # one per constraint row, empty for none
    kkt_residual: float
    iterations: int
    converged: bool            # kkt_residual <= _TOL when the solve ended
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
    from scipy.linalg import qr, solve_triangular

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


# Newton-step cap of one strong solve and the KKT residual it stops at,
# near float64 resolution
_MAX_ITER = 10_000
_TOL = 1e-12


def solve_strong_discrete(tree: ScenarioTree, u: np.ndarray, lam: float,
                          constraints: Optional[np.ndarray] = None
                          ) -> StrongSolution:
    """Maximize sum p [m u - lam m log m] over densities m > 0 with
    sum p m = 1 and sum p m c_r <= 0 for the constraint forms c_r, the
    rows of ``constraints`` (as from :func:`node_constraint_set`); None
    means no rows.

    The strictly concave program is solved on its Lagrange dual
    D(mu) = lam log sum p e^{(u - F^T mu)/lam} over multipliers mu >= 0
    (normalization absorbed into the Gibbs form) by projected Newton
    steps (`_newton_step`) from mu = 0. The first iterate is the Gibbs
    density m = e^{u/lam} / sum p e^{u/lam}, the optimum when no row is
    violated there, so with no rows the solve takes 0 steps and
    ``multipliers`` is empty. Each step is halved until D falls by the
    Armijo amount (at least 1e-14 |D|, so that rounding-level moves do
    not count) or the KKT residual falls 1e-4 below the least so far: far
    from the optimum the residual can rise on the way down D, and near it
    D is flat to within its rounding and cannot rank trial points.
    Solves on trees of depth 1-3 take from 3 to a few dozen steps.
    ``duality_gap`` is D(mu) minus the value of the returned density; by
    weak duality D(mu) bounds the relaxed value over every randomized
    control, so a gap near 0 certifies that randomization cannot beat the
    returned strong control. A solve that reaches ``_MAX_ITER`` steps, or
    stalls, with the residual above ``_TOL`` returns with ``converged``
    False, or raises when the residual exceeds 1e3 * ``_TOL``.
    """
    if lam <= 0:
        raise ValueError("entropy weight must be positive")
    probs = tree.probs
    u = np.asarray(u, dtype=float)
    c = np.empty((0, tree.n_atoms)) if constraints is None else constraints

    def at(mu):
        # the Gibbs density, dual value and constraint moments E[m c_r]
        m, log_z = _gibbs(probs, u - c.T @ mu, lam)
        return m, float(lam * log_z), c @ (probs * m)

    mu = np.zeros(len(c))
    iterations = 0
    m, dual_value, moments = at(mu)
    residual = least = _kkt_residual(mu, moments)
    while residual > _TOL and iterations < _MAX_ITER:
        step = _newton_step(c, probs * m, moments, mu, lam)
        # down to 2^-99, about e^{-69}: where the Gibbs masses span a
        # factor e^{69}, Newton can overshoot by about that factor
        for halvings in range(100):
            trial = np.maximum(mu + 0.5**halvings * step, 0.0)
            state = at(trial)
            trial_residual = _kkt_residual(trial, state[2])
            armijo = max(1e-4 * float(moments @ (trial - mu)),
                         1e-14 * abs(dual_value))
            # the residual is held to the least so far, so the two tests
            # cannot hand a pair of points back and forth
            if (dual_value - state[1] >= armijo
                    or trial_residual <= (1.0 - 1e-4) * least):
                break
        else:
            break           # no decrease left at float64 resolution
        mu, residual = trial, trial_residual
        least = min(least, residual)
        m, dual_value, moments = state
        iterations += 1
    if residual > 1e3 * _TOL:
        raise RuntimeError(
            f"dual ascent did not converge: KKT residual {residual:g} "
            "(instance may be infeasible)")
    value = _primal_value(probs, m, u, lam)
    return StrongSolution(value, m, mu, residual, iterations,
                          residual <= _TOL, dual_value - value)


def default_density_grid(density) -> np.ndarray:
    """Per-atom density grid, (n_atoms, 24): row x holds 21 log-spaced
    atoms spanning [1e-3, 1e3], then 0.8, 1 and 1.25 times density[x].

    With the strong optimum as ``density`` the Dirac optimum is on-grid,
    and the two neighbours give the LP room to out-score a density that
    is not optimal."""
    density = np.asarray(density, dtype=float)[:, None]
    base = np.broadcast_to(np.geomspace(1e-3, 1e3, 21), (len(density), 21))
    return np.hstack([base, 0.8 * density, density, 1.25 * density])


@dataclass(frozen=True)
class RelaxedControlDiscrete:
    """A finite measure over (path-atom, density-atom) pairs.

    Row x of ``atoms`` holds density values of path-atom x and the same
    row of ``weights`` the conditional distribution over them; a row with
    fewer values is padded by atoms of zero weight. A row may hold a value
    twice, as :func:`default_density_grid` does where density[x] is one
    of its log-spaced values. Dirac mode is the special case of a unit
    weight on a single density value per atom.
    """

    probs: np.ndarray
    atoms: np.ndarray       # (n_atoms, k) density values
    weights: np.ndarray     # (n_atoms, k) conditional probabilities

    def __post_init__(self):
        if not (np.shape(self.atoms) == np.shape(self.weights)
                and len(self.atoms) == len(self.probs)):
            raise ValueError("atoms and weights must be (n_atoms, k) arrays "
                             "matching the base measure")

    def conditional_mean(self) -> np.ndarray:
        return np.einsum("xk,xk->x", self.weights, self.atoms)

    def max_secondary_weight(self) -> float:
        """The largest second-largest weight that an atom puts on one
        density value, the weights of equal values in a row summed: 0 for
        exact Dirac mode; small for a collapsed optimum."""
        order = np.argsort(self.atoms, axis=1)
        atoms = np.take_along_axis(self.atoms, order, axis=1)
        weights = np.take_along_axis(self.weights, order, axis=1)
        # each run of equal values keeps their sum in its first entry; a
        # row's first entry always starts a run, so no run spans two rows
        starts = np.ones(atoms.shape, dtype=bool)
        np.not_equal(atoms[:, 1:], atoms[:, :-1], out=starts[:, 1:])
        first = np.flatnonzero(starts)
        pooled = np.zeros(weights.shape)
        pooled.reshape(-1)[first] = np.add.reduceat(weights.reshape(-1),
                                                    first)
        second = np.sort(pooled, axis=1)[:, -2:-1]
        return float(np.max(second, initial=0.0))

    def is_dirac(self) -> bool:
        """Every atom's second-largest weight is at most 1e-6."""
        return self.max_secondary_weight() <= 1e-6


def solve_relaxed_discrete(tree: ScenarioTree, u: np.ndarray, lam: float,
                           density_grid: np.ndarray,
                           constraints: Optional[np.ndarray] = None,
                           ) -> tuple:
    """Optimize over randomized-mode relaxed controls on a finite density
    grid per path-atom; returns (value, RelaxedControlDiscrete).

    ``density_grid`` is (n_atoms, k), row x the density values offered to
    path-atom x (as from :func:`default_density_grid`). With the density
    values fixed the program is linear in the conditional weights q(x, j),
    stored atom-major at x * k + j, and in one conditional mean
    mbar(x) = sum_j g(x, j) q(x, j) per atom, stored after them: maximize
    sum_x p(x) sum_j q(x,j) [g(x,j) u(x) - lam g(x,j) log g(x,j)] subject
    to the per-atom marginals, the definition of mbar, the normalization
    sum_x p(x) mbar(x) = 1 and the constraint moments
    sum_x p(x) c_r(x) mbar(x) <= 0. Reading the last two off mbar keeps
    each constraint row one entry per atom instead of one per (atom, grid
    point). Per atom the LP sees the chordal interpolation of the concave
    objective through its grid values, so any grid that holds each atom's
    strong optimum has the strong optimal value.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, hstack, identity, vstack

    if lam <= 0:
        raise ValueError("entropy weight must be positive")
    probs = np.asarray(tree.probs, dtype=float)
    u = np.asarray(u, dtype=float)
    n_atoms = tree.n_atoms
    g = np.asarray(density_grid, dtype=float)
    if g.ndim != 2 or len(g) != n_atoms or np.any(g <= 0):
        raise ValueError("density grid must be an (n_atoms, k) array of "
                         "strictly positive atoms")
    n_grid = g.shape[1]
    n_weights = n_atoms * n_grid

    cost = np.concatenate([
        (-probs[:, None] * (g * u[:, None] - lam * g * np.log(g))).ravel(),
        np.zeros(n_atoms)])
    # atom x owns the weight columns x * n_grid .. (x + 1) * n_grid - 1
    block = (np.arange(n_weights), np.arange(0, n_weights + 1, n_grid))
    eye = identity(n_atoms, format="csr")
    a_eq = vstack([
        hstack([csr_matrix((np.ones(n_weights), *block),
                           shape=(n_atoms, n_weights)),
                csr_matrix((n_atoms, n_atoms))]),
        hstack([csr_matrix((g.ravel(), *block), shape=(n_atoms, n_weights)),
                -eye]),
        hstack([csr_matrix((1, n_weights)), csr_matrix(probs[None, :])]),
    ], format="csr")
    b_eq = np.concatenate([np.ones(n_atoms), np.zeros(n_atoms), [1.0]])

    c = np.empty((0, n_atoms)) if constraints is None else constraints
    a_ub = hstack([csr_matrix((len(c), n_weights)), csr_matrix(probs * c)],
                  format="csr")

    result = linprog(cost, A_ub=a_ub, b_ub=np.zeros(len(c)), A_eq=a_eq,
                     b_eq=b_eq, bounds=(0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"relaxed program failed: {result.message}")
    q = result.x[:n_weights].reshape(n_atoms, n_grid)
    weights = q / np.maximum(np.sum(q, axis=1, keepdims=True), 1e-300)
    control = RelaxedControlDiscrete(probs, g, weights)
    return float(-result.fun), control


@dataclass(frozen=True)
class CollapseReport:
    counterexamples: tuple
    min_jensen_gap: float


def verify_collapse(tree: ScenarioTree, lam: float, trials: int,
                    seed: int) -> CollapseReport:
    """Check that randomization never helps when the entropy weight is
    positive.

    For random feasible two-point randomizations, the Dirac control at the
    conditional mean dominates by exactly lam times the Jensen gap of
    m log m (strictly when the two points differ). Any violation is
    reported as a counterexample with the full instance data.
    """
    probs = tree.probs
    raw = uniforms(seed, (trials, tree.n_atoms, 3))
    g = 2.0 * raw[:, :, 0] - 1.0
    cond_mean = np.exp(g)
    cond_mean /= (cond_mean @ probs)[:, None]
    shrink = 0.05 + 0.9 * raw[:, :, 1]           # first point below the mean
    q = 0.05 + 0.9 * raw[:, :, 2]
    m1 = cond_mean * shrink
    m2 = (cond_mean - q * m1) / (1.0 - q)
    rand_entropy = (q * m1 * np.log(m1) + (1 - q) * m2 * np.log(m2)) @ probs
    dirac_entropy = (cond_mean * np.log(cond_mean)) @ probs
    gaps = lam * (rand_entropy - dirac_entropy)  # objective(dirac)-obj(rand)
    bad = (gaps <= -1e-12) | ((gaps <= 0)
                              & np.any(np.abs(m1 - m2) > 1e-12, axis=1))
    counterexamples = tuple(
        {"trial": int(k), "gap": float(gaps[k]),
         "cond_mean": cond_mean[k].tolist(), "m1": m1[k].tolist(),
         "m2": m2[k].tolist(), "q": q[k].tolist()}
        for k in np.flatnonzero(bad))
    return CollapseReport(counterexamples, float(np.min(gaps)))


@dataclass(frozen=True)
class ExtractionReport:
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
    the six constraint rows at every node of positive tilted mass and
    records the worst violation.
    """
    cond_mean = control.conditional_mean()
    tilted = tree.probs * cond_mean
    n_combos = tree.n_combos
    max_violation = 0.0
    reconstructed = np.ones(tree.n_atoms)
    for d in range(tree.depth):
        n_nodes = n_combos**d
        # (node, child, atom of the child's block)
        children = tilted.reshape(n_nodes, n_combos, -1)
        mass = np.sum(tilted.reshape(n_nodes, -1), axis=1)
        live = mass > 1e-300
        trans = np.sum(children, axis=2) / np.where(live, mass, 1.0)[:, None]
        factor = np.where(live[:, None], trans * n_combos, 1.0)
        reconstructed = (reconstructed.reshape(children.shape)
                         * factor[:, :, None]).ravel()
        drift = (trans[live] @ tree.combos) / tree.dt
        # the rows at dt = 1 (so W dt = W) with the drift in place of
        # dX are b + A nu
        w_node = tree.paths[::tree.n_atoms // n_nodes, d, 2][live]
        residuals = constraint_rows(drift[:, 0], drift[:, 1], drift[:, 2],
                                    w_node, 1.0, rate_lower, rate_upper)
        max_violation = max(max_violation,
                            float(np.max(residuals, initial=0.0)))
    recon_err = float(np.max(np.abs(reconstructed - cond_mean)))
    return ExtractionReport(max_violation, recon_err)
