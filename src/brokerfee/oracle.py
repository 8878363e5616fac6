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
randomized control (the duality gap). The relaxed program on a density
grid of its own for each path-atom is a linear program that is certified
rather than solved: the same multipliers bound its value by weak duality,
and complementary slackness names the grid values its optima can use, in
arithmetic linear in the atoms.
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
]

MAX_ATOMS = 100_000
# the tree depths and branchings build_tree accepts
DEPTHS = (1, 2, 3, 4, 5)
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
                        rate_upper: float):
    """The linear forms c_r of the node constraints
    sum_x p(x) E[m|x] c_r(x) <= 0, one per row of an
    (n_constraints, n_atoms) CSR matrix.

    One form per (tree node, row): eta = indicator of the node, window =
    the node's own step. These etas are the natural finite test family on
    a tree; feasibility with all six rows pins the tilted drift of P to W,
    keeps W driftless, and bounds the Z drift to [L, U]. Forms run over
    the depths in order, node-major within a depth, and in
    :data:`ROW_NAMES` order within a node, so form k is row k % 6 of its
    node. A form is zero off its node's atom block and stores the nonzero
    entries of that block only: at most 6 per atom and depth.
    """
    from scipy.sparse import csr_array

    inc = tree.combos[tree.choices]           # (n_atoms, depth, 3)
    n_rows = len(ROW_NAMES)
    atoms = np.arange(tree.n_atoms)
    data, indices, lengths = [], [], []
    for d in range(tree.depth):
        n_nodes = tree.n_combos**d
        block = tree.n_atoms // n_nodes
        rows = np.stack(constraint_rows(
            inc[:, d, 0], inc[:, d, 1], inc[:, d, 2],
            tree.paths[:, d, 2] * tree.dt, tree.dt, rate_lower, rate_upper))
        # (node, row, atom in block): each form holds its node's block
        data.append(rows.reshape(n_rows, n_nodes, block).transpose(1, 0, 2)
                    .ravel())
        indices.append(np.broadcast_to(atoms.reshape(n_nodes, 1, block),
                                       (n_nodes, n_rows, block)).ravel())
        lengths.append(np.full(n_nodes * n_rows, block))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
    forms = csr_array((np.concatenate(data), np.concatenate(indices),
                       indptr), shape=(len(indptr) - 1, tree.n_atoms))
    forms.eliminate_zeros()     # branching 3 has zero increments
    return forms


@dataclass(frozen=True)
class StrongSolution:
    value: float
    density: np.ndarray        # optimal m per atom
    multipliers: np.ndarray    # one per constraint row, empty for none
    kkt_residual: float
    iterations: int
    converged: bool            # by _certified
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


def _certified(residual, gap, value):
    return max(residual, abs(gap) / max(1.0, abs(value))) <= _TOL


def _kkt_residual(mu, moments):
    """Worst constraint violation or complementary-slackness product."""
    return max(float(np.max(moments, initial=0.0)),
               float(np.max(np.abs(mu * moments), initial=0.0)))


def _newton_step(forms, tilted, moments, mu, lam):
    """Projected Newton direction for the dual at mu (Bertsekas 1982).

    Multipliers within eps of zero whose constraint is slack are sent to
    the bound, eps being the distance of mu from its projected-gradient
    step. On the other rows the dual Hessian is (1/lam) (F D F^T - g g^T)
    with D = diag(p m) and g the moments. The rows of a node come in
    pairs: c2 = -c1, c4 = -c3, and c5 + c6 is constant on the node's
    atoms, so the two rate rows cannot both bind. Where both rows of a
    pair are free, the one with the smaller multiplier leaves the system:
    a price or signal row stays put, a slack rate row goes to the bound.
    The free rows are then independent by construction, and none is cut
    for a small curvature: a violated row gets a step however
    concentrated the density.

    Shifting a row by a constant leaves the Hessian as it is, so each
    free row is shifted by its value at the heaviest atom, which then
    carries no weight in S = F D F^T. S is sparse (a row meets only the
    rows of its node's ancestors and descendants); the rank-one centring
    enters by Sherman-Morrison, whose denominator is then at least the
    heaviest atom's mass and cannot cancel. S is scaled to a unit
    diagonal, since node masses can differ by many orders of magnitude,
    and factorized once by sparse LU with a ridge of 1e-14, so that the
    direction still descends where such a density leaves rows dependent
    at float64 resolution. A step that would move a log-density by more
    than float64's exponent range, where trial densities underflow, is
    scaled down to it.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import splu

    eps = float(np.max(np.abs(mu - np.maximum(mu + moments, 0.0))))
    active = (mu <= eps) & (moments < 0.0)
    step = np.where(active, -mu, 0.0)
    # (node, pair, row in pair)
    free = ~active.reshape(-1, 3, 2)
    pair_mu = mu.reshape(-1, 3, 2)
    both = free[..., 0] & free[..., 1]
    second = pair_mu[..., 1] > pair_mu[..., 0]
    dropped = np.stack([both & second, both & ~second], axis=-1)
    free &= ~dropped
    dropped[:, :2] = False
    slack = dropped.ravel() & (moments < 0.0)
    step[slack] = -mu[slack]
    free = np.flatnonzero(free)

    # each free row minus its value at the heaviest atom, entered at
    # every atom and summed with the row's own entries: the rows through
    # that atom, at most 3 per depth, become dense
    rows = forms[free].tocoo()
    n_free, n_atoms = rows.shape
    hit = rows.col == np.argmax(tilted)
    near = rows.row[hit]
    rows = csr_array(
        (np.concatenate([rows.data, np.repeat(-rows.data[hit], n_atoms)]),
         (np.concatenate([rows.row, np.repeat(near, n_atoms)]),
          np.concatenate([rows.col, np.tile(np.arange(n_atoms), near.size)]))),
        shape=rows.shape)
    owner = np.repeat(np.arange(n_free), np.diff(rows.indptr))
    mass = tilted[rows.indices]
    g = np.bincount(owner, rows.data * mass, minlength=n_free)
    # A = F D^{1/2}, its rows scaled so that A A^T has a unit diagonal (a
    # row with no weight left, its node's mass underflowed, is scaled by
    # 1), and one more column per row that adds the ridge 1e-14 I
    weighted = rows.data * np.sqrt(mass)
    curvature = np.bincount(owner, weighted**2, minlength=n_free)
    scale = 1.0 / np.sqrt(np.where(curvature > 0.0, curvature, 1.0))
    a = csr_array(
        (np.concatenate([weighted * scale[owner], np.full(n_free, 1e-7)]),
         (np.concatenate([owner, np.arange(n_free)]),
          np.concatenate([rows.indices, n_atoms + np.arange(n_free)]))),
        shape=(n_free, n_atoms + n_free))
    lu = splu((a @ a.T).tocsc())
    # (S - g g^T)^{-1} of the moments by Sherman-Morrison, g the moments
    # of the shifted rows
    y, z = (scale[:, None] * lu.solve(
        scale[:, None] * np.column_stack([moments[free], g]))).T
    step[free] = lam * (y + z * (g @ y) / (1.0 - g @ z))
    nats = float(np.max(np.abs(forms.T @ step), initial=0.0)) / lam
    return step * min(1.0, _EXP_RANGE / nats) if nats > 0.0 else step


# Newton-step cap of one strong solve and the KKT residual and duality
# gap it stops at, near float64 resolution
_MAX_ITER = 10_000
_TOL = 1e-12
# the largest change of a log-density that one Newton step may make: the
# log of the largest float64
_EXP_RANGE = float(np.log(np.finfo(float).max))


def solve_strong_discrete(tree: ScenarioTree, u: np.ndarray, lam: float,
                          constraints=None) -> StrongSolution:
    """Maximize sum p [m u - lam m log m] over densities m > 0 with
    sum p m = 1 and sum p m c_r <= 0 for the constraint forms c_r, the
    rows of ``constraints``: the sparse node forms of
    :func:`node_constraint_set`, six to a node; None means no rows.

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
    Solves on trees of depth 1-3 take from 3 to a few dozen steps; the
    zero fee takes 6 at depth 3 (about 10 ms) and 7 at depth 4 (0.08 s).
    ``duality_gap`` is D(mu) minus the value of the returned density; by
    weak duality D(mu) bounds the relaxed value over every randomized
    control, so a gap near 0 certifies that randomization cannot beat the
    returned strong control. The solve stops, with ``converged`` True,
    once the residual is at most ``_TOL`` and |``duality_gap``| at most
    ``_TOL`` max(1, |value|) (`_certified`): the gap is minus the sum of
    the complementary products that the residual bounds one by one, so it
    can stay above ``_TOL`` when the residual is below, and it carries the
    rounding of two numbers of the size of the value. With no rows it
    takes no step, and ``converged`` reads the gap that rounding leaves.
    A solve that reaches ``_MAX_ITER`` steps, or stalls, returns with
    ``converged`` False, or raises when the residual exceeds 1e3 *
    ``_TOL``. It raises at once when D falls below min u - lam
    log(1 / min p), which weak duality rules out while any density meets
    the rows.
    """
    from scipy.sparse import csr_array

    if lam <= 0:
        raise ValueError("entropy weight must be positive")
    probs = tree.probs
    u = np.asarray(u, dtype=float)
    c = csr_array((0, tree.n_atoms)) if constraints is None else constraints

    def at(mu):
        # the Gibbs density, dual value and constraint moments E[m c_r]
        m, log_z = _gibbs(probs, u - c.T @ mu, lam)
        return m, float(lam * log_z), c @ (probs * m)

    # every density scores at least min u - lam log(1 / min p), so by weak
    # duality a dual value below that proves that no density meets the rows
    floor = float(np.min(u)) - lam * float(np.log(1.0 / np.min(probs)))
    mu = np.zeros(c.shape[0])
    iterations = 0
    m, dual_value, moments = at(mu)
    residual = least = _kkt_residual(mu, moments)
    value = _primal_value(probs, m, u, lam)
    while (mu.size and not _certified(residual, dual_value - value, value)
           and iterations < _MAX_ITER and dual_value >= floor):
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
            # cannot hand a pair of points back and forth, and a residual
            # of 0 admits no step on its own
            if (dual_value - state[1] >= armijo
                    or trial_residual < (1.0 - 1e-4) * least):
                break
        else:
            break           # no decrease left at float64 resolution
        mu, residual = trial, trial_residual
        least = min(least, residual)
        m, dual_value, moments = state
        value = _primal_value(probs, m, u, lam)
        iterations += 1
    if dual_value < floor:
        raise RuntimeError(
            f"dual ascent did not converge: the dual value {dual_value:g} "
            f"is below {floor:g}, the least value of any density, so the "
            "instance is infeasible")
    if residual > 1e3 * _TOL:
        raise RuntimeError(
            f"dual ascent did not converge: KKT residual {residual:g} "
            "(instance may be infeasible)")
    gap = dual_value - value
    return StrongSolution(value, m, mu, residual, iterations,
                          _certified(residual, gap, value), gap)


@dataclass(frozen=True)
class RelaxedControlDiscrete:
    """A finite measure over (path-atom, density-atom) pairs.

    Row x of ``atoms`` holds density values of path-atom x and the same
    row of ``weights`` the conditional distribution over them; a row with
    fewer values is padded by atoms of zero weight. A row may hold a value
    twice, as the grid of :func:`solve_relaxed_discrete` does where a
    density is one of its log-spaced values. Dirac mode is the special
    case of a unit weight on a single density value per atom.
    """

    atoms: np.ndarray       # (n_atoms, k) density values
    weights: np.ndarray     # (n_atoms, k) conditional probabilities

    def __post_init__(self):
        if np.shape(self.atoms) != np.shape(self.weights):
            raise ValueError("atoms and weights must be arrays of one shape")

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
                           strong: StrongSolution, constraints=None) -> tuple:
    """Certify the relaxed program on a finite density grid per path-atom,
    centred on the strong optimum ``strong``; returns
    (value, RelaxedControlDiscrete).

    Row x of the grid holds 21 log-spaced values spanning [1e-3, 1e3],
    then 0.8, 1 and 1.25 times ``strong.density[x]``, which must be
    positive, since the program's cost holds g log g at every grid value
    g. ``constraints`` are the sparse forms c_r (as from
    :func:`node_constraint_set`), None for no rows. With the density
    values fixed the program is linear in the conditional weights q(x, j)
    of grid value g(x, j): maximize
    sum_x p(x) sum_j q(x,j) [g(x,j) u(x) - lam g(x,j) log g(x,j)] over
    each atom's simplex, subject to the normalization
    sum_x p(x) mbar(x) = 1 and the constraint moments
    sum_x p(x) c_r(x) mbar(x) <= 0 of the conditional means
    mbar(x) = sum_j g(x,j) q(x,j).

    The program is certified, not solved. For multipliers mu >= 0 of the
    rows and any nu of the normalization, the Lagrangian's supremum over
    the simplices, sum_x p(x) max_j phi(x, j) + nu with
    phi = g (a - nu) - lam g log g and a = u - F^T mu, bounds the
    program's value by weak duality, however mu was found. The returned
    value is this bound at mu = ``strong.multipliers`` (empty for no
    rows) and nu = lam (log Z - 1), Z the Gibbs normaliser of a: that nu
    puts the maximum of the concave g -> phi(x, g) at the Gibbs density of
    a, which is the strong density, a column of the grid. The Dirac at
    ``strong.density`` is checked to meet the normalization and every row
    to within 1e3 ``_TOL``, the level at which the strong solve raises,
    so the bound minus its value, the strong value, is the width of the
    certificate.

    The control spreads each row's weight evenly over the columns whose
    phi ties with the row's maximum, within 4 ulps of the column's terms
    |g (a - nu)| + lam |g log g|. By complementary slackness every optimum
    of the program puts its weight on these columns once the width is 0,
    so a control that is Dirac (the density's value is the unique
    maximizer of its row) is the program's only optimum. The check costs
    O(atoms x 24) arithmetic.
    """
    if lam <= 0:
        raise ValueError("entropy weight must be positive")
    probs = tree.probs
    u = np.asarray(u, dtype=float)
    density = strong.density
    if not np.all(density > 0):
        raise ValueError("the density must be positive at every atom")
    n_rows = 0 if constraints is None else constraints.shape[0]
    mu = strong.multipliers
    if mu.size not in (0, n_rows):
        raise ValueError(f"{mu.size} multipliers for {n_rows} constraint "
                         "rows")
    mass = probs * density
    violation = abs(float(np.sum(mass)) - 1.0)
    if n_rows:
        violation = max(violation, float(np.max(constraints @ mass)))
    if violation > 1e3 * _TOL:
        raise ValueError("the density misses the normalization or a "
                         f"constraint row by {violation:g}")

    a = u - constraints.T @ mu if mu.size else u
    _, log_z = _gibbs(probs, a, lam)
    nu = lam * (log_z - 1.0)
    g = np.hstack([np.broadcast_to(np.geomspace(1e-3, 1e3, 21),
                                   (tree.n_atoms, 21)),
                   density[:, None] * [0.8, 1.0, 1.25]])
    gain = g * (a - nu)[:, None]
    entropy = lam * g * np.log(g)
    phi = gain - entropy
    best = np.max(phi, axis=1, keepdims=True)
    tied = phi >= best - 4.0 * np.finfo(float).eps * (np.abs(gain)
                                                       + np.abs(entropy))
    control = RelaxedControlDiscrete(
        g, tied / np.sum(tied, axis=1, keepdims=True))
    return float(probs @ best[:, 0]) + nu, control


@dataclass(frozen=True)
class CollapseReport:
    counterexamples: int
    min_jensen_gap: float


def verify_collapse(tree: ScenarioTree, lam: float, trials: int,
                    seed: int) -> CollapseReport:
    """Check that randomization never helps when the entropy weight is
    positive.

    For random feasible two-point randomizations, the Dirac control at the
    conditional mean dominates by exactly lam times the Jensen gap of
    m log m (strictly when the two points differ). The report counts the
    trials that violate this and keeps the least gap over all trials.
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
    return CollapseReport(int(np.count_nonzero(bad)), float(np.min(gaps)))


@dataclass(frozen=True)
class ExtractionReport:
    max_violation: float
    reconstruction_error: float


def extract_strong_control(tree: ScenarioTree, cond_mean: np.ndarray,
                           rate_lower: float, rate_upper: float
                           ) -> ExtractionReport:
    """Per-node drifts of the measure reweighted by ``cond_mean``, the
    density E[m | path-atom] of a relaxed control.

    This is the discrete martingale-representation analogue: conditional
    transition ratios of the tilted tree measure determine a one-step
    drift per node; re-accumulating the density from those transitions
    recovers the conditional-mean density exactly. The report evaluates
    the six constraint rows at every node of positive tilted mass and
    records the worst violation.
    """
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
