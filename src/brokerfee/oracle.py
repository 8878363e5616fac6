"""Finite scenario-tree oracle for the relaxed-control theory.

Everything the relaxation argument claims in the continuous model has an
exact finite analogue on a scenario tree: relaxed controls are explicit
finite measures over (path-atom, density-atom) pairs, the strong problem
is a finite concave program with a Gibbs closed form, and the claims
(strong controls embed, the relaxed optimum collapses to a Dirac density,
values coincide, an admissible drift can be extracted) can be brute-forced
to solver tolerance. The strong program, with zero or more node
constraint forms, is solved on its Lagrange dual. The entropic cost gives
the dual a Gibbs form, and since each node's forms read an atom only
through its child at that step, the dual is a recursion over the tree:
each node minimizes over its own six multipliers, from the deepest nodes
up, by projected Newton steps from zero multipliers (whose first iterate
is the Gibbs closed form) to a KKT residual at float64 resolution. The
dual value at the multipliers found is a closed-form bound on the
relaxed value over every randomized control (the duality gap). The
relaxed program on a density grid of its own for each path-atom is a
linear program that is certified rather than solved: the same
multipliers bound its value by weak duality, and complementary slackness
names the grid values its optima can use, in arithmetic linear in the
atoms.
This module is the verification half of the package: it never trusts the
continuous solvers, only convex duality on the tree.

The atoms of every tree node form one contiguous block (see
:class:`ScenarioTree`), so at depth d a per-atom array reshaped to
(n_combos**d, -1) has one row per node: the products with the node
constraint forms (:class:`NodeForms`, one value per node, row and child)
and the drift extraction are such reshapes. A relaxed control is two
(n_atoms, k) arrays of density values and their conditional weights, and
the collapse trials are one (trials, n_atoms) array each.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, constraint_rows, zeta_integral
from .rng import uniforms

__all__ = [
    "ScenarioTree", "NodeForms", "RelaxedControlDiscrete",
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


@dataclass(frozen=True)
class NodeForms:
    """The node constraint forms of a tree, one array per depth d of shape
    (n_combos**d, 6, n_combos): entry (n, r, j) is row r of node n on its
    child j, a value every atom of the child's block shares. A form reads
    an atom only through its node's child at that step, which is what
    lets :func:`solve_strong_discrete` solve node by node.

    Stacked, the forms are the rows of a matrix F over the atoms: the
    depths in order, node-major within a depth and in the order of
    :data:`.model.ROW_NAMES` within a node, so form k is row k % 6 of its
    node and is zero off its node's atom block. Both products with F are
    reshapes.
    """

    blocks: tuple       # per depth, (n_combos**d, 6, n_combos)

    @property
    def n_rows(self) -> int:
        return sum(block.shape[0] * block.shape[1] for block in self.blocks)

    def moments(self, mass: np.ndarray) -> np.ndarray:
        """F @ mass: sum_x mass(x) c_k(x) for every form k, from per-atom
        masses; the children's masses of each depth are summed from those
        of the depth below."""
        moments = []
        child = np.asarray(mass, dtype=float)
        for block in reversed(self.blocks):
            child = child.reshape(block.shape[0], block.shape[2])
            moments.append(np.einsum("nrj,nj->nr", block, child).ravel())
            child = np.sum(child, axis=1)
        return np.concatenate(moments[::-1])

    def per_atom(self, mu: np.ndarray) -> np.ndarray:
        """F^T mu: sum_k mu_k c_k(x) at every atom x, accumulated from the
        root down, one value per node of each depth."""
        total = np.zeros(1)
        start = 0
        for block in self.blocks:
            stop = start + block.shape[0] * block.shape[1]
            nu = mu[start:stop].reshape(block.shape[:2])
            total = (total[:, None]
                     + np.einsum("nrj,nr->nj", block, nu)).ravel()
            start = stop
        return total


def node_constraint_set(tree: ScenarioTree, rate_lower: float,
                        rate_upper: float) -> NodeForms:
    """The linear forms c_r of the node constraints
    sum_x p(x) E[m|x] c_r(x) <= 0, six per tree node.

    One form per (tree node, row): eta = indicator of the node, window =
    the node's own step. These etas are the natural finite test family on
    a tree; feasibility with all six rows pins the tilted drift of P to W,
    keeps W driftless, and bounds the Z drift to [L, U]. A form's value on
    an atom is its row at the node's W and the atom's increment at that
    step, so it is stored once per child of the node (:class:`NodeForms`):
    at depth 4 and branching 2 that is 585 x 6 x 8 floats.
    """
    combos = tree.combos
    blocks = []
    for d in range(tree.depth):
        # W dt at each node of depth d, read at the first atom of its block
        w_dt = tree.paths[::tree.n_combos**(tree.depth - d), d, 2] * tree.dt
        rows = constraint_rows(combos[:, 0], combos[:, 1], combos[:, 2],
                               w_dt[:, None], tree.dt, rate_lower,
                               rate_upper)
        blocks.append(np.stack(np.broadcast_arrays(*rows), axis=1))
    return NodeForms(tuple(blocks))


@dataclass(frozen=True)
class StrongSolution:
    value: float
    density: np.ndarray        # optimal m per atom
    multipliers: np.ndarray    # one per constraint row, empty for none
    kkt_residual: float
    iterations: int            # batched steps of the slowest depth
    converged: bool            # by _certified
    duality_gap: float         # D(mu) - value, D(mu) >= every relaxed value


def _gibbs(probs, adjusted_u, lam):
    """Gibbs density e^{u/lam} / sum p e^{u/lam} and its log-normaliser."""
    # shifted by the largest exponent, so the sum is at least its mass
    exponent = adjusted_u / lam
    shift = np.max(exponent)
    log_z = shift + np.log(float(probs @ np.exp(exponent - shift)))
    return np.exp(exponent - log_z), log_z


def _primal_value(probs, m, u, lam):
    # m log m -> 0 as m -> 0; clip keeps the log finite at hard zeros
    safe = np.maximum(m, 1e-300)
    return float(np.sum(probs * (m * u - lam * safe * np.log(safe))))


def _certified(residual, gap, value, tol):
    return np.maximum(residual, np.abs(gap) / np.maximum(1.0, np.abs(value))
                      ) <= tol


def _kkt_residual(mu, moments):
    """Worst constraint violation or complementary-slackness product."""
    return max(float(np.max(moments, initial=0.0)),
               float(np.max(np.abs(mu * moments), initial=0.0)))


def _node_law(values, forms, nu, lam):
    """Per node of one depth: the Gibbs law q of its children at
    multipliers nu, its dual value lam log mean_j e^{(V_j - nu.c_j)/lam}
    and its conditional moments E_q[c_r]."""
    exponent = (values - np.einsum("nrj,nr->nj", forms, nu)) / lam
    shift = np.max(exponent, axis=1, keepdims=True)
    weights = np.exp(exponent - shift)
    total = np.sum(weights, axis=1, keepdims=True)
    q = weights / total
    dual = lam * (shift[:, 0] + np.log(total[:, 0] / values.shape[1]))
    return q, dual, np.einsum("nrj,nj->nr", forms, q)


def _node_residual(nu, moments):
    """Per node, its worst row violation or complementary product."""
    return np.maximum(np.max(moments, axis=1, initial=0.0),
                      np.max(np.abs(nu * moments), axis=1))


def _newton_step(forms, q, moments, nu, lam):
    """Projected Newton directions for the dual of a batch of nodes at
    multipliers nu (Bertsekas 1982).

    Multipliers within eps of zero whose row is slack are sent to the
    bound, eps being the distance of the node's nu from its
    projected-gradient step. On the other rows the Hessian is (1/lam)
    times the covariance of the forms under the children's law q. The
    rows come in pairs: c2 = -c1, c4 = -c3, and c5 + c6 is constant on a
    node's children, so the two rate rows cannot both bind. Where both
    rows of a pair are free, the one with the smaller multiplier leaves
    the system: a price or signal row stays put, a slack rate row goes to
    the bound. The free rows are then independent by construction, and
    none is cut for a small curvature: a violated row gets a step however
    concentrated the law.

    The covariance is formed centred, in two passes, scaled to a unit
    diagonal (a row whose curvature is below the square root of float64's
    least normal number is scaled by 1, as if it had none: its scale
    would overflow the step) and solved with a ridge of 1e-14, so that
    the direction still descends where the law leaves rows dependent at
    float64 resolution. A step that would move a child's log-probability
    by more than float64's exponent range, where trial laws underflow, is
    scaled down to it.
    """
    eps = np.max(np.abs(nu - np.maximum(nu + moments, 0.0)), axis=1,
                 keepdims=True)
    active = (nu <= eps) & (moments < 0.0)
    step = np.where(active, -nu, 0.0)
    # (node, pair, row in pair)
    free = ~active.reshape(-1, 3, 2)
    pair_nu = nu.reshape(-1, 3, 2)
    both = free[..., 0] & free[..., 1]
    second = pair_nu[..., 1] > pair_nu[..., 0]
    dropped = np.stack([both & second, both & ~second], axis=-1)
    free = (free & ~dropped).reshape(nu.shape)
    dropped[:, :2] = False
    slack = dropped.reshape(nu.shape) & (moments < 0.0)
    step[slack] = -nu[slack]

    centred = forms - moments[:, :, None]
    cov = np.einsum("nrj,nj,nsj->nrs", centred, q, centred)
    curvature = np.diagonal(cov, axis1=1, axis2=2)
    scale = 1.0 / np.sqrt(np.where(curvature > _CURVATURE_FLOOR, curvature,
                                   1.0))
    # the fixed rows get an identity block and no right-hand side
    pair = free[:, :, None] & free[:, None, :]
    system = np.where(pair, scale[:, :, None] * cov * scale[:, None, :], 0.0)
    rows = np.arange(nu.shape[1])
    system[:, rows, rows] += np.where(free, 1e-14, 1.0)
    y = np.linalg.solve(system, np.where(free, scale * moments, 0.0)[..., None])
    step = np.where(free, lam * scale * y[..., 0], step)
    nats = np.max(np.abs(np.einsum("nrj,nr->nj", forms, step)), axis=1) / lam
    return step * (_EXP_RANGE / np.maximum(nats, _EXP_RANGE))[:, None]


# Newton-step cap of one depth's solve and the KKT residual and duality
# gap it stops at, near float64 resolution
_MAX_ITER = 10_000
_TOL = 1e-12
# the largest change of a log-density that one Newton step may make: the
# log of the largest float64
_EXP_RANGE = float(np.log(np.finfo(float).max))
# the least curvature a row is scaled by
_CURVATURE_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def _solve_depth(values, forms, lam, tol):
    """Minimize each node's dual over nu >= 0 for one depth's nodes, as a
    batch; returns (nu, dual values, batched steps)."""
    nu = np.zeros(forms.shape[:2])
    q, dual, moments = _node_law(values, forms, nu, lam)
    # every law of the children scores at least min V - lam log n_combos,
    # so by weak duality a dual value below it proves that no law meets
    # the node's rows
    floor = np.min(values, axis=1) - lam * np.log(values.shape[1])
    residual = _node_residual(nu, moments)
    least = residual.copy()
    open_ = ~_certified(residual, np.sum(nu * moments, axis=1), dual, tol)
    steps = 0
    while np.any(open_) and steps < _MAX_ITER:
        nodes = np.flatnonzero(open_)
        step = _newton_step(forms[nodes], q[nodes], moments[nodes],
                            nu[nodes], lam)
        # down to 2^-99, about e^{-69}: where the Gibbs masses span a
        # factor e^{69}, Newton can overshoot by about that factor
        searching = np.arange(nodes.size)
        for halvings in range(100):
            at = nodes[searching]
            trial = np.maximum(nu[at] + 0.5**halvings * step[searching], 0.0)
            state = _node_law(values[at], forms[at], trial, lam)
            trial_residual = _node_residual(trial, state[2])
            armijo = np.maximum(
                1e-4 * np.sum(moments[at] * (trial - nu[at]), axis=1),
                1e-14 * np.abs(dual[at]))
            # the residual is held to the least so far, so the two tests
            # cannot hand a pair of points back and forth, and a residual
            # of 0 admits no step on its own
            done = ((dual[at] - state[1] >= armijo)
                    | (trial_residual < (1.0 - 1e-4) * least[at]))
            moved = at[done]
            nu[moved], residual[moved] = trial[done], trial_residual[done]
            q[moved], dual[moved], moments[moved] = (s[done] for s in state)
            searching = searching[~done]
            if not searching.size:
                break
        # a node with no decrease left at float64 resolution stops
        open_[nodes[searching]] = False
        least = np.minimum(least, residual)
        steps += 1
        below = dual < floor
        if np.any(below):
            k = np.flatnonzero(below)[0]
            raise RuntimeError(
                f"dual ascent did not converge: the dual value {dual[k]:g} "
                f"of a node is below {floor[k]:g}, the least value of any "
                "law of its children, so the instance is infeasible")
        open_ &= ~_certified(residual, np.sum(nu * moments, axis=1), dual,
                             tol)
    return nu, dual, steps


def solve_strong_discrete(tree: ScenarioTree, u: np.ndarray, lam: float,
                          constraints: NodeForms = None) -> StrongSolution:
    """Maximize sum p [m u - lam m log m] over densities m > 0 with
    sum p m = 1 and sum p m c_r <= 0 for the constraint forms c_r of
    ``constraints`` (:func:`node_constraint_set`, six to a node); None
    means no rows.

    The strictly concave program's Lagrange dual is
    D(mu) = lam log sum p e^{(u - F^T mu)/lam} over multipliers mu >= 0
    (normalization absorbed into the Gibbs form). Each form reads an atom
    only through its node's child, and the base measure is uniform, so D
    is the root of a recursion: a leaf's value V is u, and a node's value
    is lam log mean_j e^{(V_j - nu.c_j)/lam} over its children j, nu its
    six multipliers. Log-sum-exp increases in each V_j, so D is minimized
    node by node, from the deepest nodes up: each node's minimum over
    nu >= 0 becomes its value for its parent, and the minimizers are the
    global dual's multipliers. All nodes of one depth are solved as one
    batch by projected Newton steps (`_newton_step`) from nu = 0, at
    which the law of the children is the Gibbs one, so a node none of
    whose rows is violated there takes no step. Each step is halved until
    the node's dual value falls by the Armijo amount (at least 1e-14 of
    its size, so that rounding-level moves do not count) or its KKT
    residual falls 1e-4 below its least so far: far from the optimum the
    residual can rise on the way down, and near it the value is flat to
    within its rounding and cannot rank trial points. A node stops once
    its residual and its gap, minus the sum of its complementary
    products, pass `_certified` on the law of its children at
    ``_TOL`` / (100 depth), or when no halving decreases it. The global
    gap is the node gaps weighted by the node masses, which sum to 1 at
    each depth, so it stays below ``_TOL``, and the factor 100 leaves it
    at its rounding for about one more Newton step.

    ``iterations`` is the largest count of batched steps at any depth,
    the Newton steps of the slowest node; with no rows the solve takes 0
    and ``multipliers`` is empty. The zero fee takes 5 at depth 3 (about
    3 ms) and 6 at depth 5 (about 0.06 s, 4,681 nodes). The solve raises
    at once when a node's dual value falls below
    min_j V_j - lam log n_combos, which weak duality rules out while any
    law of its children meets its rows.

    The certificate is global: the returned density is the Gibbs density
    of u - F^T mu, and ``kkt_residual`` and ``duality_gap`` (D(mu) minus
    the density's value) are read off it. By weak duality D(mu) bounds
    the relaxed value over every randomized control, so a gap near 0
    certifies that randomization cannot beat the returned strong control.
    ``converged`` is True once the residual is at most ``_TOL`` and
    |``duality_gap``| at most ``_TOL`` max(1, |value|) (`_certified`):
    the gap is minus the sum of the complementary products that the
    residual bounds one by one, so it can stay above ``_TOL`` when the
    residual is below, and it carries the rounding of two numbers of the
    size of the value. A depth stops after ``_MAX_ITER`` steps and a node
    that stalls stops where it is; ``converged`` then reads the global
    certificate, and the solve raises when the residual exceeds
    1e3 * ``_TOL``.
    """
    if lam <= 0:
        raise ValueError("entropy weight must be positive")
    probs = tree.probs
    u = np.asarray(u, dtype=float)
    iterations = 0
    if constraints is None:
        mu = np.zeros(0)
        adjusted = u
    else:
        values = u
        nus = []
        for forms in reversed(constraints.blocks):
            nu, values, steps = _solve_depth(
                values.reshape(forms.shape[0], forms.shape[2]), forms, lam,
                _TOL / (100 * len(constraints.blocks)))
            nus.append(nu.ravel())
            iterations = max(iterations, steps)
        mu = np.concatenate(nus[::-1])
        adjusted = u - constraints.per_atom(mu)
    m, log_z = _gibbs(probs, adjusted, lam)
    dual_value = float(lam * log_z)
    value = _primal_value(probs, m, u, lam)
    residual = 0.0 if constraints is None else _kkt_residual(
        mu, constraints.moments(probs * m))
    if residual > 1e3 * _TOL:
        raise RuntimeError(
            f"dual ascent did not converge: KKT residual {residual:g} "
            "(instance may be infeasible)")
    gap = dual_value - value
    return StrongSolution(value, m, mu, residual, iterations,
                          bool(_certified(residual, gap, value, _TOL)), gap)


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
    g. ``constraints`` are the forms c_r (as from
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
    n_rows = 0 if constraints is None else constraints.n_rows
    mu = strong.multipliers
    if mu.size not in (0, n_rows):
        raise ValueError(f"{mu.size} multipliers for {n_rows} constraint "
                         "rows")
    mass = probs * density
    violation = abs(float(np.sum(mass)) - 1.0)
    if n_rows:
        violation = max(violation, float(np.max(constraints.moments(mass))))
    if violation > 1e3 * _TOL:
        raise ValueError("the density misses the normalization or a "
                         f"constraint row by {violation:g}")

    a = u - constraints.per_atom(mu) if mu.size else u
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
