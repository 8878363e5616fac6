"""Core domain types for the brokerage-fee contract model.

The market state is X = (P, Z, W): price, client inventory, and the
client's private trading signal. Under the reference measure the three
coordinates are independent Brownian motions scaled by (sigma, epsilon, 1);
the client controls the drift of Z through a trading rate pi in [L, U],
while the drift of P is pinned to W and W itself is driftless. The linear
constraint system (A, b) encodes exactly that structure: six rows whose
residuals b + A*nu are nonpositive precisely for admissible drifts.

Each piece of the model that several layers evaluate is defined here once:
the constraint rows (:func:`constraint_rows`), grid lookup
(:func:`locate`), the multilinear blend of a cell's corners behind both
:func:`interpolate` and :class:`FeedbackPolicy`, and the state-only
running utility (:func:`zeta_integral`).
"""

import bisect
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ModelParams",
    "FeedbackPolicy",
    "ROW_NAMES",
    "constraint_rows",
    "locate",
    "interpolate",
    "zeta_integral",
    "validate_params",
]


@dataclass(frozen=True)
class ModelParams:
    """All scalar model inputs plus discretization/sampling settings."""

    sigma: float = 1.0
    epsilon: float = 0.5
    phi_a: float = 0.5
    phi_p: float = 0.25
    rate_lower: float = -10.0
    rate_upper: float = 10.0
    horizon: float = 1.0
    reservation: float = 0.0
    n_steps: int = 250
    n_paths: int = 10_000
    seed: int = 0

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    @property
    def entropy_weight(self) -> float:
        """lam = 2 eps^2 phi_a, the weight of M log M in the client's
        reference-measure utility and of m log m on the scenario tree."""
        return 2 * self.epsilon**2 * self.phi_a


def validate_params(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged if all invariants hold.

    Raises ``ValueError`` naming the first violated invariant.
    """
    for field in fields(params):
        value = getattr(params, field.name)
        if field.type is float and not np.isfinite(value):
            raise ValueError(f"{field.name} must be finite")
    if not params.sigma > 0:
        raise ValueError("sigma must be positive")
    if not params.epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not params.phi_a > 0:
        raise ValueError("phi_a must be positive")
    if not params.phi_p >= 0:
        raise ValueError("phi_p must be nonnegative")
    if not params.horizon > 0:
        raise ValueError("horizon must be positive")
    if params.rate_lower > params.rate_upper:
        raise ValueError("rate_lower exceeds rate_upper")
    if params.n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if params.n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    return params


class FeedbackPolicy:
    """Trading-rate rule pi(t, w, z) stored on a grid, or a batch of such
    rules on one grid.

    The t nodes are any sorted array; the w and z nodes must be uniform
    (as ``np.linspace`` makes them), or the constructor raises
    ``ValueError``. Values are clamped to [L, U] at construction and again
    after interpolation, so every rate the policy emits is admissible. A
    C-contiguous float table already within [L, U] is kept as given,
    without a copy; the policy never writes to its table.

    A call looks up one scalar time ``t`` and broadcasts over w and z:
    each point is blended trilinearly from the eight corners of its
    (w, z, t) cell by the same code as :func:`interpolate`. The t cell is
    found once per call and the w and z cells by arithmetic on the uniform
    nodes. Beyond the grid edges the value is extrapolated by a constant.
    A policy whose table is constant returns that rate without a lookup.

    A table of shape (K, n_t, n_w, n_z) holds a batch of K rules
    (:meth:`stack`), and ``batch_shape`` is (K,), () for a single rule.
    A batch's call takes the W of its members' paths once, with shape
    (rows,), and the Z of each member, with shape (K, rows). The t and w
    cells are found once for all members, and every member's corners are
    blended in one gather, so each member's rates equal its own policy's
    lookup bit for bit; a member whose table is constant returns its rate.
    """

    def __init__(self, t_nodes, w_nodes, z_nodes, table, bounds):
        self.t_nodes = np.asarray(t_nodes, dtype=float)
        self.w_nodes = _uniform_nodes(w_nodes, "w")
        self.z_nodes = _uniform_nodes(z_nodes, "z")
        self.bounds = (float(bounds[0]), float(bounds[1]))
        table = np.ascontiguousarray(table, dtype=float)
        expected = (len(self.t_nodes), len(self.w_nodes), len(self.z_nodes))
        if table.shape[-3:] != expected or table.ndim not in (3, 4):
            raise ValueError(f"table shape {table.shape} != {expected}, "
                             f"with or without a leading batch axis")
        # np.clip leaves a value within the bounds as it is, so only a
        # table that reaches beyond them (or holds NaN) needs its copy
        if not self.bounds[0] <= table.min() <= table.max() <= self.bounds[1]:
            table = np.clip(table, *self.bounds)
        self.table = table
        self.batch_shape = table.shape[:-3]
        n_t, n_w, n_z = expected
        members = table.reshape(-1, n_t * n_w * n_z)
        first = members[:, 0]
        fixed = np.all(members == first[:, None], axis=1)
        self._rate = None
        if fixed.all():
            self._rate = first[:, None] if self.batch_shape else first[0]
        # the members of a batch with a constant table, and their rates
        self._fixed = np.flatnonzero(fixed)
        self._fixed_rates = first[self._fixed, None]
        self._t_list = self.t_nodes.tolist()
        self._flat = table.ravel()
        self._plane = n_w * n_z
        # the flat start of each member's table
        self._starts = np.arange(len(members))[:, None] * members.shape[1]
        self._offsets = _corner_offsets((n_z, 1, n_w * n_z))

    @classmethod
    def constant(cls, rate, params: ModelParams):
        """Policy identically equal to ``rate`` (clamped to [L, U])."""
        bounds = (params.rate_lower, params.rate_upper)
        nodes = np.array([0.0, params.horizon])
        table = np.full((2, 2, 2), float(rate))
        return cls(nodes, np.array([-1.0, 1.0]), np.array([-1.0, 1.0]),
                   table, bounds)

    @classmethod
    def stack(cls, policies):
        """The batch of ``policies``, in order, on their common grid and
        bounds; raises ``ValueError`` if any two differ there. The batch
        holds a copy of their tables, of shape (K, n_t, n_w, n_z), or a
        view of the table of a single policy."""
        first = policies[0]
        if not all(first.shares_grid(other) for other in policies[1:]):
            raise ValueError("stacked policies need one grid and one "
                             "[L, U]")
        tables = [policy.table for policy in policies]
        return cls(first.t_nodes, first.w_nodes, first.z_nodes,
                   tables[0][None] if len(tables) == 1 else np.stack(tables),
                   first.bounds)

    def shares_grid(self, other) -> bool:
        """Whether ``other`` has this policy's (t, w, z) nodes and [L, U],
        so that the two can be stacked."""
        return (self.bounds == other.bounds and all(
            np.array_equal(a, b) for a, b in (
                (self.t_nodes, other.t_nodes), (self.w_nodes, other.w_nodes),
                (self.z_nodes, other.z_nodes))))

    def __call__(self, t, w, z):
        """Rates at the scalar time ``t``; broadcasts over w and z (for a
        batch, over w and each member's z)."""
        t = float(t)
        if self._rate is not None:
            return np.full(np.broadcast_shapes(np.shape(w), np.shape(z)),
                           self._rate)
        it, ft = self._time_cell(t)
        iw, fw = _uniform_cell(self.w_nodes, w)
        iz, fz = _uniform_cell(self.z_nodes, z)
        n_z = len(self.z_nodes)
        # from time plane it on, base is the index of the (w, z) cell
        base = iw * n_z + iz
        if self.batch_shape:
            base += self._starts
        rate = _blend(self._flat[it * self._plane:], base, self._offsets,
                      (fw, fz, ft))
        rate = _clamp(rate, *self.bounds)
        if len(self._fixed):
            rate[self._fixed] = self._fixed_rates
        return rate[()]

    def _time_cell(self, t):
        """:func:`locate` of the scalar ``t`` on the t nodes, in Python
        floats: the same cell and fraction without numpy's per-call cost."""
        nodes = self._t_list
        it = min(max(bisect.bisect_right(nodes, t) - 1, 0), len(nodes) - 2)
        left = nodes[it]
        return it, min(1.0, max(0.0, (t - left) / (nodes[it + 1] - left)))


def _uniform_nodes(nodes, name):
    """``nodes`` as floats, if they are increasing and evenly spaced."""
    nodes = np.asarray(nodes, dtype=float)
    steps = np.diff(nodes.ravel())
    if not (nodes.ndim == 1 and len(steps) > 0 and steps[0] > 0
            and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
        raise ValueError(f"{name} nodes must be uniform and increasing")
    return nodes


def _clamp(x, lower, upper):
    """``np.clip(x, lower, upper)`` on the array ``x``, in place: the
    same values without the wrapper's per-call cost. The bound is the
    first operand, so that a tie keeps the bound and NaN propagates, as
    in np.clip."""
    np.maximum(lower, x, out=x)
    return np.minimum(upper, x, out=x)


def _uniform_cell(nodes, x):
    """:func:`locate` on uniform ``nodes``: the cell is found by
    arithmetic instead of a search."""
    x = np.asarray(x, dtype=float)
    step = (nodes[-1] - nodes[0]) / (len(nodes) - 1)
    cell = np.subtract(x, nodes[0], out=np.empty(x.shape))
    cell /= step
    np.floor(cell, out=cell)
    idx = _clamp(cell, 0, len(nodes) - 2).astype(np.intp)
    left = nodes.take(idx)
    frac = np.subtract(x, left, out=np.empty(x.shape))
    width = nodes.take(idx + 1)
    width -= left
    frac /= width
    return idx, _clamp(frac, 0.0, 1.0)


ROW_NAMES = ("drift_p_upper", "drift_p_lower", "drift_w_upper",
             "drift_w_lower", "rate_upper", "rate_lower")


def constraint_rows(dp, dz, dw, w_dt, dt, lower, upper) -> tuple:
    """The six-row linear constraint system b dt + A dX of the model, for
    the rate bounds [L, U] = [``lower``, ``upper``] and the integrated
    drift ``w_dt`` = W dt; broadcasts over array arguments.

    With b = (-W, W, 0, 0, -U, L) and dX = (dP, dZ, dW) the rows are

        1: -W dt + dP     2:  W dt - dP     (price drift pinned to W)
        3:  dW            4: -dW            (signal is driftless)
        5: -U dt + dZ     6:  L dt - dZ     (rate bounds)

    named by :data:`ROW_NAMES`. The rows are linear in (dX, W dt, dt), so
    over a window they sum to the same rows of the summed increments: the
    endpoint differences of P, Z and W, the integrated drift sum W_k dt
    and the window length. With dt = 1 and a drift nu = (nu_p, nu_z,
    nu_w) in place of dX they are the residuals b + A nu; admissibility of
    a rate pi means all six are <= 0 at nu = (W, pi, 0).
    """
    return (dp - w_dt, w_dt - dp, dw, -dw, dz - upper * dt, lower * dt - dz)


def locate(nodes, x):
    """Cell index and fraction of ``x`` on the sorted grid ``nodes``.

    Returns (idx, frac) with nodes[idx] <= x <= nodes[idx + 1] inside the
    grid. Beyond an edge the edge cell is used and frac is clipped to 0 or
    1, so linear interpolation extrapolates by a constant. Vectorized.
    """
    idx = np.searchsorted(nodes, x, side="right") - 1
    idx = np.clip(idx, 0, len(nodes) - 2)
    width = nodes[idx + 1] - nodes[idx]
    frac = np.clip((x - nodes[idx]) / width, 0.0, 1.0)
    return idx, frac


def interpolate(axes, table, *x):
    """Multilinear interpolation of ``table`` on the grid ``axes`` at ``x``.

    ``table`` has one axis per sorted node array in ``axes`` and one query
    coordinate is given per axis; the coordinates broadcast against each
    other. Beyond an edge the value is extrapolated by a constant (see
    :func:`locate`). The corners of each cell are blended by
    :func:`_blend`, along the last axis first.
    """
    if not len(axes) == len(x) == np.ndim(table):
        raise ValueError("need one node array and one coordinate per axis")
    cells = [locate(nodes, np.asarray(xi, dtype=float))
             for nodes, xi in zip(axes, x)]
    shape = np.shape(table)
    strides = [int(np.prod(shape[k + 1:])) for k in range(len(shape))]
    base = sum(idx * stride for (idx, _), stride in zip(cells, strides))
    return _blend(np.asarray(table, dtype=float).ravel(), base,
                  _corner_offsets(strides), [frac for _, frac in cells])


def _corner_offsets(strides):
    """Flat offsets of a cell's 2^n corners for these per-axis strides; the
    first axis varies fastest, so the two halves differ on the last axis."""
    offsets = [0]
    for stride in strides:
        offsets += [offset + stride for offset in offsets]
    return offsets


def _blend(flat, base, offsets, weights):
    """Multilinear blend of the cells whose first corner is at ``base`` in
    the flat table ``flat``, given the cell's corner ``offsets``
    (:func:`_corner_offsets`) and the n per-axis fractions ``weights``.

    All corners are taken in one gather, of shape (2^n,) + the shape of
    ``base``, which is the queries' full broadcast shape. The low and high
    halves are then blended in place, (1 - f) low + f high, along the last
    axis first. Returns an array, 0-d for a scalar query."""
    corners = flat.take(np.add.outer(offsets, base))
    for frac in reversed(weights):
        half = len(corners) // 2
        corners, high = corners[:half], corners[half:]
        corners *= 1 - frac
        high *= frac
        corners += high
    return corners.reshape(np.shape(base))


def zeta_integral(z, w, dt, params: ModelParams):
    """Left-point quadrature of (eps^2 phi_a / sigma^2) W^2 + Z W dt over
    the last axis: the state-only part of the agent's reweighted utility.

    ``z`` and ``w`` hold path samples on a uniform grid of step ``dt``
    along their last axis; leading axes are batch axes.
    """
    coef = params.epsilon**2 * params.phi_a / params.sigma**2
    w_left = w[..., :-1]
    return np.sum(coef * w_left**2 + z[..., :-1] * w_left, axis=-1) * dt
