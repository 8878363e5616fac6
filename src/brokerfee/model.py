"""Core domain types for the brokerage-fee contract model.

The market state is X = (P, Z, W): price, client inventory, and the
client's private trading signal. Under the reference measure the three
coordinates are independent Brownian motions scaled by (sigma, epsilon, 1);
the client controls the drift of Z through a trading rate pi in [L, U],
while the drift of P is pinned to W and W itself is driftless. The linear
constraint system (A, b) encodes exactly that structure: six rows whose
residuals b + A*nu are nonpositive precisely for admissible drifts.

Each piece of the model that several layers evaluate is defined here once:
the constraint rows (:meth:`ConstraintSpec.rows`), grid lookup
(:func:`locate`), multilinear grid interpolation (:func:`interpolate`) and
the state-only running utility (:func:`zeta_integral`).
"""

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "FeedbackPolicy",
    "ConstraintSpec",
    "ROW_NAMES",
    "locate",
    "interpolate",
    "zeta_integral",
    "validate_params",
    "params_to_config",
    "params_from_config",
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


_FLOAT_FIELDS = ("sigma", "epsilon", "phi_a", "phi_p", "rate_lower",
                 "rate_upper", "horizon", "reservation")
_PARAM_FIELDS = _FLOAT_FIELDS + ("n_steps", "n_paths", "seed")


def validate_params(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged if all invariants hold.

    Raises ``ValueError`` naming the first violated invariant.
    """
    for name in _FLOAT_FIELDS:
        if not np.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be finite")
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


def params_to_config(params: ModelParams) -> dict:
    """Flatten to the dotted key-value form used by text configs."""
    return {f"model.{name}": getattr(params, name) for name in _PARAM_FIELDS}


def params_from_config(items: dict) -> ModelParams:
    """Rebuild ModelParams from dotted keys; unknown keys are an error."""
    kwargs = {}
    for key, value in items.items():
        if not key.startswith("model."):
            raise ValueError(f"unexpected config key: {key}")
        name = key[len("model."):]
        if name not in _PARAM_FIELDS:
            raise ValueError(f"unknown model parameter: {name}")
        caster = float if name in _FLOAT_FIELDS else int
        kwargs[name] = caster(value)
    return validate_params(ModelParams(**kwargs))


class FeedbackPolicy:
    """Trading-rate rule pi(t, w, z) stored on a grid.

    The t nodes are any sorted array; the w and z nodes must be uniform
    (as ``np.linspace`` makes them), or the constructor raises
    ``ValueError``. Values are clamped to [L, U] at construction and again
    after interpolation, so every rate the policy emits is admissible.

    A call looks up one scalar time ``t``: the two saved time planes around
    it are blended into one (n_w, n_z) table, which is interpolated
    bilinearly at (w, z), with each cell found by arithmetic on the uniform
    nodes. Beyond the grid edges the value is extrapolated by a constant.
    A policy whose table is constant returns that rate without a lookup.
    """

    def __init__(self, t_nodes, w_nodes, z_nodes, table, bounds):
        self.t_nodes = np.asarray(t_nodes, dtype=float)
        self.w_nodes = _uniform_nodes(w_nodes, "w")
        self.z_nodes = _uniform_nodes(z_nodes, "z")
        self.bounds = (float(bounds[0]), float(bounds[1]))
        table = np.asarray(table, dtype=float)
        expected = (len(self.t_nodes), len(self.w_nodes), len(self.z_nodes))
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} != {expected}")
        self.table = np.clip(table, self.bounds[0], self.bounds[1])
        first = self.table.flat[0]
        self._rate = first if np.all(self.table == first) else None
        self._t_list = self.t_nodes.tolist()

    @classmethod
    def constant(cls, rate, params: ModelParams):
        """Policy identically equal to ``rate`` (clamped to [L, U])."""
        bounds = (params.rate_lower, params.rate_upper)
        nodes = np.array([0.0, params.horizon])
        table = np.full((2, 2, 2), float(rate))
        return cls(nodes, np.array([-1.0, 1.0]), np.array([-1.0, 1.0]),
                   table, bounds)

    def __call__(self, t, w, z):
        """Rates at the scalar time ``t``; broadcasts over w and z."""
        t = float(t)
        if self._rate is not None:
            return np.full(np.broadcast_shapes(np.shape(w), np.shape(z)),
                           self._rate)
        it, ft = self._time_cell(t)
        plane = (1 - ft) * self.table[it] + ft * self.table[it + 1]
        iw, fw = _uniform_cell(self.w_nodes, w)
        iz, fz = _uniform_cell(self.z_nodes, z)
        # each corner is one gather from the flat plane at base + offset;
        # the products and sums are those of the bilinear formula
        # (1 - fw) (gz v00 + fz v01) + fw (gz v10 + fz v11), in place
        flat, n_z = plane.ravel(), len(self.z_nodes)
        base = iw * n_z + iz
        gz = 1 - fz
        # a 0-d array where w and z are scalars, so that low is updated in
        # place and the clamped result is a scalar again
        low, other = np.asarray(flat.take(base)), flat[1:].take(base)
        low *= gz
        other *= fz
        low += other
        high, other = flat[n_z:].take(base), flat[n_z + 1:].take(base)
        high *= gz
        other *= fz
        high += other
        low *= 1 - fw
        high *= fw
        low += high
        return _clamp(low, *self.bounds)[()]

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


@dataclass(frozen=True)
class ConstraintSpec:
    """The six-row linear constraint system b dt + A dX of the model.

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

    rate_lower: float
    rate_upper: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "ConstraintSpec":
        return cls(params.rate_lower, params.rate_upper)

    def rows(self, dp, dz, dw, w_dt, dt) -> tuple:
        """The six rows of b dt + A dX, given the integrated drift
        ``w_dt`` = W dt; broadcasts over array arguments."""
        return (dp - w_dt, w_dt - dp,
                dw, -dw,
                dz - self.rate_upper * dt, self.rate_lower * dt - dz)


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
    :func:`locate`). The corners are summed in
    ``itertools.product((0, 1), repeat=n)`` order, each weighted by the
    product of its per-axis weights taken from the first axis on.
    """
    if not len(axes) == len(x) == np.ndim(table):
        raise ValueError("need one node array and one coordinate per axis")
    cells = [locate(nodes, np.asarray(xi, dtype=float))
             for nodes, xi in zip(axes, x)]
    weights = [(1 - frac, frac) for _, frac in cells]
    # each corner is one gather from the flat table at base + offset
    flat = np.ravel(table)
    shape = np.shape(table)
    strides = [int(np.prod(shape[k + 1:])) for k in range(len(shape))]
    base = sum(idx * stride for (idx, _), stride in zip(cells, strides))
    out = np.zeros(np.broadcast_shapes(*(frac.shape for _, frac in cells)))
    for corner in itertools.product((0, 1), repeat=len(cells)):
        weight = functools.reduce(
            operator.mul, (w[c] for w, c in zip(weights, corner)))
        offset = sum(c * stride for c, stride in zip(corner, strides))
        out += weight * flat.take(base + offset)
    return out


def zeta_integral(z, w, dt, params: ModelParams):
    """Left-point quadrature of (eps^2 phi_a / sigma^2) W^2 + Z W dt over
    the last axis: the state-only part of the agent's reweighted utility.

    ``z`` and ``w`` hold path samples on a uniform grid of step ``dt``
    along their last axis; leading axes are batch axes.
    """
    coef = params.epsilon**2 * params.phi_a / params.sigma**2
    w_left = w[..., :-1]
    return np.sum(coef * w_left**2 + z[..., :-1] * w_left, axis=-1) * dt
