"""Agent best response: backward HJB grid solver plus Monte Carlo checks.

The client's problem is a degenerate-drift control problem in the state
(Z, W) (plus P when the fee reads the price). The value function solves

    V_t + sup_pi [pi V_z - phi_a pi^2] + z w + (1/2) eps^2 V_zz
        + (1/2) V_ww [+ w V_p + (1/2) sigma^2 V_pp] = 0,
    V(T, .) = -xi,

and the maximizing rate is the clamped closed form
pi* = clamp(V_z / (2 phi_a), L, U): the Hamiltonian is strictly concave
in pi, so no grid search over rates is needed. The solver steps back
in time with Ketcheson's low-storage SSP(10,4) scheme (Ketcheson 2008,
SIAM J. Sci. Comput. 30(4); Gottlieb, Ketcheson & Shu 2011, "Strong
Stability Preserving Runge-Kutta and Multistep Time Discretizations").
Each of its ten stages is one explicit Euler step S of size dt / 6,
with upwind differencing for the rate's advection along z, one-sided
differences at the domain boundary, and the price advection w V_p
differenced centrally on every w row where the cell Peclet number
|w| dp / sigma^2 is at most 1 and upwind on the others (the "maximal
use of central differencing" of Wang & Forsyth 2008, SIAM J. Numer.
Anal. 46(3)): both keep every coefficient of the stage non-negative.
The only other operations are two linear combinations of the two
registers. Every stage is an Euler step within the Euler CFL bound when
dt is at most 6 times that bound, so the step stays monotone there (its
SSP coefficient is 6); the time step is the longest that divides T
within 6 times the Euler bound. Per Euler-bound step the scheme costs
10 / 6 (about 1.67) stages, and its time error is fourth order: a value
that is a polynomial of degree four in t, as the zero fee's is, is
stepped exactly.
The grid follows the contract family and the marched planes follow the
payoff. A polynomial, or any fee that varies in p, is held on the 3-D
(p, w, z) grid, so that a polynomial family shares one discretization;
any other fee is held on a finer 2-D (w, z) grid. The sweep marches a
single p plane on the 2-D grid, and on the 3-D grid when the fee is
exactly equal on every p plane, as the zero polynomial is: the p
differences of identical planes are exactly zero, so the one plane
stands for all of them bit for bit. One step kernel serves every case:
it walks the marched p planes in slabs, copies each slab into a
contiguous buffer, writes every intermediate into preallocated buffers,
and derives V_z, the rate, both upwind differences and V_zz from one
difference along z per slab. The slabs are split into at most one
contiguous group per usable CPU; the first group runs on the calling
thread and the others on a thread pool that lives for one solve. A
cell's arithmetic does not depend on its thread: the values are
bit-identical for any thread count.
Every path starts at the origin, so by time t it reaches only the states
within six standard deviations on each axis (:func:`_half_widths`; the
grid's cuts at T). Each step of every solve updates only that box, plus
one plane on p and three cells on w and z, and its edge slices take the
boundary rule of their axis. Domain-truncation error decays with the
distance from the start point to the cut in standard deviations (Kangro
& Nicolaides 2000, SIAM J. Numer. Anal. 38(4)). On the default 3-D grid
the box keeps 41 % of the cell updates (the p cut alone, 68 %), and it
moves the value at the origin by at most 1.2e-5 relative to the
full-width sweep (fee P_T Z_T; 2.4e-7 at 0.05 P_T Z_T), the w and z cuts
by at most 2e-6 of that: the last steps' boxes hold few of the 31 p
planes. The 2-D zero fee moves by 4e-10. At each saved time the box's
edge slices are extended linearly into V itself, along z, then w, then
p, and the rates are taken from the result: the solve keeps V, which
ends as the value at t = 0, and the rate table.
Every fee is a function of the terminal values (P_T, Z_T), so it enters
only as the terminal condition, and the grid solve is the whole best
response.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .contracts import LinearPolynomial
from .model import FeedbackPolicy, ModelParams, interpolate
from .rng import usable_cpus
from . import simulate

__all__ = ["ValueGrid", "solve_hjb", "estimate_agent_value"]

# Grid nodes (n_w, n_z) of a fee that does not read the price, and
# (n_p, n_w, n_z) of one that does; each axis spans its half-width of
# :func:`_half_widths` at T, where Gaussian tails make the boundary's
# influence negligible. The 3-D grid is coarser in w and z so that the
# sweep fits in memory. Its 31 p planes suffice because w V_p is central
# where monotone: the fee a P_T Z_T reads 0.2 % off its closed form at a = 1
# (upwinding alone was 8 % off on 61 planes), and on a kinked 3 x 3 table
# the change from 61 to 121 planes is a quarter of that from 31 to 61.
_GRID_2D = (201, 201)
_GRID_3D = (31, 101, 101)


@dataclass(frozen=True)
class ValueGrid:
    """The value at t = 0 on the grid of :func:`solve_hjb`.

    ``values`` has shape ([n_p,] n_w, n_z); in 3-D it is a read-only
    broadcast, of a single marched plane when the fee is equal on every p
    plane. It holds the solved value in the box of the last step, and
    beyond it the linear extension of the box's two edge slices on that
    side, along z, then w, then p (the second difference across the box
    edge is 0).
    """

    w_nodes: np.ndarray
    z_nodes: np.ndarray
    values: np.ndarray
    p_nodes: Optional[np.ndarray] = None

    @property
    def value_at_origin(self) -> float:
        axes = (self.w_nodes, self.z_nodes)
        if self.p_nodes is not None:
            axes = (self.p_nodes,) + axes
        return float(interpolate(axes, self.values, *[0.0] * len(axes)))


def _terminal_payoff(contract, p_nodes, z_nodes):
    """The fee xi on the (p, z) grid; returns (rows, on_3d_grid).

    ``rows`` are the payoff rows to march: all n_p rows of shape (n_z,),
    or only the first when every row equals it exactly. ``on_3d_grid``
    says whether the fee is solved on the 3-D grid: every polynomial is,
    so that a polynomial family shares one grid, the zero polynomial
    included, and so is any other fee whose rows are not all equal.
    """
    pp, zz = np.meshgrid(p_nodes, z_nodes, indexing="ij")
    payoff = contract.terminal_payoff(pp, zz)
    if np.all(payoff == payoff[:1]):
        return payoff[:1], isinstance(contract, LinearPolynomial)
    return payoff, True


# Grid cells per slab of p planes, 6 planes of 101 x 101; a box narrower in
# w and z fits more of its planes, so small boxes take few numpy calls. Each
# worker walks its slabs in its own buffers, about eight float64 arrays of
# this size. On the 2-core Xeon the kernel was timed on (2 MiB L2 per core),
# the 3-D solve of that time (61 p planes) took a median 1.83 s on two
# workers at 6 planes per slab, 2.23 s at 3 planes (1 << 15, whose buffers
# fit one core's L2) and 1.91 s at 9; fewer slabs make fewer short numpy
# calls for the workers to take turns on. On one worker 6 and 3 planes took
# 2.65 s and 2.72 s.
_SLAB_CELLS = 1 << 16


class _Buffers:
    """One worker's flat scratch for slabs of up to ``size`` cells of any
    box; ``block`` also holds a neighbour plane of up to ``plane`` cells
    on each side, and ``dp_diff`` is only there when ``n_p`` > 1."""

    def __init__(self, size, plane, n_p):
        self.block = np.empty(min(size + 2 * plane, n_p * plane))
        self.acc = np.empty(size)
        self.dz_diff = np.empty(size)
        self.pi = np.empty(size)
        self.upwind = np.empty(size)
        self.scratch = np.empty(size)
        self.negative = np.empty(size, dtype=bool)
        if n_p > 1:
            self.dp_diff = np.empty(size + plane)


class _ExplicitStep:
    """One backward explicit Euler step on V of shape (n_p, n_w, n_z): the
    stage S of the SSP(10,4) step in :func:`solve_hjb`, built with the
    stage size dt / 6.

    ``n_p`` is 1 when a single p plane is marched. A step updates only
    the box of cells last given to :meth:`cut`, the whole grid until then:
    one index range per axis (p, w, z). No cell outside the box is read or
    written, and the box's edge slices take the boundary rule of their
    axis. The box's p range is walked in slabs of as many planes as fit in
    the cells of :data:`_SLAB_CELLS`. A slab copies its box block, plus the
    neighbouring box plane on each side in p, into a contiguous buffer in
    one pass, sums the right-hand side into a second buffer, and ends with
    one add of the block into the box of the output. One difference along
    z per slab yields the central V_z behind the control, both upwind
    differences and the second difference V_zz.

    The slabs are cut by count into one contiguous group per worker,
    min(usable CPUs, number of slabs) groups, and each group walks its own
    slabs with its own :class:`_Buffers`. A slab reads only its block of
    the input V and writes only its own planes of the output, so the
    groups run in parallel on a thread pool (numpy releases the GIL) and
    every cell gets the same arithmetic on any number of threads: the
    result is bit-identical. The calling thread walks group 0, so one
    group, as in every 2-D solve, starts no thread.

    The z-direction work runs on the block flattened to one contiguous
    vector, which numpy streams far faster than a strided last-axis slice;
    the entries that straddle two z rows are then overwritten by the
    boundary rules. Those are: V_z and the upwind differences are one-sided
    at the edges of their axis, and every second difference is zero on the
    boundary slices of its axis.
    """

    def __init__(self, params: ModelParams, dt, w_nodes, z_nodes, p_nodes):
        n_p = 1 if p_nodes is None else len(p_nodes)
        n_w, n_z = len(w_nodes), len(z_nodes)
        dw = w_nodes[1] - w_nodes[0]
        dz = z_nodes[1] - z_nodes[0]
        phi_a = params.phi_a
        self.bounds = (params.rate_lower, params.rate_upper)
        # pi = clamp(V_z / (2 phi_a)): central V_z inside, one-sided at edges
        self.k_centre = 1.0 / (4.0 * phi_a * dz)
        self.k_edge = 1.0 / (2.0 * phi_a * dz)
        self.phi_dz = phi_a * dz
        self.dt_dz = dt / dz
        self.c_zz = dt * 0.5 * params.epsilon**2 / dz**2
        self.c_ww = dt * 0.5 / dw**2
        self.dt_zw = dt * w_nodes[:, None] * z_nodes[None, :]

        # a slab's capacity is the whole grid planes that fit in
        # _SLAB_CELLS, at least one; cut() fills it with planes of the box
        plane = n_w * n_z
        self.slab_cells = min(n_p, max(1, _SLAB_CELLS // plane)) * plane
        self.cpus = usable_cpus()
        self.cut(((0, n_p), (0, n_w), (0, n_z)))
        self.buffers = [_Buffers(self.slab_cells, plane, n_p)
                        for _ in self.groups]
        self.price = n_p > 1
        if self.price:
            dp = p_nodes[1] - p_nodes[0]
            c_pp = dt * 0.5 * params.sigma**2 / dp**2
            # w V_p joins (1/2) sigma^2 V_pp in one coefficient per w row
            # for each of the differences above and below a plane: central
            # where the cell Peclet number |w| dp / sigma^2 is at most 1,
            # so both stay non-negative, upwinded by the sign of w elsewhere;
            # on either rule c_above - c_below is (dt / dp) w
            w = (dt / dp) * w_nodes[:, None]
            central = np.abs(w_nodes[:, None]) * dp <= params.sigma**2
            self.c_above = c_pp + np.where(central, 0.5 * w,
                                           np.maximum(w, 0.0))
            self.c_below = self.c_above - w

    def cut(self, box):
        """Update only the cells of ``box``, one (start, stop) per axis
        (p, w, z), from now on, in slab groups cut over its p range; no
        more groups than at construction."""
        (lo, hi), (wl, wh), (zl, zh) = box
        h = self.slab_cells // ((wh - wl) * (zh - zl))
        n_groups = min(self.cpus, -(-(hi - lo) // h))
        cuts = [lo + k * (hi - lo) // n_groups for k in range(n_groups + 1)]
        self.box = box
        self.groups = [[(a, min(a + h, b)) for a in range(c, b, h)]
                       for c, b in zip(cuts[:-1], cuts[1:])]

    def _control(self, v, n_z, dz_diff, pi):
        """z differences of the flat block ``v`` of rows of ``n_z`` into
        ``dz_diff`` (the last entry of each row straddles two rows), the
        rate into ``pi``."""
        np.subtract(v[1:], v[:-1], out=dz_diff[:-1])
        np.add(dz_diff[1:-1], dz_diff[:-2], out=pi[1:-1])
        pi[1:-1] *= self.k_centre
        rows, pi_rows = dz_diff.reshape(-1, n_z), pi.reshape(-1, n_z)
        np.multiply(rows[:, 0], self.k_edge, out=pi_rows[:, 0])
        np.multiply(rows[:, -2], self.k_edge, out=pi_rows[:, -1])
        np.clip(pi, *self.bounds, out=pi)

    def rates(self, plane, out):
        """Write the clamped closed-form rate on one C-contiguous (n_w, n_z)
        plane of V into the C-contiguous ``out``, in the first worker's
        buffers."""
        self._control(plane.reshape(-1), plane.shape[1],
                      self.buffers[0].dz_diff[:plane.size], out.reshape(-1))

    def __call__(self, v, out, pool):
        """Write V one step earlier in time into the box of ``out``; both
        are C-contiguous. Group 0 runs on the calling thread and the
        others on ``pool``."""
        futures = [pool.submit(self._sweep, v, out, slabs, buf)
                   for slabs, buf in zip(self.groups[1:], self.buffers[1:])]
        self._sweep(v, out, self.groups[0], self.buffers[0])
        for future in futures:
            future.result()

    def _sweep(self, v, out, slabs, buf):
        """Write the box of the planes of ``slabs`` of ``out``, in the
        buffers ``buf``."""
        (first, end), (wl, wh), (zl, zh) = self.box
        n_w, n_z = wh - wl, zh - zl
        for a, b in slabs:
            # the block holds planes ca..cb-1: a..b-1 and their neighbours
            ca, cb = max(a - 1, first), min(b + 1, end)
            block = buf.block[:(cb - ca) * n_w * n_z].reshape(cb - ca, n_w,
                                                              n_z)
            np.copyto(block, v[ca:cb, wl:wh, zl:zh])
            vs = block[a - ca:b - ca]
            size = vs.size
            acc = buf.acc[:size]
            o = acc.reshape(vs.shape)
            dz_diff, pi = buf.dz_diff[:size], buf.pi[:size]
            upwind, scratch = buf.upwind[:size], buf.scratch[:size]
            self._control(vs.reshape(-1), n_z, dz_diff, pi)
            rows = dz_diff.reshape(-1, n_z)
            # V_z upwinded by the sign of pi: forward where pi > 0, backward
            # where pi < 0; both are the same one-sided difference at an edge
            upwind[:-1] = dz_diff[:-1]
            negative = buf.negative[:size]
            np.less(pi[1:], 0.0, out=negative[1:])
            np.copyto(upwind[1:], dz_diff[:-1], where=negative[1:])
            up_rows = upwind.reshape(-1, n_z)
            up_rows[:, 0] = rows[:, 0]
            up_rows[:, -1] = rows[:, -2]
            # Hamiltonian at the optimal rate: pi V_z - phi_a pi^2
            np.multiply(pi, self.phi_dz, out=scratch)
            np.subtract(upwind, scratch, out=upwind)
            np.multiply(upwind, pi, out=upwind)
            np.multiply(upwind, self.dt_dz, out=acc)
            o += self.dt_zw[wl:wh, zl:zh]
            # (1/2) eps^2 V_zz, zero on the z edges
            np.subtract(dz_diff[1:-1], dz_diff[:-2], out=scratch[1:-1])
            scratch[1:-1] *= self.c_zz
            sc_rows = scratch.reshape(-1, n_z)
            sc_rows[:, 0] = 0.0
            sc_rows[:, -1] = 0.0
            acc += scratch
            # (1/2) V_ww, zero on the w edges
            scratch = scratch.reshape(vs.shape)
            dw_diff = upwind[:(b - a) * (n_w - 1) * n_z].reshape(
                b - a, n_w - 1, n_z)
            np.subtract(vs[:, 1:], vs[:, :-1], out=dw_diff)
            d2 = scratch[:, 1:-1]
            np.subtract(dw_diff[:, 1:], dw_diff[:, :-1], out=d2)
            d2 *= self.c_ww
            o[:, 1:-1] += d2
            if self.price:
                self._price_terms(block, a - ca, b - ca, o, scratch,
                                  buf.dp_diff)
            np.add(o, vs, out=out[a:b, wl:wh, zl:zh])

    def _price_terms(self, block, a, b, o, scratch, dp_diff):
        """Add dt (w V_p + (1/2) sigma^2 V_pp) for the planes a..b-1 of
        ``block`` to ``o``, central or upwind in p by the w row's
        coefficients ``c_above`` and ``c_below``."""
        m = b - a
        wl, wh = self.box[1]
        # diff[i] lies below plane a + i and diff[i + 1] above it; a box edge
        # plane takes the difference to its only neighbour in the box on
        # both sides, which makes its V_pp exactly zero and its w V_p the
        # one-sided difference on either rule
        diff = dp_diff[:(m + 1) * o[0].size].reshape((m + 1,) + o.shape[1:])
        lo, hi = max(a - 1, 0), min(b - 1, len(block) - 2)
        np.subtract(block[lo + 1], block[lo], out=diff[0])
        np.subtract(block[a + 1:b], block[a:b - 1], out=diff[1:m])
        np.subtract(block[hi + 1], block[hi], out=diff[m])
        np.multiply(diff[1:], self.c_above[wl:wh], out=scratch)
        o += scratch
        np.multiply(diff[:-1], self.c_below[wl:wh], out=scratch)
        o -= scratch


def _half_widths(params: ModelParams, t):
    """Half-widths (p, w, z) of the states reached from the origin by
    time t: six standard deviations of P_t, 6 sqrt(sigma^2 t + t^3 / 3)
    (its drift is the integral of W), of W_t, 6 sqrt(t), and of Z_t plus
    its largest drift, 6 eps sqrt(t) + max(|L|,|U|) t. At t = T they
    truncate the grid; in between, they bound the box of
    :func:`solve_hjb`."""
    rate_bound = max(abs(params.rate_lower), abs(params.rate_upper))
    return (6.0 * np.sqrt(params.sigma**2 * t + t**3 / 3.0),
            6.0 * np.sqrt(t),
            6.0 * params.epsilon * np.sqrt(t) + rate_bound * t)


def _extend_linearly(v, lo, hi, axis):
    """Fill the entries of ``v`` outside lo..hi-1 along ``axis`` by
    extending the two edge entries on each side linearly along it.
    Entries that are all equal along the axis stay so, bit for bit."""
    u = np.moveaxis(v, axis, 0)
    shape = (-1,) + (1,) * (u.ndim - 1)
    if lo > 0:
        np.multiply(np.arange(-lo, 0.0).reshape(shape), u[lo + 1] - u[lo],
                    out=u[:lo])
        u[:lo] += u[lo]
    if hi < len(u):
        np.multiply(np.arange(1.0, len(u) - hi + 1).reshape(shape),
                    u[hi - 1] - u[hi - 2], out=u[hi:])
        u[hi:] += u[hi - 1]


# SSP coefficient of SSP(10,4): each of its stages is an Euler step of
# dt / _SSP_RATIO, so the step may be this many times the Euler bound
_SSP_RATIO = 6


def solve_hjb(contract, params: ModelParams):
    """Backward SSP(10,4) sweep; returns (FeedbackPolicy, ValueGrid).

    The grid follows the family and the marched planes follow the payoff
    (:func:`_terminal_payoff`). A polynomial, or any fee that varies in p,
    gets :data:`_GRID_3D`, its dp and its CFL dt; any other fee gets
    :data:`_GRID_2D`. The value is held on (p, w, z) with a
    single p plane on the 2-D grid, and on the 3-D grid when the payoff is
    exactly equal on every p plane, as the zero polynomial's is; the
    values are then broadcast over the 3-D grid's p nodes. Identical
    planes have p differences of exactly zero, so the full march would
    give every plane the same bits. All solves share one step kernel
    (:class:`_ExplicitStep`), which walks the marched p planes in slabs.
    Its first worker group runs on the calling thread and the others on
    one thread pool, opened and closed by this call, so no thread
    outlives the solve; a march of one plane has one group and starts no
    thread. The values do not depend on the thread count.
    Each axis is cut at its half-width of :func:`_half_widths` at T, and
    the step from t_k back to t_{k-1} updates only the box of cells with
    |x| <= (that half-width at t_k) + margin on every axis, one plane on
    p and three cells on w and z. The box is never wider than the last
    step's, and its edge slices take the boundary rule of their axis.
    On either grid dt = T / n_t for the fewest steps n_t that keep every
    stage within the Euler CFL bound.
    Rates are saved at step boundaries only, at most 81 slices in 2-D
    and 17 in 3-D. At a saved step V's box edge pairs are extended
    linearly along z, then w, then p to the cells outside the box, in V
    itself, and the rates are taken from the result, straight into their
    slice of one rate table allocated before the sweep; no later step
    reads those cells, as its box is no wider. The solve holds three
    full-size buffers, V (which keeps a step's start) and two stage
    targets, and V ends as the value at t = 0 (:class:`ValueGrid`), whose
    value at the origin is the client's. The policy keeps the rate table
    itself, without a copy.
    """
    T = params.horizon
    sigma, eps = params.sigma, params.epsilon
    lo, up = params.rate_lower, params.rate_upper
    rate_bound = max(abs(lo), abs(up))

    p_max, w_max, z_max = _half_widths(params, T)

    # the fee is read on the 3-D grid to decide, and only a 2-D fee is
    # read again on its own z axis
    n_p, n_w, n_z = _GRID_3D
    p_nodes = np.linspace(-p_max, p_max, n_p)
    dp = p_nodes[1] - p_nodes[0]
    z_nodes = np.linspace(-z_max, z_max, n_z)
    payoff, on_3d_grid = _terminal_payoff(contract, p_nodes, z_nodes)
    n_save = 17
    if not on_3d_grid:
        (n_w, n_z), n_save = _GRID_2D, 81
        z_nodes = np.linspace(-z_max, z_max, n_z)
        payoff, _ = _terminal_payoff(contract, p_nodes[:1], z_nodes)
        p_nodes = None
    w_nodes = np.linspace(-w_max, w_max, n_w)
    dw = w_nodes[1] - w_nodes[0]
    dz = z_nodes[1] - z_nodes[0]
    # the planes marched: one stands for all when the payoff rows are equal
    marched_p = p_nodes if len(payoff) > 1 else None

    cfl_denom = eps**2 / dz**2 + 1.0 / dw**2 + rate_bound / dz
    if on_3d_grid:
        cfl_denom += 0.5 * sigma**2 * 2 / dp**2 + w_max / dp
    # every stage is an Euler step of dt / _SSP_RATIO within the Euler
    # monotonicity bound 1 / cfl_denom
    n_t = int(np.ceil(T / (_SSP_RATIO / cfl_denom)))
    dt = T / n_t

    save_idx = np.unique(np.linspace(0, n_t, min(n_save, n_t + 1))
                         .round().astype(int))
    saved = set(save_idx.tolist())

    # the central price plane alone gives the policy: ROADMAP item 1
    policy_plane = len(payoff) // 2
    # the rates at the saved times, filled from t = T down; the table
    # outlives the solve, so it is allocated before the sweep's buffers,
    # which leaves the memory they free in one piece
    rates = np.empty((len(save_idx), n_w, n_z))
    slot = len(save_idx)
    step = _ExplicitStep(params, dt / _SSP_RATIO, w_nodes, z_nodes,
                         marched_p)
    v = np.repeat(-payoff[:, None, :].astype(float), n_w, axis=1)
    a, b = np.empty_like(v), np.empty_like(v)

    axes = (np.zeros(1) if marched_p is None else marched_p, w_nodes,
            z_nodes)
    # one plane of margin on p, three cells on w and z
    margins = (dp, 3.0 * dw, 3.0 * dz)

    def box(k):
        """The (start, stop) per axis of the cells the step from t_k
        updates: |x| <= (half-width at t_k) + margin on each axis."""
        ranges = []
        for nodes, reach, margin in zip(axes, _half_widths(params, k * dt),
                                        margins):
            inside = np.flatnonzero(np.abs(nodes) <= reach + margin)
            ranges.append((int(inside[0]), int(inside[-1]) + 1))
        return tuple(ranges)

    # the pool lives for this solve only; with one group it starts no thread
    with ThreadPoolExecutor(len(step.buffers)) as pool:
        euler = partial(step, pool=pool)
        cells = tuple(slice(*r) for r in step.box)
        for k in range(n_t, -1, -1):
            if k < n_t:
                # the step from t_(k+1) back to t_k, in SSP(10,4)'s
                # two-register form (Ketcheson): q2 keeps V (in v) while q1
                # takes stages 1-5 (alternating between a and b), then
                # q2 <- (q2 + 9 q1) / 25 and q1 <- 15 q2 - 5 q1 (in a, with
                # b as scratch), q1 takes stages 6-9, and V <- q2 + (3/5)
                # of stage 10 on q1
                step.cut(box(k + 1))
                cells = tuple(slice(*r) for r in step.box)
                q1, q2, tmp = a[cells], v[cells], b[cells]
                euler(v, a)
                euler(a, b)
                euler(b, a)
                euler(a, b)
                euler(b, a)
                np.multiply(q1, 9.0, out=tmp)
                q2 += tmp
                q2 /= 25.0
                q1 *= -5.0
                np.multiply(q2, 15.0, out=tmp)
                q1 += tmp
                euler(a, b)
                euler(b, a)
                euler(a, b)
                euler(b, a)
                euler(a, b)
                tmp *= 0.6
                q2 += tmp
            if k in saved:
                # extend along z, then w, then p, in place: the later
                # steps' boxes are no wider, so none reads these cells
                for axis in (2, 1, 0):
                    _extend_linearly(v[cells[:axis]], *step.box[axis], axis)
                slot -= 1
                step.rates(v[policy_plane], rates[slot])

    values = (v[0] if p_nodes is None
              else np.broadcast_to(v, (n_p,) + v.shape[1:]))
    grid = ValueGrid(w_nodes, z_nodes, values, p_nodes)
    policy = FeedbackPolicy(save_idx * dt, w_nodes, z_nodes, rates, (lo, up))
    return policy, grid


def estimate_agent_value(contract, policy: FeedbackPolicy,
                         params: ModelParams, seed: int):
    """Monte Carlo value of following ``policy`` against ``contract``.

    Averages the client's per-path objective
    -xi(P_T, Z_T) + int Z W dt - phi_a int pi^2 dt over a controlled
    simulation of ``params.n_paths`` paths; the stochastic-integral part
    of the trading profit has zero mean and is omitted. Returns (value,
    standard error).
    """
    sample = simulate.simulate_controlled(params, policy, seed)
    xi = contract.terminal_payoff(sample.p_T, sample.z_T)
    return simulate.mean_se(-xi + sample.int_zw
                            - params.phi_a * sample.int_pi_sq)
