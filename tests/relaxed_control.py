"""Diagnostics of a discrete relaxed control: its entropy, objective, mean
density and the conditions of the relaxed-control definition, and the
Dirac embedding of a strong control. A test harness for
:class:`brokerfee.oracle.RelaxedControlDiscrete`; ``probs`` is the base
measure of its tree, ``tree.probs``. It also holds the independent
reference for :func:`brokerfee.oracle.solve_relaxed_discrete`: the
relaxed grid LP with per-atom loops and the constraint moments spelled out
on every (atom, grid point) weight on the dense forms, solved by HiGHS.
The dense forms (:func:`dense_forms`) are built atom by atom from the
model's rows, not from the library's per-node arrays, so the references
that read them stay independent of the library's storage."""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from brokerfee.model import constraint_rows
from brokerfee.oracle import RelaxedControlDiscrete


def dirac(m: np.ndarray) -> RelaxedControlDiscrete:
    """The embedding of a strong control (density a function of the
    path) as a relaxed control."""
    atoms = np.asarray(m, dtype=float)[:, None]
    return RelaxedControlDiscrete(atoms, np.ones_like(atoms))


def conditional_mean(control) -> np.ndarray:
    """E[m | path-atom]: sum_j w(x, j) a(x, j) per row."""
    return np.einsum("xk,xk->x", control.weights, control.atoms)


def entropy(probs, control) -> float:
    """sum_x p(x) sum_j w(x, j) a(x, j) log a(x, j)."""
    atoms = control.atoms
    return float(probs
                 @ np.sum(control.weights * atoms * np.log(atoms), axis=1))


def objective(probs, control, u: np.ndarray, lam: float) -> float:
    linear = float(probs @ (u * conditional_mean(control)))
    return linear - lam * entropy(probs, control)


def mean_density(probs, control) -> float:
    return float(probs @ conditional_mean(control))


def check_feasibility(probs, control, constraints=None,
                      tol: float = 1e-9) -> dict:
    """Conditions of the relaxed-control definition, as diagnostics;
    ``constraints`` holds the dense constraint forms, one per row."""
    cond_mean = conditional_mean(control)
    report = {
        "normalization_gap": abs(float(probs @ cond_mean) - 1.0),
        "min_density_atom": float(np.min(control.atoms)),
        "marginal_gap": float(np.max(np.abs(np.sum(control.weights, axis=1)
                                            - 1.0))),
        "entropy": entropy(probs, control),
    }
    if constraints is not None:
        moments = constraints @ (probs * cond_mean)
        report["max_constraint_moment"] = float(np.max(moments, initial=0.0))
    report["feasible"] = (
        report["normalization_gap"] <= tol
        and report["min_density_atom"] > 0
        and report["marginal_gap"] <= tol
        and report.get("max_constraint_moment", 0.0) <= tol)
    return report


def dense_forms(tree, lower, upper) -> np.ndarray:
    """The node constraint forms as one dense (n_rows, n_atoms) array, in
    the library's row order: the depths in order, node-major within a
    depth, six rows to a node. The form of (node, row) at depth d holds,
    at each atom whose combo prefix (``tree.choices``) names the node, the
    row at that atom's step-d increment and the node's W, and 0 at every
    other atom."""
    n_rows = 6 * sum(tree.n_combos**d for d in range(tree.depth))
    forms = np.zeros((n_rows, tree.n_atoms))
    for x in range(tree.n_atoms):
        start = node = 0
        for d in range(tree.depth):
            dp, dz, dw = tree.combos[tree.choices[x, d]]
            row = start + 6 * node
            forms[row:row + 6, x] = constraint_rows(
                dp, dz, dw, tree.paths[x, d, 2] * tree.dt, tree.dt, lower,
                upper)
            start += 6 * tree.n_combos**d
            node = node * tree.n_combos + tree.choices[x, d]
    return forms


def reference_lp(tree, u, lam, grid, constraints):
    """(cost, A_eq, A_ub) of the grid LP over the weights q(x, j) of grid
    value grid[x, j], stored atom-major, as a minimization: the per-atom
    marginals and the normalization are equality rows, b_eq all ones;
    ``constraints`` are dense forms (:func:`dense_forms`) or None."""
    probs = tree.probs
    n_atoms, n_grid = grid.shape
    n_var = n_atoms * n_grid
    cost = np.concatenate([-probs[x] * (grid[x] * u[x] - lam * grid[x]
                                        * np.log(grid[x]))
                           for x in range(n_atoms)])
    rows, cols, vals = [], [], []
    for x in range(n_atoms):
        rows.extend([x] * n_grid)
        cols.extend(range(x * n_grid, (x + 1) * n_grid))
        vals.extend([1.0] * n_grid)
    rows.extend([n_atoms] * n_var)
    cols.extend(range(n_var))
    vals.extend(np.concatenate([probs[x] * grid[x] for x in range(n_atoms)]))
    a_eq = csr_matrix((vals, (rows, cols)), shape=(n_atoms + 1, n_var))
    a_ub = None
    if constraints is not None:
        rows, cols, vals = [], [], []
        for r in range(len(constraints)):
            coeff = constraints[r]
            for x in range(n_atoms):
                if coeff[x] == 0.0:
                    continue
                rows.extend([r] * n_grid)
                cols.extend(range(x * n_grid, (x + 1) * n_grid))
                vals.extend(probs[x] * coeff[x] * grid[x])
        a_ub = csr_matrix((vals, (rows, cols)),
                          shape=(len(constraints), n_var))
    return cost, a_eq, a_ub


def solve_reference_lp(tree, u, lam, grid, constraints):
    """The linprog result of :func:`reference_lp` on ``grid``."""
    cost, a_eq, a_ub = reference_lp(tree, u, lam, grid, constraints)
    return linprog(
        cost, A_ub=a_ub,
        b_ub=None if a_ub is None else np.zeros(constraints.shape[0]),
        A_eq=a_eq, b_eq=np.ones(tree.n_atoms + 1), bounds=(0, None),
        method="highs")
