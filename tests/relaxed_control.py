"""Diagnostics of a discrete relaxed control: its entropy, objective, mean
density and the conditions of the relaxed-control definition, and the
Dirac embedding of a strong control. A test harness for
:class:`brokerfee.oracle.RelaxedControlDiscrete`."""

import numpy as np

from brokerfee.oracle import RelaxedControlDiscrete


def dirac(tree, m: np.ndarray) -> RelaxedControlDiscrete:
    """The embedding of a strong control (density a function of the
    path) as a relaxed control."""
    atoms = np.asarray(m, dtype=float)[:, None]
    return RelaxedControlDiscrete(tree.probs, atoms, np.ones_like(atoms))


def entropy(control) -> float:
    """sum_x p(x) sum_j w(x, j) a(x, j) log a(x, j)."""
    atoms = control.atoms
    return float(control.probs
                 @ np.sum(control.weights * atoms * np.log(atoms), axis=1))


def objective(control, u: np.ndarray, lam: float) -> float:
    linear = float(control.probs @ (u * control.conditional_mean()))
    return linear - lam * entropy(control)


def mean_density(control) -> float:
    return float(control.probs @ control.conditional_mean())


def check_feasibility(control, constraints=None, tol: float = 1e-9) -> dict:
    """Conditions of the relaxed-control definition, as diagnostics;
    ``constraints`` holds the constraint forms, one per row."""
    cond_mean = control.conditional_mean()
    report = {
        "normalization_gap": abs(float(control.probs @ cond_mean) - 1.0),
        "min_density_atom": float(np.min(control.atoms)),
        "marginal_gap": float(np.max(np.abs(np.sum(control.weights, axis=1)
                                            - 1.0))),
        "entropy": entropy(control),
    }
    if constraints is not None:
        moments = constraints @ (control.probs * cond_mean)
        report["max_constraint_moment"] = float(np.max(moments, initial=0.0))
    report["feasible"] = (
        report["normalization_gap"] <= tol
        and report["min_density_atom"] > 0
        and report["marginal_gap"] <= tol
        and report.get("max_constraint_moment", 0.0) <= tol)
    return report
