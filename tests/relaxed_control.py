"""Diagnostics of a discrete relaxed control: its entropy, objective, mean
density and the conditions of the relaxed-control definition, and the
Dirac embedding of a strong control. A test harness for
:class:`brokerfee.oracle.RelaxedControlDiscrete`; ``probs`` is the base
measure of its tree, ``tree.probs``."""

import numpy as np

from brokerfee.oracle import RelaxedControlDiscrete


def dirac(m: np.ndarray) -> RelaxedControlDiscrete:
    """The embedding of a strong control (density a function of the
    path) as a relaxed control."""
    atoms = np.asarray(m, dtype=float)[:, None]
    return RelaxedControlDiscrete(atoms, np.ones_like(atoms))


def entropy(probs, control) -> float:
    """sum_x p(x) sum_j w(x, j) a(x, j) log a(x, j)."""
    atoms = control.atoms
    return float(probs
                 @ np.sum(control.weights * atoms * np.log(atoms), axis=1))


def objective(probs, control, u: np.ndarray, lam: float) -> float:
    linear = float(probs @ (u * control.conditional_mean()))
    return linear - lam * entropy(probs, control)


def mean_density(probs, control) -> float:
    return float(probs @ control.conditional_mean())


def check_feasibility(probs, control, constraints=None,
                      tol: float = 1e-9) -> dict:
    """Conditions of the relaxed-control definition, as diagnostics;
    ``constraints`` holds the constraint forms, one per row."""
    cond_mean = control.conditional_mean()
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
