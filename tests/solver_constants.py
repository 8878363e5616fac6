"""The solvers' fixed settings, patched for tests that need smaller grids or
other tolerances. Each helper is a context manager that restores the
library's constants on exit, so it also serves module-scoped fixtures."""

from contextlib import contextmanager

import pytest

from brokerfee import agent, oracle


@contextmanager
def hjb_grid(n_w=201, n_z=201, n_p=61):
    """Solve on n_w x n_z nodes a fee that does not read the price, and on
    n_p x min(n_w, 101) x min(n_z, 101) nodes one that does; the defaults
    are the library's grids."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent, "_GRID_2D", (n_w, n_z))
        patch.setattr(agent, "_GRID_3D", (n_p, min(n_w, 101), min(n_z, 101)))
        yield


@contextmanager
def strong_tol(tol):
    """Stop the strong oracle's dual solve at KKT residual ``tol``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_TOL", tol)
        yield
