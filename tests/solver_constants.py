"""The solvers' fixed settings, patched for tests that need smaller grids or
other tolerances. Each helper is a context manager that restores the
library's constants on exit, so it also serves module-scoped fixtures."""

from contextlib import contextmanager

import pytest

from brokerfee import agent, oracle


@contextmanager
def hjb_grid(n_w=None, n_z=None, n_p=None):
    """Solve on n_w x n_z nodes a fee that does not read the price, and on
    n_p x n_w x n_z nodes, with n_w and n_z capped at the library's 3-D
    axes, one that does. An axis not given keeps the library's grid, read
    when the helper is called."""
    (w_2d, z_2d), (p_3d, w_3d, z_3d) = agent._GRID_2D, agent._GRID_3D
    n_w = w_2d if n_w is None else n_w
    n_z = z_2d if n_z is None else n_z
    n_p = p_3d if n_p is None else n_p
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent, "_GRID_2D", (n_w, n_z))
        patch.setattr(agent, "_GRID_3D", (n_p, min(n_w, w_3d), min(n_z, z_3d)))
        yield


@contextmanager
def strong_tol(tol):
    """Stop the strong oracle's dual solve at KKT residual ``tol``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_TOL", tol)
        yield
