"""Numerical solver and verification suite for brokerage-fee contracts.

A broker (principal) designs a fee contract over the observable price and
inventory paths; a trading client (agent) best-responds with a bounded
trading rate, modeled as an entropy-penalized change of measure. The
package simulates the controlled dynamics, solves the client's control
problem on a grid, searches compact contract families for the broker,
and cross-checks the underlying relaxation theory on finite scenario
trees with brute-force convex oracles.
"""

from .model import ModelParams, FeedbackPolicy, constraint_rows
from .contracts import Constant, LinearPolynomial, LipschitzTable
from .agent import solve_hjb, estimate_agent_value
from .principal import (ContractFamily, optimize, principal_objective,
                        convergence_report)
from .oracle import (build_tree, solve_strong_discrete,
                     solve_relaxed_discrete, verify_collapse,
                     extract_strong_control)

__version__ = "0.1.0"
