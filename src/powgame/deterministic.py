"""Best response of the mining game without uncertainty, in closed form.

The robust back-ends reduce to this map as the uncertainty vanishes.  It is a
standard function (positive, monotone, scalable), so the Gauss-Seidel
iteration in ``equilibrium.solve_equilibrium`` reaches its unique fixed
point, the Nash equilibrium, from any start.  The test suite cross-checks
that point against the closed-form equilibrium of the stationary profile.
"""

from __future__ import annotations

import math

from .model import GameConfig, SolverError, others_load

__all__ = ["best_response"]


def best_response_interior(load: float, x_j: float, cost_j: float, reward_total: float) -> float:
    """Unconstrained stationary point of miner j's utility given rivals' load.

    With zeta = sqrt(R * load / cost), the stationary alpha is
    (zeta - load) / x_j.  Requires load > 0 (guaranteed when tau0 > 0).
    """
    if load <= 0:
        raise SolverError("rivals commit no power; best response is undefined")
    zeta = math.sqrt(reward_total * load / cost_j)
    return (zeta - load) / x_j


def best_response(j: int, profile, config: GameConfig) -> float:
    """Miner j's utility-maximizing alpha in [tau0, 1] against the given profile.

    ``profile`` is the full strategy vector, validated as ``others_load``
    validates it: every entry, j's included, must lie in (0, 1], though
    entry j does not enter the rivals' load.
    """
    x = config.nominal
    load = others_load(j, profile, x)
    raw = best_response_interior(load, x[j], config.miners[j].cost, config.reward.total)
    # float(): a config's tau0 may be a numpy scalar, which would carry into the trace
    return float(min(1.0, max(config.tau0, raw)))
