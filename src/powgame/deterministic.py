"""Best response of the mining game without uncertainty, in closed form.

The robust back-ends reduce to this map as the uncertainty vanishes.  It is a
standard function (positive, monotone, scalable), so the Gauss-Seidel
iteration in ``equilibrium.solve_equilibrium`` reaches its unique fixed
point, the Nash equilibrium, from any start; ``equilibrium`` also holds the
closed-form equilibrium that cross-checks it.
"""

from __future__ import annotations

import math

import numpy as np

from .model import GameConfig, SolverError

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

    ``profile`` is the full strategy vector; entry j is ignored.
    """
    x = config.nominal_resources()
    a = np.asarray(profile, dtype=float)
    load = float(np.dot(a, x) - a[j] * x[j])
    raw = best_response_interior(load, x[j], config.miners[j].cost, config.reward.total)
    return min(1.0, max(config.tau0, raw))
