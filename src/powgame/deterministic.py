"""Closed-form and iterative solutions of the mining game without uncertainty.

These solvers anchor everything else: the robust back-ends reduce to them as
the uncertainty vanishes, and the best-response map here is a standard
function (positive, monotone, scalable), so its fixed point is the unique
Nash equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GameConfig, SolverError, StrategyProfile, utility

__all__ = [
    "DeterministicEquilibrium",
    "best_response",
    "best_response_interior",
    "closed_form_equilibrium",
    "best_response_fixed_point",
]

MAX_SWEEPS = 10_000  # the map is standard, so the iteration ends long before


@dataclass(frozen=True)
class DeterministicEquilibrium:
    """Equilibrium profile, per-miner utilities, and clipping indicators.

    ``interior_flags[j]`` is False when alpha_j sits on a box bound (at or
    clipped to tau0 or 1); at every interior coordinate the utility gradient
    vanishes.
    """

    alphas: StrategyProfile
    utilities: tuple[float, ...]
    interior_flags: tuple[bool, ...]


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


def best_response_fixed_point(config: GameConfig, initial=None, tol: float = 1e-12) -> np.ndarray:
    """Gauss-Seidel best-response iteration to the unique fixed point.

    Converges for any start because the best-response map is standard.
    """
    x = config.nominal_resources()
    if initial is None:
        a = np.full(config.n_miners, config.tau0)
    else:
        a = np.clip(np.asarray(initial, dtype=float), config.tau0, 1.0)
    for _ in range(MAX_SWEEPS):
        delta = 0.0
        for j in range(config.n_miners):
            new = best_response(j, a, config)
            delta += abs(new - a[j])
            a[j] = new
        if delta <= tol:
            break
    return a


def _equilibrium_from_alphas(config: GameConfig, alphas: np.ndarray, bound_atol=1e-9):
    x = config.nominal_resources()
    utils = tuple(
        utility(j, alphas, x, config.reward, config.miners[j].cost)
        for j in range(config.n_miners)
    )
    flags = tuple(
        bool(config.tau0 + bound_atol < a < 1.0 - bound_atol) for a in alphas
    )
    return DeterministicEquilibrium(StrategyProfile(tuple(alphas)), utils, flags)


def closed_form_equilibrium(config: GameConfig) -> DeterministicEquilibrium:
    """Nash equilibrium of the deterministic game.

    The interior stationary profile follows from summing the first-order
    conditions: with S = (J-1) R / sum_j c_j the total committed power,
    alpha_j = (S / x_j) (1 - c_j S / R).  When every coordinate lands in
    [tau0, 1] that profile is returned directly; otherwise the box binds
    somewhere, the closed form is invalid, and the standard-function
    best-response iteration supplies the equilibrium.
    """
    x = config.nominal_resources()
    c = config.costs()
    total_reward = config.reward.total
    n = config.n_miners
    s = (n - 1) * total_reward / c.sum()
    interior = (s / x) * (1.0 - c * s / total_reward)
    if np.all(interior >= config.tau0) and np.all(interior <= 1.0):
        return _equilibrium_from_alphas(config, interior)
    start = np.clip(interior, config.tau0, 1.0)
    alphas = best_response_fixed_point(config, initial=start)
    return _equilibrium_from_alphas(config, alphas)
