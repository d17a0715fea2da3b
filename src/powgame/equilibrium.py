"""Gauss-Seidel best-response iteration to the game equilibrium.

Miners update in ascending index order, each replacing its strategy (and,
in the robust modes, its utility threshold) with the best response to the
latest profile of the others.  The sweep repeats until one full pass changes
the summed strategies and thresholds by at most kappa.

``closed_form_equilibrium`` solves the deterministic game without iterating
when its stationary profile lies in the box, and cross-checks the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bti, cvar, deterministic
from .model import GameConfig, utility

__all__ = ["MODES", "EquilibriumResult", "closed_form_equilibrium", "solve_equilibrium"]

MODES = ("deterministic", "gaussian_bti", "dro_cvar")


@dataclass(frozen=True)
class EquilibriumResult:
    """Converged profile with per-sweep history.

    ``u_values`` holds each miner's certified utility threshold in the robust
    modes and its plain utility in deterministic mode; ``u_mins`` is the
    thresholds alone, None in deterministic mode.  ``trace`` has one
    (alphas, u values) entry per sweep, so ``len(trace) == iterations``.
    """

    alphas: tuple[float, ...]
    u_values: tuple[float, ...]
    iterations: int
    converged: bool
    trace: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    mode: str

    @property
    def u_mins(self) -> tuple[float, ...] | None:
        return None if self.mode == "deterministic" else self.u_values

    def total_u_min(self) -> float:
        return float(sum(self.u_values))


def _deterministic_utilities(alphas, config):
    x = config.nominal_resources()
    return np.array(
        [
            utility(j, alphas, x, config.reward, config.miners[j].cost)
            for j in range(config.n_miners)
        ]
    )


def solve_equilibrium(config: GameConfig, mode: str, initial_alpha=0.35) -> EquilibriumResult:
    """Iterate best responses until the summed per-sweep change is <= kappa.

    The initial profile is ``max(tau0, initial_alpha)`` for every miner (an
    initial value below the participation floor is projected onto it) and
    the initial thresholds are the deterministic utilities at that profile.
    Non-convergence within ``config.max_iterations`` sweeps is reported via
    ``converged=False``.  A robust best response can still raise: the AO's
    ``ConvergenceError`` when one miner's alternation hits its cap, and
    ``SolverError`` when no threshold can be certified.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    n = config.n_miners
    # looked up per solve, so a wrapper installed on the back-end module is seen
    robust = {
        "gaussian_bti": bti.robust_best_response_gaussian,
        "dro_cvar": cvar.robust_best_response,
    }.get(mode)
    alphas = np.full(n, min(1.0, max(config.tau0, initial_alpha)))
    u_values = _deterministic_utilities(alphas, config)
    trace = []
    converged = False
    sweeps = 0
    warm = [None] * n  # later sweeps resume each miner's AO from its own state
    for sweeps in range(1, config.max_iterations + 1):
        prev_alphas = alphas.copy()
        prev_u = u_values.copy()
        for j in range(n):
            if robust is None:
                alphas[j] = deterministic.best_response(j, alphas, config)
            else:
                response = robust(j, alphas, config, warm_start=warm[j])
                alphas[j] = response.alpha
                u_values[j] = response.u_min
                warm[j] = (response.alpha, response.u_min)
        if mode == "deterministic":
            u_values = _deterministic_utilities(alphas, config)
        trace.append((tuple(float(a) for a in alphas), tuple(float(u) for u in u_values)))
        change = float(
            np.abs(alphas - prev_alphas).sum() + np.abs(u_values - prev_u).sum()
        )
        if change <= config.kappa:
            converged = True
            break
    return EquilibriumResult(
        alphas=tuple(float(a) for a in alphas),
        u_values=tuple(float(u) for u in u_values),
        iterations=sweeps,
        converged=converged,
        trace=tuple(trace),
        mode=mode,
    )


def closed_form_equilibrium(config: GameConfig) -> EquilibriumResult:
    """Nash equilibrium of the deterministic game.

    The interior stationary profile follows from summing the first-order
    conditions: with S = (J-1) R / sum_j c_j the total committed power,
    alpha_j = (S / x_j) (1 - c_j S / R).  When every coordinate lands in
    [tau0, 1] that profile is returned with its utilities, 0 iterations and
    an empty trace; otherwise the box binds somewhere, the closed form is
    invalid, and the result is ``solve_equilibrium(config, "deterministic")``,
    converged only as far as ``config.kappa`` and ``config.max_iterations``
    allow (read ``converged``).
    """
    x = config.nominal_resources()
    c = config.costs()
    total_reward = config.reward.total
    s = (config.n_miners - 1) * total_reward / c.sum()
    interior = (s / x) * (1.0 - c * s / total_reward)
    if not (np.all(interior >= config.tau0) and np.all(interior <= 1.0)):
        return solve_equilibrium(config, "deterministic")
    return EquilibriumResult(
        alphas=tuple(float(a) for a in interior),
        u_values=tuple(float(u) for u in _deterministic_utilities(interior, config)),
        iterations=0,
        converged=True,
        trace=(),
        mode="deterministic",
    )
