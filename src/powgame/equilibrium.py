"""Gauss-Seidel best-response iteration to the game equilibrium.

Miners update in ascending index order, each replacing its strategy (and,
in the robust modes, its utility threshold) with the best response to the
latest profile of the others.  The sweep repeats until one full pass changes
the summed strategies and thresholds by at most kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bti, cvar, deterministic
from .model import GameConfig, _pairwise_sum, utility

__all__ = ["MODES", "EquilibriumResult", "solve_equilibrium"]

MODES = ("deterministic", "gaussian_bti", "dro_cvar")
INITIAL_ALPHA = 0.35  # the starting strategy of every miner, before the tau0 floor


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
    return [utility(j, alphas, config.nominal, config.reward, config.miners[j].cost) for j in range(config.n_miners)]


def solve_equilibrium(config: GameConfig, mode: str, initial_alpha=INITIAL_ALPHA) -> EquilibriumResult:
    """Iterate best responses until the summed per-sweep change is <= kappa.

    The initial profile is ``min(1, max(tau0, initial_alpha))`` for every
    miner (``initial_alpha`` projected onto [tau0, 1], so +-inf starts at a
    box end, while NaN is refused) and the initial thresholds are the
    deterministic utilities at that profile.
    Non-convergence within ``config.max_iterations`` sweeps is reported via
    ``converged=False``.  A robust best response can still raise: the AO's
    ``ConvergenceError`` when one miner's alternation hits its cap, and
    ``SolverError`` when no threshold can be certified.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if math.isnan(initial_alpha):
        raise ValueError(f"initial_alpha must be a number or +-inf, got {initial_alpha}")
    n = config.n_miners
    # looked up per solve, so a wrapper installed on the back-end module is seen
    robust = {
        "gaussian_bti": bti.robust_best_response_gaussian,
        "dro_cvar": cvar.robust_best_response,
    }.get(mode)
    # lists of built-in floats: every best response, utility and start is one
    alphas = [float(min(1.0, max(config.tau0, initial_alpha)))] * n
    u_values = _deterministic_utilities(alphas, config)
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_iterations + 1):
        prev_alphas = alphas.copy()
        prev_u = u_values.copy()
        for j in range(n):
            if robust is None:
                alphas[j] = deterministic.best_response(j, alphas, config)
            else:
                # from sweep 2 on, the AO resumes from this miner's last response
                warm = None if sweeps == 1 else (alphas[j], u_values[j])
                response = robust(j, alphas, config, warm_start=warm)
                alphas[j] = response.alpha
                u_values[j] = response.u_min
        if mode == "deterministic":
            u_values = _deterministic_utilities(alphas, config)
        trace.append((tuple(alphas), tuple(u_values)))
        # summed as numpy sums a vector, so the stop rule reads the same float
        change = _pairwise_sum([abs(a - p) for a, p in zip(alphas, prev_alphas)]) + _pairwise_sum(
            [abs(u - p) for u, p in zip(u_values, prev_u)]
        )
        if change <= config.kappa:
            converged = True
            break
    return EquilibriumResult(
        alphas=tuple(alphas),
        u_values=tuple(u_values),
        iterations=sweeps,
        converged=converged,
        trace=tuple(trace),
        mode=mode,
    )
