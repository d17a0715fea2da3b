"""Alternating optimization shared by the two robust best-response back-ends.

A back-end certifies "utility >= u_min with probability >= 1 - epsilon" its
own way (``bti``: Gaussian Bernstein bound, ``cvar``: worst-case CVaR) and
hands the steps here ``certify(u_min)``, True when u_min is certifiable at
fixed alpha, and ``slack(alpha)``, >= 0 exactly when alpha keeps the fixed
u_min certifiable, with an optional cheap upper bound ``ceiling(alpha)`` on
it.

Constants:

- ``U_FLOOR``: a threshold this low that is still not certifiable means the
  inputs are malformed.
- ``BISECT_TOL``: width at which the threshold bisection stops.
- ``ALPHA_TOL``: tolerance of the golden-section refinement over alpha.
- ``AO_TOL``, ``AO_CAP``: the alternation's stopping tolerance and
  iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from . import deterministic
from ._search import scan_golden_max
from .model import ConvergenceError, GameConfig, MinerParams, RewardModel, SolverError, others_load

__all__ = ["BestResponse", "bisect_threshold", "scan_strategy", "alternate"]

U_FLOOR = -1e9
BISECT_TOL = 1e-6
ALPHA_TOL = 1e-6
AO_TOL = 1e-6
AO_CAP = 200


@dataclass(frozen=True)
class BestResponse:
    """One miner's robust best response; ``certificate`` witnesses u_min, if any."""

    alpha: float
    u_min: float
    iterations: int
    u_history: tuple[float, ...]
    certificate: Any = None


def bisect_threshold(certify, params: MinerParams, reward: RewardModel, u_lo=None) -> float:
    """The largest u_min with ``certify(u_min)`` True.

    The certifiable thresholds form an interval, so bisection between a
    certified floor and the total reward finds its upper endpoint.  ``u_lo``
    may warm-start the floor with any value known to be certifiable.
    """
    if params.sigma2 <= 0:
        raise ValueError("robust threshold needs positive variance")
    u_hi = reward.total
    if certify(u_hi):
        raise SolverError("threshold at the full reward certifies; inputs are malformed")
    if u_lo is None:
        u_lo = -reward.total - params.cost * params.x_max
    while not certify(u_lo):
        if not u_lo > U_FLOOR:  # NaN-safe: a NaN threshold must stop, not loop
            raise SolverError(f"no feasible threshold above {U_FLOOR}")
        u_lo = u_lo - 3.0 * abs(u_lo) - 1.0  # quadruple the reach downward
    while u_hi - u_lo > BISECT_TOL:
        mid = 0.5 * (u_lo + u_hi)
        if certify(mid):
            u_lo = mid
        else:
            u_hi = mid
    return u_lo


def scan_strategy(slack, alpha_in, tau0, ceiling=None):
    """(alpha, slack, feasible) maximizing ``slack`` over [tau0, 1]; when no
    alpha certifies, the incoming alpha with ``feasible=False``.

    ``ceiling``, an upper bound on ``slack``, lets the scan skip the exact
    evaluations it rules out without changing the result.  The incoming
    alpha is scored once, outside the scan: the margin test below keeps it
    whenever it beats the scan's best.
    """
    scan_step = max((1.0 - tau0) / 40.0, 1e-4)
    alpha, best = scan_golden_max(slack, tau0, 1.0, scan_step, tol=ALPHA_TOL, ceiling=ceiling)
    incoming = slack(alpha_in)
    # move only on improvements that dominate the inner solver noise; without
    # this margin the argmax wobbles at float scale and the best-response
    # iteration around it never settles bit-exactly
    if best < incoming + 1e-6 * (1.0 + abs(incoming)):
        alpha, best = alpha_in, incoming
    if best < 0.0:
        return float(alpha_in), incoming, False
    return float(alpha), float(best), True


def alternate(j, profile, config: GameConfig, threshold, strategy, warm_start) -> BestResponse:
    """Alternating optimization for miner j's robust (alpha, u_min).

    ``threshold`` returns ``(u_min, certificate)``; ``strategy`` is the
    back-end's ``subproblem_strategy*``.  Starts from the deterministic best
    response (or from ``warm_start``, an (alpha, u_min) pair from a previous
    solve) and alternates the two steps, at most ``AO_CAP`` times, until the
    joint change drops below ``AO_TOL``.  u_min never decreases: every
    strategy update keeps the current threshold feasible.
    """
    params, reward, epsilon = config.miners[j], config.reward, config.epsilon
    load = others_load(j, profile, config.nominal_resources())
    if warm_start is None:
        alpha, u_floor = deterministic.best_response(j, profile, config), None
    else:
        alpha, u_floor = min(1.0, max(config.tau0, warm_start[0])), warm_start[1]
    u_min, cert = threshold(alpha, load, params, reward, epsilon, u_lo=u_floor)
    history = [u_min]
    for iteration in range(1, AO_CAP + 1):
        # alpha_in by keyword: wrappers of the subproblem read it from there
        alpha_new, _, feasible = strategy(
            u_min, alpha_in=alpha, load=load, params=params, reward=reward,
            tau0=config.tau0, epsilon=epsilon,
        )
        u_new, cert = threshold(
            alpha_new, load, params, reward, epsilon, u_lo=u_min if feasible else None
        )
        history.append(u_new)
        delta = abs(u_new - u_min) + abs(alpha_new - alpha)
        alpha, u_min = alpha_new, u_new
        if delta <= AO_TOL:
            return BestResponse(float(alpha), float(u_min), iteration, tuple(history), cert)
    raise ConvergenceError(
        f"alternating optimization did not settle in {AO_CAP} iterations",
        last=BestResponse(float(alpha), float(u_min), AO_CAP, tuple(history), cert),
    )
