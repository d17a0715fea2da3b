"""Alternating optimization shared by the two robust best-response back-ends.

A back-end certifies "utility >= u_min with probability >= 1 - epsilon" its
own way (``bti``: Gaussian Bernstein bound, ``cvar``: worst-case CVaR) and
hands the steps here ``margin(u_min)``, a float that is >= 0 exactly when
u_min is certifiable at fixed alpha (NaN certifies nothing), and
``slack(alpha)``, >= 0 exactly when alpha keeps the fixed u_min
certifiable, with optional hints for the scan: a rounding bound ``error``
within which it is concave (``bti``), or cheap bounds ``bounds(alpha) =
(floor, ceiling)`` around it together with an ``error`` within which the
ceilings are concave (``cvar``); ``_search`` states both.
The alternation (``alternate``) sees only the float thresholds and
strategies the steps return; a back-end with a separate witness builds it
on request (``cvar.certify``).

The threshold step (``bisect_threshold``) returns the threshold a plain
bisection on the sign of ``margin`` returns, float for float, but evaluates
the margin 5.3-7.2 times per step on ``configs/*.json``, in either back-end,
instead of about 35: Illinois false position (Dowell & Jarratt, BIT 1971)
brackets the sign change from the margin's values, and the bisection is then
replayed with every probe outside that bracket decided without an
evaluation.

Constants:

- ``U_FLOOR``: a threshold this low that is still not certifiable means the
  inputs are malformed.
- ``BISECT_TOL``: width at which the threshold bisection stops, or at float
  resolution where that is coarser (beyond 2**33).
- ``PAD``: relative width at which the bracket around the threshold stops;
  the replayed bisection evaluates every probe that close to the bracket.
- ``BRACKET_CAP``: evaluation cap of the false-position bracketing.
  ``PAD`` and ``BRACKET_CAP`` change only how many margins are evaluated,
  never the threshold returned.
- ``ALPHA_TOL``: tolerance of the golden-section refinement over alpha.
- ``AO_TOL``, ``AO_CAP``: the alternation's stopping tolerance and
  iteration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import deterministic
from ._search import scan_golden_max
from .model import ConvergenceError, GameConfig, MinerParams, RewardModel, SolverError, _check_tau0, others_load

__all__ = ["BestResponse"]

U_FLOOR = -1e9
BISECT_TOL = 1e-6
PAD = 1e-10
BRACKET_CAP = 60
ALPHA_TOL = 1e-6
AO_TOL = 1e-6
AO_CAP = 200


@dataclass(frozen=True)
class BestResponse:
    """One miner's robust best response."""

    alpha: float
    u_min: float
    iterations: int


def threshold_floor(params: MinerParams, reward: RewardModel, u_lo) -> float:
    """The threshold step's starting floor: the warm floor ``u_lo`` if given,
    which must be finite, else -R - cost * x_max."""
    if u_lo is None:
        return -reward.total - params.cost * params.x_max
    if not math.isfinite(u_lo):
        raise ValueError(f"u_lo must be a finite number, got {u_lo}")
    return u_lo


def bisect_threshold(margin, params: MinerParams, reward: RewardModel, u_lo=None) -> float:
    """The largest u_min with ``margin(u_min) >= 0``, to ``BISECT_TOL`` or
    to float resolution, whichever is coarser.

    The certifiable thresholds form an interval, so bisection between a
    certified floor and the total reward finds its upper endpoint.  ``u_lo``
    may warm-start the floor with any value known to be certifiable.  The
    search returns that bisection's threshold bit for bit, in three phases:

    1. Endpoints: the guard at ``u_hi = R``, then the floor ``u_lo``, pushed
       down until it certifies, exactly as the plain bisection evaluates
       them.
    2. Bracket: Illinois false position on the two margins narrows [a, b],
       with ``margin(a) >= 0 > margin(b)``, both evaluated, to
       ``PAD * (1 + |a| + |b|)``, in at most ``BRACKET_CAP`` evaluations.  A
       NaN margin ends this phase with [a, b] = [u_lo, u_hi].
    3. Replay: the plain bisection from (u_lo, u_hi), where a midpoint below
       ``a - pad`` certifies and one above ``b + pad`` does not, with
       pad = ``PAD * (1 + |a| + |b|)``; only the midpoints in between are
       evaluated.

    Why the threshold is the same float: the evaluated margin can disagree
    in sign with the exact one only where it is within its rounding error of
    0, i.e. within that error over the slope of the root (for ``bti`` about
    1e-9 over the rivals' load), which the pad exceeds by orders of
    magnitude.  Outside the pad the certifiable set is an interval, so every
    skipped decision is the one an evaluation would have made, and with a
    NaN anywhere in phase 2 every probe is evaluated.
    """
    if params.sigma2 <= 0:
        raise ValueError("robust threshold needs positive variance")
    u_lo = threshold_floor(params, reward, u_lo)
    u_hi = reward.total
    m_hi = margin(u_hi)
    if m_hi >= 0.0:
        raise SolverError("threshold at the full reward certifies; inputs are malformed")
    m_lo = margin(u_lo)
    while not m_lo >= 0.0:
        if not u_lo > U_FLOOR:  # NaN-safe: a NaN threshold must stop, not loop
            raise SolverError(f"no feasible threshold above {U_FLOOR}")
        u_lo = u_lo - 3.0 * abs(u_lo) - 1.0  # quadruple the reach downward
        m_lo = margin(u_lo)
    a, b = _bracket(margin, u_lo, m_lo, u_hi, m_hi)
    pad = PAD * (1.0 + abs(a) + abs(b))
    below, above = a - pad, b + pad
    lo, hi = u_lo, u_hi
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: nothing left to halve
            break
        if mid < below or (mid <= above and margin(mid) >= 0.0):
            lo = mid
        else:
            hi = mid
    return lo


def _bracket(margin, lo, m_lo, hi, m_hi):
    """[a, b] within [lo, hi] with ``margin(a) >= 0 > margin(b)``, both
    evaluated, by Illinois false position from ``m_lo >= 0`` and ``m_hi``.

    It stops at width ``PAD * (1 + |a| + |b|)`` or after ``BRACKET_CAP``
    evaluations, whichever comes first; a NaN margin returns [lo, hi].
    """
    if not m_hi < 0.0:
        return lo, hi
    a, fa, b, fb = lo, m_lo, hi, m_hi
    kept = 0  # +1 when a moved last, -1 when b did
    for _ in range(BRACKET_CAP):
        width = PAD * (1.0 + abs(a) + abs(b))
        if b - a <= width:
            break
        c = b - fb * (b - a) / (fb - fa)
        if c != c:  # overflowing margins leave no position
            c = 0.5 * (a + b)
        # at least half a width inside, so a root at either end closes the bracket
        c = min(max(c, a + 0.5 * width), b - 0.5 * width)
        fc = margin(c)
        if fc >= 0.0:
            a, fa = c, fc
            if kept == 1:  # b held twice: halve its weight (Illinois)
                fb *= 0.5
            kept = 1
        elif fc < 0.0:
            b, fb = c, fc
            if kept == -1:
                fa *= 0.5
            kept = -1
        else:
            return lo, hi
    return a, b


def scan_strategy(slack, alpha_in, tau0, bounds=None, error=None):
    """(alpha, slack, feasible) maximizing ``slack`` over [tau0, 1]; when no
    alpha certifies, or the scan meets a NaN on its grid and returns (tau0,
    nan), the incoming alpha with ``feasible=False``.

    ``bounds`` and ``error``, the scan's hints (see ``_search``), spare
    evaluations without changing the result.  The scan climbs its grid from
    ``alpha_in``, over the slack or, with bounds, over the ceilings.  The
    incoming alpha is scored once, outside the scan: the margin test below
    keeps it whenever it beats the scan's best.  tau0 must be in (0, 1),
    ``GameConfig``'s rule.
    """
    _check_tau0(tau0)
    scan_step = max((1.0 - tau0) / 40.0, 1e-4)
    alpha, best = scan_golden_max(
        slack, tau0, 1.0, scan_step, tol=ALPHA_TOL, bounds=bounds, error=error, start=alpha_in
    )
    incoming = slack(alpha_in)
    # move only on improvements that dominate the inner solver noise; without
    # this margin the argmax wobbles at float scale and the best-response
    # iteration around it never settles bit-exactly
    if best < incoming + 1e-6 * (1.0 + abs(incoming)):
        alpha, best = alpha_in, incoming
    if not best >= 0.0:  # NaN-safe: a NaN slack certifies nothing
        return float(alpha_in), incoming, False
    return float(alpha), float(best), True


def alternate(j, profile, config: GameConfig, threshold, strategy, warm_start) -> BestResponse:
    """Alternating optimization for miner j's robust (alpha, u_min).

    ``threshold`` and ``strategy`` are the back-end's
    ``subproblem_threshold*`` and ``subproblem_strategy*``; the threshold is
    a float.  Starts from the deterministic best response (or from
    ``warm_start``, an (alpha, u_min) pair from a previous solve) and
    alternates the two steps, at most ``AO_CAP`` times, until the joint
    change drops below ``AO_TOL``.  u_min never decreases: every
    strategy update keeps the current threshold feasible.
    """
    params, reward, epsilon = config.miners[j], config.reward, config.epsilon
    load = others_load(j, profile, config.nominal_resources())
    if warm_start is None:
        alpha, u_floor = deterministic.best_response(j, profile, config), None
    else:
        alpha, u_floor = min(1.0, max(config.tau0, warm_start[0])), warm_start[1]
    u_min = threshold(alpha, load, params, reward, epsilon, u_lo=u_floor)
    for iteration in range(1, AO_CAP + 1):
        # alpha_in by keyword: wrappers of the subproblem read it from there
        alpha_new, _, feasible = strategy(
            u_min, alpha_in=alpha, load=load, params=params, reward=reward,
            tau0=config.tau0, epsilon=epsilon,
        )
        u_new = threshold(
            alpha_new, load, params, reward, epsilon, u_lo=u_min if feasible else None
        )
        delta = abs(u_new - u_min) + abs(alpha_new - alpha)
        alpha, u_min = alpha_new, u_new
        if delta <= AO_TOL:
            return BestResponse(float(alpha), float(u_min), iteration)
    raise ConvergenceError(
        f"alternating optimization did not settle in {AO_CAP} iterations",
        last=BestResponse(float(alpha), float(u_min), AO_CAP),
    )
