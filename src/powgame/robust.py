"""Alternating optimization shared by the two robust best-response back-ends.

A back-end certifies "utility >= u_min with probability >= 1 - epsilon" its
own way (``bti``: Gaussian Bernstein bound, ``cvar``: worst-case CVaR) and
hands the steps here ``margin(u_min)``, a float that is >= 0 exactly when
u_min is certifiable at fixed alpha (NaN certifies nothing), and
``slack(alpha)``, >= 0 exactly when alpha keeps the fixed u_min
certifiable, with optional hints for the scan: a rounding bound ``error``
within which it is concave (``bti``), or cheap bounds ``bounds(alpha) =
(floor, ceiling)`` around it together with an ``error`` within which the
ceilings are concave (``cvar``); ``_search`` states both.  ``bti`` also
passes ``curvature``, a bound on how strongly concave the slack is, with
which ``scan_strategy`` may keep the incoming alpha without a scan.
The alternation (``alternate``) sees only the float thresholds and
strategies the steps return; a back-end with a separate witness builds it
on request (``cvar.certify``).

The threshold step (``bisect_threshold``) returns the threshold a plain
bisection on the sign of ``margin`` returns, float for float, but evaluates
the margin 3.25-5.85 times per step on ``configs/*.json``, in either
back-end, instead of about 35: Illinois false position (Dowell & Jarratt,
BIT 1971) brackets the sign change from the margin's values, and the
bisection is then replayed with every probe outside that bracket decided
without an evaluation.  A step at the inputs of the alternation's last one,
as in the confirming iteration that ends every best response, resumes from
that step's ``ThresholdRecord``: the same margin closure and bracket, so it
evaluates only its floor and the probes next to the root (1.0-1.14 margins
a step on ``configs/*.json``).

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


class ThresholdRecord:
    """What a threshold step leaves for the next one at the same inputs: the
    key (alpha, load, params, reward, epsilon), its margin closure, and the
    bracket [a, b] that ``bisect_threshold`` closed on that margin (None
    until one has).  ``alternate`` keeps one per best response."""

    __slots__ = ("key", "margin", "bracket")

    def __init__(self):
        self.key = self.margin = self.bracket = None

    def margin_for(self, certifier, key):
        """``certifier(*key)``, built only when ``key`` differs from the last
        step's; a new margin drops the bracket."""
        if key != self.key:
            self.key, self.margin, self.bracket = key, certifier(*key), None
        return self.margin


def bisect_threshold(margin, params: MinerParams, reward: RewardModel, u_lo=None, record=None) -> float:
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
       NaN margin ends this phase with [a, b] = [-inf, inf].
    3. Replay (``_replay``): the plain bisection from (u_lo, u_hi), where a
       midpoint below ``a - pad`` certifies and one above ``b + pad`` does
       not, with pad = ``PAD * (1 + |a| + |b|)``; only the midpoints in
       between are evaluated.

    Why the threshold is the same float: the evaluated margin can disagree
    in sign with the exact one only where it is within its rounding error of
    0, i.e. within that error over the slope of the root (for ``bti`` about
    1e-9 over the rivals' load), which the pad exceeds by orders of
    magnitude.  Outside the pad the certifiable set is an interval, so every
    skipped decision is the one an evaluation would have made, and with a
    NaN anywhere in phase 2 every probe is evaluated.  This needs the margin
    not to be NaN where phase 2 never probes; neither back-end's margin is,
    at any of the points that
    ``tests/test_robust.py::test_no_margin_is_nan_on_the_threshold_range``
    evaluates.

    ``record``, a ``ThresholdRecord``, keeps the bracket for the next step
    on the same margin, which resumes from it: its guard is the float
    already evaluated, so it evaluates only its floor and, if that
    certifies, replays the bisection with the kept [a, b].  The argument
    above holds for any certified floor, since a and b are evaluated points
    of the same margin; a floor that does not certify takes all three
    phases.
    """
    if params.sigma2 <= 0:
        raise ValueError("robust threshold needs positive variance")
    u_lo = threshold_floor(params, reward, u_lo)
    u_hi = reward.total
    if record is not None and record.bracket is not None and margin(u_lo) >= 0.0:
        return _replay(margin, u_lo, u_hi, *record.bracket)
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
    if record is not None:
        record.bracket = a, b
    return _replay(margin, u_lo, u_hi, a, b)


def _replay(margin, lo, hi, a, b):
    """The plain bisection from (lo, hi), evaluating only the midpoints
    within pad = ``PAD * (1 + |a| + |b|)`` of the bracket [a, b]: below
    ``a - pad`` a midpoint certifies, above ``b + pad`` it does not."""
    pad = PAD * (1.0 + abs(a) + abs(b))
    below, above = a - pad, b + pad
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
    evaluations, whichever comes first; a NaN margin returns [-inf, inf],
    which leaves every probe of the replay to an evaluation.
    """
    if not m_hi < 0.0:
        return -math.inf, math.inf
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
            return -math.inf, math.inf
    return a, b


def scan_strategy(slack, alpha_in, tau0, bounds=None, error=None, curvature=None):
    """(alpha, slack, feasible) maximizing ``slack`` over [tau0, 1]; when no
    alpha certifies, or the scan meets a NaN on its grid and returns (tau0,
    nan), the incoming alpha with ``feasible=False``.

    The incoming alpha is scored once: the margin test below keeps it
    whenever it beats the scan's best.  ``bounds`` and ``error``, the scan's
    hints (see ``_search``), spare evaluations without changing the result.
    The scan climbs its grid from ``alpha_in``, over the slack or, with
    bounds, over the ceilings, and takes the test's bar as its ``bar``: a
    scan whose ceilings show its best below the bar returns None, and the
    step keeps ``alpha_in``, as the test would.

    ``curvature`` may spare the whole scan.  It is a float kappa > 0 with
    which the claim of ``error`` (E) extends to (0, 1]: there the slack lies
    within E of a function g with g'' <= -kappa (``bti`` makes the claim).
    Strong concavity then bounds g on both sides of a = ``alpha_in`` by
    g(x) <= g(a) + g'(a) (x - a) - kappa (x - a)^2 / 2 (Nesterov,
    *Introductory Lectures on Convex Optimization*, 2004, Thm 2.1.10).  So
    the slack read t away from a, t about h = 2 sqrt(E / kappa), bounds
    g'(a), the two secants widened by 2 E:

        g'(a) <= (slack(a) - slack(a - t) + 2 E) / t - kappa t / 2,
        -g'(a) <= (slack(a) - slack(a + t) + 2 E) / t - kappa t / 2.

    At t = h the widening and the kappa term cancel.  A bound D > 0 on the
    slope toward one side of a caps the gain of g on that side at
    D^2 / (2 kappa), and a bound D <= 0 at 0; so the gain max g - g(a) over
    [tau0, 1] is at most Delta, the larger of the two sides' caps.  Only the
    sides of a that [tau0, 1] has need a bound, and each read must lie in
    (0, 1]; a side without one certifies nothing.  Every value the scan can
    return is a slack on [tau0, 1], at most max g + E <= slack(a) + 2 E +
    Delta.  When that lies below the margin test's bar, the scan's best
    cannot pass the test, and the step keeps ``alpha_in`` without scanning,
    as the scan would have.  No NaN on the grid could have ended the scan
    instead: a slack within a finite E of g is not NaN.  ``_certified``
    states the rounding.

    tau0 must be in (0, 1), ``GameConfig``'s rule, and ``alpha_in`` at
    least tau0.
    """
    _check_tau0(tau0)
    if alpha_in < tau0:
        raise ValueError(f"alpha_in must be at least tau0, got {alpha_in} < {tau0}")
    incoming = slack(alpha_in)
    # move only on improvements that dominate the inner solver noise; without
    # this margin the argmax wobbles at float scale and the best-response
    # iteration around it never settles bit-exactly
    bar = incoming + 1e-6 * (1.0 + abs(incoming))
    if curvature is not None and _certified(slack, alpha_in, tau0, incoming, bar, error, curvature):
        alpha, best = alpha_in, incoming
    else:
        scan_step = max((1.0 - tau0) / 40.0, 1e-4)
        found = scan_golden_max(
            slack, tau0, 1.0, scan_step, tol=ALPHA_TOL, bounds=bounds, error=error, start=alpha_in, bar=bar
        )
        if found is None or found[1] < bar:
            alpha, best = alpha_in, incoming
        else:
            alpha, best = found
    if not best >= 0.0:  # NaN-safe: a NaN slack certifies nothing
        return float(alpha_in), incoming, False
    return float(alpha), float(best), True


def _certified(slack, a, tau0, incoming, bar, error, curvature):
    """True when ``incoming + 2 E + Delta < bar`` holds in real numbers, by
    ``scan_strategy``'s curvature certificate; False when it cannot tell.

    Rounding, with u = 2^-53: E and kappa lie in [2^-500, 2^500], and both
    reads in [a / 2, 2 a], so both steps t from a are exact (Sterbenz) and
    at least h / 2 >= 2^-500.  A side's bound D is then computed within
    5 u S of the real one, S being the sum of its terms' magnitudes, and
    2^-49 S, added before the square, covers that and the rounding of the
    sum.  Rounding the cap 2 E + Delta up by 2^-50 covers the four roundings
    after D.  No result underflows by more than 2^-1074, or 2^-575 once
    divided by 2 kappa, far below 2^-49 E; an overflow makes the cap inf or
    a bound NaN, which certify nothing.  A float sum below ``bar`` comes
    from a real sum below it.  The cap is tested after each side, so a side
    that fails spares the other's read.
    """
    if not (2.0 ** -500 <= error <= 2.0 ** 500 and 2.0 ** -500 <= curvature <= 2.0 ** 500):
        return False
    h = 2.0 * math.sqrt(error / curvature)
    left, right = a - h, a + h
    if not 0.5 * a <= left < a < right or (a > tau0 and right > 1.0):
        return False
    gain = 0.0
    for x, side in ((right, a > tau0), (left, a < 1.0)):
        if side:
            step = abs(x - a)
            fall = incoming - slack(x)
            bend = 0.5 * curvature * step
            slope = (fall + 2.0 * error) / step - bend
            slope += 2.0 ** -49 * ((abs(fall) + 2.0 * error) / step + bend)
            if slope > 0.0:
                gain = max(gain, slope * slope / (2.0 * curvature))
            elif not slope <= 0.0:
                return False
            if not incoming + (2.0 * error + gain) * (1.0 + 2.0 ** -50) < bar:
                return False
    return True


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
    load = others_load(j, profile, config.nominal)
    if warm_start is None:
        alpha, u_floor = deterministic.best_response(j, profile, config), None
    else:  # clipped to [tau0, 1]; a NaN stays NaN, and the threshold step refuses it
        alpha, u_floor = min(max(warm_start[0], config.tau0), 1.0), warm_start[1]
    record = ThresholdRecord()
    u_min = threshold(alpha, load, params, reward, epsilon, u_lo=u_floor, record=record)
    for iteration in range(1, AO_CAP + 1):
        # alpha_in by keyword: wrappers of the subproblem read it from there
        alpha_new, _, feasible = strategy(
            u_min, alpha_in=alpha, load=load, params=params, reward=reward,
            tau0=config.tau0, epsilon=epsilon,
        )
        u_new = threshold(
            alpha_new, load, params, reward, epsilon, u_lo=u_min if feasible else None, record=record
        )
        delta = abs(u_new - u_min) + abs(alpha_new - alpha)
        alpha, u_min = alpha_new, u_new
        if delta <= AO_TOL:
            return BestResponse(float(alpha), float(u_min), iteration)
    raise ConvergenceError(
        f"alternating optimization did not settle in {AO_CAP} iterations",
        last=BestResponse(float(alpha), float(u_min), AO_CAP),
    )
