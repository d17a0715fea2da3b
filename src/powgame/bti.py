"""Gaussian-specific robust best response via a Bernstein-type tail bound.

When the resource perturbation is Gaussian, write x = mu_bar + sigma * e with
e standard normal.  The utility requirement "U >= u_min" becomes
``f(e) = A e^2 + 2 b e + D >= 0`` (f is the negated cleared-denominator
loss), and a Bernstein-type concentration bound turns the chance constraint
``Pr[f(e) >= 0] >= 1 - epsilon`` into the deterministic condition

    g = A - sqrt(-2 ln eps) * sqrt(A^2 + 2 b^2) + ln(eps) * max(0, -A) + D >= 0.

(The second-order-cone auxiliary equals sqrt(A^2 + 2 b^2) at tightness and
the positive-part auxiliary equals max(0, -A); with A < 0 here, exactly the
``omega + A >= 0`` branch binds.)

For the alternating optimization in ``robust``: g is concave in u_min, so
the threshold step is an exact bisection on its sign (g is the step's
``margin``), and the strategy step maximizes g itself over alpha -- the
constraint value is its own slack.  g >= 0 is also its own certificate, so
the threshold step returns a bare float and there is no separate witness.

``bti_constraint_value`` is the reference formula.  It takes the same
arguments as ``cvar.worstcase_cvar``, a ``model.LossCoefficients`` loss and
the resource's mean mu_bar and variance sigma2 as two floats: the Gaussian
case is the same chance constraint on the same loss, and A, b and D are that
loss standardized at mu_bar + sigma e.
The two steps evaluate g from constants computed once per step instead
(``_threshold_certifier``, ``_strategy_slack``): a sweep evaluates g millions
of times.  Every hoisted expression keeps the float operation order of
``LossCoefficients.from_strategy`` and ``bti_constraint_value``, so each g
value, and every output built on it, is bit-identical to the reference.
"""

from __future__ import annotations

import math

from .model import (
    GameConfig, LossCoefficients, MinerParams, RewardModel, _check_epsilon, _check_strategy
)
from .robust import BestResponse, alternate, bisect_threshold, scan_strategy

__all__ = [
    "bti_constraint_value",
    "subproblem_threshold_gaussian",
    "subproblem_strategy_gaussian",
    "robust_best_response_gaussian",
]


def bti_constraint_value(coeffs: LossCoefficients, mu_bar, sigma2, epsilon) -> float:
    """Slack of the Bernstein bound; g >= 0 certifies the Gaussian constraint.

    f(e) = -L(mu_bar + sigma e) has A = -a2 sigma^2, b = -sigma (a2 mu_bar + a1 / 2)
    and D = -L(mu_bar).
    """
    _check_epsilon(epsilon)
    log_eps = math.log(epsilon)
    a2, a1, a0 = coeffs.a2, coeffs.a1, coeffs.a0
    sigma = math.sqrt(sigma2)
    big_a = -a2 * sigma * sigma
    b = -sigma * (a2 * mu_bar + 0.5 * a1)
    d = -(a2 * mu_bar * mu_bar + a1 * mu_bar + a0)
    upsilon = math.hypot(big_a, math.sqrt(2.0) * b)
    return big_a - math.sqrt(-2.0 * log_eps) * upsilon + log_eps * max(0.0, -big_a) + d


# The two factories below inline LossCoefficients.from_strategy and
# bti_constraint_value with everything that does not vary within a step
# computed once.  Their float operations must stay in the reference's order
# (e.g. g = ((A - c * upsilon) + log_eps * omega) + D; halving is exact, so
# (0.5 * s) * alpha is the reference's 0.5 * a1): a reordered product changes
# g in the last bits, and with it the bisection's threshold and every CSV.


def _threshold_certifier(alpha, load, params: MinerParams, reward: RewardModel, epsilon):
    """``margin(u)``: g(u) at fixed alpha; only b and D depend on u."""
    cost = params.cost
    _check_strategy(alpha, cost, load)
    _check_epsilon(epsilon)
    log_eps = math.log(epsilon)
    sigma = params.sigma
    neg_sigma = -sigma
    mu_bar = params.nominal
    big_b = -reward.total + cost * load
    quad = cost * alpha * alpha
    big_a = -quad * sigma * sigma
    quad_mu = quad * mu_bar
    quad_mu2 = quad_mu * mu_bar
    log_omega = log_eps * max(0.0, -big_a)
    c = math.sqrt(-2.0 * log_eps)
    root2 = math.sqrt(2.0)
    hypot = math.hypot

    def margin(u):
        s = u + big_b
        b = neg_sigma * (quad_mu + 0.5 * s * alpha)
        d = -(quad_mu2 + s * alpha * mu_bar + u * load)
        return big_a - c * hypot(big_a, root2 * b) + log_omega + d

    return margin


def _strategy_slack(u_min, load, params: MinerParams, reward: RewardModel, epsilon):
    """``(slack(alpha), E, kappa_lo)`` at fixed u_min; only the alpha terms
    vary.

    ``E`` is the rounding bound with which ``_search.scan_golden_max``
    climbs to the slack's peak (its ``error``; the module docstring there
    states the claim), and ``kappa_lo`` the curvature bound with which
    ``robust.scan_strategy`` may keep the incoming alpha without a scan (its
    ``curvature``).  The claims rest on three facts.

    **g is concave in alpha.**  With s = u_min - R + cost * load,
    L = -log(eps) and c = sqrt(2 L), for alpha > 0

        g(alpha) = -K alpha^2 - s mu_bar alpha - u_min load - c sigma alpha N(alpha),

    where K = cost (sigma^2 (1 + L) + mu_bar^2) and N(alpha) =
    sqrt(p alpha^2 + 2 r alpha + w), with p = cost^2 (sigma^2 + 2 mu_bar^2),
    r = cost mu_bar s and w = s^2 / 2.  N is the norm of an affine map of
    alpha, so N'' >= 0 and N' >= -sqrt(p); hence (alpha N)'' = 2 N' +
    alpha N'' >= -2 sqrt(p), and g'' <= -kappa with

        kappa = 2 cost (sigma^2 (1 + L) + mu_bar^2 - c sigma sqrt(sigma^2 + 2 mu_bar^2)).

    kappa > 0, because (sigma^2 (1 + L) + mu_bar^2)^2 - 2 L sigma^2
    (sigma^2 + 2 mu_bar^2) is the quadratic form [[1 + L^2, 1 - L],
    [1 - L, 1]] in (sigma^2, mu_bar^2), whose determinant is 2 L > 0.  The g
    meant here is built from the step's float constants (s, u_min load,
    log(eps), c), for which c^2 = 2 L holds only to rounding, so the step
    checks kappa > 1e-6 K in float.  kappa / K is at least about 1 / (2 L),
    above 6e-4 for every float eps, so the check fails only where its terms
    overflow.

    **E bounds |slack(alpha) - g(alpha)| for 0 < alpha <= 1.**  Along its
    longest chain ``slack`` rounds 14 times, counting ``math.hypot``'s error
    of under 1 ulp as two roundings.  Every term grows with alpha, so each
    error is at most its rounding count times u = 2^-53 times the term's
    magnitude at alpha = 1, and |slack - g| <= 15 u M with

        M = (1 + L) |A| + c (|A| + sqrt(2) sigma P) + |D|,

    |A| = cost sigma^2, P = cost |mu_bar| + |s| / 2 and |D| = cost mu_bar^2
    + |s mu_bar| + |u_min load|.  E = 32 u M leaves room for the rounding of
    M itself and of the scan's ``best - 2 E`` (|slack| <= M).  A product
    that underflows errs by up to 2^-1075 more, times the factors it is
    later multiplied by, at most W = (1 + sigma)^2 (1 + |mu_bar|)^2
    (1 + c + L); E adds 32 * 2^-1074 W.  Each intermediate of ``slack`` is
    at most M, to a few roundings, so E is computed from 2 M: a finite E
    means that no term overflows and the slack is never NaN.  A failed kappa
    check sets E to inf, and an overflowing term makes it inf or NaN; the
    scan then scores every grid point, or stops at the first NaN slack.

    **kappa_lo <= kappa.**  kappa_lo is half the float kappa: cost times the
    float difference d = K' - C' of the check, K' = sigma^2 (1 + L) +
    mu_bar^2 and C' = c sigma sqrt(sigma^2 + 2 mu_bar^2).  K' is computed
    within 4 u K', C' within 5 u C' and C' < K', so the float d lies within
    10 u K' of the exact one.  The check d > 5e-7 K' then bounds that error
    by 2.1e7 u d < 3e-9 d, and kappa_lo <= (kappa / 2) (1 + 3e-9) < kappa
    after the product's rounding.  The factor 2 is room, not need.  With E
    and g'' <= -kappa_lo on all of (0, 1], the secants of the slack at
    alpha_in -+ 2 sqrt(E / kappa_lo) bound g'(alpha_in) from both sides,
    and strong concavity then bounds how far g can rise over [tau0, 1]
    (``robust.scan_strategy`` gives the proof).  A failed kappa check
    leaves kappa_lo None: no certificate is tried.
    """
    _check_epsilon(epsilon)
    log_eps = math.log(epsilon)
    sigma = params.sigma
    neg_sigma = -sigma
    mu_bar = params.nominal
    cost = params.cost
    big_b = -reward.total + cost * load
    s = u_min + big_b
    half_s = 0.5 * s
    u_load = u_min * load
    c = math.sqrt(-2.0 * log_eps)
    root2 = math.sqrt(2.0)
    hypot = math.hypot

    def slack(a):
        quad = cost * a * a
        big_a = -quad * sigma * sigma
        b = neg_sigma * (quad * mu_bar + half_s * a)
        d = -(quad * mu_bar * mu_bar + s * a * mu_bar + u_load)
        omega = -big_a if big_a < 0.0 else 0.0  # max(0.0, -A), NaN included
        return big_a - c * hypot(big_a, root2 * b) + log_eps * omega + d

    big_l = -log_eps
    var, mu2 = sigma * sigma, mu_bar * mu_bar
    curvature = var * (1.0 + big_l) + mu2  # K / cost
    error, kappa_lo = math.inf, None
    # kappa > 1e-6 K, with both sides divided by 2 cost
    bend = curvature - c * sigma * math.sqrt(var + 2.0 * mu2)
    if bend > 5e-7 * curvature:
        kappa_lo = cost * bend  # half the float kappa
        a_mag = cost * var
        p_mag = cost * abs(mu_bar) + abs(half_s)
        d_mag = cost * mu2 + abs(s * mu_bar) + abs(u_load)
        m = (1.0 + big_l) * a_mag + c * (a_mag + root2 * sigma * p_mag) + d_mag
        sigma_1, mu_1 = 1.0 + sigma, 1.0 + abs(mu_bar)
        w = sigma_1 * sigma_1 * mu_1 * mu_1 * (1.0 + c + big_l)
        # 32 u M + 32 * 2^-1074 W; m + m is inf where a term nears overflow
        error = 2.0 ** -49 * (m + m) + 2.0 ** -1069 * w
    return slack, error, kappa_lo


def subproblem_threshold_gaussian(
    alpha, load, params: MinerParams, reward: RewardModel, epsilon, u_lo=None, record=None
) -> float:
    """Largest u_min with g(u_min) >= 0 at fixed alpha (exact by concavity).

    ``record``, a ``robust.ThresholdRecord``, resumes a step at the inputs
    of the last one that used it (``robust.bisect_threshold``)."""
    key = (alpha, load, params, reward, epsilon)
    margin = _threshold_certifier(*key) if record is None else record.margin_for(_threshold_certifier, key)
    return bisect_threshold(margin, params, reward, u_lo, record)


def subproblem_strategy_gaussian(
    u_min, alpha_in, load, params: MinerParams, reward: RewardModel, tau0, epsilon
) -> tuple[float, float, bool]:
    """Strategy update at fixed u_min: (alpha, g, feasible) maximizing g over alpha.

    With the quadratic auxiliary taken tight (t = -cost * alpha^2), the
    reparameterized bound equals g itself, so maximizing it keeps the current
    u_min feasible for the next threshold step.
    """
    _check_strategy(alpha_in, params.cost, load)
    slack, error, curvature = _strategy_slack(u_min, load, params, reward, epsilon)
    return scan_strategy(slack, alpha_in, tau0, error=error, curvature=curvature)


def robust_best_response_gaussian(
    j: int, profile, config: GameConfig, warm_start=None
) -> BestResponse:
    """Alternating optimization for miner j under Gaussian uncertainty.

    ``warm_start`` may carry an (alpha, u_min) pair from a previous solve.
    The result needs no separate certificate: g >= 0 is its own.
    """
    return alternate(
        j, profile, config, subproblem_threshold_gaussian, subproblem_strategy_gaussian, warm_start
    )
