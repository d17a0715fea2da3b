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

``bti_constraint_value`` is the reference formula.  It takes the same loss
and moments as ``cvar.worstcase_cvar`` (``model.LossCoefficients``,
``model.MomentMatrix``): the Gaussian case is the same chance constraint on
the same loss, and A, b and D are that loss standardized at mu_bar + sigma e.
The two steps evaluate g from constants computed once per step instead
(``_threshold_certifier``, ``_strategy_slack``): a sweep evaluates g millions
of times.  Every hoisted expression keeps the float operation order of
``LossCoefficients.from_strategy`` and ``bti_constraint_value``, so each g
value, and every output built on it, is bit-identical to the reference.
"""

from __future__ import annotations

import math

from .model import (
    GameConfig, LossCoefficients, MinerParams, MomentMatrix, RewardModel, _check_epsilon, _check_strategy
)
from .robust import BestResponse, alternate, bisect_threshold, scan_strategy

__all__ = [
    "bti_constraint_value",
    "subproblem_threshold_gaussian",
    "subproblem_strategy_gaussian",
    "robust_best_response_gaussian",
]


def bti_constraint_value(coeffs: LossCoefficients, moments: MomentMatrix, epsilon) -> float:
    """Slack of the Bernstein bound; g >= 0 certifies the Gaussian constraint.

    f(e) = -L(mu_bar + sigma e) has A = -a2 sigma^2, b = -sigma (a2 mu_bar + a1 / 2)
    and D = -L(mu_bar).
    """
    _check_epsilon(epsilon)
    log_eps = math.log(epsilon)
    a2, a1, a0 = coeffs.a2, coeffs.a1, coeffs.a0
    m, sigma = moments.mu_bar, math.sqrt(moments.sigma2)
    big_a = -a2 * sigma * sigma
    b = -sigma * (a2 * m + 0.5 * a1)
    d = -(a2 * m * m + a1 * m + a0)
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
    """``slack(alpha)``: g(alpha) at fixed u_min; only the alpha terms vary."""
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

    return slack


def subproblem_threshold_gaussian(
    alpha, load, params: MinerParams, reward: RewardModel, epsilon, u_lo=None
) -> float:
    """Largest u_min with g(u_min) >= 0 at fixed alpha (exact by concavity)."""
    margin = _threshold_certifier(alpha, load, params, reward, epsilon)
    return bisect_threshold(margin, params, reward, u_lo)


def subproblem_strategy_gaussian(
    u_min, alpha_in, load, params: MinerParams, reward: RewardModel, tau0, epsilon
) -> tuple[float, float, bool]:
    """Strategy update at fixed u_min: (alpha, g, feasible) maximizing g over alpha.

    With the quadratic auxiliary taken tight (t = -cost * alpha^2), the
    reparameterized bound equals g itself, so maximizing it keeps the current
    u_min feasible for the next threshold step.
    """
    _check_strategy(alpha_in, params.cost, load)
    slack = _strategy_slack(u_min, load, params, reward, epsilon)
    return scan_strategy(slack, alpha_in, tau0)


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
