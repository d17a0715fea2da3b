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
the threshold step is an exact bisection on its sign, and the strategy step
maximizes g itself over alpha -- the constraint value is its own slack.

``BtiCoefficients`` and ``bti_constraint_value`` are the reference formula.
The two steps evaluate g from constants computed once per step instead
(``_threshold_certifier``, ``_strategy_slack``): a sweep evaluates g millions
of times.  Every hoisted expression keeps the float operation order of
``from_strategy`` and ``bti_constraint_value``, so each g value, and every
output built on it, is bit-identical to the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import GameConfig, MinerParams, RewardModel
from .robust import BestResponse, alternate, bisect_threshold, scan_strategy

__all__ = [
    "BtiCoefficients",
    "bti_constraint_value",
    "subproblem_threshold_gaussian",
    "subproblem_strategy_gaussian",
    "robust_best_response_gaussian",
]


@dataclass(frozen=True)
class BtiCoefficients:
    """Coefficients of f(e) = A e^2 + 2 b e + D for a standard normal e.

    ``upsilon`` and ``omega`` are the tight values of the cone auxiliaries.
    """

    A: float
    b: float
    D: float

    @classmethod
    def from_strategy(cls, alpha, u_min, load, params: MinerParams, reward: RewardModel):
        _check_strategy(alpha, load)
        sigma = params.sigma
        mu_bar = params.nominal
        cost = params.cost
        big_b = -reward.total + cost * load
        quad = cost * alpha * alpha
        return cls(
            A=-quad * sigma * sigma,
            b=-sigma * (quad * mu_bar + 0.5 * (u_min + big_b) * alpha),
            D=-(quad * mu_bar * mu_bar + (u_min + big_b) * alpha * mu_bar + u_min * load),
        )

    def f(self, e):
        return (self.A * e + 2.0 * self.b) * e + self.D

    @property
    def upsilon(self) -> float:
        return math.hypot(self.A, math.sqrt(2.0) * self.b)

    @property
    def omega(self) -> float:
        return max(0.0, -self.A)


def _check_strategy(alpha, load):
    if alpha <= 0 or load <= 0:
        raise ValueError("need alpha > 0 and positive rivals' load")


def _log_epsilon(epsilon) -> float:
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    return math.log(epsilon)


def bti_constraint_value(coeffs: BtiCoefficients, epsilon) -> float:
    """Slack of the Bernstein bound; g >= 0 certifies the Gaussian constraint."""
    log_eps = _log_epsilon(epsilon)
    return (
        coeffs.A
        - math.sqrt(-2.0 * log_eps) * coeffs.upsilon
        + log_eps * coeffs.omega
        + coeffs.D
    )


# The two factories below inline from_strategy and bti_constraint_value with
# everything that does not vary within a step computed once.  Their float
# operations must stay in the reference's order (e.g. (0.5 * s) * alpha, and
# g = ((A - c * upsilon) + log_eps * omega) + D): a reordered product changes
# g in the last bits, and with it the bisection's threshold and every CSV.


def _threshold_certifier(alpha, load, params: MinerParams, reward: RewardModel, epsilon):
    """``certify(u)``: g(u) >= 0 at fixed alpha; only b and D depend on u."""
    _check_strategy(alpha, load)
    log_eps = _log_epsilon(epsilon)
    sigma = params.sigma
    neg_sigma = -sigma
    mu_bar = params.nominal
    cost = params.cost
    big_b = -reward.total + cost * load
    quad = cost * alpha * alpha
    big_a = -quad * sigma * sigma
    quad_mu = quad * mu_bar
    quad_mu2 = quad_mu * mu_bar
    log_omega = log_eps * max(0.0, -big_a)
    c = math.sqrt(-2.0 * log_eps)
    root2 = math.sqrt(2.0)
    hypot = math.hypot

    def certify(u):
        s = u + big_b
        b = neg_sigma * (quad_mu + 0.5 * s * alpha)
        d = -(quad_mu2 + s * alpha * mu_bar + u * load)
        return big_a - c * hypot(big_a, root2 * b) + log_omega + d >= 0.0

    return certify


def _strategy_slack(u_min, load, params: MinerParams, reward: RewardModel, epsilon):
    """``slack(alpha)``: g(alpha) at fixed u_min; only the alpha terms vary."""
    log_eps = _log_epsilon(epsilon)
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
    certify = _threshold_certifier(alpha, load, params, reward, epsilon)
    return bisect_threshold(certify, params, reward, u_lo)


def subproblem_strategy_gaussian(
    u_min, alpha_in, load, params: MinerParams, reward: RewardModel, tau0, epsilon
) -> tuple[float, float, bool]:
    """Strategy update at fixed u_min: (alpha, g, feasible) maximizing g over alpha.

    With the quadratic auxiliary taken tight (t = -cost * alpha^2), the
    reparameterized bound equals g itself, so maximizing it keeps the current
    u_min feasible for the next threshold step.
    """
    _check_strategy(min(tau0, alpha_in), load)
    slack = _strategy_slack(u_min, load, params, reward, epsilon)
    return scan_strategy(slack, alpha_in, tau0)


def robust_best_response_gaussian(
    j: int, profile, config: GameConfig, warm_start=None
) -> BestResponse:
    """Alternating optimization for miner j under Gaussian uncertainty.

    ``warm_start`` may carry an (alpha, u_min) pair from a previous solve.
    The result has no separate certificate: g >= 0 is its own.
    """

    def threshold(*args, **kwargs):
        return subproblem_threshold_gaussian(*args, **kwargs), None

    return alternate(j, profile, config, threshold, subproblem_strategy_gaussian, warm_start)
