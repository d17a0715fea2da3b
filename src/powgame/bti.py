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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import GameConfig, MinerParams, RewardModel
from .robust import AO_CAP, AO_TOL, BestResponse, alternate, bisect_threshold, scan_strategy

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
        if alpha <= 0 or load <= 0:
            raise ValueError("need alpha > 0 and positive rivals' load")
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


def bti_constraint_value(coeffs: BtiCoefficients, epsilon) -> float:
    """Slack of the Bernstein bound; g >= 0 certifies the Gaussian constraint."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    log_eps = math.log(epsilon)
    return (
        coeffs.A
        - math.sqrt(-2.0 * log_eps) * coeffs.upsilon
        + log_eps * coeffs.omega
        + coeffs.D
    )


def subproblem_threshold_gaussian(
    alpha, load, params: MinerParams, reward: RewardModel, epsilon, u_lo=None
) -> float:
    """Largest u_min with g(u_min) >= 0 at fixed alpha (exact by concavity)."""

    # g is built inline here and in the strategy step, not through a shared
    # helper: a sweep evaluates it millions of times and a frame per call shows
    def certify(u):
        coeffs = BtiCoefficients.from_strategy(alpha, u, load, params, reward)
        return bti_constraint_value(coeffs, epsilon) >= 0.0

    return bisect_threshold(certify, params, reward, u_lo)[0]


def subproblem_strategy_gaussian(
    u_min, alpha_in, load, params: MinerParams, reward: RewardModel, tau0, epsilon
) -> tuple[float, float, bool]:
    """Strategy update at fixed u_min: (alpha, g, feasible) maximizing g over alpha.

    With the quadratic auxiliary taken tight (t = -cost * alpha^2), the
    reparameterized bound equals g itself, so maximizing it keeps the current
    u_min feasible for the next threshold step.
    """

    def slack(a):
        coeffs = BtiCoefficients.from_strategy(a, u_min, load, params, reward)
        return bti_constraint_value(coeffs, epsilon)

    return scan_strategy(slack, alpha_in, tau0)


def robust_best_response_gaussian(
    j: int, profile, config: GameConfig, ao_tol=AO_TOL, max_ao_iterations=AO_CAP, warm_start=None
) -> BestResponse:
    """Alternating optimization for miner j under Gaussian uncertainty.

    ``warm_start`` may carry an (alpha, u_min) pair from a previous solve.
    The result has no separate certificate: g >= 0 is its own.
    """

    def threshold(*args, **kwargs):
        return subproblem_threshold_gaussian(*args, **kwargs), None

    return alternate(
        j, profile, config, threshold, subproblem_strategy_gaussian,
        ao_tol, max_ao_iterations, warm_start,
    )
