"""Distribution-free robust best response via worst-case CVaR.

Miner j must keep its utility above a threshold ``u_min`` with probability at
least ``1 - epsilon`` under *every* resource distribution sharing the known
mean and variance.  Clearing denominators turns the utility requirement into
a quadratic loss ``L(x) <= 0`` in the miner's own realized resource x, and
the worst-case chance constraint is equivalent to a worst-case CVaR
constraint whose certificate is a pair ``(beta, M)`` with two 2x2 positive
semidefinite conditions and one trace condition:

    beta + Tr(Omega M) / epsilon <= 0,   M >= 0,   M >= Q(alpha, u_min, beta)

with ``Omega`` the second-moment matrix of the resource.  Because everything
is 2x2, the inner minimization over M has a closed form: congruence by
``Omega^{1/2}`` reduces it to the positive part of a symmetric matrix, so the
worst-case CVaR is an exact one-dimensional convex minimization over beta.

For the alternating optimization in ``robust``, any beta whose CVaR bound is
nonpositive certifies a threshold, and the strategy step maximizes the
negated worst-case CVaR over alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import expand_bracket_min, golden_min
from .model import GameConfig, MinerParams, RewardModel
from .robust import (
    AO_CAP,
    AO_TOL,
    BISECT_TOL,
    BestResponse,
    alternate,
    bisect_threshold,
    scan_strategy,
)

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
    """Quadratic loss L(x) = a2 x^2 + a1 x + a0 encoding "utility below u_min".

    ``B = -R + cost * load`` and ``C = load`` (rivals' committed power) are
    kept because the robust constraint matrices reuse them.
    """

    a2: float
    a1: float
    a0: float
    B: float
    C: float

    @classmethod
    def from_strategy(cls, alpha, u_min, load, cost, reward_total):
        if alpha <= 0 or cost <= 0 or load <= 0:
            raise ValueError("need alpha > 0, cost > 0 and positive rivals' load")
        b = -reward_total + cost * load
        return cls(
            a2=cost * alpha * alpha,
            a1=(u_min + b) * alpha,
            a0=u_min * load,
            B=b,
            C=load,
        )

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
    beta + Tr(Omega M)/epsilon <= 0.  ``t_c`` carries the tight quadratic
    bound cost * alpha^2 used by the strategy step.
    """

    beta: float
    m11: float
    m12: float
    m22: float
    u_min: float
    t_c: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m12, self.m22]])

    def constraint_matrix(self, coeffs: LossCoefficients) -> np.ndarray:
        """The dominated block Q; its corner entry is u_min * C - beta."""
        q12 = 0.5 * coeffs.a1
        return np.array([[coeffs.a2, q12], [q12, self.u_min * coeffs.C - self.beta]])

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


def _trace_plus(a, b, c):
    # sum of nonnegative eigenvalues of [[a, b], [b, c]]
    half_disc = 0.5 * math.sqrt((a - c) ** 2 + 4.0 * b * b)
    mid = 0.5 * (a + c)
    return max(mid + half_disc, 0.0) + max(mid - half_disc, 0.0)


class _CvarEvaluator:
    """Worst-case CVaR of a fixed quadratic loss as a 1-D function of beta.

    v(beta) = beta + Tr+( Om^{1/2} Q(beta) Om^{1/2} ) / epsilon where
    Q(beta) = Q0 - beta E22.  v is convex and coercive, so a bracketed golden
    section finds its minimum; any evaluation with v <= 0 already certifies
    feasibility.
    """

    def __init__(self, coeffs: LossCoefficients, moments: MomentMatrix, epsilon):
        self.coeffs = coeffs
        self.moments = moments
        self.epsilon = epsilon
        r = moments.sqrt_matrix()
        self._r = r
        q0 = np.array([[coeffs.a2, 0.5 * coeffs.a1], [0.5 * coeffs.a1, coeffs.a0]])
        qt = r @ q0 @ r
        w = np.outer(r[:, 1], r[:, 1])  # Om^{1/2} E22 Om^{1/2}
        self._qt = (qt[0, 0], qt[0, 1], qt[1, 1])
        self._w = (w[0, 0], w[0, 1], w[1, 1])

    def value(self, beta):
        qa, qb, qc = self._qt
        wa, wb, wc = self._w
        return beta + _trace_plus(qa - beta * wa, qb - beta * wb, qc - beta * wc) / self.epsilon

    def beta_scale(self):
        c, m = self.coeffs, self.moments
        reach = m.mu_bar + 3.0 * math.sqrt(m.sigma2)
        return 1.0 + abs(c.a0) + abs(c.a1) * abs(reach) + c.a2 * reach * reach

    def minimize(self, stop_below=None, beta_tol=1e-13):
        """(min value, argmin beta); early exit once value drops below stop_below."""
        scale = self.beta_scale()
        if stop_below is not None:
            for probe in (0.0, -scale, scale):
                v = self.value(probe)
                if v <= stop_below:
                    return v, probe
        lo, hi = expand_bracket_min(self.value, -scale, scale)
        if stop_below is not None:
            # golden with sign early-exit
            inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
            x1 = hi - inv_phi * (hi - lo)
            x2 = lo + inv_phi * (hi - lo)
            f1, f2 = self.value(x1), self.value(x2)
            while hi - lo > beta_tol * (1.0 + abs(lo) + abs(hi)):
                if min(f1, f2) <= stop_below:
                    return (f1, x1) if f1 <= f2 else (f2, x2)
                if f1 <= f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - inv_phi * (hi - lo)
                    f1 = self.value(x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + inv_phi * (hi - lo)
                    f2 = self.value(x2)
            beta = 0.5 * (lo + hi)
            return self.value(beta), beta
        beta, val = golden_min(
            self.value, lo, hi, tol=beta_tol * (1.0 + abs(lo) + abs(hi)), max_iter=300
        )
        return val, beta

    def certificate(self, beta, u_min, t_c) -> CvarCertificate:
        """Trace-minimal M at this beta: clip the congruence-transformed Q."""
        qa, qb, qc = self._qt
        wa, wb, wc = self._w
        qt = np.array(
            [[qa - beta * wa, qb - beta * wb], [qb - beta * wb, qc - beta * wc]]
        )
        eigvals, eigvecs = np.linalg.eigh(qt)
        n = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
        r_inv = np.linalg.inv(self._r)
        m = r_inv @ n @ r_inv
        return CvarCertificate(
            beta=float(beta),
            m11=float(m[0, 0]),
            m12=float(m[0, 1]),
            m22=float(m[1, 1]),
            u_min=float(u_min),
            t_c=float(t_c),
        )


def worstcase_cvar(
    coeffs: LossCoefficients, moments: MomentMatrix, epsilon, stop_below=None
) -> tuple[float, float]:
    """Exact worst-case CVaR of the loss over the mean/variance ambiguity set.

    Returns ``(value, beta)``.  With ``stop_below`` set, the search may stop
    at any beta whose value is below it (enough to certify feasibility).
    """
    return _CvarEvaluator(coeffs, moments, epsilon).minimize(stop_below=stop_below)


def subproblem_threshold(
    alpha, load, params: MinerParams, reward: RewardModel, epsilon, u_lo=None, u_tol=BISECT_TOL
) -> tuple[float, CvarCertificate]:
    """Largest certifiable u_min at fixed alpha, with its certificate.

    Each bisection probe stops its search over beta once the worst-case CVaR
    drops to 0; the last certified probe's beta yields the certificate.
    """
    moments = MomentMatrix.from_params(params)

    def certify(u):
        coeffs = LossCoefficients.from_strategy(alpha, u, load, params.cost, reward.total)
        evaluator = _CvarEvaluator(coeffs, moments, epsilon)
        value, beta = evaluator.minimize(stop_below=0.0)
        return (beta, evaluator) if value <= 0.0 else None

    u_min, (beta, evaluator) = bisect_threshold(certify, params, reward, u_lo, u_tol)
    return u_min, evaluator.certificate(beta, u_min, t_c=params.cost * alpha * alpha)


def certified_slack(alpha, u_min, load, params: MinerParams, reward: RewardModel, epsilon):
    """Negated worst-case CVaR at (alpha, u_min); >= 0 iff certifiable."""
    coeffs = LossCoefficients.from_strategy(alpha, u_min, load, params.cost, reward.total)
    moments = MomentMatrix.from_params(params)
    value, _ = worstcase_cvar(coeffs, moments, epsilon)
    return -value


def subproblem_strategy(
    u_min, alpha_in, load, params: MinerParams, reward: RewardModel, tau0, epsilon,
    scan_step=None, alpha_tol=1e-6,
) -> tuple[float, float, bool]:
    """Strategy update at fixed u_min: (alpha, slack, feasible) maximizing the certified slack.

    The slack against the incoming trace-minimal certificate would peak at
    the incoming alpha by construction, so the slack maximized here is the
    negated worst-case CVaR, re-certified per alpha.
    """
    return scan_strategy(
        lambda a: certified_slack(a, u_min, load, params, reward, epsilon),
        alpha_in, tau0, scan_step, alpha_tol,
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
