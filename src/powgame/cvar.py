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

The 2x2 argument is similar to ``Q(beta) Omega``; its trace and determinant
are affine in beta, so v is a closed-form scalar of three constants (``_v``).

``worstcase_cvar`` is the reference formula: it takes the loss
(``model.LossCoefficients``, the same one ``bti.bti_constraint_value`` and
``validate`` read) and the resource's ``model.MomentMatrix``, computes the
three constants and minimizes v over beta (``_beta_search``, a bracketed
golden section).  The two
alternating-optimization steps evaluate v from constants computed once per
step instead, because a solve evaluates it hundreds of thousands of times:

- ``_threshold_certifier`` gives the threshold step ``margin(u)``, the
  negated exact minimum of v, whose sign decides each threshold probe.
  The exact minimum is ``_exact_minimizer``'s kernel: the least v over two
  or three candidate betas, unrolled, with v written out inline, so a
  caller that needs only the value builds no tuple and makes one call.
  The solver builds no witness; ``certify`` builds the (beta, M) witness
  of a returned threshold on request, at the kernel's argmin beta, in
  closed form from the eigenvector of ``Q(beta) Omega``
  (``_trace_minimal_witness``).  A threshold step that fails where v's
  constants overflow float reports the overflow, not infeasibility.
- ``_strategy_slack`` gives the strategy step ``slack(alpha)``, the negated
  worst-case CVaR by the same ``_beta_search`` as ``worstcase_cvar``, and
  cheap ``bounds(alpha) = (floor, ceiling)`` around it from the kernel's
  exact minimum; its docstring states the bounds' contract and why the
  exact minimum is not the slack itself.  The scan
  (``_search.scan_golden_max``) computes ``slack`` only where the bounds
  cannot decide a comparison, and returns what it would return with
  ``slack`` everywhere.

Every hoisted expression keeps the float operation order in which
``worstcase_cvar`` computes t0, d0 and k, so each slack value and threshold
decision, and every output built on them, is bit-identical to v evaluated
from those three constants.  Each step, ``certify`` and ``worstcase_cvar``
check epsilon once, with the model's check, before any evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import _INV_PHI
from .model import (
    GameConfig, LossCoefficients, MinerParams, MomentMatrix, RewardModel, SolverError, _check_epsilon,
    _check_strategy,
)
from .robust import BestResponse, alternate, bisect_threshold, scan_strategy, threshold_floor

__all__ = [
    "CvarCertificate",
    "certify",
    "worstcase_cvar",
    "subproblem_threshold",
    "subproblem_strategy",
    "robust_best_response",
]


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

    def slacks(self, coeffs: LossCoefficients, moments: MomentMatrix, epsilon):
        """(min eig of M, min eig of M - Q, trace slack); all >= 0 when valid.

        Q = [[a2, a1 / 2], [a1 / 2, a0 - beta]] is the loss's block that M must
        dominate; its corner entry is u_min * load - beta.
        """
        m = self.matrix
        q12 = 0.5 * coeffs.a1
        q = np.array([[coeffs.a2, q12], [q12, coeffs.a0 - self.beta]])
        trace = -(self.beta + float(np.trace(moments.matrix @ m)) / epsilon)
        return float(np.linalg.eigvalsh(m)[0]), float(np.linalg.eigvalsh(m - q)[0]), trace


def _v(t0, d0, k, epsilon, beta):
    """v(beta) of the loss with t0 = E[L], d0 = s2 (a2 a0 - a1^2 / 4), k = s2 a2.

    With Q(beta) = Q0 - beta E22, the 2x2 argument of Tr+ has trace
    t0 - beta and determinant det(Omega) det(Q(beta)) = d0 - beta k.  Tr+ is
    max(trace, 0) when the determinant is >= 0 (both eigenvalues share a
    sign) and the larger eigenvalue otherwise.  max(t, 0.0) is written as
    ``0.0 if 0.0 > t else t``, NaN included.  The hot loops (the golden
    section of ``_beta_search``, ``_exact_minimizer``) repeat these
    operations inline.
    """
    t = t0 - beta
    d = d0 - beta * k
    if d >= 0.0:
        return beta + (0.0 if 0.0 > t else t) / epsilon
    return beta + (0.5 * t + math.sqrt(0.25 * t * t - d)) / epsilon


def _beta_search(t0, d0, k, epsilon, scale) -> tuple[float, float]:
    """(min value, argmin beta) of v by bracketed golden section.

    Starting from [-scale, scale], the bracket grows until its midpoint beats
    both ends (at most 80 times); golden section then narrows it to
    1e-13 * (1 + |lo| + |hi|) (at most 300 steps) and returns v at the
    midpoint.  The golden loop, about 60 v a search and the solver's hottest
    code, writes ``_v`` out inline.  The bracket calls ``_v``: on the
    benchmark's games it never grows, so it evaluates v only at the two
    ends and the midpoint, once a search.
    """
    sqrt = math.sqrt
    inv_phi = _INV_PHI
    lo, hi = -scale, scale
    f_lo, f_hi = _v(t0, d0, k, epsilon, lo), _v(t0, d0, k, epsilon, hi)
    for _ in range(80):
        f_mid = _v(t0, d0, k, epsilon, 0.5 * (lo + hi))
        grow_lo, grow_hi = f_lo <= f_mid, f_hi <= f_mid
        if not (grow_lo or grow_hi):  # the midpoint beats both ends, or a NaN stops growth
            break
        width = hi - lo
        if grow_lo:
            lo -= 2.0 * width
        if grow_hi:
            hi += 2.0 * width
        f_lo, f_hi = _v(t0, d0, k, epsilon, lo), _v(t0, d0, k, epsilon, hi)
    tol = 1e-13 * (1.0 + abs(lo) + abs(hi))
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = _v(t0, d0, k, epsilon, x1)
    f2 = _v(t0, d0, k, epsilon, x2)
    for _ in range(300):
        if not hi - lo > tol:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            t = t0 - x1
            d = d0 - x1 * k
            if d >= 0.0:
                f1 = x1 + (0.0 if 0.0 > t else t) / epsilon
            else:
                f1 = x1 + (0.5 * t + sqrt(0.25 * t * t - d)) / epsilon
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            t = t0 - x2
            d = d0 - x2 * k
            if d >= 0.0:
                f2 = x2 + (0.0 if 0.0 > t else t) / epsilon
            else:
                f2 = x2 + (0.5 * t + sqrt(0.25 * t * t - d)) / epsilon
    beta = 0.5 * (lo + hi)
    return _v(t0, d0, k, epsilon, beta), beta


def worstcase_cvar(coeffs: LossCoefficients, moments: MomentMatrix, epsilon) -> tuple[float, float]:
    """Exact worst-case CVaR of the loss over the mean/variance ambiguity set: (value, beta)."""
    _check_epsilon(epsilon)
    a2, a1, a0 = coeffs.a2, coeffs.a1, coeffs.a0
    m, s2 = moments.mu_bar, moments.sigma2
    t0 = a2 * (s2 + m * m) + a1 * m + a0
    d0 = s2 * (a2 * a0 - 0.25 * a1 * a1)
    reach = m + 3.0 * math.sqrt(s2)
    scale = 1.0 + abs(a0) + abs(a1) * abs(reach) + a2 * reach * reach
    return _beta_search(t0, d0, s2 * a2, epsilon, scale)


def _trace_minimal_witness(beta, u_min, a2, a1, a0, mu_bar, sigma2) -> CvarCertificate:
    """The trace-minimal (beta, M) for the loss (a2, a1, a0), in closed form.

    M = Om^{-1/2} (Om^{1/2} Q Om^{1/2})_+ Om^{-1/2}, and the clipped matrix is
    similar to P = Q Omega.  When det P >= 0 its eigenvalues share a sign, so
    M is Q (trace >= 0) or 0; otherwise only the larger eigenvalue lam of P
    is positive and M = lam w w^T / (w^T Om w) for its eigenvector w.
    """
    h = 0.5 * a1
    c = a0 - beta
    second = sigma2 + mu_bar * mu_bar
    p11 = a2 * second + h * mu_bar
    p12 = a2 * mu_bar + h
    p21 = h * second + c * mu_bar
    p22 = h * mu_bar + c
    t = p11 + p22
    d = sigma2 * (a2 * c - h * h)
    if d >= 0.0:
        m11, m12, m22 = (a2, h, c) if t >= 0.0 else (0.0, 0.0, 0.0)
    else:
        root = math.sqrt(0.25 * t * t - d)
        lam = 0.5 * t + root if t >= 0.0 else -d / (root - 0.5 * t)  # no cancellation
        # each row of (P - lam I) w = 0 gives w; a diagonal P zeroes one of
        # the two, so take the longer
        x, y = p12, lam - p11
        if abs(x) + abs(y) < abs(lam - p22) + abs(p21):
            x, y = lam - p22, p21
        scale = lam / (sigma2 * x * x + (mu_bar * x + y) ** 2)  # w^T Om w
        m11, m12, m22 = scale * x * x, scale * x * y, scale * y * y
    return CvarCertificate(beta=beta, m11=m11, m12=m12, m22=m22, u_min=u_min)


def _exact_minimizer(epsilon):
    """``least_v(t0, d0, k, spread)``: the least v over the candidate betas;
    with ``argmin=True``, the beta it is taken at.

    v is convex and coercive, so its minimum is at a kink or where v' = 0.
    Where the determinant is >= 0, v is piecewise linear with slopes
    1 - 1/eps and 1, so its only kink there is beta = t0; the determinant
    changes sign at beta = d0 / k; where it is negative, v' = 0 only at
    t0 - 2k + (1 - 2 eps) / sqrt(eps (1 - eps)) * spread, with
    spread = sqrt(k t0 - d0 - k^2).  That radicand equals
    s2 (a2 mu_bar + a1 / 2)^2, so the caller passes
    spread = sqrt(s2) |a2 mu_bar + a1 / 2|, which is never NaN.

    The candidates are unrolled in the order t0, the stationary point, d0 / k
    (only if k > 0), each v written out in ``_v``'s float operations.  A
    candidate replaces the best so far if its v is smaller or, at an equal
    v, its beta is: the value and beta of ``min`` over the (v, beta) pairs,
    for every float, NaN and signed zeros included.
    """
    factor = (1.0 - 2.0 * epsilon) / math.sqrt(epsilon * (1.0 - epsilon))
    sqrt = math.sqrt

    def least_v(t0, d0, k, spread, argmin=False):
        beta = t0
        t = t0 - beta
        d = d0 - beta * k
        if d >= 0.0:
            best = beta + (0.0 if 0.0 > t else t) / epsilon
        else:
            best = beta + (0.5 * t + sqrt(0.25 * t * t - d)) / epsilon
        at = beta
        beta = t0 - 2.0 * k + factor * spread
        t = t0 - beta
        d = d0 - beta * k
        if d >= 0.0:
            v = beta + (0.0 if 0.0 > t else t) / epsilon
        else:
            v = beta + (0.5 * t + sqrt(0.25 * t * t - d)) / epsilon
        if v <= best and (v < best or beta < at):
            best, at = v, beta
        if k > 0.0:
            beta = d0 / k
            t = t0 - beta
            d = d0 - beta * k
            if d >= 0.0:
                v = beta + (0.0 if 0.0 > t else t) / epsilon
            else:
                v = beta + (0.5 * t + sqrt(0.25 * t * t - d)) / epsilon
            if v <= best and (v < best or beta < at):
                best, at = v, beta
        return at if argmin else best

    return least_v


def _threshold_terms(alpha, u, load, params: MinerParams, reward: RewardModel):
    """(a2, a1, a0, t0, d0, k, spread) at threshold u, in ``margin``'s float order."""
    cost = params.cost
    m, s2 = params.nominal, params.sigma2
    a2 = cost * alpha * alpha
    a1 = (u + (-reward.total + cost * load)) * alpha
    a0 = u * load
    t0 = a2 * (s2 + m * m) + a1 * m + a0
    d0 = s2 * (a2 * a0 - 0.25 * a1 * a1)
    return a2, a1, a0, t0, d0, s2 * a2, math.sqrt(s2) * abs(a2 * m + 0.5 * a1)


def _threshold_certifier(alpha, load, params: MinerParams, reward: RewardModel, epsilon):
    """``margin(u)`` at fixed alpha: v's negated exact minimum, so
    ``margin(u) >= 0`` is ``min v <= 0`` for every float, NaN included.
    Only a1, a0 and the terms built on them vary with u."""
    cost = params.cost
    _check_strategy(alpha, cost, load)
    _check_epsilon(epsilon)
    m, s2 = params.nominal, params.sigma2
    big_b = -reward.total + cost * load
    a2 = cost * alpha * alpha
    a2_second = a2 * (s2 + m * m)
    k = s2 * a2
    a2_m = a2 * m
    sigma = math.sqrt(s2)
    least_v = _exact_minimizer(epsilon)

    def margin(u):
        a1 = (u + big_b) * alpha
        a0 = u * load
        t0 = a2_second + a1 * m + a0
        d0 = s2 * (a2 * a0 - 0.25 * a1 * a1)
        return -least_v(t0, d0, k, sigma * abs(a2_m + 0.5 * a1))

    return margin


def certify(alpha, u_min, load, params: MinerParams, reward: RewardModel, epsilon):
    """The trace-minimal (beta, M) witness of u_min at alpha, at v's exact argmin."""
    _check_strategy(alpha, params.cost, load)
    _check_epsilon(epsilon)
    a2, a1, a0, t0, d0, k, spread = _threshold_terms(alpha, u_min, load, params, reward)
    beta = _exact_minimizer(epsilon)(t0, d0, k, spread, argmin=True)
    return _trace_minimal_witness(beta, u_min, a2, a1, a0, params.nominal, params.sigma2)


def _strategy_slack(u_min, load, params: MinerParams, reward: RewardModel, epsilon):
    """``(slack(alpha), bounds(alpha))`` at fixed u_min; only the alpha terms vary.

    ``slack`` is the negated ``worstcase_cvar``; it keeps the values it has
    computed, so each alpha costs one beta search per step.  ``bounds`` is
    ``(floor, ceiling)`` = -(exact minimum of v) + (-gap, rho) * scale, with
    gap = 1e-9 / eps and rho = 1e-12 / eps, at about a fifteenth of the
    cost of a search, and ``floor <= slack <= ceiling``:

    - ceiling: the golden section returns v at some beta, which is at least
      v's minimum, so ``ceiling >= slack`` however close that search gets;
      rho covers the rounding of v at the candidate betas, which reached
      2.6e-16 * scale / eps over 60000 random (instance, alpha) pairs.
    - floor: over those pairs the search's v sat at most 1.7e-13 * scale /
      eps above the exact minimum (2.1e-14 on the benchmark's solve-cvar
      games), under a five-thousandth of the gap, so ``floor <= slack``.
    - overflow: where the search's beta bracket overflows (sigma beyond
      about 1e80, scale from about 2e155), ``slack`` is -inf or NaN while
      the exact minimum stays finite, so the floor is -inf from scale 1e140
      on, and the bounds decide a golden-section comparison of the scan
      only if a ceiling is -inf too.  No threshold certifies at such a
      variance, so the solver stops at its threshold step before any
      strategy step.

    The slack stays the search's v, not the cheaper exact minimum: taking
    the minimum moves an equilibrium threshold of one benchmark game by 5e-4
    (the solver fixes u_min only to its 1e-6 alpha tolerance times
    du/dalpha), more than the benchmark's recorded reference outputs allow,
    so that switch waits for a re-recorded reference.
    """
    _check_epsilon(epsilon)
    m, s2 = params.nominal, params.sigma2
    cost = params.cost
    s = u_min + (-reward.total + cost * load)
    a0 = u_min * load
    second = s2 + m * m
    sigma = math.sqrt(s2)
    reach = m + 3.0 * sigma
    abs_reach = abs(reach)
    scale0 = 1.0 + abs(a0)
    rho = 1e-12 / epsilon
    gap = 1e-9 / epsilon
    least_v = _exact_minimizer(epsilon)
    scored = {}

    def slack(alpha):
        value = scored.get(alpha)
        if value is None:
            a2 = cost * alpha * alpha
            a1 = s * alpha
            t0 = a2 * second + a1 * m + a0
            d0 = s2 * (a2 * a0 - 0.25 * a1 * a1)
            scale = scale0 + abs(a1) * abs_reach + a2 * reach * reach
            value = scored[alpha] = -_beta_search(t0, d0, s2 * a2, epsilon, scale)[0]
        return value

    def bounds(alpha):
        a2 = cost * alpha * alpha
        a1 = s * alpha
        t0 = a2 * second + a1 * m + a0
        d0 = s2 * (a2 * a0 - 0.25 * a1 * a1)
        scale = scale0 + abs(a1) * abs_reach + a2 * reach * reach
        top = -least_v(t0, d0, s2 * a2, sigma * abs(a2 * m + 0.5 * a1))
        return (top - gap * scale if scale < 1e140 else -math.inf), top + rho * scale

    return slack, bounds


def subproblem_threshold(
    alpha, load, params: MinerParams, reward: RewardModel, epsilon, u_lo=None
) -> float:
    """Largest certifiable u_min at fixed alpha; each probe is decided by the
    exact minimum of v, and ``certify`` builds the witness on request.

    A step that fails where v's constants overflow float at its starting
    floor (``robust.threshold_floor``; from a total reward of about 1.5e153
    with the default miners, where d0 = s2 (a2 a0 - a1^2 / 4) does) says
    so: no probe there was decided, so "no feasible threshold" would be
    wrong.  The check runs once, on failure.
    """
    margin = _threshold_certifier(alpha, load, params, reward, epsilon)
    try:
        return bisect_threshold(margin, params, reward, u_lo)
    except SolverError:
        floor = threshold_floor(params, reward, u_lo)
        _, _, _, t0, d0, k, _ = _threshold_terms(alpha, floor, load, params, reward)
        if not (math.isfinite(t0) and math.isfinite(d0) and math.isfinite(k)):
            raise SolverError(
                f"the worst-case CVaR certificate overflows float at total reward {reward.total:g}"
            ) from None
        raise


def subproblem_strategy(
    u_min, alpha_in, load, params: MinerParams, reward: RewardModel, tau0, epsilon
) -> tuple[float, float, bool]:
    """Strategy update at fixed u_min: (alpha, slack, feasible) maximizing the certified slack.

    The slack against the incoming trace-minimal certificate would peak at
    the incoming alpha by construction, so the slack maximized here is the
    negated worst-case CVaR, re-certified per alpha.
    """
    _check_strategy(alpha_in, params.cost, load)
    slack, bounds = _strategy_slack(u_min, load, params, reward, epsilon)
    return scan_strategy(slack, alpha_in, tau0, bounds)


def robust_best_response(j: int, profile, config: GameConfig, warm_start=None) -> BestResponse:
    """Alternating optimization for miner j's robust (alpha, u_min).

    ``warm_start`` may carry an (alpha, u_min) pair from a previous solve.
    ``certify`` at the result's (alpha, u_min) builds the witness of its u_min.
    """
    return alternate(j, profile, config, subproblem_threshold, subproblem_strategy, warm_start)
