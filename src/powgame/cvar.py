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
``validate`` read) and the resource's mean mu_bar and variance sigma2 as two
floats, computes the three constants and minimizes v over beta
(``_beta_search``, a bracketed golden section).  The two
alternating-optimization steps evaluate v from constants computed once per
step instead, because a solve evaluates it hundreds of thousands of times:

- ``_threshold_certifier`` gives the threshold step ``margin(u)``, the
  negated exact minimum of v, whose sign decides each threshold probe; a
  step at the inputs of the alternation's last one takes that step's
  closure from its ``robust.ThresholdRecord`` instead of building one.
  The exact minimum is ``_exact_minimizer``'s kernel: the least v over two
  or three candidate betas, unrolled, with v written out inline, so a
  caller that needs only the value builds no tuple and makes one call.
  The solver builds no witness; ``certify`` builds the (beta, M) witness
  of a returned threshold on request, at the kernel's argmin beta, in
  closed form from the eigenvector of ``Q(beta) Omega``
  (``_trace_minimal_witness``); ``CvarCertificate.slacks`` checks it on
  ``math`` alone, sharing no formula with either, so of the CLI's verbs
  only ``validate`` loads an array library.  A threshold step that fails
  where v's constants overflow float reports the overflow, not
  infeasibility.
- ``_strategy_slack`` gives the strategy step ``slack(alpha)``, the negated
  worst-case CVaR by the same ``_beta_search`` as ``worstcase_cvar``,
  cheap ``bounds(alpha) = (floor, ceiling)`` around it from the kernel's
  exact minimum, and an ``error`` within which the ceilings are concave in
  alpha.  Its docstring proves both: the exact slack is concave, and the
  kernel's and the search's float errors have explicit bounds
  (``_widths``), so the floor and the ceiling hold for every step in the
  range it states; it also says why the exact minimum is not the slack
  itself.  The scan (``_search.scan_golden_max``) climbs the ceilings from
  the incoming alpha, computes ``slack`` only where a decision reads its
  value, by the rule stated there, and returns what it would return with
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

from ._search import _INV_PHI
from .model import (
    GameConfig, LossCoefficients, MinerParams, RewardModel, SolverError, _check_epsilon, _check_strategy
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
    """Feasibility witness (beta, M) for a robust threshold u_min: valid when M
    and M - Q(alpha, u_min, beta) are PSD and beta + Tr(Omega M)/epsilon <= 0."""

    beta: float
    m11: float
    m12: float
    m22: float
    u_min: float

    def slacks(self, coeffs: LossCoefficients, mu_bar, sigma2, epsilon):
        """(least eigenvalue of M, of M - Q, trace slack); all >= 0 when valid.

        Q = [[a2, a1 / 2], [a1 / 2, a0 - beta]] is the loss's block that M must
        dominate; its corner entry is u_min * load - beta.  The resource's
        second-moment matrix is Omega = [[sigma2 + mu_bar^2, mu_bar], [mu_bar, 1]].
        """
        m11, m12, m22 = self.m11, self.m12, self.m22
        m_q = m11 - coeffs.a2, m12 - 0.5 * coeffs.a1, m22 - (coeffs.a0 - self.beta)
        trace = -(self.beta + ((sigma2 + mu_bar * mu_bar) * m11 + 2.0 * mu_bar * m12 + m22) / epsilon)
        return _least_eigenvalue(m11, m12, m22), _least_eigenvalue(*m_q), trace


def _least_eigenvalue(a, b, c):
    """The least eigenvalue of [[a, b], [b, c]] by LAPACK dlaev2's rule: rt1, the
    one of larger magnitude, is the half trace +- the radius; the other,
    (acmx / rt1) acmn - (b / rt1) b with acmx and acmn the diagonal entries of
    larger and smaller magnitude, neither cancels at rank one nor overflows early."""
    half, radius = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    if half < 0.0:
        return half - radius
    rt1 = half + radius
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    return (acmx / rt1) * acmn - (b / rt1) * b if rt1 else 0.0  # the zero matrix gives 0


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

    Starting from [-scale, scale], each end whose v is below v at the
    midpoint grows (at most 80 times); golden section then narrows it to
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
        grow_lo, grow_hi = f_lo < f_mid, f_hi < f_mid
        if not (grow_lo or grow_hi):  # a tie brackets a convex minimum, and a NaN stops growth
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


def worstcase_cvar(coeffs: LossCoefficients, mu_bar, sigma2, epsilon) -> tuple[float, float]:
    """Exact worst-case CVaR of the loss over the laws with mean mu_bar and
    variance sigma2: (value, beta)."""
    _check_epsilon(epsilon)
    a2, a1, a0 = coeffs.a2, coeffs.a1, coeffs.a0
    t0 = a2 * (sigma2 + mu_bar * mu_bar) + a1 * mu_bar + a0
    d0 = sigma2 * (a2 * a0 - 0.25 * a1 * a1)
    reach = mu_bar + 3.0 * math.sqrt(sigma2)
    scale = 1.0 + abs(a0) + abs(a1) * abs(reach) + a2 * reach * reach
    return _beta_search(t0, d0, sigma2 * a2, epsilon, scale)


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
    """The trace-minimal (beta, M) witness of u_min at alpha, at v's exact
    argmin; u_min must be finite."""
    _check_strategy(alpha, params.cost, load)
    _check_epsilon(epsilon)
    if not math.isfinite(u_min):
        raise ValueError(f"u_min must be a finite number, got {u_min}")
    a2, a1, a0, t0, d0, k, spread = _threshold_terms(alpha, u_min, load, params, reward)
    beta = _exact_minimizer(epsilon)(t0, d0, k, spread, argmin=True)
    return _trace_minimal_witness(beta, u_min, a2, a1, a0, params.nominal, params.sigma2)


def _widths(epsilon, spread_ratio):
    """``(rho, gap, e_v, g)`` per unit of scale: the ceiling's and the
    floor's widths of ``_strategy_slack``'s bounds, and the bounds E_v and
    G they rest on, for a step with S <= ``spread_ratio`` * scale at every
    alpha.  The docstring of ``_strategy_slack`` proves them; gap and G are
    inf where it bounds no search (eps within 2^-43 of 1/2, or eps or
    1 - eps below 2^-40)."""
    mu = min(epsilon, 1.0 - epsilon)
    r = spread_ratio / mu
    e_v = 2.0 ** -53 * (193.0 + 257.0 * r) / epsilon
    rho = 2.0 ** -53 * (410.0 + 530.0 * r) / epsilon
    half = abs(1.0 - 2.0 * epsilon)
    if not (half >= 2.0 ** -43 and mu >= 2.0 ** -40):
        return rho, math.inf, e_v, math.inf
    width = max(18.0, 91.0 * r, 217.0 * spread_ratio / half) + 1.0  # of the grown bracket
    g = (2.0 ** -53 * (1200.0 + 1984.0 * r + 512.0 * r * r)
         + 5.01e-14 * (1.0 + width) * max(epsilon, 1.0 - epsilon)) / epsilon
    return rho, e_v + g + 2.0 ** -53 * 3.0 / epsilon, e_v, g


def _strategy_slack(u_min, load, params: MinerParams, reward: RewardModel, epsilon):
    """``(slack(alpha), bounds(alpha), error)`` at fixed u_min; only the
    alpha terms vary.

    ``slack`` is the negated ``worstcase_cvar``, one beta search a call; the
    scan reads it only where a decision needs its value, and may read an
    alpha twice in a step (the incoming alpha, once as its own score and
    once as a scan point).  ``bounds`` is
    ``(floor, ceiling)`` = -least_v + (-gap, rho) * scale, from the exact
    minimum's kernel at about a fifteenth of the cost of a search, with
    ``floor <= slack <= ceiling``.  ``error`` is the climb hint of
    ``_search.scan_golden_max``: the ceilings lie within it of a concave
    function, with room for the floor-to-ceiling width.  The widths rho and
    gap come from ``_widths``; the proof follows.

    The slack stays the search's v, not the cheaper exact minimum: taking
    the minimum moves an equilibrium threshold of one benchmark game by 5e-4
    (the solver fixes u_min only to its 1e-6 alpha tolerance times
    du/dalpha), more than the benchmark's recorded reference outputs allow,
    so that switch waits for a re-recorded reference.

    **Notation.**  u = 2^-53.  At a real alpha in [0, 1], a2 = cost alpha^2,
    a1 = s alpha and a0 = u_min load, with s and a0 the step's floats; t0,
    d0 and k are v's exact constants (see ``_v``), S = sigma |a2 mu_bar +
    a1 / 2| (the kernel's ``spread``), v is exact, and e(alpha) = -min v is
    the exact slack.  sc = 1 + |a0| + |a1| R + a2 R^2 is ``scale``, with
    R = mu_bar + 3 sigma.  |t0| + k <= sc and k <= a2 R^2 / 9; q = sigma
    max(mu_bar / R^2, 1 / (2 R)) <= 1/6 gives S <= q sc.  mu = min(eps,
    1 - eps), r = q / mu, and L = max(1, 1/eps - 1) bounds |v'|.  Factors
    1 + O(u) between floats and these values fit in the constants' margins.

    **(F1) v lies in a band above a V.**  With y = (t0 - beta) / 2 - k and
    d0 = k t0 - k^2 - S^2, the argument of Tr+ has eigenvalues lam = k + y
    +- sqrt(y^2 + S^2).  So Tr+ >= max(trace, lam_max) >= max(t0 - beta,
    k), and Tr+ <= max(t0 - beta, k) + S: h <= v <= h + S / eps, where
    h(beta) = beta + max(t0 - beta, k) / eps is a V with vertex p0 = t0 - k
    (|p0| <= sc) and slopes 1 - 1/eps and 1.  Hence min v is reached at
    beta* in [p0 - S / (1 - eps), p0 + S / eps], and v <= min v + x only
    on [p0 - (S + eps x) / (1 - eps), p0 + S / eps + x].  Every point
    where the proof evaluates v, but for the ends of a growing beta
    bracket, lies within (2 + 4 r) sc of 0.

    **(F2) A float v errs by at most delta(beta) = 2^-47 (sc + |beta|) /
    eps.**  The computed trace t and determinant d err by at most u (8.1 sc
    + |beta|) and D = u (k B + 10.02 S^2 + 1.001 |d|), B = 10.02 (|a0| +
    a2 mu_bar^2) + 4.01 |beta|, since s2 a1^2 / 4 <= 2 S^2 + 2 k a2
    mu_bar^2.  Tr+ is 1-Lipschitz in t, and d moves it only on d < 0, by
    the integral of 1 / (2 sqrt(t^2 / 4 - d')), with t^2 / 4 - d = y^2 +
    S^2 = rr^2 at the exact d: at most D / (sqrt(2) rr) where rr^2 >= 2D,
    and at most sqrt(D) otherwise.  The path has d' < 0 only if d < D; then
    k <= 4 rr in the first case and sqrt(D) <= 3.67 u B in the second.
    With the rounding of Tr+'s own formula, Tr+ errs by at most
    u (53 sc + 21.4 |beta|); dividing by eps and adding beta gives delta.

    **(a) e is concave.**  min v is the worst-case CVaR, the supremum over
    the distributions with the given mean and variance of their CVaR of the
    loss (Zymler, Kuhn & Rustem 2013).  The loss a2 x^2 + a1 x + a0 is
    convex in alpha at every x, and CVaR is convex and monotone in the loss
    (Rockafellar & Uryasev 2000), so each CVaR, and their supremum, is
    convex in alpha.

    **(b) |least_v - min v| <= E_v = 2^-53 (193 + 257 r) sc / eps.**
    Above: the candidate of beta*'s kind (t0, the stationary point or d0 /
    k, see ``_exact_minimizer``) lies within u (21.2 + 11.1 r) sc of beta*,
    where v exceeds min v by at most L times that, and (F2) adds delta.
    Below: each candidate's float v is at least min v - delta at it; t0
    and the stationary point lie within (1.23 + r) sc, and d0 / k either
    within (2 + 3.01 r) sc, or farther, where (F1) puts v - min v above
    delta.

    **(c) The search's excess over min v is at most G** (``_widths``; on
    the benchmark's solve-cvar games G is 1.3e-12 to 8.3e-12 times sc /
    eps).

    - Growth.  ``_beta_search`` grows an end of [-sc, sc] whose v is below
      v at its midpoint.  By (F1) each comparison is one of h, up to S / eps +
      2 delta.  With the vertex at the fraction p of the bracket, once the
      width exceeds 2 S / mu, a left end grows only if p <= eps / 2 + gam
      and a right one only if p >= (1 + eps) / 2 - gam, with gam = (S +
      delta eps) / width; a left growth maps p to (p + 2) / 3 and a right
      one to p / 3, so a third growth in a row needs |1 - 2 eps| <= 4 gam.
      delta at the bracket's points is at most 2^-47 (2 sc + width) / eps,
      so gam shrinks threefold with each growth, down to 2^-46, which the
      2^-43 kept between eps and 1/2 leaves room for.  Each growth
      triples the width (it quintuples only below 2 S / mu), so the search
      stops within a width of W sc, W = max(18, 91 r, 217 q / |1 - 2 eps|)
      + 1.  At eps = 1/2 this bounds no run of growths, so gap is inf
      near it.  (Growth on ties, which bracket the minimum already, would
      take the V of ``_beta_search(-1.0, 0.0, 0.0, 0.5, 2.0)``, least at
      beta = -1, to the cap of 80.)
    - A grown bracket that misses beta* ends within S / mu of it, while the
      midpoint that the end did not beat lies sc or more inside; by
      convexity v at the end exceeds min v by at most 2 delta r.
    - Golden section.  The winners of its comparisons have non-increasing
      float values.  The first comparison that drops the bracket's least
      point z does so between probes x1 < x2 on one side of it, whose v
      differ by at most Delta = delta(x1) + delta(x2); by convexity v(x2) -
      v(z) <= Delta (hi - x2) / (x2 - x1) = phi Delta.  So the last winner
      x_w has v(x_w) <= v(z) + phi Delta + delta(x2) + delta(x_w), and the
      search returns v within tol / 2 of x_w, tol = 1e-13 (1 + W sc).
      G sums these terms, with L tol / 2 for the last.

    **The widths.**  rho sc covers E_v above plus the search's own rounding
    below: ``ceiling >= slack``.  gap sc covers E_v below plus G: ``floor <=
    slack``.  rho is at most 1e-12 / eps wherever r <= 16, so for every eps
    in [0.0104, 0.9896]; on the benchmark's solve-cvar games gap is 1.3e-12
    to 8.4e-12 over eps.

    **(d) The climb.**  Every ceiling lies within E_c = E_v + rho sc(1) of
    e, and a point's floor and ceiling lie at most W' = (gap + rho) sc(1)
    apart, where sc(1) is the scale at alpha = 1 (scale grows with alpha).
    ``error`` = 3 (gap + rho) sc(1) is at least E_c + W' / 2, with room for
    the scan's rounding.  If a climbing end's ceiling falls more than
    2 error below the best ceiling C_k, e there lies below e(k) - W', so by
    (a) e, and every ceiling with it, stays below C_k - W' beyond that end,
    while slack(k) >= floor(k) >= C_k - W'.  So no point past the end is the
    grid's first maximum.

    **Range.**  All this needs scale(1) < 1e140 eps and sigma^2 < 1e270, so
    that no value of a search overflows and no underflowing product (off by
    at most 2^-1075) matters.  Outside that range the step passes no hints
    and the scan scores every point; no threshold certifies at such a
    variance, so the solver stops at its threshold step first.
    """
    _check_epsilon(epsilon)
    m, s2 = params.nominal, params.sigma2
    cost = params.cost
    s = u_min + (-reward.total + cost * load)
    a0 = u_min * load
    second = s2 + m * m
    sigma = math.sqrt(s2)
    reach = m + 3.0 * sigma
    scale0 = 1.0 + abs(a0)
    least_v = _exact_minimizer(epsilon)

    def slack(alpha):
        a2 = cost * alpha * alpha
        a1 = s * alpha
        t0 = a2 * second + a1 * m + a0
        d0 = s2 * (a2 * a0 - 0.25 * a1 * a1)
        scale = scale0 + abs(a1) * reach + a2 * reach * reach
        return -_beta_search(t0, d0, s2 * a2, epsilon, scale)[0]

    scale_1 = scale0 + abs(s) * reach + cost * reach * reach
    if not (scale_1 < 1e140 * epsilon and s2 < 1e270):
        return slack, None, None
    rho, gap, _, _ = _widths(epsilon, sigma * max(m / (reach * reach), 0.5 / reach))

    def bounds(alpha):
        a2 = cost * alpha * alpha
        a1 = s * alpha
        t0 = a2 * second + a1 * m + a0
        d0 = s2 * (a2 * a0 - 0.25 * a1 * a1)
        scale = scale0 + abs(a1) * reach + a2 * reach * reach
        top = -least_v(t0, d0, s2 * a2, sigma * abs(a2 * m + 0.5 * a1))
        return top - gap * scale, top + rho * scale

    return slack, bounds, 3.0 * (gap + rho) * scale_1


def subproblem_threshold(
    alpha, load, params: MinerParams, reward: RewardModel, epsilon, u_lo=None, record=None
) -> float:
    """Largest certifiable u_min at fixed alpha; each probe is decided by the
    exact minimum of v, and ``certify`` builds the witness on request.
    ``record``, a ``robust.ThresholdRecord``, resumes a step at the inputs
    of the last one that used it (``robust.bisect_threshold``).

    A step that fails where v's constants overflow float at its starting
    floor (``robust.threshold_floor``; from a total reward of about 1.5e153
    with the default miners, where d0 = s2 (a2 a0 - a1^2 / 4) does) says
    so, naming its inputs: no probe there was decided, so "no feasible
    threshold" would be wrong.  The check runs once, on failure.
    """
    key = (alpha, load, params, reward, epsilon)
    margin = _threshold_certifier(*key) if record is None else record.margin_for(_threshold_certifier, key)
    try:
        return bisect_threshold(margin, params, reward, u_lo, record)
    except SolverError:
        floor = threshold_floor(params, reward, u_lo)
        _, _, _, t0, d0, k, _ = _threshold_terms(alpha, floor, load, params, reward)
        if not (math.isfinite(t0) and math.isfinite(d0) and math.isfinite(k)):
            raise SolverError(
                f"the worst-case CVaR certificate overflows float at total reward {reward.total:g}, "
                f"cost {params.cost:g}, nominal resource {params.nominal:g} and variance {params.sigma2:g}"
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
    slack, bounds, error = _strategy_slack(u_min, load, params, reward, epsilon)
    return scan_strategy(slack, alpha_in, tau0, bounds, error)


def robust_best_response(j: int, profile, config: GameConfig, warm_start=None) -> BestResponse:
    """Alternating optimization for miner j's robust (alpha, u_min).

    ``warm_start`` may carry an (alpha, u_min) pair from a previous solve.
    ``certify`` at the result's (alpha, u_min) builds the witness of its u_min.
    """
    return alternate(j, profile, config, subproblem_threshold, subproblem_strategy, warm_start)
