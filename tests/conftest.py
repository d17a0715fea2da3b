"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
best responses are verified against dense grid searches over the raw utility,
robust best responses against an exhaustive outer search over alpha with
threshold bisection at every point, the worst-case CVaR against a log-barrier
solver of its conic program, and derivatives against finite differences.
The alternation keeps no record of its thresholds, and the solver counts
none of its work: the ``work`` fixture installs ``ledger.Ledger``, the one
place in the suite that counts, where a test reads the thresholds, in order,
and the counts; ``test_work.py`` pins the counts of fixed public calls.
``closed_form_equilibrium`` solves the deterministic game without iterating
when its stationary profile lies in the box, and cross-checks the iteration.
The hash-power share and the analytic first and second derivatives of the
utility (``hash_power``, ``utility_gradient``, ``utility_second_derivative``)
live here too: the solver uses closed forms and never evaluates them.

The strategy scan with every point evaluated exactly (``grid_scan_max``,
with its grid ``scan_grid`` and its ``golden_max``) is kept here as the oracle that
``_search.scan_golden_max`` must match float for float, whatever hint it is
given; ``reference_scan_strategy`` wraps it in the incoming-alpha rule as the
oracle of a whole strategy step, which never skips its scan, and the threshold bisection with every probe evaluated
(``plain_bisect_threshold``) as the oracle of ``robust.bisect_threshold``,
which brackets the root first.  The
reference compositions the solver replays from per-step constants also live
here, since only tests compare against them: ``CvarEvaluator`` (v as a
function of beta, and its exact minimum over three candidate betas, which
the threshold step's decisions match bit for bit), the generic bracketed
golden section over it (``golden_min``, ``reference_worstcase_cvar``, which
``cvar.worstcase_cvar`` and the strategy step's slack match bit for bit),
the closed-form square root of the moment matrix (``sqrt_moment_matrix``)
and the eigendecomposition route to the trace-minimal CVaR certificate
(``eigh_certificate``).  Monte Carlo scoring draw by draw, over the whole
array at once (``full_array_utilities``, ``full_array_violation``), is the
oracle for the block kernel ``validate._utility_blocks`` and for
``empirical_violation``, which score a batch over its distinct values, in
blocks.  The two-point family at any p (``two_point_atoms``,
``two_point_batch``) extends the sampler's p = 1/2 law.  ``atom_search_violation`` searches two- and three-atom laws for the
supremum the closed form of ``validate.discrete_worstcase_violation`` prices,
and ``exact_gaussian_violation`` prices a miner's loss under the Gaussian law.
``BAD_STEP_INPUTS`` is the one table of inputs that both back-ends' threshold
steps, strategy steps and reference formulas must refuse.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from powgame import (
    CvarCertificate,
    GameConfig,
    LossCoefficients,
    MinerParams,
    MomentMatrix,
    RewardModel,
    utility,
)
from powgame._search import _INV_PHI
from powgame.equilibrium import EquilibriumResult, _deterministic_utilities, solve_equilibrium
from powgame.model import SolverError, _as_floats, _check_index, others_load
from powgame.robust import BISECT_TOL, U_FLOOR
from powgame.validate import (
    _DIST_CODE,
    HISTOGRAM_BINS,
    SampleBatch,
    ViolationReport,
    _loss_roots,
    _stream,
    binomial_slack,
)

from ledger import Ledger


BAD_STRATEGY = "need 0 < alpha <= 1, cost > 0 and positive rivals' load"
BAD_EPSILON = r"epsilon must be in \(0,1\)"
BAD_TAU0 = r"tau0 must be in \(0,1\)"
BAD_U_LO = "u_lo must be a finite number"
BAD_ALPHA_IN = "alpha_in must be at least tau0"
_PARAMS, _REWARD = MinerParams(x_hat=55.0, sigma2=100.0), RewardModel()
_MOMENTS = MomentMatrix.from_params(_PARAMS)


def _loss(alpha=0.5, cost=60.0):
    return LossCoefficients.from_strategy(alpha, 0.0, 110.0, cost, _REWARD.total)


# one table for both back-ends, which share the model's strategy and epsilon
# checks: id -> (call on a back-end's threshold step t, strategy step s and
# reference formula r, message of the ValueError it must raise)
BAD_STEP_INPUTS = {
    "threshold-alpha-0": (lambda t, s, r: t(0.0, 110.0, _PARAMS, _REWARD, 0.1), BAD_STRATEGY),
    "threshold-no-rival-load": (lambda t, s, r: t(0.5, 0.0, _PARAMS, _REWARD, 0.1), BAD_STRATEGY),
    "threshold-epsilon-1": (lambda t, s, r: t(0.5, 110.0, _PARAMS, _REWARD, 1.0), BAD_EPSILON),
    "threshold-alpha-nan": (lambda t, s, r: t(math.nan, 110.0, _PARAMS, _REWARD, 0.1), BAD_STRATEGY),
    "threshold-load-nan": (lambda t, s, r: t(0.5, math.nan, _PARAMS, _REWARD, 0.1), BAD_STRATEGY),
    "threshold-alpha-inf": (lambda t, s, r: t(math.inf, 110.0, _PARAMS, _REWARD, 0.1), BAD_STRATEGY),
    "threshold-alpha-1.5": (lambda t, s, r: t(1.5, 110.0, _PARAMS, _REWARD, 0.1), BAD_STRATEGY),
    "threshold-u_lo-nan": (lambda t, s, r: t(0.5, 110.0, _PARAMS, _REWARD, 0.1, u_lo=math.nan), BAD_U_LO),
    "threshold-u_lo-inf": (lambda t, s, r: t(0.5, 110.0, _PARAMS, _REWARD, 0.1, u_lo=math.inf), BAD_U_LO),
    "threshold-u_lo-neg-inf": (lambda t, s, r: t(0.5, 110.0, _PARAMS, _REWARD, 0.1, u_lo=-math.inf), BAD_U_LO),
    "strategy-no-rival-load": (lambda t, s, r: s(0.0, 0.5, 0.0, _PARAMS, _REWARD, 0.5, 0.1), BAD_STRATEGY),
    "strategy-epsilon-0": (lambda t, s, r: s(0.0, 0.5, 110.0, _PARAMS, _REWARD, 0.5, 0.0), BAD_EPSILON),
    "strategy-epsilon-1.5": (lambda t, s, r: s(0.0, 0.5, 110.0, _PARAMS, _REWARD, 0.5, 1.5), BAD_EPSILON),
    "strategy-alpha_in-nan": (lambda t, s, r: s(0.0, math.nan, 110.0, _PARAMS, _REWARD, 0.5, 0.1), BAD_STRATEGY),
    "strategy-alpha_in-inf": (lambda t, s, r: s(-100.0, math.inf, 110.0, _PARAMS, _REWARD, 0.5, 0.1), BAD_STRATEGY),
    "strategy-alpha_in-1.5": (lambda t, s, r: s(-100.0, 1.5, 110.0, _PARAMS, _REWARD, 0.5, 0.1), BAD_STRATEGY),
    "strategy-alpha_in-below-tau0": (lambda t, s, r: s(0.0, 0.05, 110.0, _PARAMS, _REWARD, 0.5, 0.1), BAD_ALPHA_IN),
    "strategy-tau0-0": (lambda t, s, r: s(0.0, 0.5, 110.0, _PARAMS, _REWARD, 0.0, 0.1), BAD_TAU0),
    "strategy-tau0-1": (lambda t, s, r: s(0.0, 0.5, 110.0, _PARAMS, _REWARD, 1.0, 0.1), BAD_TAU0),
    "strategy-tau0-1.5": (lambda t, s, r: s(0.0, 0.5, 110.0, _PARAMS, _REWARD, 1.5, 0.1), BAD_TAU0),
    "strategy-tau0-nan": (lambda t, s, r: s(0.0, 0.5, 110.0, _PARAMS, _REWARD, math.nan, 0.1), BAD_TAU0),
    "coefficients-alpha-0": (lambda t, s, r: r(_loss(alpha=0.0), _MOMENTS, 0.1), BAD_STRATEGY),
    "coefficients-alpha-inf": (lambda t, s, r: r(_loss(alpha=math.inf), _MOMENTS, 0.1), BAD_STRATEGY),
    "coefficients-alpha-1.5": (lambda t, s, r: r(_loss(alpha=1.5), _MOMENTS, 0.1), BAD_STRATEGY),
    "loss-cost-0": (lambda t, s, r: r(_loss(cost=0.0), _MOMENTS, 0.1), BAD_STRATEGY),
    "constraint-value-epsilon-nan": (lambda t, s, r: r(_loss(), _MOMENTS, math.nan), BAD_EPSILON),
}


def make_config(
    n=5,
    x_hat=55.0,
    mu=0.0,
    sigma=10.0,
    cost=60.0,
    tau0=0.5,
    epsilon=0.1,
    kappa=1e-6,
    x_min=10.0,
    x_max=100.0,
    max_iterations=100,
    reward=None,
):
    """Homogeneous config with the reference defaults; scalars may be sequences."""

    def seq(v):
        return list(v) if isinstance(v, (list, tuple, np.ndarray)) else [v] * n

    x_hats, mus, sigmas, costs = seq(x_hat), seq(mu), seq(sigma), seq(cost)
    miners = tuple(
        MinerParams(
            x_hat=x_hats[j],
            mu=mus[j],
            sigma2=sigmas[j] ** 2,
            cost=costs[j],
            x_min=min(x_min, x_hats[j]),
            x_max=max(x_max, x_hats[j]),
        )
        for j in range(n)
    )
    return GameConfig(
        miners=miners,
        reward=reward or RewardModel(),
        tau0=tau0,
        epsilon=epsilon,
        kappa=kappa,
        max_iterations=max_iterations,
    )


@pytest.fixture
def reference_config():
    """The homogeneous reference instance: 5 miners, x_hat 55, sigma 10."""
    return make_config()


@pytest.fixture
def work(monkeypatch):
    """A fresh ``ledger.Ledger``, installed on the solver for the test."""
    return Ledger().install(monkeypatch)


def closed_form_equilibrium(config: GameConfig) -> EquilibriumResult:
    """Nash equilibrium of the deterministic game.

    The interior stationary profile follows from summing the first-order
    conditions: with S = (J-1) R / sum_j c_j the total committed power,
    alpha_j = (S / x_j) (1 - c_j S / R).  When every coordinate lands in
    [tau0, 1] that profile is returned with its utilities, 0 iterations and
    an empty trace; otherwise the box binds somewhere, the closed form is
    invalid, and the result is ``solve_equilibrium(config, "deterministic")``,
    converged only as far as ``config.kappa`` and ``config.max_iterations``
    allow (read ``converged``).
    """
    x = config.nominal_resources()
    c = config.costs()
    total_reward = config.reward.total
    s = (config.n_miners - 1) * total_reward / c.sum()
    interior = (s / x) * (1.0 - c * s / total_reward)
    if not (np.all(interior >= config.tau0) and np.all(interior <= 1.0)):
        return solve_equilibrium(config, "deterministic")
    return EquilibriumResult(
        alphas=tuple(float(a) for a in interior),
        u_values=tuple(float(u) for u in _deterministic_utilities(interior, config)),
        iterations=0,
        converged=True,
        trace=(),
        mode="deterministic",
    )


def grid_best_response(j, profile, config, points=1_000_001):
    """Brute-force utility maximizer for miner j over [tau0, 1]."""
    x = config.nominal_resources()
    a = np.asarray(profile, dtype=float)
    alphas = np.linspace(config.tau0, 1.0, points)
    load = float(np.dot(a, x) - a[j] * x[j])
    own = alphas * x[j]
    utils = config.reward.total * own / (own + load) - config.miners[j].cost * own
    return float(alphas[int(np.argmax(utils))])


def golden_max(f, lo, hi, tol=1e-6):
    """Maximize a unimodal scalar function on [lo, hi] by golden-section search."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if not hi - lo > tol:
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    return x, f(x)


def grid_scan_max(f, lo, hi, step, tol=1e-6):
    """The strategy scan with every point evaluated: a dense grid, then
    ``golden_max`` around the best cell.

    ``_search.scan_golden_max`` must return exactly this, whatever hint it
    is given.
    """
    grid = scan_grid(lo, hi, step)
    vals = [f(a) for a in grid]
    k = int(np.argmax(vals))
    g_lo = max(lo, grid[k] - step)
    g_hi = min(hi, grid[k] + step)
    best_x, best_f = golden_max(f, g_lo, g_hi, tol)
    if vals[k] > best_f:
        best_x, best_f = grid[k], vals[k]
    return best_x, best_f


def reference_scan_strategy(slack, alpha_in, tau0):
    """A strategy step's result with every grid point scored: ``grid_scan_max``
    over [tau0, 1] at the step's resolution, then the incoming-alpha rule of
    ``robust.scan_strategy``, which takes no hint here, so no scan is skipped.
    """
    alpha, best = grid_scan_max(slack, tau0, 1.0, max((1.0 - tau0) / 40.0, 1e-4), 1e-6)
    incoming = slack(alpha_in)
    if best < incoming + 1e-6 * (1.0 + abs(incoming)):
        alpha, best = alpha_in, incoming
    if not best >= 0.0:
        return float(alpha_in), incoming, False
    return float(alpha), float(best), True


def scan_grid(lo, hi, step):
    """The points of the strategy scan's grid on [lo, hi], as floats."""
    grid = np.arange(lo, hi + 0.5 * step, step)
    grid[-1] = min(grid[-1], hi)
    return grid.tolist()


def plain_bisect_threshold(certify, params, reward, u_lo=None):
    """The threshold step with every bisection probe evaluated: the largest
    u_min with ``certify(u_min)`` True, to ``BISECT_TOL`` or to float
    resolution, whichever is coarser.

    ``robust.bisect_threshold`` evaluates only the probes next to the root
    and must return exactly this, and raise what this raises, given
    ``certify(u) = margin(u) >= 0.0``.
    """
    if params.sigma2 <= 0:
        raise ValueError("robust threshold needs positive variance")
    u_hi = reward.total
    if certify(u_hi):
        raise SolverError("threshold at the full reward certifies; inputs are malformed")
    if u_lo is None:
        u_lo = -reward.total - params.cost * params.x_max
    while not certify(u_lo):
        if not u_lo > U_FLOOR:  # NaN-safe: a NaN threshold must stop, not loop
            raise SolverError(f"no feasible threshold above {U_FLOOR}")
        u_lo = u_lo - 3.0 * abs(u_lo) - 1.0  # quadruple the reach downward
    while u_hi - u_lo > BISECT_TOL:
        mid = 0.5 * (u_lo + u_hi)
        if mid == u_lo or mid == u_hi:  # adjacent floats: nothing left to halve
            break
        if certify(mid):
            u_lo = mid
        else:
            u_hi = mid
    return u_lo


def outer_best_response_oracle(threshold_fn, tau0, grid_step=1e-3, refine_tol=1e-6):
    """Exhaustive 1-D search over alpha of a threshold solver.

    Scans [tau0, 1] densely, refines around the best cell by golden section,
    and returns the max over all candidates (grid best, refined point, box
    edges), so corner optima are reported exactly.
    """
    grid = scan_grid(tau0, 1.0, grid_step)
    values = [threshold_fn(a) for a in grid]
    k = int(np.argmax(values))
    lo = max(tau0, grid[k] - grid_step)
    hi = min(1.0, grid[k] + grid_step)
    alpha, value = golden_max(threshold_fn, lo, hi, tol=refine_tol)
    candidates = [(value, alpha), (values[k], grid[k])]
    for edge in (tau0, 1.0):
        candidates.append((threshold_fn(edge), edge))
    value, alpha = max(candidates, key=lambda t: t[0])
    return alpha, value


def hash_power(j, profile, resources):
    """Miner j's share of total committed power, alpha_j x_j / sum_k alpha_k x_k."""
    a, x = map(np.array, _as_floats(profile, resources))
    _check_index(j, len(a))
    committed = a * x
    return float(committed[j] / committed.sum())


def utility_gradient(j, profile, resources, reward, cost):
    """d utility / d alpha_j = x_j R sum_{l!=j} alpha_l x_l / S^2 - cost x_j."""
    a, x = map(np.array, _as_floats(profile, resources))
    _check_index(j, len(a))
    committed = a * x
    total = committed.sum()
    rest = total - committed[j]
    return float(x[j] * reward.total * rest / total**2 - cost * x[j])


def utility_second_derivative(j, profile, resources, reward):
    """d^2 utility / d alpha_j^2; strictly negative whenever rivals commit power."""
    a, x = map(np.array, _as_floats(profile, resources))
    _check_index(j, len(a))
    committed = a * x
    total = committed.sum()
    rest = total - committed[j]
    return float(-2.0 * x[j] ** 2 * reward.total * rest / total**3)


def finite_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_finite_difference(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def random_valid_instance(rng, n_range=(2, 8), tau0=None):
    """Random game with positive loads everywhere; not necessarily interior."""
    n = int(rng.integers(*n_range, endpoint=True))
    return make_config(
        n=n,
        x_hat=rng.uniform(30.0, 60.0, size=n),
        mu=rng.uniform(-2.0, 2.0, size=n),
        sigma=rng.uniform(2.0, 12.0, size=n),
        cost=rng.uniform(40.0, 80.0, size=n),
        tau0=tau0 if tau0 is not None else float(rng.uniform(0.05, 0.5)),
        epsilon=float(rng.choice([0.05, 0.1, 0.2])),
    )


def random_interior_config(rng, n_range=(2, 8), tau0=0.05, margin=0.02):
    """Rejection-sample a config whose stationary profile is strictly interior."""
    for _ in range(500):
        config = random_valid_instance(rng, n_range=n_range, tau0=tau0)
        x = config.nominal_resources()
        c = config.costs()
        total = config.reward.total
        s = (config.n_miners - 1) * total / c.sum()
        interior = (s / x) * (1.0 - c * s / total)
        if np.all(interior > tau0 + margin) and np.all(interior < 1.0 - margin):
            return config
    raise AssertionError("could not sample an interior instance")


def profile_utility(j, alpha_j, profile, config):
    a = np.array(profile, dtype=float)
    a[j] = alpha_j
    return utility(j, a, config.nominal_resources(), config.reward, config.miners[j].cost)


def barrier_worstcase_cvar(
    coeffs: LossCoefficients,
    moments: MomentMatrix,
    epsilon,
    newton_tol=1e-9,
    max_outer=50,
    reduction=0.2,
):
    """Worst-case CVaR via a damped-Newton log-barrier on the two 2x2 cones.

    Independent of the eigenvalue route (used to cross-check it):  minimizes
    beta + Tr(Omega M)/epsilon over (beta, M) subject to M and M - Q(beta)
    positive definite, with barrier -ln det M - ln det(M - Q) and barrier
    weight shrunk by ``reduction`` each outer stage.
    """
    omega = moments.matrix
    eps = epsilon
    cvec = np.array([1.0, omega[0, 0] / eps, 2.0 * omega[0, 1] / eps, omega[1, 1] / eps])
    q11, q12, a0 = coeffs.a2, 0.5 * coeffs.a1, coeffs.a0

    def blocks(z):
        beta, m11, m12, m22 = z
        return (m11, m12, m22), (m11 - q11, m12 - q12, m22 - a0 + beta)

    def domain_ok(z):
        (g11, g12, g22), (h11, h12, h22) = blocks(z)
        return (
            g11 > 0.0
            and g11 * g22 - g12 * g12 > 0.0
            and h11 > 0.0
            and h11 * h22 - h12 * h12 > 0.0
        )

    def merit(z, w):
        (g11, g12, g22), (h11, h12, h22) = blocks(z)
        return float(cvec @ z) - w * (
            math.log(g11 * g22 - g12 * g12) + math.log(h11 * h22 - h12 * h12)
        )

    def grad_hess(z, w):
        (g11, g12, g22), (h11, h12, h22) = blocks(z)
        det_g = g11 * g22 - g12 * g12
        det_h = h11 * h22 - h12 * h12
        gd_g = np.array([0.0, g22, -2.0 * g12, g11])
        gd_h = np.array([h11, h22, -2.0 * h12, h11])
        grad = cvec - w * (gd_g / det_g + gd_h / det_h)
        hess_g = np.zeros((4, 4))
        hess_g[1, 3] = hess_g[3, 1] = 1.0
        hess_g[2, 2] = -2.0
        hess_h = np.zeros((4, 4))
        hess_h[0, 1] = hess_h[1, 0] = 1.0
        hess_h[1, 3] = hess_h[3, 1] = 1.0
        hess_h[2, 2] = -2.0
        hess = w * (
            np.outer(gd_g, gd_g) / det_g**2
            - hess_g / det_g
            + np.outer(gd_h, gd_h) / det_h**2
            - hess_h / det_h
        )
        return grad, hess

    # strictly feasible start: beta = 0, M = Q(0) shifted into the PD cone
    q = np.array([[q11, q12], [q12, a0]])
    shift = max(0.0, -float(np.linalg.eigvalsh(q)[0])) + 1.0
    m0 = q + shift * np.eye(2)
    z = np.array([0.0, m0[0, 0], m0[0, 1], m0[1, 1]])
    w = 1.0 + abs(float(cvec @ z))
    for _ in range(max_outer):
        for _ in range(80):
            grad, hess = grad_hess(z, w)
            try:
                step = np.linalg.solve(hess + 1e-14 * np.eye(4), -grad)
            except np.linalg.LinAlgError:
                step = -grad
            decrement2 = float(-grad @ step)
            if decrement2 / 2.0 <= newton_tol:
                break
            t, base = 1.0, merit(z, w)
            slope = float(grad @ step)
            while t > 1e-13:
                z_new = z + t * step
                if domain_ok(z_new) and merit(z_new, w) <= base + 0.25 * t * slope:
                    break
                t *= 0.5
            z = z + t * step
        value = float(cvec @ z)
        if 4.0 * w <= 1e-10 * (1.0 + abs(value)):
            break
        w *= reduction
    return float(cvec @ z), z


def expand_bracket_min(f, lo, hi, max_expand=80):
    """Grow [lo, hi] until it contains a minimizer of a coercive convex f."""
    f_lo, f_hi = f(lo), f(hi)
    mid = 0.5 * (lo + hi)
    f_mid = f(mid)
    for _ in range(max_expand):
        if not (f_lo < f_mid or f_hi < f_mid):  # a tie with an end brackets a convex minimum
            break
        width = hi - lo
        if f_lo < f_mid:
            lo -= 2.0 * width
            f_lo = f(lo)
        if f_hi < f_mid:
            hi += 2.0 * width
            f_hi = f(hi)
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
    return lo, hi


def golden_min(f, lo, hi, tol=1e-6, max_iter=200):
    """Minimize a unimodal scalar function on [lo, hi] by golden-section search."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    it = 0
    while hi - lo > tol and it < max_iter:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        it += 1
    x = 0.5 * (lo + hi)
    return x, f(x)


class CvarEvaluator:
    """Worst-case CVaR of a fixed quadratic loss as a scalar function of beta.

    v(beta) = beta + Tr+(Om^{1/2} Q(beta) Om^{1/2}) / epsilon with
    Q(beta) = Q0 - beta E22.  The 2x2 argument has trace t0 - beta, where
    t0 = Tr(Om Q0) = E[L], and determinant det(Om) det(Q(beta)) = d0 - beta k,
    where d0 = s2 (a2 a0 - a1^2 / 4) and k = s2 a2.  Tr+ is max(trace, 0)
    when the determinant is >= 0 (both eigenvalues share a sign) and the
    larger eigenvalue otherwise, so v needs only these three scalars.
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

        v is convex and coercive, so its minimum is at a kink or where v' = 0:
        beta = t0, beta = d0 / k, or the stationary point of the branch with
        a negative determinant (see ``cvar._threshold_certifier``).
        """
        c, m, eps = self.coeffs, self.moments, self.epsilon
        root = math.sqrt(m.sigma2) * abs(c.a2 * m.mu_bar + 0.5 * c.a1)
        stationary = self.t0 - 2.0 * self.k + (1.0 - 2.0 * eps) / math.sqrt(eps * (1.0 - eps)) * root
        candidates = [self.t0, stationary] + ([self.d0 / self.k] if self.k > 0.0 else [])
        return min((self.value(beta), beta) for beta in candidates)


def sqrt_moment_matrix(moments: MomentMatrix) -> np.ndarray:
    """Omega^{1/2} in closed form: (A + sqrt(det) I) / sqrt(tr + 2 sqrt(det)) for 2x2 SPD A."""
    if moments.sigma2 <= 0:
        raise ValueError("moment matrix is singular at zero variance")
    s = math.sqrt(moments.sigma2)
    omega = moments.matrix
    return (omega + s * np.eye(2)) / math.sqrt(omega[0, 0] + 1.0 + 2.0 * s)


def reference_worstcase_cvar(coeffs: LossCoefficients, moments: MomentMatrix, epsilon):
    """(min value, argmin beta) of v by bracketed golden section, generically.

    The composition ``cvar.worstcase_cvar`` and the strategy step's slack
    replay probe for probe with v inlined, so their values must be equal.
    """
    evaluator = CvarEvaluator(coeffs, moments, epsilon)
    reach = moments.mu_bar + 3.0 * math.sqrt(moments.sigma2)
    scale = 1.0 + abs(coeffs.a0) + abs(coeffs.a1) * abs(reach) + coeffs.a2 * reach * reach
    lo, hi = expand_bracket_min(evaluator.value, -scale, scale)
    beta, val = golden_min(
        evaluator.value, lo, hi, tol=1e-13 * (1.0 + abs(lo) + abs(hi)), max_iter=300
    )
    return val, beta


def eigh_certificate(coeffs: LossCoefficients, moments: MomentMatrix, beta, u_min) -> CvarCertificate:
    """Trace-minimal M at this beta: clip the congruence-transformed Q."""
    c = coeffs
    r = sqrt_moment_matrix(moments)
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


def full_array_utilities(alphas, j, config: GameConfig, draws, clamp=False) -> np.ndarray:
    """Miner j's utility at every draw, each operation over the whole array."""
    params = config.miners[j]
    x_j = params.x_hat + np.asarray(draws, dtype=float)
    if clamp:
        x_j = np.clip(x_j, max(params.x_min, 1e-9), params.x_max)
    else:
        x_j = np.maximum(x_j, 1e-9)
    a = np.asarray(alphas, dtype=float)
    load = others_load(j, a, config.nominal_resources())
    own = a[j] * x_j
    return config.reward.total * own / (own + load) - params.cost * own


def full_array_violation(alphas, u_min, j, config: GameConfig, draws, clamp=False) -> ViolationReport:
    """Miner j's violation report scored draw by draw, one utility per draw."""
    utils = full_array_utilities(alphas, j, config, draws, clamp=clamp)
    n = len(utils)
    violations = int(np.sum(utils < u_min))
    rate = violations / n
    counts, edges = np.histogram(utils, bins=HISTOGRAM_BINS)
    return ViolationReport(
        n_samples=n,
        n_violations=violations,
        rate=rate,
        epsilon=config.epsilon,
        passed=rate <= config.epsilon + binomial_slack(config.epsilon, n),
        bin_edges=edges,
        counts=counts,
    )


def two_point_atoms(mu, sigma2, p):
    """Atoms (high, low) of the two-point distribution matching (mu, sigma2).

    High atom mu + s*sqrt((1-p)/p) with probability p, low atom
    mu - s*sqrt(p/(1-p)) with probability 1-p; moments match exactly.
    """
    if not 0 < p < 1:
        raise ValueError(f"two-point probability must be in (0,1), got {p}")
    s = math.sqrt(sigma2)
    return mu + s * math.sqrt((1 - p) / p), mu - s * math.sqrt(p / (1 - p))


def two_point_batch(mu, sigma2, n, p, seed, miner_index=0) -> SampleBatch:
    """Seeded two-point batch at any p, drawn from the sampler's stream.

    At p = 1/2 it is ``sample_uncertainty("two_point", ...)``; other p give
    the rest of the moment-matched two-point family.
    """
    hi, lo = two_point_atoms(mu, sigma2, p)
    n_high = np.count_nonzero(_stream(seed, miner_index, _DIST_CODE["two_point"]).random(n) < p)
    counts = np.array([n_high, n - n_high])
    values, counts = np.array([hi, lo])[counts > 0], counts[counts > 0]
    return SampleBatch(n, values, counts)


def atom_search_violation(m, sigma2, r1, r2):
    """The largest Pr[X outside (r1, r2)] found over discrete laws with mean m
    and variance sigma2, an atom on a root counting as outside (the limit of
    atoms just beyond it): every two-atom law with one atom on a grid point,
    and every three-atom law with atoms on both roots and a grid point, each
    law's weights solved from its moment equations.  The grid spans [r1, r2]
    in 100 steps, roots and midpoint included, and reaches beyond both roots.
    """
    lo, hi = r1 - m, r2 - m  # positions relative to the mean
    beyond = (hi - lo) * np.geomspace(1e-3, 1e3, 21)
    grid = np.concatenate([np.linspace(lo, hi, 101), lo - beyond, hi + beyond])

    def outside(x):
        return (x <= lo) | (x >= hi)

    g = grid[grid != 0.0]  # two atoms: g and the partner that fixes mean and variance
    h = -sigma2 / g
    w = h / (h - g)
    best = float(np.max(w * outside(g) + (1.0 - w) * outside(h)))
    y = grid[(grid != lo) & (grid != hi)]  # three atoms: both roots and y
    system = np.empty((len(y), 3, 3))
    system[:, :, 0] = [1.0, lo, lo * lo]
    system[:, :, 1] = np.stack([np.ones_like(y), y, y * y], axis=1)
    system[:, :, 2] = [1.0, hi, hi * hi]
    moments = np.broadcast_to([1.0, 0.0, sigma2], (len(y), 3))
    weights = np.linalg.solve(system, moments[..., None])[..., 0]
    valid = np.all(weights >= 0.0, axis=1)
    if np.any(valid):
        mass = weights[:, 0] + weights[:, 2] + weights[:, 1] * outside(y)
        best = max(best, float(np.max(mass[valid])))
    return best


def exact_gaussian_violation(coeffs: LossCoefficients, m, sigma2):
    """Pr[L(X) > 0] for X ~ N(m, sigma2): Phi(z1) + 1 - Phi(z2) at the roots' z-scores."""
    roots = _loss_roots(coeffs)
    if roots is None:
        return 1.0
    s = math.sqrt(2.0 * sigma2)
    return 0.5 * math.erfc((m - roots[0]) / s) + 0.5 * math.erfc((roots[1] - m) / s)
