"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
best responses are verified against dense grid searches over the raw utility,
robust best responses against an exhaustive outer search over alpha with
threshold bisection at every point, the worst-case CVaR against a log-barrier
solver of its conic program, and derivatives against finite differences.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from powgame import GameConfig, LossCoefficients, MinerParams, MomentMatrix, RewardModel, utility
from powgame._search import golden_max


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


def grid_best_response(j, profile, config, points=1_000_001):
    """Brute-force utility maximizer for miner j over [tau0, 1]."""
    x = config.nominal_resources()
    a = np.asarray(profile, dtype=float)
    alphas = np.linspace(config.tau0, 1.0, points)
    load = float(np.dot(a, x) - a[j] * x[j])
    own = alphas * x[j]
    utils = config.reward.total * own / (own + load) - config.miners[j].cost * own
    return float(alphas[int(np.argmax(utils))])


def outer_best_response_oracle(threshold_fn, tau0, grid_step=1e-3, refine_tol=1e-6):
    """Exhaustive 1-D search over alpha of a threshold solver.

    Scans [tau0, 1] densely, refines around the best cell by golden section,
    and returns the max over all candidates (grid best, refined point, box
    edges), so corner optima are reported exactly.
    """
    grid = np.arange(tau0, 1.0 + 0.5 * grid_step, grid_step)
    grid[-1] = min(grid[-1], 1.0)
    values = [threshold_fn(float(a)) for a in grid]
    k = int(np.argmax(values))
    lo = max(tau0, float(grid[k]) - grid_step)
    hi = min(1.0, float(grid[k]) + grid_step)
    alpha, value = golden_max(threshold_fn, lo, hi, tol=refine_tol)
    candidates = [(value, alpha), (values[k], float(grid[k]))]
    for edge in (tau0, 1.0):
        candidates.append((threshold_fn(edge), edge))
    value, alpha = max(candidates, key=lambda t: t[0])
    return alpha, value


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
