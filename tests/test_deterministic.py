"""Tests for the deterministic game: best response and equilibrium solvers."""

import numpy as np
import pytest

from powgame import (
    SolverError,
    best_response,
    best_response_fixed_point,
    closed_form_equilibrium,
    utility,
)
from powgame import deterministic
from powgame.deterministic import best_response_interior

from conftest import (
    grid_best_response,
    make_config,
    profile_utility,
    random_interior_config,
)


def test_best_response_hand_values():
    # rivals at alpha=0.5, resources 30 each: zeta = sqrt(8000*60/60) ~ 89.443
    config = make_config(n=5, x_hat=30.0, sigma=0.0)
    alpha = best_response(0, [0.5] * 5, config)
    assert alpha == pytest.approx((np.sqrt(8000.0 * 60.0 / 60.0) - 60.0) / 30.0, abs=1e-9)
    assert alpha == pytest.approx(0.98142, abs=1e-4)
    # reference instance: interior value ~0.2018 sits below the floor -> 0.5
    config = make_config(n=5, x_hat=55.0, sigma=0.0)
    assert best_response(0, [0.5] * 5, config) == 0.5


def test_best_response_matches_grid_oracle():
    rng = np.random.default_rng(10)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        config = make_config(
            n=n,
            x_hat=rng.uniform(25.0, 70.0, size=n),
            sigma=0.0,
            cost=rng.uniform(30.0, 90.0, size=n),
            tau0=float(rng.uniform(0.05, 0.5)),
        )
        profile = rng.uniform(config.tau0, 1.0, size=n)
        j = int(rng.integers(0, n))
        ours = best_response(j, profile, config)
        oracle = grid_best_response(j, profile, config)
        assert ours == pytest.approx(oracle, abs=1e-5)


def test_best_response_degenerate_load():
    with pytest.raises(SolverError):
        best_response_interior(0.0, 50.0, 60.0, 8000.0)


def test_standard_function_positivity_and_scalability():
    rng = np.random.default_rng(11)
    config = make_config(n=4, sigma=0.0, tau0=0.1)
    for _ in range(50):
        profile = rng.uniform(0.1, 1.0, size=4)
        assert best_response(0, profile, config) > 0.0
    # scalability of the interior map: lam * F(load) > F(lam * load) for lam > 1
    for _ in range(100):
        load = float(rng.uniform(20.0, 200.0))
        x_j = float(rng.uniform(25.0, 70.0))
        cost = float(rng.uniform(30.0, 90.0))
        lam = float(rng.uniform(1.01, 3.0))
        lhs = lam * best_response_interior(load, x_j, cost, 8000.0)
        rhs = best_response_interior(lam * load, x_j, cost, 8000.0)
        assert lhs > rhs


def test_closed_form_boundary_case():
    # S = 4*8000/300 ~ 106.67, interior alpha ~0.388 < tau0 -> all clipped to 0.5
    config = make_config(n=5, x_hat=55.0, sigma=0.0)
    eq = closed_form_equilibrium(config)
    assert np.allclose(np.asarray(eq.alphas), 0.5, atol=1e-9)
    assert eq.interior_flags == (False,) * 5
    assert eq.utilities == pytest.approx((-50.0,) * 5)


def test_closed_form_symmetric_pair():
    config = make_config(n=2, x_hat=40.0, sigma=0.0, cost=50.0, tau0=0.1)
    eq = closed_form_equilibrium(config)
    assert eq.alphas[0] == pytest.approx(eq.alphas[1], abs=1e-12)


def test_closed_form_matches_iteration_on_interior_instances(monkeypatch):
    monkeypatch.setattr(deterministic, "FIXED_POINT_TOL", 1e-13)
    rng = np.random.default_rng(12)
    for _ in range(10):
        config = random_interior_config(rng)
        eq = closed_form_equilibrium(config)
        assert all(eq.interior_flags)
        iterated = best_response_fixed_point(config)
        assert np.allclose(np.asarray(eq.alphas), iterated, atol=1e-8)
        # interior coordinates are stationary: clipped-vs-unclipped agree
        for j in range(config.n_miners):
            assert best_response(j, np.asarray(eq.alphas), config) == pytest.approx(
                eq.alphas[j], abs=1e-8
            )


def test_equilibrium_deviation_proof():
    rng = np.random.default_rng(13)
    for _ in range(5):
        config = random_interior_config(rng)
        eq = closed_form_equilibrium(config)
        base = np.asarray(eq.alphas)
        for j in range(config.n_miners):
            u_star = eq.utilities[j]
            grid = np.linspace(config.tau0, 1.0, 1000)
            best = max(profile_utility(j, a, base, config) for a in grid)
            assert best <= u_star + 1e-6


def test_fixed_point_unique_from_random_starts():
    rng = np.random.default_rng(14)
    config = random_interior_config(rng)
    targets = []
    for _ in range(10):
        start = rng.uniform(config.tau0, 1.0, size=config.n_miners)
        targets.append(best_response_fixed_point(config, initial=start))
    for t in targets[1:]:
        assert np.allclose(t, targets[0], atol=1e-6)


def test_closed_form_falls_back_when_clipped():
    # heterogeneous instance whose stationary profile exits the box
    config = make_config(
        n=4, x_hat=[20.0, 30.0, 80.0, 90.0], sigma=0.0, cost=[30.0, 40.0, 80.0, 90.0], tau0=0.4
    )
    eq = closed_form_equilibrium(config)
    assert not all(eq.interior_flags)
    a = np.asarray(eq.alphas)
    assert np.all(a >= config.tau0 - 1e-12) and np.all(a <= 1.0 + 1e-12)
    # still a fixed point of the clipped best-response map
    for j in range(config.n_miners):
        assert best_response(j, a, config) == pytest.approx(a[j], abs=1e-7)
    x = config.nominal_resources()
    for j in range(config.n_miners):
        assert eq.utilities[j] == pytest.approx(
            utility(j, a, x, config.reward, config.miners[j].cost)
        )
