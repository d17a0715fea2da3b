"""Tests for the deterministic game: best response and equilibrium solvers."""

import dataclasses

import numpy as np
import pytest

from powgame import (
    SolverError,
    best_response,
    closed_form_equilibrium,
    solve_equilibrium,
    utility,
)
from powgame.deterministic import best_response_interior

from conftest import (
    grid_best_response,
    make_config,
    profile_utility,
    random_interior_config,
)


def _interior_flags(config, alphas):
    """False where alpha_j sits on a box bound (at or clipped to tau0 or 1)."""
    return tuple(config.tau0 + 1e-9 < a < 1.0 - 1e-9 for a in alphas)


def _clipped_config():
    # heterogeneous instance whose stationary profile exits the box
    return make_config(
        n=4, x_hat=[20.0, 30.0, 80.0, 90.0], sigma=0.0, cost=[30.0, 40.0, 80.0, 90.0], tau0=0.4
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
    assert _interior_flags(config, eq.alphas) == (False,) * 5
    assert eq.u_values == pytest.approx((-50.0,) * 5)


def test_closed_form_symmetric_pair():
    config = make_config(n=2, x_hat=40.0, sigma=0.0, cost=50.0, tau0=0.1)
    eq = closed_form_equilibrium(config)
    assert eq.alphas[0] == pytest.approx(eq.alphas[1], abs=1e-12)


def test_closed_form_matches_iteration_on_interior_instances():
    rng = np.random.default_rng(12)
    for _ in range(10):
        config = random_interior_config(rng)
        eq = closed_form_equilibrium(config)
        assert all(_interior_flags(config, eq.alphas))
        iterated = solve_equilibrium(config, "deterministic")
        assert iterated.converged
        assert np.allclose(np.asarray(eq.alphas), iterated.alphas, atol=1e-8)
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
            u_star = eq.u_values[j]
            grid = np.linspace(config.tau0, 1.0, 1000)
            best = max(profile_utility(j, a, base, config) for a in grid)
            assert best <= u_star + 1e-6


def test_fixed_point_unique_from_random_starts():
    rng = np.random.default_rng(14)
    config = random_interior_config(rng)
    targets = []
    for start in rng.uniform(config.tau0, 1.0, size=10):
        result = solve_equilibrium(config, "deterministic", initial_alpha=float(start))
        assert result.converged
        targets.append(np.asarray(result.alphas))
    for t in targets[1:]:
        assert np.allclose(t, targets[0], atol=1e-6)


def test_closed_form_falls_back_when_clipped():
    config = _clipped_config()
    eq = closed_form_equilibrium(config)
    assert not all(_interior_flags(config, eq.alphas))
    a = np.asarray(eq.alphas)
    assert np.all(a >= config.tau0 - 1e-12) and np.all(a <= 1.0 + 1e-12)
    # still a fixed point of the clipped best-response map
    for j in range(config.n_miners):
        assert best_response(j, a, config) == pytest.approx(a[j], abs=1e-7)
    x = config.nominal_resources()
    for j in range(config.n_miners):
        assert eq.u_values[j] == pytest.approx(
            utility(j, a, x, config.reward, config.miners[j].cost)
        )


def test_closed_form_result_contract():
    # interior: the profile with its utilities, no sweep, no trace
    config = random_interior_config(np.random.default_rng(15))
    eq = closed_form_equilibrium(config)
    assert all(_interior_flags(config, eq.alphas))
    x = config.nominal_resources()
    assert eq.u_values == tuple(
        utility(j, eq.alphas, x, config.reward, config.miners[j].cost)
        for j in range(config.n_miners)
    )
    assert (eq.iterations, eq.trace, eq.converged, eq.u_mins) == (0, (), True, None)
    # the box binds: exactly the Gauss-Seidel solve the CLI runs, field by field
    config = _clipped_config()
    eq = closed_form_equilibrium(config)
    solved = solve_equilibrium(config, "deterministic")
    assert dataclasses.asdict(eq) == dataclasses.asdict(solved)
    assert len(eq.trace) == eq.iterations >= 1
