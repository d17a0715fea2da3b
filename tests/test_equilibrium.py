"""Tests for the Gauss-Seidel best-response iteration."""

import math

import numpy as np
import pytest

from powgame import MODES, robust_best_response, robust_best_response_gaussian, solve_equilibrium, subproblem_threshold

from conftest import grid_best_response, make_config


def test_unknown_mode_rejected(reference_config):
    with pytest.raises(ValueError):
        solve_equilibrium(reference_config, "quantum")


def test_deterministic_boundary_equilibrium(reference_config):
    result = solve_equilibrium(reference_config, "deterministic")
    assert result.converged
    assert result.iterations <= 10
    assert np.allclose(np.asarray(result.alphas), 0.5, atol=1e-9)
    assert result.u_mins is None
    # grid oracle confirms 0.5 is each miner's best response at the equilibrium
    for j in range(reference_config.n_miners):
        assert grid_best_response(j, np.asarray(result.alphas), reference_config) == pytest.approx(
            0.5, abs=1e-5
        )


def test_initial_alpha_below_floor_is_projected(reference_config):
    low = solve_equilibrium(reference_config, "deterministic", initial_alpha=0.35)
    at_floor = solve_equilibrium(reference_config, "deterministic", initial_alpha=0.5)
    assert low.trace == at_floor.trace
    assert low.alphas == at_floor.alphas


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("initial_alpha", [1, np.float64(0.7), math.inf])
def test_results_hold_built_in_floats_only(mode, initial_alpha):
    # no int and no numpy scalar reaches the CSV writer, even from numpy
    # numbers in the config or an integer start
    config = make_config(
        n=3, x_hat=np.array([40.0, 55.0, 70.0]), cost=np.array([50.0, 60.0, 70.0]), tau0=np.float64(0.3)
    )
    result = solve_equilibrium(config, mode, initial_alpha=initial_alpha)
    values = [*result.alphas, *result.u_values]
    for alphas, us in result.trace:
        values += [*alphas, *us]
    assert len(values) == 6 * (result.iterations + 1)
    assert {type(v) for v in values} == {float}


def test_robust_homogeneous_equilibria_are_symmetric(reference_config):
    for mode in ("gaussian_bti", "dro_cvar"):
        result = solve_equilibrium(reference_config, mode)
        assert result.converged
        a = np.asarray(result.alphas)
        assert float(np.ptp(a)) <= 1e-4
        assert float(np.ptp(result.u_mins)) <= 1e-2


def test_trace_has_one_entry_per_sweep(reference_config):
    result = solve_equilibrium(reference_config, "gaussian_bti")
    assert len(result.trace) == result.iterations
    alphas, u_values = result.trace[-1]
    assert alphas == result.alphas
    assert u_values == result.u_mins


def test_converged_means_stable_under_one_more_sweep():
    config = make_config(n=4, x_hat=[35.0, 45.0, 50.0, 60.0], tau0=0.3, sigma=8.0)
    result = solve_equilibrium(config, "gaussian_bti")
    assert result.converged
    # replay one more sweep with the solver's semantics (warm-started AO)
    a = np.asarray(result.alphas, dtype=float).copy()
    u = np.array(result.u_mins)
    change = 0.0
    for j in range(config.n_miners):
        response = robust_best_response_gaussian(j, a, config, warm_start=(a[j], u[j]))
        change += abs(response.alpha - a[j]) + abs(response.u_min - u[j])
        a[j], u[j] = response.alpha, response.u_min
    assert change <= config.kappa


def test_non_convergence_returns_flagged_result():
    config = make_config(
        n=4,
        x_hat=[30.0, 40.0, 50.0, 60.0],
        sigma=0.0,
        tau0=0.05,
        max_iterations=1,
        kappa=1e-12,
    )
    result = solve_equilibrium(config, "deterministic", initial_alpha=0.05)
    assert not result.converged
    assert result.iterations == 1
    assert len(result.trace) == 1


def test_post_convergence_no_profitable_deviation_robust():
    config = make_config(n=3, x_hat=[45.0, 50.0, 55.0], tau0=0.4)
    result = solve_equilibrium(config, "dro_cvar")
    assert result.converged
    a = np.asarray(result.alphas, dtype=float)
    x = config.nominal_resources()
    for j in range(config.n_miners):
        load = float(np.dot(a, x) - a[j] * x[j])
        best = result.u_mins[j]
        for alt in np.linspace(config.tau0, 1.0, 200):
            u_alt = subproblem_threshold(
                float(alt), load, config.miners[j], config.reward, config.epsilon
            )
            assert u_alt <= best + 1e-3


def test_homogeneous_converges_no_slower_than_heterogeneous():
    # reference setup: equal resources at 55 vs resources drawn from U(30, 60)
    rng = np.random.default_rng(40)
    hom = make_config(n=5, x_hat=55.0, sigma=10.0, tau0=0.5)
    hom_sweeps = solve_equilibrium(hom, "gaussian_bti").iterations
    for _ in range(20):
        x = rng.uniform(30.0, 60.0, size=5)
        het = make_config(n=5, x_hat=x, sigma=10.0, tau0=0.5)
        het_sweeps = solve_equilibrium(het, "gaussian_bti").iterations
        assert hom_sweeps <= het_sweeps


def test_ao_histories_monotone_along_equilibrium_path(reference_config, work):
    result = solve_equilibrium(reference_config, "dro_cvar")
    for alphas, _ in result.trace:
        for j in range(reference_config.n_miners):
            work.reset()
            robust_best_response(j, np.array(alphas), reference_config)
            hist = work.thresholds
            assert all(hist[i + 1] >= hist[i] - 1e-9 for i in range(len(hist) - 1))


def test_a_nan_initial_alpha_is_refused(reference_config):
    # max(tau0, nan) is tau0, so a NaN started every miner at tau0 unseen;
    # +-inf still start at the box ends
    def solve(initial_alpha):
        return solve_equilibrium(reference_config, "deterministic", initial_alpha=initial_alpha)

    with pytest.raises(ValueError, match=r"^initial_alpha must be a number or \+-inf, got nan$"):
        solve(math.nan)
    assert solve(math.inf) == solve(1.0) and solve(-math.inf) == solve(reference_config.tau0)
