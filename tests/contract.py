"""The contract both robust back-ends keep, written once.

The worst-case CVaR and its Gaussian special case differ only in their
certificate, so the same properties hold for both steps and best responses.
Each test takes the ``backend`` fixture of ``conftest.py``, the ``BACKENDS``
entry of the running module's ``BACKEND``: ``test_bti.py`` and
``test_cvar.py`` each run every test here through ``from contract import *``,
under their own test ids.  Slack oracles read ``Backend.slack``, the
back-end's own ``_strategy_slack``.
"""

import numpy as np
import pytest

from powgame import MinerParams, RewardModel, SolverError, utility
from powgame.deterministic import best_response

from conftest import BAD_STEP_INPUTS, make_config, outer_best_response_oracle

REWARD = RewardModel()


@pytest.mark.parametrize("call, message", BAD_STEP_INPUTS.values(), ids=BAD_STEP_INPUTS)
def test_bad_step_inputs_raise_value_error(backend, call, message):
    with pytest.raises(ValueError, match=message):
        call(backend.threshold, backend.strategy, backend.reference)


def test_threshold_bisection_is_exact(backend):
    # u is feasible, u + 2 tolerances is not
    params = make_config().miners[0]
    for eps in (0.05, 0.1, 0.3):
        u = backend.threshold(0.5, 110.0, params, REWARD, eps)
        assert backend.slack(u, 110.0, params, REWARD, eps)(0.5) >= 0.0
        assert backend.slack(u + 2e-6, 110.0, params, REWARD, eps)(0.5) < 0.0


def test_threshold_monotone_in_sigma(backend):
    values = [backend.threshold(0.5, 110.0, make_config(sigma=sigma).miners[0], REWARD, 0.1)
              for sigma in (1.0, 5.0, 10.0)]
    assert values[0] >= values[1] >= values[2]


def test_threshold_monotone_in_epsilon(backend):
    params = make_config().miners[0]
    values = [backend.threshold(0.5, 110.0, params, REWARD, eps) for eps in (0.02, 0.05, 0.1, 0.3, 0.5)]
    assert all(a < b for a, b in zip(values, values[1:])), values


def test_threshold_small_sigma_recovers_deterministic_utility(backend):
    # at an interior deterministic best response the utility is flat in x, so
    # the hedging margin is second order and the sigma -> 0 limit is tight
    config = make_config(n=5, x_hat=50.0, sigma=1e-3, tau0=0.25)
    params = config.miners[0]
    profile = [0.3] * 5
    alpha = best_response(0, profile, config)
    assert config.tau0 < alpha < 1.0  # interior, otherwise the margin is first order
    u = backend.threshold(alpha, 4 * 0.3 * 50.0, params, REWARD, 0.1)
    u_det = utility(0, [alpha, 0.3, 0.3, 0.3, 0.3], [50.0] * 5, REWARD, params.cost)
    assert u == pytest.approx(u_det, abs=1e-2)


def test_no_feasible_threshold_raises_solver_error(backend):
    # enormous variance puts mass where the loss is positive for every
    # threshold: certification is impossible
    for params in (make_config(sigma=500.0).miners[0], MinerParams(x_hat=55.0, sigma2=500.0**2, cost=60.0)):
        with pytest.raises(SolverError, match="no feasible threshold above"):
            backend.threshold(0.5, 110.0, params, REWARD, 0.1)


def test_strategy_fixed_point_and_exhaustive_scan(backend):
    # from the threshold at alpha_in, and from a u_min below it: the step
    # returns its slack at the alpha it returns, improves on alpha_in, and
    # beats a 501-point grid; fed back in, it returns that alpha (within the
    # search tolerance)
    tau0, eps = 0.5, 0.1
    for x_hat, load, alpha_in, u in ((50.0, 120.0, 0.7, None), (55.0, 110.0, 0.8, None), (55.0, 110.0, 0.7, -400.0)):
        params = make_config(x_hat=x_hat).miners[0]
        if u is None:
            u = backend.threshold(alpha_in, load, params, REWARD, eps)
        slack = backend.slack(u, load, params, REWARD, eps)
        a1, s1, ok1 = backend.strategy(u, alpha_in, load, params, REWARD, tau0, eps)
        assert ok1 and s1 == slack(a1) and s1 >= slack(alpha_in) - 1e-12
        assert s1 >= max(slack(float(a)) for a in np.linspace(tau0, 1.0, 501)) - 1e-9
        a2, s2, ok2 = backend.strategy(u, a1, load, params, REWARD, tau0, eps)
        assert ok2 and a2 == pytest.approx(a1, abs=1e-6) and s2 >= s1 - 1e-12


def test_strategy_step_with_no_feasible_alpha_returns_incoming(backend):
    params = make_config().miners[0]
    u_star = backend.threshold(0.5, 110.0, params, REWARD, 0.1)
    for u in (8000.0, u_star + 500.0):
        alpha, slack, feasible = backend.strategy(u, 0.5, 110.0, params, REWARD, 0.5, 0.1)
        assert alpha == 0.5 and slack < 0.0 and not feasible


def test_robust_best_response_monotone_and_oracle(backend, work):
    config = make_config(n=5, x_hat=50.0)
    response = backend.best_response(0, [0.6] * 5, config)
    hist = list(work.thresholds)
    assert all(hist[i + 1] >= hist[i] - 1e-9 for i in range(len(hist) - 1))
    params = config.miners[0]
    _, oracle_u = outer_best_response_oracle(
        lambda alpha: backend.threshold(alpha, 4 * 0.6 * 50.0, params, REWARD, config.epsilon), config.tau0)
    assert response.u_min == pytest.approx(oracle_u, abs=1e-4)


def test_robust_best_response_epsilon_ordering(backend):
    profile = [0.6] * 5
    u_tight, u_loose = (backend.best_response(0, profile, make_config(n=5, x_hat=50.0, epsilon=eps)).u_min
                        for eps in (0.05, 0.5))
    assert u_loose >= u_tight


def test_robust_best_response_small_sigma_matches_deterministic(backend):
    config = make_config(n=5, x_hat=50.0, sigma=1e-3)
    profile = [0.6] * 5
    det = best_response(0, profile, config)
    assert backend.best_response(0, profile, config).alpha == pytest.approx(det, abs=1e-2)


__all__ = [name for name in dir() if name.startswith("test_")]
