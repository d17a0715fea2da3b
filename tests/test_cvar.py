"""Tests for the worst-case-CVaR robust best response."""

import math

import numpy as np
import pytest

from powgame import (
    ConvergenceError,
    LossCoefficients,
    MomentMatrix,
    RewardModel,
    robust_best_response,
    robust_best_response_gaussian,
    subproblem_strategy,
    subproblem_strategy_gaussian,
    subproblem_threshold,
    subproblem_threshold_gaussian,
    utility,
    worstcase_cvar,
)
from powgame import bti, cvar
from powgame.cvar import _CvarEvaluator, certified_slack
from powgame.deterministic import best_response
from powgame.validate import sample_uncertainty

from conftest import barrier_worstcase_cvar, make_config, outer_best_response_oracle

REWARD = RewardModel()


def _coeffs(alpha, u_min, load, cost=60.0):
    return LossCoefficients.from_strategy(alpha, u_min, load, cost, REWARD.total)


def test_loss_hand_value():
    # alpha=0.5, c=60, load=110, u_min=0, x=55:
    # 15*3025 + (0-8000+6600)*0.5*55 + 0 = 45375 - 38500 = 6875
    coeffs = _coeffs(0.5, 0.0, 110.0)
    assert coeffs(55.0) == pytest.approx(6875.0)


def test_loss_sign_matches_utility_threshold():
    # L(x) > 0 exactly when the utility at realized resource x is below u_min
    rng = np.random.default_rng(20)
    for _ in range(200):
        alpha = float(rng.uniform(0.2, 1.0))
        load = float(rng.uniform(40.0, 200.0))
        cost = float(rng.uniform(30.0, 90.0))
        u_min = float(rng.uniform(-800.0, 800.0))
        x = float(rng.uniform(5.0, 120.0))
        coeffs = LossCoefficients.from_strategy(alpha, u_min, load, cost, REWARD.total)
        own = alpha * x
        u = REWARD.total * own / (own + load) - cost * own
        if abs(u - u_min) < 1e-9:
            continue
        assert (coeffs(x) > 0.0) == (u < u_min)


def test_loss_vacuous_threshold():
    coeffs = _coeffs(0.7, -1e9, 110.0)
    for x in np.linspace(10.0, 100.0, 50):
        assert coeffs(float(x)) < 0.0


def test_moment_matrix():
    m = MomentMatrix(mu_bar=55.0, sigma2=100.0)
    omega = m.matrix
    assert np.linalg.det(omega) == pytest.approx(100.0)
    root = m.sqrt_matrix()
    assert np.allclose(root @ root, omega, atol=1e-10)
    with pytest.raises(ValueError):
        MomentMatrix(mu_bar=55.0, sigma2=0.0).sqrt_matrix()


def test_worstcase_cvar_linear_loss_closed_form():
    # for L(x) = x the worst-case CVaR is mu + s * sqrt((1-eps)/eps); a2 = 0
    # also exercises the exact minimum without its determinant kink (k = 0)
    for mu, s, eps in ((3.0, 2.0, 0.1), (55.0, 10.0, 0.05), (-4.0, 1.0, 0.3)):
        coeffs = LossCoefficients(a2=0.0, a1=1.0, a0=0.0)
        moments = MomentMatrix(mu, s * s)
        expected = mu + s * math.sqrt((1 - eps) / eps)
        value, _ = worstcase_cvar(coeffs, moments, eps)
        assert value == pytest.approx(expected, rel=1e-8)
        exact, _ = _CvarEvaluator(coeffs, moments, eps).exact_min()
        assert exact == pytest.approx(expected, rel=1e-12)


def test_worstcase_cvar_matches_barrier_solver():
    rng = np.random.default_rng(21)
    for _ in range(12):
        alpha = float(rng.uniform(0.3, 1.0))
        load = float(rng.uniform(40.0, 160.0))
        cost = float(rng.uniform(40.0, 90.0))
        u_min = float(rng.uniform(-1500.0, 200.0))
        mu_bar = float(rng.uniform(30.0, 60.0))
        sigma = float(rng.uniform(2.0, 12.0))
        eps = float(rng.uniform(0.03, 0.4))
        coeffs = LossCoefficients.from_strategy(alpha, u_min, load, cost, REWARD.total)
        moments = MomentMatrix(mu_bar, sigma * sigma)
        golden, _ = worstcase_cvar(coeffs, moments, eps)
        exact, _ = _CvarEvaluator(coeffs, moments, eps).exact_min()
        barrier, _ = barrier_worstcase_cvar(coeffs, moments, eps)
        assert barrier == pytest.approx(golden, rel=1e-7, abs=1e-6)
        assert barrier == pytest.approx(exact, rel=1e-7, abs=1e-6)


def test_exact_minimum_matches_golden_section_and_matrix_form():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        alpha = float(rng.uniform(0.1, 1.0))
        load = float(rng.uniform(20.0, 400.0))
        cost = float(rng.uniform(30.0, 100.0))
        u_min = float(rng.uniform(-3000.0, 1000.0))
        moments = MomentMatrix(float(rng.uniform(20.0, 80.0)), float(rng.uniform(0.5, 30.0)) ** 2)
        eps = float(rng.uniform(0.01, 0.6))
        coeffs = LossCoefficients.from_strategy(alpha, u_min, load, cost, REWARD.total)
        evaluator = _CvarEvaluator(coeffs, moments, eps)
        exact, beta = evaluator.exact_min()
        golden, _ = worstcase_cvar(coeffs, moments, eps)
        assert abs(exact - golden) <= 1e-9 * (1.0 + abs(golden))
        assert exact <= golden + 1e-12 * (1.0 + abs(golden))
        # the scalar v against the clipped congruence it replaces
        root = moments.sqrt_matrix()
        for b in (beta, beta + float(rng.normal()) * (1.0 + abs(beta))):
            q = np.array([[coeffs.a2, 0.5 * coeffs.a1], [0.5 * coeffs.a1, coeffs.a0 - b]])
            matrix_form = b + np.clip(np.linalg.eigvalsh(root @ q @ root), 0.0, None).sum() / eps
            assert evaluator.value(b) == pytest.approx(matrix_form, rel=1e-10)


def test_worstcase_cvar_dominates_sampled_cvar():
    # empirical CVaR under any moment-matched distribution stays below the worst case
    coeffs = _coeffs(0.5, -320.0, 110.0)
    moments = MomentMatrix(55.0, 100.0)
    eps = 0.1
    wc, _ = worstcase_cvar(coeffs, moments, eps)
    n = 20000
    for dist in ("gaussian", "uniform", "poisson_shifted", "two_point"):
        batch = sample_uncertainty(dist, 0.0, 100.0, n, seed=5, p=eps)
        losses = np.sort(coeffs(55.0 + batch.draws))[::-1]
        tail = losses[: max(1, int(math.ceil(eps * n)))]
        empirical = float(tail.mean())
        assert empirical <= wc + 0.05 * (1.0 + abs(wc))


def test_subproblem_threshold_bisection_boundary():
    config = make_config()
    params = config.miners[0]
    u, cert = subproblem_threshold(0.5, 110.0, params, REWARD, 0.1)
    assert u == pytest.approx(-320.4918, abs=1e-3)
    # u is feasible, u + 2 tolerances is not
    assert certified_slack(0.5, u, 110.0, params, REWARD, 0.1) >= 0.0
    assert certified_slack(0.5, u + 2e-6, 110.0, params, REWARD, 0.1) < 0.0
    assert cert.u_min == pytest.approx(u)


def test_certificate_satisfies_all_constraint_groups():
    # the certificate sits at the exact argmin beta of the returned threshold
    params = make_config().miners[0]
    cases = [(alpha, params, 110.0, 0.1) for alpha in (0.5, 0.75, 1.0)]
    rng = np.random.default_rng(24)
    for _ in range(20):
        sigma, cost = float(rng.uniform(1.0, 20.0)), float(rng.uniform(40.0, 90.0))
        p = make_config(sigma=sigma, cost=cost).miners[0]
        cases.append((float(rng.uniform(0.3, 1.0)), p, float(rng.uniform(40.0, 200.0)),
                      float(rng.uniform(0.03, 0.4))))
    for alpha, p, load, eps in cases:
        u, cert = subproblem_threshold(alpha, load, p, REWARD, eps)
        coeffs = LossCoefficients.from_strategy(alpha, u, load, p.cost, REWARD.total)
        m_psd, mq_psd, trace = cert.slacks(coeffs, MomentMatrix.from_params(p), eps)
        assert m_psd >= -1e-7
        assert mq_psd >= -1e-7
        assert trace >= -1e-7


def test_threshold_step_runs_no_beta_search(monkeypatch):
    # each bisection probe is certified by the exact minimum of v, so the
    # threshold step never brackets or golden-sections over beta
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cvar, "expand_bracket_min", counted(cvar.expand_bracket_min))
    monkeypatch.setattr(cvar, "golden_min", counted(cvar.golden_min))
    subproblem_threshold(0.5, 110.0, make_config().miners[0], REWARD, 0.1)
    assert calls == []


def test_threshold_small_sigma_recovers_deterministic_utility():
    # at an interior deterministic best response the utility is flat in x, so
    # the hedging margin is second order and the sigma -> 0 limit is tight
    config = make_config(n=5, x_hat=50.0, sigma=1e-3, tau0=0.25)
    params = config.miners[0]
    profile = [0.3] * 5
    alpha = best_response(0, profile, config)
    assert config.tau0 < alpha < 1.0  # interior, otherwise the margin is first order
    load = 4 * 0.3 * 50.0
    u, _ = subproblem_threshold(alpha, load, params, REWARD, 0.1)
    u_det = utility(0, [alpha, 0.3, 0.3, 0.3, 0.3], [50.0] * 5, REWARD, params.cost)
    assert u == pytest.approx(u_det, abs=1e-2)


def test_threshold_small_sigma_first_order_margin():
    # away from the best response the margin is |dU/dx| * s * sqrt((1-eps)/eps)
    config = make_config(sigma=1e-3)
    params = config.miners[0]
    u, _ = subproblem_threshold(0.5, 110.0, params, REWARD, 0.1)
    x = [55.0] * 5
    own = 0.5 * 55.0
    slope = 0.5 * (REWARD.total * 110.0 / (own + 110.0) ** 2 - 60.0)
    expected = -50.0 - abs(slope) * 1e-3 * math.sqrt(0.9 / 0.1)
    assert u == pytest.approx(expected, abs=1e-3)


def test_threshold_monotone_in_sigma():
    config = make_config()
    params0 = config.miners[0]
    values = []
    for sigma in (1.0, 5.0, 10.0):
        p = make_config(sigma=sigma).miners[0]
        u, _ = subproblem_threshold(0.5, 110.0, p, REWARD, 0.1)
        values.append(u)
    assert values[0] >= values[1] >= values[2]


def test_threshold_monotone_in_epsilon():
    params = make_config().miners[0]
    values = [
        subproblem_threshold(0.5, 110.0, params, REWARD, eps)[0]
        for eps in (0.02, 0.05, 0.1, 0.3, 0.5)
    ]
    assert all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))


def test_subproblem_strategy_fixed_point_and_improvement():
    params = make_config().miners[0]
    tau0, eps, load = 0.5, 0.1, 110.0
    u, cert = subproblem_threshold(0.8, load, params, REWARD, eps)
    a1, s1, ok1 = subproblem_strategy(u, 0.8, load, params, REWARD, tau0, eps)
    assert ok1 and s1 >= certified_slack(0.8, u, load, params, REWARD, eps) - 1e-12
    # feeding the maximizer back in must return it (within the search tolerance)
    a2, s2, ok2 = subproblem_strategy(u, a1, load, params, REWARD, tau0, eps)
    assert ok2
    assert a2 == pytest.approx(a1, abs=1e-6)
    assert s2 >= s1 - 1e-12


def test_subproblem_strategy_matches_exhaustive_scan():
    params = make_config(x_hat=50.0).miners[0]
    tau0, eps, load = 0.5, 0.1, 120.0
    u, cert = subproblem_threshold(0.7, load, params, REWARD, eps)
    alpha, slack, ok = subproblem_strategy(u, 0.7, load, params, REWARD, tau0, eps)
    assert ok
    grid = np.linspace(tau0, 1.0, 501)
    best = max(certified_slack(float(a), u, load, params, REWARD, eps) for a in grid)
    assert slack >= best - 1e-9


def test_robust_best_response_monotone_and_oracle():
    config = make_config(n=5, x_hat=50.0)
    profile = [0.6] * 5
    response = robust_best_response(0, profile, config)
    hist = response.u_history
    assert all(hist[i + 1] >= hist[i] - 1e-9 for i in range(len(hist) - 1))
    params = config.miners[0]
    load = 4 * 0.6 * 50.0

    def threshold_value(alpha):
        return subproblem_threshold(alpha, load, params, REWARD, config.epsilon)[0]

    oracle_alpha, oracle_u = outer_best_response_oracle(threshold_value, config.tau0)
    assert response.u_min == pytest.approx(oracle_u, abs=1e-4)


def test_robust_best_response_epsilon_ordering():
    base = dict(n=5, x_hat=50.0)
    profile = [0.6] * 5
    u_tight = robust_best_response(0, profile, make_config(epsilon=0.05, **base)).u_min
    u_loose = robust_best_response(0, profile, make_config(epsilon=0.5, **base)).u_min
    assert u_loose >= u_tight


def test_robust_best_response_small_sigma_matches_deterministic():
    config = make_config(n=5, x_hat=50.0, sigma=1e-3)
    profile = [0.6] * 5
    response = robust_best_response(0, profile, config)
    det = best_response(0, profile, config)
    assert response.alpha == pytest.approx(det, abs=1e-2)


def test_no_feasible_threshold_raises_solver_error():
    # enormous variance puts irreducible worst-case mass where the loss is
    # positive for every threshold: certification is impossible
    from powgame import SolverError
    from powgame.model import MinerParams

    params = MinerParams(x_hat=55.0, sigma2=500.0**2, cost=60.0)
    with pytest.raises(SolverError):
        subproblem_threshold(0.5, 110.0, params, REWARD, 0.1)


def test_strategy_step_with_no_feasible_alpha_returns_incoming():
    params = make_config().miners[0]
    u_star, cert = subproblem_threshold(0.5, 110.0, params, REWARD, 0.1)
    alpha, slack, feasible = subproblem_strategy(
        u_star + 500.0, 0.5, 110.0, params, REWARD, 0.5, 0.1
    )
    assert alpha == 0.5 and slack < 0.0 and not feasible


@pytest.mark.parametrize(
    "best_response_fn",
    [robust_best_response, robust_best_response_gaussian],
    ids=["dro_cvar", "gaussian_bti"],
)
def test_robust_best_response_iteration_cap(best_response_fn):
    config = make_config(n=5, x_hat=50.0)
    with pytest.raises(ConvergenceError) as err:
        best_response_fn(0, [0.6] * 5, config, ao_tol=-1.0, max_ao_iterations=3)
    assert err.value.last is not None
    assert len(err.value.last.u_history) == 4


@pytest.mark.parametrize("backend", ["dro_cvar", "gaussian_bti"])
def test_strategy_step_scores_incoming_alpha_once(monkeypatch, backend):
    # 0.7123 is off the scan grid, so only the incoming score lands on it
    alpha_in, load, eps = 0.7123, 110.0, 0.1
    params = make_config().miners[0]
    scored = []
    if backend == "dro_cvar":
        u, _ = subproblem_threshold(alpha_in, load, params, REWARD, eps)
        original = cvar.certified_slack

        def counted(alpha, *args):
            scored.append(alpha)
            return original(alpha, *args)

        monkeypatch.setattr(cvar, "certified_slack", counted)
        subproblem_strategy(u - 1.0, alpha_in, load, params, REWARD, 0.5, eps)
    else:
        u = subproblem_threshold_gaussian(alpha_in, load, params, REWARD, eps)
        original = bti.scan_strategy

        def scanning(slack, *args):
            def counted(alpha):
                scored.append(alpha)
                return slack(alpha)

            return original(counted, *args)

        monkeypatch.setattr(bti, "scan_strategy", scanning)
        subproblem_strategy_gaussian(u - 1.0, alpha_in, load, params, REWARD, 0.5, eps)
    assert len(scored) > 40  # the scan ran
    assert scored.count(alpha_in) == 1


def test_robust_best_response_certificate_is_final_iterate():
    # the driver must return the witness of the last threshold step, not one
    # threaded through from an earlier iterate; the AO moves on this instance
    config = make_config(n=5, x_hat=50.0, tau0=0.1)
    profile = [0.3] * 5
    response = robust_best_response(0, profile, config)
    assert response.u_history[0] < response.u_min
    cert = response.certificate
    params = config.miners[0]
    assert cert.u_min == response.u_min
    load = 4 * 0.3 * 50.0
    coeffs = LossCoefficients.from_strategy(
        response.alpha, response.u_min, load, params.cost, REWARD.total
    )
    for slack in cert.slacks(coeffs, MomentMatrix.from_params(params), config.epsilon):
        assert slack >= -1e-7
