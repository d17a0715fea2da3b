"""Tests for the worst-case-CVaR robust best response.

The contract both robust back-ends keep runs here from ``contract.py``, on
``BACKEND``; the tests below are this back-end's own, but for two that run
both back-ends from the ``BACKENDS`` table.
"""

import decimal
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from powgame import (
    ConvergenceError,
    LossCoefficients,
    RewardModel,
    certify,
    robust_best_response,
    solve_equilibrium,
    subproblem_strategy,
    subproblem_threshold,
    worstcase_cvar,
)
from powgame import SolverError, cvar, robust
from powgame._search import scan_golden_max
from powgame.cli import load_scenario
from powgame.model import MinerParams, others_load
from powgame.robust import scan_strategy
from powgame.validate import DISTRIBUTIONS, sample_uncertainty

from conftest import (
    BACKENDS,
    CvarEvaluator,
    barrier_worstcase_cvar,
    eigh_certificate,
    grid_scan_max,
    make_config,
    moment_matrix,
    plain_bisect_threshold,
    probability_threshold,
    reference_scan_strategy,
    reference_worstcase_cvar,
    scan_grid,
    sqrt_moment_matrix,
    two_point_batch,
)
from contract import *  # noqa: F401,F403 -- the contract of both robust back-ends, run on BACKEND

BACKEND = "dro_cvar"
REWARD = RewardModel()
CONFIGS = Path(__file__).parent.parent / "configs"


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
    omega = moment_matrix(55.0, 100.0)
    assert np.linalg.det(omega) == pytest.approx(100.0)
    root = sqrt_moment_matrix(55.0, 100.0)
    assert np.allclose(root @ root, omega, atol=1e-10)
    with pytest.raises(ValueError):
        sqrt_moment_matrix(55.0, 0.0)


def test_worstcase_cvar_linear_loss_closed_form():
    # for L(x) = x the worst-case CVaR is mu + s * sqrt((1-eps)/eps); a2 = 0
    # also exercises the exact minimum without its determinant kink (k = 0)
    for mu, s, eps in ((3.0, 2.0, 0.1), (55.0, 10.0, 0.05), (-4.0, 1.0, 0.3)):
        coeffs = LossCoefficients(a2=0.0, a1=1.0, a0=0.0)
        expected = mu + s * math.sqrt((1 - eps) / eps)
        value, _ = worstcase_cvar(coeffs, mu, s * s, eps)
        assert value == pytest.approx(expected, rel=1e-8)
        exact, _ = CvarEvaluator(coeffs, mu, s * s, eps).exact_min()
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
        moments = mu_bar, sigma * sigma
        golden, _ = worstcase_cvar(coeffs, *moments, eps)
        exact, _ = CvarEvaluator(coeffs, *moments, eps).exact_min()
        barrier, _ = barrier_worstcase_cvar(coeffs, *moments, eps)
        assert barrier == pytest.approx(golden, rel=1e-7, abs=1e-6)
        assert barrier == pytest.approx(exact, rel=1e-7, abs=1e-6)


def test_exact_minimum_matches_golden_section_and_matrix_form():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        alpha = float(rng.uniform(0.1, 1.0))
        load = float(rng.uniform(20.0, 400.0))
        cost = float(rng.uniform(30.0, 100.0))
        u_min = float(rng.uniform(-3000.0, 1000.0))
        moments = float(rng.uniform(20.0, 80.0)), float(rng.uniform(0.5, 30.0)) ** 2
        eps = float(rng.uniform(0.01, 0.6))
        coeffs = LossCoefficients.from_strategy(alpha, u_min, load, cost, REWARD.total)
        evaluator = CvarEvaluator(coeffs, *moments, eps)
        exact, beta = evaluator.exact_min()
        golden, _ = worstcase_cvar(coeffs, *moments, eps)
        assert abs(exact - golden) <= 1e-9 * (1.0 + abs(golden))
        assert exact <= golden + 1e-12 * (1.0 + abs(golden))
        # the scalar v against the clipped congruence it replaces
        root = sqrt_moment_matrix(*moments)
        for b in (beta, beta + float(rng.normal()) * (1.0 + abs(beta))):
            q = np.array([[coeffs.a2, 0.5 * coeffs.a1], [0.5 * coeffs.a1, coeffs.a0 - b]])
            matrix_form = b + np.clip(np.linalg.eigvalsh(root @ q @ root), 0.0, None).sum() / eps
            assert evaluator.value(b) == pytest.approx(matrix_form, rel=1e-10)


def test_worstcase_cvar_dominates_sampled_cvar():
    # empirical CVaR under any moment-matched distribution stays below the worst case
    coeffs = _coeffs(0.5, -320.0, 110.0)
    eps = 0.1
    wc, _ = worstcase_cvar(coeffs, 55.0, 100.0, eps)
    n = 20000
    batches = [sample_uncertainty(d, 0.0, 100.0, n, seed=5) for d in DISTRIBUTIONS]
    batches.append(two_point_batch(0.0, 100.0, n, eps, seed=5))  # mass eps on the far atom
    for batch in batches:
        losses = np.sort(coeffs(55.0 + batch.draws))[::-1]
        tail = losses[: max(1, int(math.ceil(eps * n)))]
        empirical = float(tail.mean())
        assert empirical <= wc + 0.05 * (1.0 + abs(wc))


def test_subproblem_threshold_bisection_boundary():
    config = make_config()
    params = config.miners[0]
    u = subproblem_threshold(0.5, 110.0, params, REWARD, 0.1)
    assert u == pytest.approx(-320.4918, abs=1e-3)
    assert certify(0.5, u, 110.0, params, REWARD, 0.1).u_min == u


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
        u = subproblem_threshold(alpha, load, p, REWARD, eps)
        cert = certify(alpha, u, load, p, REWARD, eps)
        coeffs = LossCoefficients.from_strategy(alpha, u, load, p.cost, REWARD.total)
        m_psd, mq_psd, trace = cert.slacks(coeffs, p.nominal, p.sigma2, eps)
        assert m_psd >= -1e-7
        assert mq_psd >= -1e-7
        assert trace >= -1e-7


@pytest.mark.parametrize("u_min", [math.nan, math.inf, -math.inf])
def test_certify_refuses_a_non_finite_threshold(u_min):
    # a NaN threshold gave an all-NaN witness, and +inf a beta of inf with a NaN M
    with pytest.raises(ValueError, match=f"^u_min must be a finite number, got {u_min}$"):
        certify(0.5, u_min, 110.0, MinerParams(x_hat=55.0, sigma2=100.0), REWARD, 0.1)


def test_threshold_small_sigma_first_order_margin():
    # away from the best response the margin is |dU/dx| * s * sqrt((1-eps)/eps)
    config = make_config(sigma=1e-3)
    params = config.miners[0]
    u = subproblem_threshold(0.5, 110.0, params, REWARD, 0.1)
    x = [55.0] * 5
    own = 0.5 * 55.0
    slope = 0.5 * (REWARD.total * 110.0 / (own + 110.0) ** 2 - 60.0)
    expected = -50.0 - abs(slope) * 1e-3 * math.sqrt(0.9 / 0.1)
    assert u == pytest.approx(expected, abs=1e-3)


def test_subproblem_strategy_fixed_point_and_improvement():
    params = make_config().miners[0]
    tau0, eps, load = 0.5, 0.1, 110.0
    u = subproblem_threshold(0.8, load, params, REWARD, eps)
    a1, s1, ok1 = subproblem_strategy(u, 0.8, load, params, REWARD, tau0, eps)
    assert ok1 and s1 >= cvar._strategy_slack(u, load, params, REWARD, eps)[0](0.8) - 1e-12
    # feeding the maximizer back in must return it (within the search tolerance)
    a2, s2, ok2 = subproblem_strategy(u, a1, load, params, REWARD, tau0, eps)
    assert ok2
    assert a2 == pytest.approx(a1, abs=1e-6)
    assert s2 >= s1 - 1e-12


def test_subproblem_strategy_matches_exhaustive_scan():
    params = make_config(x_hat=50.0).miners[0]
    tau0, eps, load = 0.5, 0.1, 120.0
    u = subproblem_threshold(0.7, load, params, REWARD, eps)
    alpha, slack, ok = subproblem_strategy(u, 0.7, load, params, REWARD, tau0, eps)
    assert ok
    grid = np.linspace(tau0, 1.0, 501)
    slack_at = cvar._strategy_slack(u, load, params, REWARD, eps)[0]
    best = max(slack_at(float(a)) for a in grid)
    assert slack >= best - 1e-9


@pytest.mark.parametrize("sigma", [1e90, 1e130, 1e150])
def test_strategy_step_never_certifies_a_nan_slack(sigma):
    # past sigma ~ 1e80 the slack's beta bracket overflows, to -inf or NaN;
    # a NaN slack certifies nothing, so the step keeps the incoming alpha
    params = MinerParams(x_hat=45.0, sigma2=sigma * sigma, cost=60.0)
    alpha, slack, feasible = subproblem_strategy(-100.0, 0.5, 110.0, params, REWARD, 0.2, 0.1)
    if feasible:
        assert math.isfinite(slack) and slack >= 0.0
    else:
        assert alpha == 0.5
    alpha, slack, feasible = scan_strategy(lambda a: math.nan, 0.5, 0.2)
    assert alpha == 0.5 and math.isnan(slack) and not feasible
    # nor does a NaN slack that the window's scoring meets under finite bounds
    got = scan_golden_max(lambda a: math.nan, 0.0, 1.0, 0.1, bounds=lambda a: (0.0, 1.0), error=1e-9, start=0.5,
                          bar=-math.inf)
    assert repr(got) == repr((0.0, math.nan))


@pytest.mark.parametrize("mode", sorted(BACKENDS))
def test_robust_best_response_iteration_cap(monkeypatch, work, mode):
    # on the cap the error carries the last iterate: the threshold step's
    # fourth value, after the starting step and three iterations
    config = make_config(n=5, x_hat=50.0)
    monkeypatch.setattr(robust, "AO_TOL", -1.0)
    monkeypatch.setattr(robust, "AO_CAP", 3)
    with pytest.raises(ConvergenceError) as err:
        BACKENDS[mode].best_response(0, [0.6] * 5, config)
    last = err.value.last
    assert last.iterations == 3 and len(work.thresholds) == 4
    assert last.u_min == work.thresholds[-1]


@pytest.mark.parametrize("mode", sorted(BACKENDS))
def test_strategy_step_scores_incoming_alpha_once(work, mode):
    # 0.7123 is off the scan grid, so only the incoming score lands on it
    alpha_in, load, eps = 0.7123, 110.0, 0.1
    params = make_config().miners[0]
    backend = BACKENDS[mode]
    u = backend.threshold(alpha_in, load, params, REWARD, eps)
    # bti: one below the threshold at 0.7123, the curvature certificate
    # cannot keep it, so the scan runs
    backend.strategy(u - 1.0, alpha_in, load, params, REWARD, 0.5, eps)
    scored = [a for a, _ in work.reads]
    # the climb reads only the grid points next to the peak, fewer than the
    # 41 a full scan reads: ceilings for cvar (the bounds spare most exact
    # scores), slacks for bti
    grid = np.arange(0.5, 1.0 + 0.5 * 0.0125, 0.0125).tolist()
    on_grid = work.counts["ceilings"] if mode == "dro_cvar" else sum(a in grid for a in scored)
    assert work.counts["scans"] == 1 and 0 < on_grid < 41
    assert scored.count(alpha_in) == 1


def test_robust_best_response_certificate_is_final_iterate(work):
    # the witness built on request at the returned (alpha, u_min) certifies
    # the last threshold step, not an earlier iterate; the AO moves on this
    # instance
    config = make_config(n=5, x_hat=50.0, tau0=0.1)
    profile = [0.3] * 5
    response = robust_best_response(0, profile, config)
    assert work.thresholds[0] < response.u_min
    params = config.miners[0]
    load = 4 * 0.3 * 50.0
    cert = certify(response.alpha, response.u_min, load, params, REWARD, config.epsilon)
    assert cert.u_min == response.u_min
    coeffs = LossCoefficients.from_strategy(
        response.alpha, response.u_min, load, params.cost, REWARD.total
    )
    for slack in cert.slacks(coeffs, params.nominal, params.sigma2, config.epsilon):
        assert slack >= -1e-7


def _random_step_inputs(rng):
    """(alpha, load, epsilon, params, reward) drawn over the solver's working ranges."""
    params = MinerParams(
        x_hat=float(rng.uniform(30.0, 60.0)), mu=float(rng.uniform(-5.0, 5.0)),
        sigma2=float(rng.uniform(0.5, 15.0)) ** 2, cost=float(rng.uniform(20.0, 120.0)),
    )
    reward = RewardModel(
        fixed_reward=float(rng.uniform(1000.0, 9000.0)),
        unit_tx_reward=float(rng.uniform(0.0, 20.0)),
        tx_count=float(rng.uniform(0.0, 500.0)),
    )
    alpha, load = float(rng.uniform(0.05, 1.0)), float(rng.uniform(20.0, 400.0))
    return alpha, load, float(rng.uniform(0.02, 0.5)), params, reward


def test_steps_evaluate_v_bit_for_bit_like_the_reference():
    # the steps evaluate v from per-step constants; with the reference's float
    # order kept, decisions and slacks are equal, not merely close.  At the
    # threshold the exact minimum is ~0, so a change in any product's
    # rounding flips the decision at one of the two adjacent floats
    rng = np.random.default_rng(25)
    for instance in range(1000):
        alpha, load, eps, params, reward = _random_step_inputs(rng)
        moments = params.nominal, params.sigma2

        def coeffs(a, u):
            return LossCoefficients.from_strategy(a, u, load, params.cost, reward.total)

        def reference_min(u):
            return CvarEvaluator(coeffs(alpha, u), *moments, eps).exact_min()

        def reference_certify(u):
            return reference_min(u)[0] <= 0.0

        margin = cvar._threshold_certifier(alpha, load, params, reward, eps)
        for u in rng.uniform(-3000.0, 3000.0, size=4):
            assert (margin(float(u)) >= 0.0) == reference_certify(float(u))
        u_star = plain_bisect_threshold(reference_certify, params, reward)
        u_min = subproblem_threshold(alpha, load, params, reward, eps)
        assert u_min == u_star
        cert = certify(alpha, u_min, load, params, reward, eps)
        assert cert.beta == reference_min(u_star)[1]
        lo, hi = u_star, u_star + 2e-6
        while True:  # down to the two adjacent floats where the decision flips
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if reference_certify(mid) else (lo, mid)
        assert margin(lo) >= 0.0 and not margin(hi) >= 0.0

        for u in (u_star, float(rng.uniform(-3000.0, 3000.0))):
            slack = cvar._strategy_slack(u, load, params, reward, eps)[0]
            for a in (alpha, *rng.uniform(0.05, 1.0, size=2)):
                reference = reference_worstcase_cvar(coeffs(float(a), u), *moments, eps)
                assert slack(float(a)) == -reference[0]
                assert worstcase_cvar(coeffs(float(a), u), *moments, eps) == reference
        if instance % 10 == 0:  # the whole strategy step, on a tenth of the instances
            tau0 = float(rng.uniform(0.05, 0.9))
            alpha_in = max(tau0, alpha)
            reference = scan_strategy(
                lambda a: -reference_worstcase_cvar(coeffs(a, u_star), *moments, eps)[0], alpha_in, tau0
            )
            assert subproblem_strategy(u_star, alpha_in, load, params, reward, tau0, eps) == reference


def _threshold_or_error(threshold, *args):
    """The threshold ``threshold(*args)`` returns, or "SolverError" where it
    certifies none."""
    try:
        return threshold(*args)
    except SolverError:
        return "SolverError"


def test_threshold_step_decides_as_the_worst_case_probability():
    # the worst-case CVaR constraint of a quadratic loss is exactly the
    # chance constraint over the mean/variance set (Zymler, Kuhn & Rustem
    # 2013), so the step returns the threshold that bisection on the exact
    # worst-case probability returns, float for float: on random inputs and
    # at each miner's (alpha*, load) of the dro_cvar equilibrium of every
    # configs/*.json
    rng = np.random.default_rng(36)
    cases = []
    for _ in range(3000):
        params = MinerParams(x_hat=float(rng.uniform(10.0, 100.0)), sigma2=float(rng.uniform(0.1, 60.0)) ** 2,
                             cost=float(rng.uniform(1.0, 200.0)))
        reward = RewardModel(fixed_reward=float(rng.uniform(500.0, 20000.0)))
        eps = float(rng.uniform(0.005, 0.6))
        cases.append((float(rng.uniform(0.01, 1.0)), float(rng.uniform(1.0, 2000.0)), params, reward, eps))
    for path in sorted(CONFIGS.glob("*.json")):
        scenario = load_scenario(path)
        config = scenario.config
        alphas = solve_equilibrium(config, "dro_cvar", initial_alpha=scenario.initial_alpha).alphas
        cases += [(alphas[j], others_load(j, alphas, config.nominal), params, config.reward, config.epsilon)
                  for j, params in enumerate(config.miners)]
    got = [_threshold_or_error(subproblem_threshold, *case) for case in cases]
    want = [_threshold_or_error(probability_threshold, *case) for case in cases]
    assert [(case, g, w) for case, g, w in zip(cases, got, want) if g != w][:3] == []
    # a few random inputs certify no threshold under either; every miner at
    # an equilibrium has one
    assert len(cases) == 3015 and got.count("SolverError") < 30 and "SolverError" not in got[-15:]


def _assert_matches_eigh(cert, coeffs, moments):
    oracle = eigh_certificate(coeffs, *moments, cert.beta, cert.u_min)
    expected = np.array([oracle.m11, oracle.m12, oracle.m22])
    got = np.array([cert.m11, cert.m12, cert.m22])
    assert np.max(np.abs(got - expected)) <= 1e-9 * (1.0 + np.max(np.abs(expected)))


def test_closed_form_certificate_matches_eigh_oracle():
    # the solver's witnesses at 1000 certified thresholds, then each branch of
    # the closed form on purpose-built losses (a negative a2 makes Q negative
    # semidefinite; mu_bar = 0 and a1 = 0 make Q Omega diagonal)
    rng = np.random.default_rng(26)
    branches = {"psd": 0, "zero": 0, "rank-one": 0}

    def count_branch(cert, coeffs):
        if cert.m11 == 0.0 and cert.m12 == 0.0 and cert.m22 == 0.0:
            branches["zero"] += 1
        elif (cert.m11, cert.m12, cert.m22) == (coeffs.a2, 0.5 * coeffs.a1, coeffs.a0 - cert.beta):
            branches["psd"] += 1
        else:
            branches["rank-one"] += 1

    for _ in range(1000):
        alpha, load, eps, params, reward = _random_step_inputs(rng)
        u = subproblem_threshold(alpha, load, params, reward, eps)
        cert = certify(alpha, u, load, params, reward, eps)
        coeffs = LossCoefficients.from_strategy(alpha, u, load, params.cost, reward.total)
        moments = params.nominal, params.sigma2
        assert min(cert.slacks(coeffs, *moments, eps)) >= -1e-7
        _assert_matches_eigh(cert, coeffs, moments)
        count_branch(cert, coeffs)
    assert branches["psd"] > 0 and branches["rank-one"] > 0

    for _ in range(200):
        sigma2, eps = float(rng.uniform(0.5, 15.0)) ** 2, float(rng.uniform(0.02, 0.5))
        a2, a1 = -float(rng.uniform(1.0, 100.0)), float(rng.uniform(-500.0, 500.0))
        a0 = float(rng.uniform(-5000.0, -100.0))
        moments = float(rng.uniform(20.0, 80.0)), sigma2
        diagonal = 0.0, sigma2
        # a0 - beta <= -a1^2 / (4 |a2|): Q is negative semidefinite
        nsd_beta = a0 + a1 * a1 / (4.0 * -a2) + float(rng.uniform(1.0, 100.0))
        cases = [  # (coeffs, moments, beta)
            (LossCoefficients(a2, a1, a0), moments, nsd_beta),
            (LossCoefficients(-a2, 0.0, a0), diagonal, a0 + float(rng.uniform(1.0, 100.0))),
            (LossCoefficients(a2, 0.0, a0), diagonal, a0 - float(rng.uniform(1.0, 100.0))),
        ]
        for coeffs, m, beta in cases:
            cert = cvar._trace_minimal_witness(beta, 0.0, coeffs.a2, coeffs.a1, coeffs.a0, *m)
            m_psd, mq_psd, trace = cert.slacks(coeffs, *m, eps)
            assert m_psd >= -1e-7 and mq_psd >= -1e-7
            # the trace slack is -v(beta): M is trace-minimal at every beta
            assert trace == pytest.approx(-CvarEvaluator(coeffs, *m, eps).value(beta), rel=1e-9)
            _assert_matches_eigh(cert, coeffs, m)
            count_branch(cert, coeffs)
    assert min(branches.values()) > 0


def _wide_step_inputs(rng):
    """(load, epsilon, params, reward) with eps in [0.001, 0.99] and sigma in
    [0.01, 500], both log-uniform."""
    params = MinerParams(
        x_hat=float(rng.uniform(30.0, 60.0)), mu=float(rng.uniform(-5.0, 5.0)),
        sigma2=math.exp(rng.uniform(math.log(0.01), math.log(500.0))) ** 2,
        cost=float(rng.uniform(20.0, 120.0)),
    )
    reward = RewardModel(fixed_reward=float(rng.uniform(1000.0, 9000.0)))
    eps = math.exp(rng.uniform(math.log(0.001), math.log(0.99)))
    return float(rng.uniform(20.0, 400.0)), eps, params, reward


def test_strategy_ceiling_bounds_the_slack():
    # floor <= slack <= ceiling, with the proven widths of cvar._widths
    rng = np.random.default_rng(27)
    for _ in range(1000):
        load, eps, params, reward = _wide_step_inputs(rng)
        slack, bounds, _ = cvar._strategy_slack(
            float(rng.uniform(-3000.0, 3000.0)), load, params, reward, eps
        )
        for alpha in np.exp(rng.uniform(math.log(1e-3), 0.0, size=3)):
            floor, ceiling = bounds(float(alpha))
            assert floor <= slack(float(alpha)) <= ceiling


@pytest.mark.parametrize(
    "sigma, nonfinite", [(None, set()), (1e80, set()), (1e150, {"-inf"}), (1e154, {"-inf", "nan"})],
    ids=["wide", "1e80", "1e150", "1e154"],
)
def test_bounds_and_margin_equal_the_oracle_minimum_bit_for_bit(sigma, nonfinite):
    # the unrolled kernel keeps v's float operations and the candidate order
    # and tie-breaks of the oracle's min over (v, beta) pairs, so bounds and
    # margin are its values, not merely close to them; repr, so that NaN
    # matches NaN.  Wide instances with alpha = 0 (k = 0: two candidates),
    # where the bounds are -ref + (-gap, rho) * scale with cvar._widths'
    # widths, and huge sigma, where the step passes no bounds (scale(1)
    # beyond 1e140 eps) and v's constants overflow to NaN (sigma^2 = 1e308)
    rng = np.random.default_rng(29 if sigma is None else int(math.log10(sigma)))
    seen = set()
    for _ in range(300):
        load, eps, params, reward = _wide_step_inputs(rng)
        if sigma is not None:
            params = MinerParams(x_hat=params.x_hat, mu=params.mu, sigma2=sigma * sigma, cost=params.cost)
        reach = params.nominal + 3.0 * math.sqrt(params.sigma2)

        def coeffs(alpha, u):  # LossCoefficients.from_strategy's float order, alpha = 0 allowed
            big_b = -reward.total + params.cost * load
            return LossCoefficients(params.cost * alpha * alpha, (u + big_b) * alpha, u * load)

        def reference(alpha, u):
            return CvarEvaluator(coeffs(alpha, u), params.nominal, params.sigma2, eps).exact_min()[0]

        u = float(rng.uniform(-3000.0, 3000.0))
        _, bounds, _ = cvar._strategy_slack(u, load, params, reward, eps)
        if sigma is None:
            spread_ratio = math.sqrt(params.sigma2) * max(params.nominal / (reach * reach), 0.5 / reach)
            rho, gap, _, _ = cvar._widths(eps, spread_ratio)
            for alpha in (0.0, *np.exp(rng.uniform(math.log(1e-3), 0.0, size=3)).tolist()):
                c, ref = coeffs(alpha, u), reference(alpha, u)
                scale = 1.0 + abs(c.a0) + abs(c.a1) * reach + c.a2 * reach * reach
                assert repr(bounds(alpha)) == repr((-ref - gap * scale, -ref + rho * scale)), (alpha, u)
        else:
            assert bounds is None
        alpha = float(rng.uniform(0.05, 1.0))
        margin = cvar._threshold_certifier(alpha, load, params, reward, eps)
        for u in rng.uniform(-3000.0, 3000.0, size=3).tolist():
            value = margin(u)
            assert repr(value) == repr(-reference(alpha, u)), (alpha, u)
            if not math.isfinite(value):
                seen.add(repr(value))
    assert seen == nonfinite


def test_exact_minimizer_is_the_min_over_candidate_pairs():
    # the unrolled kernel against the min over (v, beta) pairs at the same
    # candidates, value and argmin, on special floats: signed zeros, the
    # smallest subnormal, infinities, NaN and the largest finite values
    specials = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
    for eps in (0.1, 0.5, 0.9):
        least_v = cvar._exact_minimizer(eps)
        factor = (1.0 - 2.0 * eps) / math.sqrt(eps * (1.0 - eps))
        for t0, d0, k, spread in itertools.product(specials, specials, specials, (0.0, 2.0, math.inf, math.nan)):
            stationary = t0 - 2.0 * k + factor * spread
            betas = (t0, stationary, d0 / k) if k > 0.0 else (t0, stationary)
            value, beta = min([(cvar._v(t0, d0, k, eps, b), b) for b in betas])
            got = least_v(t0, d0, k, spread), least_v(t0, d0, k, spread, argmin=True)
            assert repr(got) == repr((value, beta)), (eps, t0, d0, k, spread)


def test_threshold_step_reports_an_overflowing_certificate():
    # from a total reward of about 1.5e153, d0 = s2 (a2 a0 - a1^2 / 4)
    # overflows float at the step's floor: no probe there was decided, so the
    # step says so instead of "no feasible threshold"
    params = make_config().miners[0]
    with pytest.raises(SolverError, match=r"^the worst-case CVaR certificate overflows float "
                                          r"at total reward 1e\+155, cost 60, nominal resource 55 "
                                          r"and variance 100$"):
        subproblem_threshold(0.5, 110.0, params, RewardModel(fixed_reward=1e155), 0.1)


# -- the proven widths of the strategy step's bounds (see cvar._strategy_slack)


def _step_floats(alpha, u, load, params, reward):
    """(t0, d0, k, spread, scale, q) at alpha in the strategy slack's float
    order; q bounds spread / scale at every alpha."""
    m, s2, cost = params.nominal, params.sigma2, params.cost
    s, a0 = u + (-reward.total + cost * load), u * load
    sigma = math.sqrt(s2)
    reach = m + 3.0 * sigma
    a2, a1 = cost * alpha * alpha, s * alpha
    t0 = a2 * (s2 + m * m) + a1 * m + a0
    d0 = s2 * (a2 * a0 - 0.25 * a1 * a1)
    scale = 1.0 + abs(a0) + abs(a1) * reach + a2 * reach * reach
    return t0, d0, s2 * a2, sigma * abs(a2 * m + 0.5 * a1), scale, sigma * max(m / (reach * reach), 0.5 / reach)


def _exact_v(alpha, u, load, params, reward, eps):
    """(min v, v) at 50 digits at the exact alpha, from the step's floats
    s = u - R + cost load and u load: min v is the least v over the exact
    candidates t0, the stationary point and d0 / k, so -min v is the exact
    slack e(alpha)."""
    dec = decimal.Decimal
    ctx = decimal.Context(prec=50)
    a, cost, m, s2, e = (dec(x) for x in (alpha, params.cost, params.nominal, params.sigma2, eps))
    a2 = ctx.multiply(ctx.multiply(cost, a), a)
    a1 = ctx.multiply(dec(u + (-reward.total + params.cost * load)), a)
    a0 = dec(u * load)
    t0 = ctx.add(ctx.add(ctx.multiply(a2, ctx.add(s2, ctx.multiply(m, m))), ctx.multiply(a1, m)), a0)
    k = ctx.multiply(s2, a2)
    d0 = ctx.multiply(s2, ctx.subtract(ctx.multiply(a2, a0), ctx.divide(ctx.multiply(a1, a1), 4)))
    spread = ctx.multiply(ctx.sqrt(s2), abs(ctx.add(ctx.multiply(a2, m), ctx.divide(a1, 2))))

    def v(beta):
        beta = dec(beta)
        t, d = ctx.subtract(t0, beta), ctx.subtract(d0, ctx.multiply(beta, k))
        if d >= 0:
            return ctx.add(beta, ctx.divide(max(t, dec(0)), e))
        return ctx.add(beta, ctx.divide(ctx.add(t / 2, ctx.sqrt(ctx.subtract(ctx.multiply(t, t) / 4, d))), e))

    stationary = t0 - 2 * k + ctx.divide(1 - 2 * e, ctx.sqrt(e * (1 - e))) * spread
    return min(v(b) for b in [t0, stationary] + ([ctx.divide(d0, k)] if k > 0 else [])), v


def _proof_cases(rng, count):
    """(u, load, params, reward, eps, alphas): wide steps, with alpha = 0, 1,
    three random alphas and the alpha where the spread is 0; a third of them
    at eps 0.001 to 0.01, where the beta bracket grows."""
    for i in range(count):
        load, eps, params, reward = _wide_step_inputs(rng)
        if i % 3 == 0:
            eps = float(rng.choice([0.001, 0.003, 0.01]))
        u = float(rng.uniform(-3000.0, 3000.0))
        s = u + (-reward.total + params.cost * load)
        alphas = [0.0, 1.0, *np.exp(rng.uniform(math.log(1e-3), 0.0, size=3)).tolist()]
        flat = -s / (2.0 * params.cost * params.nominal)  # a2 mu_bar + a1 / 2 = 0
        if 0.0 < flat <= 1.0:
            alphas.append(flat)
        yield u, load, params, reward, eps, alphas


def test_v_rounding_error_bound_holds():
    # (F2): a float v at any float beta errs by at most 2^-47 (scale + |beta|) / eps
    rng = np.random.default_rng(61)
    for u, load, params, reward, eps, alphas in _proof_cases(rng, 150):
        for alpha in alphas:
            t0, d0, k, spread, scale, _ = _step_floats(alpha, u, load, params, reward)
            _, v = _exact_v(alpha, u, load, params, reward, eps)
            least = cvar._exact_minimizer(eps)(t0, d0, k, spread, argmin=True)
            for beta in (least, t0, *rng.normal(0.0, scale, 2), *rng.normal(0.0, scale / eps, 2)):
                beta = float(beta)
                bound = 2.0 ** -47 * (scale + abs(beta)) / eps
                assert abs(decimal.Decimal(cvar._v(t0, d0, k, eps, beta)) - v(beta)) <= decimal.Decimal(bound)


def test_least_v_error_bound_holds():
    # (b): |least_v - min v| <= E_v * scale, min v at 50 digits at the exact alpha
    rng = np.random.default_rng(62)
    for u, load, params, reward, eps, alphas in _proof_cases(rng, 300):
        for alpha in alphas:
            t0, d0, k, spread, scale, q = _step_floats(alpha, u, load, params, reward)
            _, _, e_v, _ = cvar._widths(eps, q)
            exact, _ = _exact_v(alpha, u, load, params, reward, eps)
            least = cvar._exact_minimizer(eps)(t0, d0, k, spread)
            assert abs(decimal.Decimal(least) - exact) <= decimal.Decimal(e_v * scale), (alpha, u, eps)


def test_beta_search_excess_is_at_most_g():
    # (c): the search's v exceeds min v by at most G * scale, also where its
    # bracket grows, which it does on many of these steps
    rng = np.random.default_rng(63)
    grown = 0
    for u, load, params, reward, eps, alphas in _proof_cases(rng, 300):
        for alpha in alphas:
            t0, d0, k, _, scale, q = _step_floats(alpha, u, load, params, reward)
            _, _, _, g = cvar._widths(eps, q)
            exact, _ = _exact_v(alpha, u, load, params, reward, eps)
            value = cvar._beta_search(t0, d0, k, eps, scale)[0]
            assert decimal.Decimal(value) - exact <= decimal.Decimal(g * scale), (alpha, u, eps)
            mid = cvar._v(t0, d0, k, eps, 0.0)
            grown += min(cvar._v(t0, d0, k, eps, -scale), cvar._v(t0, d0, k, eps, scale)) < mid
    assert grown > 100
    # near eps = 1/2 the proof bounds no run of growths, so no G exists
    assert cvar._widths(0.5, 0.1)[1] == cvar._widths(0.5, 0.1)[3] == math.inf


def test_beta_search_stops_growing_at_a_tie():
    # at eps = 1/2 this V (slopes -1 and 1, vertex at beta = -1) ties the
    # midpoint 0 with the end -2; a tie brackets the minimum of a convex v,
    # so the bracket stays [-2, 2] and the search finds -1 to its width
    value, beta = cvar._beta_search(-1.0, 0.0, 0.0, 0.5, 2.0)
    tol = 1e-13 * (1.0 + 2.0 + 2.0)
    assert abs(value + 1.0) <= tol and abs(beta + 1.0) <= tol


def test_exact_slack_is_concave():
    # (a): the second differences of the 50-digit e(alpha) over a 41-point
    # grid, exactly spaced at 2^-6, are <= 0 (up to the 50-digit rounding)
    rng = np.random.default_rng(64)
    grid = [0.375 + i * 2.0 ** -6 for i in range(41)]
    for u, load, params, reward, eps, _ in _proof_cases(rng, 100):
        e = [-_exact_v(alpha, u, load, params, reward, eps)[0] for alpha in grid]
        slack = decimal.Decimal(_step_floats(1.0, u, load, params, reward)[4]) * decimal.Decimal("1e-40")
        assert all(e[i - 1] - 2 * e[i] + e[i + 1] <= slack for i in range(1, 40)), (u, eps)


def test_strategy_grid_reads_few_ceilings_on_configs(work):
    # the climb reads a few ceilings next to the incoming alpha, of the 41
    # a full scan reads, in every cvar strategy step of configs/*.json
    for path in sorted(CONFIGS.glob("*.json")):
        scenario = load_scenario(path)
        assert solve_equilibrium(scenario.config, "dro_cvar", initial_alpha=scenario.initial_alpha).converged
    scans = work.counts["scans"]
    assert scans == 250
    assert work.counts["ceilings_max"] <= 16 and work.counts["ceilings"] / scans <= 4


@pytest.mark.parametrize("sigma", [1e60, 1e80, 1e90, 1e130, 1e150])
def test_scan_with_bounds_matches_the_exact_scan_at_huge_sigma(sigma):
    # past sigma ~ 1e80 the slack is -inf or NaN while the exact minimum, and
    # so the ceiling, stays finite; the floor is -inf there, so no probe wins
    # a comparison on its bounds against a slack that is not a number
    rng = np.random.default_rng(int(math.log10(sigma)))
    for _ in range(48):
        load, eps, params, reward = _wide_step_inputs(rng)
        params = MinerParams(x_hat=params.x_hat, sigma2=sigma * sigma, cost=params.cost)
        slack, bounds, _ = cvar._strategy_slack(
            float(rng.uniform(-3000.0, 3000.0)), load, params, reward, eps
        )
        tau0 = float(rng.uniform(0.05, 0.9))
        step = max((1.0 - tau0) / 40.0, 1e-4)
        grid = scan_grid(tau0, 1.0, step)
        if any(math.isnan(slack(x)) for x in grid):  # a NaN on the grid certifies nothing
            expected = (tau0, math.nan)
        else:
            expected = grid_scan_max(slack, tau0, 1.0, step, 1e-6)
        assert repr(scan_golden_max(slack, tau0, 1.0, step, 1e-6, bounds=bounds)) == repr(expected)


def test_strategy_step_equals_the_grid_scan_oracle():
    # the bound only skips exact scores; the step must return what scoring
    # every grid point and golden probe returns, float for float
    rng = np.random.default_rng(28)
    cases = []
    for instance in range(1000):
        if instance % 2:
            alpha, load, eps, params, reward = _random_step_inputs(rng)
        else:
            load, eps, params, reward = _wide_step_inputs(rng)
            alpha = float(rng.uniform(0.05, 1.0))
        try:
            u = subproblem_threshold(alpha, load, params, reward, eps)
        except SolverError:  # nothing certifies: every alpha is infeasible
            u = float(rng.uniform(-3000.0, 3000.0))
        u += float(rng.choice([-100.0, -1.0, 0.0, 1.0]))
        tau0 = float(rng.uniform(0.05, 0.9))
        cases.append((u, max(tau0, alpha), load, params, reward, tau0, eps))
    steps = [subproblem_strategy(*case) for case in cases]
    assert steps == [reference_scan_strategy(cvar._strategy_slack(u, load, params, reward, eps)[0], alpha_in, tau0)
                     for u, alpha_in, load, params, reward, tau0, eps in cases]
    assert 0 < sum(feasible for _, _, feasible in steps) < len(steps)


def test_strategy_step_runs_few_beta_searches(work):
    # 41 grid points, ~24 golden probes and the incoming alpha would cost one
    # beta search each (about 67 a step); the floor and ceiling decide most
    # comparisons, and each alpha is scored once a step, which leaves 4.44
    # (6.5 while every overlap of two probes scored both, the grid's best
    # point was always scored, and so was the last midpoint below the bar;
    # 9.7 with the measured widths 1e-9 / eps and 1e-12 / eps)
    for config in (make_config(), make_config(x_hat=[35.0, 42.0, 50.0, 57.0, 60.0], tau0=0.1)):
        assert solve_equilibrium(config, "dro_cvar").converged
    steps = work.counts["strategy_steps"]
    assert steps >= 10
    assert work.counts["beta_searches"] / steps <= 4.5


def test_heterogeneous_solve_does_the_same_work(work):
    # machine-independent work counts of one dro_cvar solve of
    # configs/heterogeneous.json, as recorded with the climb on ceilings, the
    # proven widths of cvar._widths, and searches only where a decision
    # reads them (89 searches and 1144 bounds before the climb, 59 and 448
    # before the last; the bar test reads one more ceiling, at the golden
    # midpoint, where the grid point lies below the bar): equal counts show
    # that no strategy step, bound or beta search decided differently;
    # test_work.py pins every count of this solve
    scenario = load_scenario(CONFIGS / "heterogeneous.json")
    result = solve_equilibrium(scenario.config, "dro_cvar", initial_alpha=scenario.initial_alpha)
    assert result.converged
    counts = {key: work.counts[key] for key in ("strategy_steps", "beta_searches", "bounds")}
    assert counts == {"strategy_steps": 18, "beta_searches": 37, "bounds": 464}


def _plateau(x):
    return 1.0 if 0.3 <= x <= 0.6 else 0.0


def _gappy(x):
    return int(x * 1000) % 3 == 0


SCAN_CASES = {  # name -> (f, floor, ceiling)
    "concave": (lambda x: -(x - 0.37) ** 2,
                lambda x: -(x - 0.37) ** 2 - 0.2 * abs(math.cos(29 * x)),
                lambda x: -(x - 0.37) ** 2 + 0.3 * abs(math.sin(37 * x))),
    # tight: the floor and the ceiling are f
    "bound-is-f": (lambda x: -abs(x - 0.81), lambda x: -abs(x - 0.81), lambda x: -abs(x - 0.81)),
    "two-peaks": (lambda x: math.sin(9 * x), lambda x: math.sin(9 * x) - 1e-3,
                  lambda x: math.sin(9 * x) + 1e-3),
    "plateau-ties": (_plateau, lambda x: _plateau(x) - (x < 0.4), lambda x: _plateau(x) + (x > 0.5)),
    # a probe's floor of 1 exactly ties the other probe's ceiling of 1
    "bound-ties-value": (lambda x: float(x >= 0.5), lambda x: float(x >= 0.5), lambda x: 1.0),
    # the best ceiling, on one grid point, has a floor that ties the
    # ceilings of the plateau left of it, whose values tie its own: the
    # first maximum lies to its left
    "floor-ties-left": (_plateau, _plateau, lambda x: _plateau(x) + 0.5 * (0.45 < x < 0.465)),
    "nan-ceilings": (lambda x: -(x - 0.6) ** 2, lambda x: -(x - 0.6) ** 2 - 0.05,
                     lambda x: math.nan if _gappy(x) else -(x - 0.6) ** 2),
    "nan-floors": (lambda x: -(x - 0.45) ** 2,
                   lambda x: math.nan if _gappy(x) else -(x - 0.45) ** 2 - 1e-3,
                   lambda x: -(x - 0.45) ** 2 + 1e-3),
    "nan-value": (lambda x: math.nan if 0.7 < x < 0.72 else -(x - 0.2) ** 2,
                  lambda x: math.nan if 0.7 < x < 0.72 else -(x - 0.2) ** 2 - 0.01,
                  lambda x: math.nan if 0.7 < x < 0.72 else 1.0),
    "minus-infinity": (lambda x: -math.inf if x < 0.5 else -x, lambda x: -math.inf,
                       lambda x: -math.inf if x < 0.5 else 0.0),
}


def _at_bar(top):
    """A float incoming slack whose bar, as ``robust.scan_strategy`` sets
    it, is exactly ``top``, or None if no float near the guess has one."""
    t = (top - 1e-6) / (1.0 + 1e-6) if top >= 0.0 else (top - 1e-6) / (1.0 - 1e-6)
    for _ in range(64):
        bar = t + 1e-6 * (1.0 + abs(t))
        if bar == top:
            return t
        t = math.nextafter(t, -math.inf if bar > top else math.inf)
    return None


def _with_incoming(g, alpha_in, value):
    return lambda x: value if x == alpha_in else g(x)


@pytest.mark.parametrize("name", SCAN_CASES)
def test_scan_with_a_ceiling_matches_the_exact_scan(name):
    f, floor, ceiling = SCAN_CASES[name]

    def bounds(x):
        return floor(x), ceiling(x)

    def logged(g, log):
        def wrapper(x):
            log.append(x)
            return g(x)

        return wrapper

    skipped = 0
    for lo, hi, step in ((0.1, 1.0, 0.0225), (0.5, 1.0, 0.0125), (0.05, 1.0, 0.02375)):
        exact_calls, calls = [], []
        expected = grid_scan_max(logged(f, exact_calls), lo, hi, step, 1e-6)
        grid = scan_grid(lo, hi, step)
        top = max(ceiling(x) for x in np.linspace(lo, hi, 4001).tolist())
        # a climb with an error wider than any finite gap between the values,
        # or with none (None, inf, NaN), which reads every point; with bounds
        # on the ceilings, without on f, and from the first point or the
        # middle; and with no bar, or one below, at or above the maximum, or NaN
        for error, has_bounds, start in itertools.product(
            (None, math.inf, math.nan, 8.0), (False, True), (None, 0.5 * (lo + hi))
        ):
            # a NaN that the scan reads on the grid, f or with bounds the
            # ceiling, certifies nothing
            read = (f, ceiling) if has_bounds else (f,)
            want = (lo, math.nan) if any(math.isnan(g(x)) for g in read for x in grid) else expected
            for bar in (None, want[1] - 1.0, want[1], want[1] + 1.0, math.nan):
                values, ceilings = [], []
                hints = {"bounds": logged(bounds, ceilings)} if has_bounds else {}
                got = scan_golden_max(logged(f, values), lo, hi, step, 1e-6, error=error, start=start, bar=bar,
                                      **hints)
                # None only with bounds, and only for a maximum below the bar;
                # always None once the bar is above every ceiling
                if got is None:
                    assert has_bounds and want[1] < bar, (error, start, bar)
                    skipped += 1
                else:
                    assert repr(got) == repr(want), (error, has_bounds, start, bar)  # repr: NaN matches NaN
                    assert not (has_bounds and bar is not None and bar > top + 0.01 and want[1] == want[1]), (error, start, bar)
                for log in (values, ceilings):  # no grid point is read twice
                    on_grid = [x for x in log if x in grid]
                    assert len(on_grid) == len(set(on_grid)), (error, has_bounds, start, bar)
        # without hints: scored once per point, in order, up to the first NaN,
        # or else but for the golden section's last probe, which no
        # comparison reads
        got = scan_golden_max(logged(f, calls), lo, hi, step, 1e-6)
        holes = [i for i, x in enumerate(grid) if math.isnan(f(x))]
        if holes:
            assert repr(got) == repr((lo, math.nan)) and calls == grid[:holes[0] + 1]
        else:
            assert repr(got) == repr(expected) and calls == exact_calls[:-2] + exact_calls[-1:]
        # the whole strategy step, whose bar the incoming slack sets: below,
        # at (where a float incoming slack gives that bar) and above the
        # maximum, and NaN, against the oracle that scores every point, or
        # on a grid with a NaN the step's rule: keep alpha_in, infeasible.
        # alpha_in lies off the grid, so only it reads the incoming value
        tau0, alpha_in = lo, lo + 0.3 * step
        strategy_step = max((1.0 - tau0) / 40.0, 1e-4)
        best = grid_scan_max(f, tau0, 1.0, strategy_step, 1e-6)[1]
        incomings = [best - 1.0, best + 1.0, math.nan]
        if math.isfinite(best) and _at_bar(best) is not None:
            incomings.append(_at_bar(best))
        for incoming, error, has_bounds in itertools.product(incomings, (None, 8.0), (False, True)):
            slack = _with_incoming(f, alpha_in, incoming)
            hints = {"bounds": _with_incoming(bounds, alpha_in, (incoming, incoming))} if has_bounds else {}
            got = scan_strategy(slack, alpha_in, tau0, error=error, **hints)
            read = (f, ceiling) if has_bounds else (f,)
            if any(math.isnan(g(x)) for g in read for x in scan_grid(tau0, 1.0, strategy_step)):
                want = (alpha_in, incoming, False)
            else:
                want = reference_scan_strategy(slack, alpha_in, tau0)
            assert repr(got) == repr(want), (incoming, error, has_bounds)
    if name in ("concave", "bound-is-f", "two-peaks"):  # ceilings within 0.3 of a finite maximum
        assert skipped > 0


def test_bounds_that_settle_the_grid_spare_its_best_point():
    # ceilings within 1e-6 of a concave f: the best grid point's floor lies
    # above every other ceiling, so the climb settles it without reading f
    # there, and f is read on the grid only where the final comparison
    # needs it: at a peak on the grid, whose ceiling lies above the golden
    # section's value.  With bounds 1e-3 wide the neighbours' ceilings
    # reach the best point's floor, and the window is scored from the best
    # ceiling down, 3 points
    lo, hi, step = 0.1, 1.0, 0.0225
    grid = scan_grid(lo, hi, step)
    for peak, gap, grid_reads in ((0.38, 1e-6, 0), (grid[12], 1e-6, 1), (0.38, 1e-3, 3)):
        def f(x, peak=peak):
            return -abs(x - peak) if peak in grid else -(x - peak) ** 2

        values = []

        def logged(x, f=f):
            values.append(x)
            return f(x)

        def bounds(x, f=f, gap=gap):
            return f(x) - gap, f(x) + gap

        got = scan_golden_max(logged, lo, hi, step, 1e-6, bounds=bounds, error=8.0, start=0.5)
        assert repr(got) == repr(grid_scan_max(f, lo, hi, step, 1e-6)), peak
        assert sum(x in grid for x in values) == grid_reads, (peak, gap)
