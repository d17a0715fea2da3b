"""Tests for the worst-case-CVaR robust best response."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from powgame import (
    ConvergenceError,
    LossCoefficients,
    MomentMatrix,
    RewardModel,
    certify,
    others_load,
    robust_best_response,
    robust_best_response_gaussian,
    solve_equilibrium,
    subproblem_strategy,
    subproblem_strategy_gaussian,
    subproblem_threshold,
    subproblem_threshold_gaussian,
    utility,
    worstcase_cvar,
)
from powgame import SolverError, bti, cvar, robust
from powgame._search import _first_argmax, scan_golden_max
from powgame.cli import load_scenario
from powgame.deterministic import best_response
from powgame.model import MinerParams
from powgame.robust import scan_strategy
from powgame.validate import DISTRIBUTIONS, sample_uncertainty

from conftest import (
    BAD_STEP_INPUTS,
    CvarEvaluator,
    barrier_worstcase_cvar,
    eigh_certificate,
    grid_scan_max,
    make_config,
    outer_best_response_oracle,
    plain_bisect_threshold,
    reference_worstcase_cvar,
    sqrt_moment_matrix,
    two_point_batch,
)

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


@pytest.mark.parametrize("call, message", BAD_STEP_INPUTS.values(), ids=BAD_STEP_INPUTS)
def test_bad_step_inputs_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call(subproblem_threshold, subproblem_strategy, worstcase_cvar)


def test_moment_matrix():
    m = MomentMatrix(mu_bar=55.0, sigma2=100.0)
    omega = m.matrix
    assert np.linalg.det(omega) == pytest.approx(100.0)
    root = sqrt_moment_matrix(m)
    assert np.allclose(root @ root, omega, atol=1e-10)
    with pytest.raises(ValueError):
        sqrt_moment_matrix(MomentMatrix(mu_bar=55.0, sigma2=0.0))


def test_worstcase_cvar_linear_loss_closed_form():
    # for L(x) = x the worst-case CVaR is mu + s * sqrt((1-eps)/eps); a2 = 0
    # also exercises the exact minimum without its determinant kink (k = 0)
    for mu, s, eps in ((3.0, 2.0, 0.1), (55.0, 10.0, 0.05), (-4.0, 1.0, 0.3)):
        coeffs = LossCoefficients(a2=0.0, a1=1.0, a0=0.0)
        moments = MomentMatrix(mu, s * s)
        expected = mu + s * math.sqrt((1 - eps) / eps)
        value, _ = worstcase_cvar(coeffs, moments, eps)
        assert value == pytest.approx(expected, rel=1e-8)
        exact, _ = CvarEvaluator(coeffs, moments, eps).exact_min()
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
        exact, _ = CvarEvaluator(coeffs, moments, eps).exact_min()
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
        evaluator = CvarEvaluator(coeffs, moments, eps)
        exact, beta = evaluator.exact_min()
        golden, _ = worstcase_cvar(coeffs, moments, eps)
        assert abs(exact - golden) <= 1e-9 * (1.0 + abs(golden))
        assert exact <= golden + 1e-12 * (1.0 + abs(golden))
        # the scalar v against the clipped congruence it replaces
        root = sqrt_moment_matrix(moments)
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
    # u is feasible, u + 2 tolerances is not
    assert cvar._strategy_slack(u, 110.0, params, REWARD, 0.1)[0](0.5) >= 0.0
    assert cvar._strategy_slack(u + 2e-6, 110.0, params, REWARD, 0.1)[0](0.5) < 0.0
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

    monkeypatch.setattr(cvar, "_beta_search", counted(cvar._beta_search))
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
    u = subproblem_threshold(alpha, load, params, REWARD, 0.1)
    u_det = utility(0, [alpha, 0.3, 0.3, 0.3, 0.3], [50.0] * 5, REWARD, params.cost)
    assert u == pytest.approx(u_det, abs=1e-2)


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


def test_threshold_monotone_in_sigma():
    config = make_config()
    params0 = config.miners[0]
    values = []
    for sigma in (1.0, 5.0, 10.0):
        p = make_config(sigma=sigma).miners[0]
        u = subproblem_threshold(0.5, 110.0, p, REWARD, 0.1)
        values.append(u)
    assert values[0] >= values[1] >= values[2]


def test_threshold_monotone_in_epsilon():
    params = make_config().miners[0]
    values = [
        subproblem_threshold(0.5, 110.0, params, REWARD, eps)
        for eps in (0.02, 0.05, 0.1, 0.3, 0.5)
    ]
    assert all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))


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
    slack_at, _ = cvar._strategy_slack(u, load, params, REWARD, eps)
    best = max(slack_at(float(a)) for a in grid)
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
        return subproblem_threshold(alpha, load, params, REWARD, config.epsilon)

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
    with pytest.raises(SolverError, match="no feasible threshold above"):
        subproblem_threshold(0.5, 110.0, params, REWARD, 0.1)


def test_strategy_step_with_no_feasible_alpha_returns_incoming():
    params = make_config().miners[0]
    u_star = subproblem_threshold(0.5, 110.0, params, REWARD, 0.1)
    alpha, slack, feasible = subproblem_strategy(
        u_star + 500.0, 0.5, 110.0, params, REWARD, 0.5, 0.1
    )
    assert alpha == 0.5 and slack < 0.0 and not feasible


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


@pytest.mark.parametrize(
    "best_response_fn",
    [robust_best_response, robust_best_response_gaussian],
    ids=["dro_cvar", "gaussian_bti"],
)
def test_robust_best_response_iteration_cap(monkeypatch, best_response_fn):
    config = make_config(n=5, x_hat=50.0)
    monkeypatch.setattr(robust, "AO_TOL", -1.0)
    monkeypatch.setattr(robust, "AO_CAP", 3)
    with pytest.raises(ConvergenceError) as err:
        best_response_fn(0, [0.6] * 5, config)
    assert err.value.last is not None
    assert len(err.value.last.u_history) == 4


@pytest.mark.parametrize("backend", ["dro_cvar", "gaussian_bti"])
def test_strategy_step_scores_incoming_alpha_once(monkeypatch, backend):
    # 0.7123 is off the scan grid, so only the incoming score lands on it
    alpha_in, load, eps = 0.7123, 110.0, 0.1
    params = make_config().miners[0]
    scored = []
    if backend == "dro_cvar":
        module, strategy = cvar, subproblem_strategy
        u = subproblem_threshold(alpha_in, load, params, REWARD, eps)
    else:
        module, strategy = bti, subproblem_strategy_gaussian
        u = subproblem_threshold_gaussian(alpha_in, load, params, REWARD, eps)
    original = module.scan_strategy
    bounded = []

    def scanning(slack, alpha_in, tau0, bounds=None, error=None):
        def counted(alpha):
            scored.append(alpha)
            return slack(alpha)

        if bounds is not None:  # cvar: the bounds spare most exact scores
            def bracket(alpha):
                bounded.append(alpha)
                return bounds(alpha)

            return original(counted, alpha_in, tau0, bracket)
        return original(counted, alpha_in, tau0, error=error)

    monkeypatch.setattr(module, "scan_strategy", scanning)
    strategy(u - 1.0, alpha_in, load, params, REWARD, 0.5, eps)
    if backend == "dro_cvar":
        assert len(bounded) > 40  # the scan read every ceiling
    else:  # bti: the climb scores only the grid points next to the peak
        grid = np.arange(0.5, 1.0 + 0.5 * 0.0125, 0.0125).tolist()
        assert 0 < sum(a in grid for a in scored) < 41
    assert scored.count(alpha_in) == 1


def test_robust_best_response_certificate_is_final_iterate():
    # the witness built on request at the returned (alpha, u_min) certifies
    # the last threshold step, not an earlier iterate; the AO moves on this
    # instance
    config = make_config(n=5, x_hat=50.0, tau0=0.1)
    profile = [0.3] * 5
    response = robust_best_response(0, profile, config)
    assert response.u_history[0] < response.u_min
    params = config.miners[0]
    load = 4 * 0.3 * 50.0
    cert = certify(response.alpha, response.u_min, load, params, REWARD, config.epsilon)
    assert cert.u_min == response.u_min
    coeffs = LossCoefficients.from_strategy(
        response.alpha, response.u_min, load, params.cost, REWARD.total
    )
    for slack in cert.slacks(coeffs, MomentMatrix.from_params(params), config.epsilon):
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
        moments = MomentMatrix.from_params(params)

        def coeffs(a, u):
            return LossCoefficients.from_strategy(a, u, load, params.cost, reward.total)

        def reference_min(u):
            return CvarEvaluator(coeffs(alpha, u), moments, eps).exact_min()

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
            slack, _ = cvar._strategy_slack(u, load, params, reward, eps)
            for a in (alpha, *rng.uniform(0.05, 1.0, size=2)):
                reference = reference_worstcase_cvar(coeffs(float(a), u), moments, eps)
                assert slack(float(a)) == -reference[0]
                assert worstcase_cvar(coeffs(float(a), u), moments, eps) == reference
        if instance % 10 == 0:  # the whole strategy step, on a tenth of the instances
            tau0 = float(rng.uniform(0.05, 0.9))
            reference = scan_strategy(
                lambda a: -reference_worstcase_cvar(coeffs(a, u_star), moments, eps)[0], alpha, tau0
            )
            assert subproblem_strategy(u_star, alpha, load, params, reward, tau0, eps) == reference


def test_cvar_best_response_builds_no_reference_objects(monkeypatch):
    # both steps, and certify after them, evaluate v and the witness from
    # per-step constants, never through the reference objects or a matrix
    # factorization
    built = []
    for cls in (LossCoefficients, MomentMatrix):
        original = cls.__init__

        def counted_init(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)
    for name in ("eigh", "inv"):
        original = getattr(np.linalg, name)

        def counted_call(*args, _original=original, _name=name, **kwargs):
            built.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted_call)
    config = make_config(n=5, x_hat=50.0)
    response = robust_best_response(0, [0.6] * 5, config)
    load = others_load(0, [0.6] * 5, config.nominal_resources())
    cert = certify(response.alpha, response.u_min, load, config.miners[0], REWARD, config.epsilon)
    assert response.iterations >= 1 and cert.u_min == response.u_min
    assert built == []


def test_best_response_and_solve_build_no_witness(monkeypatch):
    # the solver reads only thresholds: no step builds a (beta, M) witness
    # unless certify is asked for one
    built = []
    original = cvar._trace_minimal_witness

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(cvar, "_trace_minimal_witness", counted)
    response = robust_best_response(0, [0.3] * 5, make_config(n=5, x_hat=50.0, tau0=0.1))
    assert response.iterations >= 1
    result = solve_equilibrium(make_config(n=3, x_hat=[45.0, 50.0, 55.0], tau0=0.4), "dro_cvar")
    assert result.converged
    assert built == []
    params = make_config().miners[0]
    certify(0.5, subproblem_threshold(0.5, 110.0, params, REWARD, 0.1), 110.0, params, REWARD, 0.1)
    assert len(built) == 1


def _assert_matches_eigh(cert, coeffs, moments):
    oracle = eigh_certificate(coeffs, moments, cert.beta, cert.u_min)
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
        moments = MomentMatrix.from_params(params)
        assert min(cert.slacks(coeffs, moments, eps)) >= -1e-7
        _assert_matches_eigh(cert, coeffs, moments)
        count_branch(cert, coeffs)
    assert branches["psd"] > 0 and branches["rank-one"] > 0

    for _ in range(200):
        sigma2, eps = float(rng.uniform(0.5, 15.0)) ** 2, float(rng.uniform(0.02, 0.5))
        a2, a1 = -float(rng.uniform(1.0, 100.0)), float(rng.uniform(-500.0, 500.0))
        a0 = float(rng.uniform(-5000.0, -100.0))
        moments = MomentMatrix(float(rng.uniform(20.0, 80.0)), sigma2)
        diagonal = MomentMatrix(0.0, sigma2)
        # a0 - beta <= -a1^2 / (4 |a2|): Q is negative semidefinite
        nsd_beta = a0 + a1 * a1 / (4.0 * -a2) + float(rng.uniform(1.0, 100.0))
        cases = [  # (coeffs, moments, beta)
            (LossCoefficients(a2, a1, a0), moments, nsd_beta),
            (LossCoefficients(-a2, 0.0, a0), diagonal, a0 + float(rng.uniform(1.0, 100.0))),
            (LossCoefficients(a2, 0.0, a0), diagonal, a0 - float(rng.uniform(1.0, 100.0))),
        ]
        for coeffs, m, beta in cases:
            cert = cvar._trace_minimal_witness(beta, 0.0, coeffs.a2, coeffs.a1, coeffs.a0,
                                               m.mu_bar, m.sigma2)
            m_psd, mq_psd, trace = cert.slacks(coeffs, m, eps)
            assert m_psd >= -1e-7 and mq_psd >= -1e-7
            # the trace slack is -v(beta): M is trace-minimal at every beta
            assert trace == pytest.approx(-CvarEvaluator(coeffs, m, eps).value(beta), rel=1e-9)
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
    # the bounds are the negated exact minimum of v plus (-gap, rho) * scale,
    # with gap = 1e-9 / eps and rho = 1e-12 / eps; without rho about one pair
    # in nine fails the ceiling here, by rounding alone
    rng = np.random.default_rng(27)
    for _ in range(1000):
        load, eps, params, reward = _wide_step_inputs(rng)
        slack, bounds = cvar._strategy_slack(
            float(rng.uniform(-3000.0, 3000.0)), load, params, reward, eps
        )
        for alpha in np.exp(rng.uniform(math.log(1e-3), 0.0, size=3)):
            floor, ceiling = bounds(float(alpha))
            assert floor <= slack(float(alpha)) <= ceiling


@pytest.mark.parametrize(
    "sigma, nonfinite", [(None, set()), (1e80, {"-inf"}), (1e150, {"-inf"}), (1e154, {"-inf", "nan"})],
    ids=["wide", "1e80", "1e150", "1e154"],
)
def test_bounds_and_margin_equal_the_oracle_minimum_bit_for_bit(sigma, nonfinite):
    # the unrolled kernel keeps v's float operations and the candidate order
    # and tie-breaks of the oracle's min over (v, beta) pairs, so bounds and
    # margin are its values, not merely close to them; repr, so that NaN
    # matches NaN.  Wide instances, alpha = 0 (k = 0: two candidates), and
    # huge sigma, where the floor is -inf (scale from 1e140), ceilings reach
    # -inf (1e150) and v's constants overflow to NaN (sigma^2 = 1e308)
    rng = np.random.default_rng(29 if sigma is None else int(math.log10(sigma)))
    seen = set()
    for _ in range(300):
        load, eps, params, reward = _wide_step_inputs(rng)
        if sigma is not None:
            params = MinerParams(x_hat=params.x_hat, mu=params.mu, sigma2=sigma * sigma, cost=params.cost)
        moments = MomentMatrix.from_params(params)
        reach = moments.mu_bar + 3.0 * math.sqrt(moments.sigma2)

        def coeffs(alpha, u):  # LossCoefficients.from_strategy's float order, alpha = 0 allowed
            big_b = -reward.total + params.cost * load
            return LossCoefficients(params.cost * alpha * alpha, (u + big_b) * alpha, u * load)

        def reference(alpha, u):
            return CvarEvaluator(coeffs(alpha, u), moments, eps).exact_min()[0]

        u = float(rng.uniform(-3000.0, 3000.0))
        _, bounds = cvar._strategy_slack(u, load, params, reward, eps)
        for alpha in (0.0, *np.exp(rng.uniform(math.log(1e-3), 0.0, size=3)).tolist()):
            c, ref = coeffs(alpha, u), reference(alpha, u)
            scale = 1.0 + abs(c.a0) + abs(c.a1) * abs(reach) + c.a2 * reach * reach
            floor = -ref - 1e-9 / eps * scale if scale < 1e140 else -math.inf
            expected = (floor, -ref + 1e-12 / eps * scale)
            assert repr(bounds(alpha)) == repr(expected), (alpha, u)
            seen.update(repr(x) for x in expected if not math.isfinite(x))
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
                                          r"at total reward 1e\+155$"):
        subproblem_threshold(0.5, 110.0, params, RewardModel(fixed_reward=1e155), 0.1)


@pytest.mark.parametrize("sigma", [1e60, 1e80, 1e90, 1e130, 1e150])
def test_scan_with_bounds_matches_the_exact_scan_at_huge_sigma(sigma):
    # past sigma ~ 1e80 the slack is -inf or NaN while the exact minimum, and
    # so the ceiling, stays finite; the floor is -inf there, so no probe wins
    # a comparison on its bounds against a slack that is not a number
    rng = np.random.default_rng(int(math.log10(sigma)))
    for _ in range(48):
        load, eps, params, reward = _wide_step_inputs(rng)
        params = MinerParams(x_hat=params.x_hat, sigma2=sigma * sigma, cost=params.cost)
        slack, bounds = cvar._strategy_slack(
            float(rng.uniform(-3000.0, 3000.0)), load, params, reward, eps
        )
        tau0 = float(rng.uniform(0.05, 0.9))
        step = max((1.0 - tau0) / 40.0, 1e-4)
        expected = grid_scan_max(slack, tau0, 1.0, step, 1e-6)
        assert repr(scan_golden_max(slack, tau0, 1.0, step, 1e-6, bounds=bounds)) == repr(expected)


def test_strategy_step_equals_the_grid_scan_oracle(monkeypatch):
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

    def oracle(f, lo, hi, step, tol, **hints):
        return grid_scan_max(f, lo, hi, step, tol)

    monkeypatch.setattr(robust, "scan_golden_max", oracle)
    assert steps == [subproblem_strategy(*case) for case in cases]
    assert 0 < sum(feasible for _, _, feasible in steps) < len(steps)


def test_strategy_step_runs_few_beta_searches(monkeypatch):
    # 41 grid points, ~24 golden probes and the incoming alpha would cost one
    # beta search each (about 67 a step); the floor and ceiling decide most
    # comparisons, and each alpha is scored once a step, which leaves about 10
    searches, steps = [], []

    def counted(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cvar, "_beta_search", counted(cvar._beta_search, searches))
    monkeypatch.setattr(cvar, "subproblem_strategy", counted(cvar.subproblem_strategy, steps))
    for config in (make_config(), make_config(x_hat=[35.0, 42.0, 50.0, 57.0, 60.0], tau0=0.1)):
        assert solve_equilibrium(config, "dro_cvar").converged
    assert len(steps) >= 10
    assert len(searches) / len(steps) <= 12


def test_heterogeneous_solve_does_the_same_work(monkeypatch):
    # machine-independent work counts of one dro_cvar solve of
    # configs/heterogeneous.json, as first recorded: equal counts show that
    # no strategy step, bound or beta search decided differently
    counts = {"steps": 0, "searches": 0, "bounds": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    strategy_slack = cvar._strategy_slack

    def counted_slack(*args):
        slack, bounds = strategy_slack(*args)
        return slack, counted(bounds, "bounds")

    monkeypatch.setattr(cvar, "_beta_search", counted(cvar._beta_search, "searches"))
    monkeypatch.setattr(cvar, "subproblem_strategy", counted(cvar.subproblem_strategy, "steps"))
    monkeypatch.setattr(cvar, "_strategy_slack", counted_slack)
    scenario = load_scenario(Path(__file__).parent.parent / "configs" / "heterogeneous.json")
    result = solve_equilibrium(scenario.config, "dro_cvar", initial_alpha=scenario.initial_alpha)
    assert result.converged
    assert counts == {"steps": 18, "searches": 89, "bounds": 1144}


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


@pytest.mark.parametrize("name", SCAN_CASES)
def test_scan_with_a_ceiling_matches_the_exact_scan(name):
    f, floor, ceiling = SCAN_CASES[name]

    def bounds(x):
        return floor(x), ceiling(x)

    def logged(log):
        def wrapper(x):
            log.append(x)
            return f(x)

        return wrapper

    # the last two are empty ranges, where both return (lo, f(lo))
    ranges = ((0.1, 1.0, 0.0225), (0.5, 1.0, 0.0125), (0.05, 1.0, 0.02375),
              (1.0, 1.0, 0.0125), (0.9, 0.4, 0.02))
    for lo, hi, step in ranges:
        exact_calls, calls = [], []
        expected = grid_scan_max(logged(exact_calls), lo, hi, step, 1e-6)
        # repr, so that NaN matches NaN
        assert repr(scan_golden_max(f, lo, hi, step, 1e-6, bounds=bounds)) == repr(expected)
        # without bounds: scored once per point, in order, but for the
        # golden section's last probe, which no comparison reads
        assert repr(scan_golden_max(logged(calls), lo, hi, step, 1e-6)) == repr(expected)
        assert calls == (exact_calls[:-2] + exact_calls[-1:] if lo < hi else exact_calls)


def test_first_argmax_picks_like_numpy():
    # the scan's grid maximum: the first maximum, or the first NaN when there
    # is one, over seeded lists with ties, NaNs, infinities and signed zeros
    rng = np.random.default_rng(41)
    pool = [math.nan, -0.0, 0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]
    for _ in range(3000):
        n = int(rng.integers(1, 42))
        values = [pool[i] if i < len(pool) else float(rng.normal())
                  for i in rng.integers(0, 2 * len(pool), size=n)]
        assert _first_argmax(values) == int(np.argmax(values)), values
