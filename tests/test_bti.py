"""Tests for the Gaussian (Bernstein-bound) robust best response."""

import math

import numpy as np
import pytest

from powgame import (
    BtiCoefficients,
    LossCoefficients,
    RewardModel,
    bti_constraint_value,
    robust_best_response_gaussian,
    subproblem_strategy_gaussian,
    subproblem_threshold_gaussian,
)
from powgame import bti
from powgame.deterministic import best_response
from powgame.model import MinerParams
from powgame.robust import scan_strategy

from conftest import make_config, outer_best_response_oracle, plain_bisect_threshold

REWARD = RewardModel()


def _params(sigma=10.0, x_hat=55.0, mu=0.0, cost=60.0):
    return MinerParams(x_hat=x_hat, mu=mu, sigma2=sigma * sigma, cost=cost,
                       x_min=min(10.0, x_hat), x_max=max(100.0, x_hat))


def test_quadratic_coefficient_hand_value():
    # A = -c alpha^2 sigma^2 = -60 * 0.25 * 100 = -1500
    coeffs = BtiCoefficients.from_strategy(0.5, 0.0, 110.0, _params(), REWARD)
    assert coeffs.A == pytest.approx(-1500.0)


BAD_EPSILON = r"epsilon must be in \(0,1\)"
BAD_STEP_INPUTS = {  # id -> (call, message of its ValueError)
    "coefficients-alpha-0": (
        lambda: BtiCoefficients.from_strategy(0.0, 0.0, 110.0, _params(), REWARD), "alpha > 0"),
    "threshold-no-rival-load": (
        lambda: subproblem_threshold_gaussian(0.5, 0.0, _params(), REWARD, 0.1), "rivals' load"),
    "strategy-no-rival-load": (
        lambda: subproblem_strategy_gaussian(0.0, 0.5, 0.0, _params(), REWARD, 0.5, 0.1),
        "rivals' load"),
    "threshold-epsilon-1": (
        lambda: subproblem_threshold_gaussian(0.5, 110.0, _params(), REWARD, 1.0), BAD_EPSILON),
    "strategy-epsilon-0": (
        lambda: subproblem_strategy_gaussian(0.0, 0.5, 110.0, _params(), REWARD, 0.5, 0.0),
        BAD_EPSILON),
    "constraint-value-epsilon-nan": (
        lambda: bti_constraint_value(
            BtiCoefficients.from_strategy(0.5, 0.0, 110.0, _params(), REWARD), math.nan),
        BAD_EPSILON),
}


@pytest.mark.parametrize("call, message", BAD_STEP_INPUTS.values(), ids=BAD_STEP_INPUTS)
def test_bad_step_inputs_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_f_matches_negated_loss():
    # f(e) must equal -L(mu_bar + sigma e) as an algebraic identity
    rng = np.random.default_rng(30)
    for _ in range(100):
        alpha = float(rng.uniform(0.2, 1.0))
        u_min = float(rng.uniform(-800.0, 400.0))
        load = float(rng.uniform(40.0, 200.0))
        cost = float(rng.uniform(30.0, 90.0))
        sigma = float(rng.uniform(1.0, 12.0))
        x_hat = float(rng.uniform(30.0, 60.0))
        params = _params(sigma=sigma, x_hat=x_hat, cost=cost)
        bti = BtiCoefficients.from_strategy(alpha, u_min, load, params, REWARD)
        loss = LossCoefficients.from_strategy(alpha, u_min, load, cost, REWARD.total)
        e = float(rng.standard_normal())
        lhs = bti.f(e)
        rhs = -loss(params.nominal + sigma * e)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-8)
        assert bti.A < 0.0  # always strictly negative at positive sigma and alpha
        assert bti.omega == pytest.approx(-bti.A)
        assert bti.upsilon >= abs(bti.A)


def test_constraint_value_epsilon_to_one_limit():
    # choose u_min so that b = 0; then g -> A + D as epsilon -> 1
    params = _params()
    alpha, load = 0.5, 110.0
    big_b = -REWARD.total + params.cost * load
    u_min = -big_b - 2.0 * params.cost * alpha * params.nominal
    coeffs = BtiCoefficients.from_strategy(alpha, u_min, load, params, REWARD)
    assert coeffs.b == pytest.approx(0.0, abs=1e-9)
    # residual shrinks like sqrt(-2 ln eps) * |A| ~ 2e-3 at eps = 1 - 1e-12
    g = bti_constraint_value(coeffs, 1.0 - 1e-12)
    assert g == pytest.approx(coeffs.A + coeffs.D, abs=1e-2)


def test_constraint_value_certifies_gaussian_chance():
    # whenever g >= 0, a standard-normal Monte Carlo confirms the coverage
    rng = np.random.default_rng(31)
    e = rng.standard_normal(100_000)
    params = _params()
    for eps in (0.05, 0.1, 0.3):
        u = subproblem_threshold_gaussian(0.5, 110.0, params, REWARD, eps)
        coeffs = BtiCoefficients.from_strategy(0.5, u, 110.0, params, REWARD)
        assert bti_constraint_value(coeffs, eps) >= -1e-6
        cover = float(np.mean(coeffs.f(e) >= 0.0))
        assert cover >= 1.0 - eps - 3.0 * math.sqrt(eps / len(e))


def test_concavity_in_u_min():
    rng = np.random.default_rng(32)
    for _ in range(100):
        alpha = float(rng.uniform(0.2, 1.0))
        load = float(rng.uniform(40.0, 200.0))
        params = _params(
            sigma=float(rng.uniform(1.0, 12.0)),
            x_hat=float(rng.uniform(30.0, 60.0)),
            cost=float(rng.uniform(30.0, 90.0)),
        )
        eps = float(rng.uniform(0.02, 0.5))
        u1, u2 = sorted(rng.uniform(-2000.0, 2000.0, size=2))

        def g(u):
            return bti_constraint_value(
                BtiCoefficients.from_strategy(alpha, u, load, params, REWARD), eps
            )

        assert g(0.5 * (u1 + u2)) >= 0.5 * (g(u1) + g(u2)) - 1e-9


def test_threshold_bisection_is_exact():
    params = _params()
    for eps in (0.05, 0.1, 0.3):
        u = subproblem_threshold_gaussian(0.5, 110.0, params, REWARD, eps)

        def g(v):
            return bti_constraint_value(
                BtiCoefficients.from_strategy(0.5, v, 110.0, params, REWARD), eps
            )

        assert g(u) >= 0.0
        assert g(u + 2e-6) < 0.0


def test_threshold_monotone_in_epsilon():
    params = _params()
    values = [
        subproblem_threshold_gaussian(0.5, 110.0, params, REWARD, eps)
        for eps in (0.02, 0.1, 0.3)
    ]
    assert values[0] <= values[1] <= values[2]


def test_threshold_dominates_cvar_on_gaussian_instance():
    # the Gaussian-specific bound is less conservative than the
    # distribution-free certificate on the same instance at small eps
    from powgame import subproblem_threshold

    params = _params()
    for eps in (0.02, 0.05, 0.1):
        u_bti = subproblem_threshold_gaussian(0.5, 110.0, params, REWARD, eps)
        u_cvar = subproblem_threshold(0.5, 110.0, params, REWARD, eps)
        assert u_bti >= u_cvar


def test_threshold_small_sigma_recovers_deterministic_utility():
    from powgame import utility

    config = make_config(n=5, x_hat=50.0, sigma=1e-3, tau0=0.25)
    params = config.miners[0]
    profile = [0.3] * 5
    alpha = best_response(0, profile, config)
    assert config.tau0 < alpha < 1.0
    u = subproblem_threshold_gaussian(alpha, 60.0, params, REWARD, 0.1)
    u_det = utility(0, [alpha, 0.3, 0.3, 0.3, 0.3], [50.0] * 5, REWARD, params.cost)
    assert u == pytest.approx(u_det, abs=1e-2)


def test_strategy_slack_equals_constraint_value():
    # with the quadratic auxiliary tight, the strategy step's slack at any
    # alpha is exactly the deterministic bound value there
    params = _params()
    u = -400.0
    alpha, slack, ok = subproblem_strategy_gaussian(u, 0.7, 110.0, params, REWARD, 0.5, 0.1)
    assert ok
    coeffs = BtiCoefficients.from_strategy(alpha, u, 110.0, params, REWARD)
    assert slack == pytest.approx(bti_constraint_value(coeffs, 0.1), rel=1e-9)


def test_strategy_fixed_point_and_exhaustive_scan():
    params = _params(x_hat=50.0)
    u = subproblem_threshold_gaussian(0.7, 120.0, params, REWARD, 0.1)
    a1, s1, ok1 = subproblem_strategy_gaussian(u, 0.7, 120.0, params, REWARD, 0.5, 0.1)
    a2, s2, ok2 = subproblem_strategy_gaussian(u, a1, 120.0, params, REWARD, 0.5, 0.1)
    assert ok1 and ok2
    assert a2 == pytest.approx(a1, abs=1e-6)
    assert s2 >= s1 - 1e-12
    grid = np.linspace(0.5, 1.0, 501)
    best = max(
        bti_constraint_value(
            BtiCoefficients.from_strategy(float(a), u, 120.0, params, REWARD), 0.1
        )
        for a in grid
    )
    assert s1 >= best - 1e-9


def test_steps_evaluate_g_bit_for_bit_like_the_reference():
    # the steps evaluate g from per-step constants; with the reference's float
    # order kept, values and decisions are equal, not merely close.  Next to
    # the threshold, g is large terms cancelling to ~0, so a change in any
    # product's rounding flips the decision at one of the two adjacent floats
    rng = np.random.default_rng(33)
    for _ in range(1000):
        alpha = float(rng.uniform(0.05, 1.0))
        load = float(rng.uniform(20.0, 400.0))
        eps = float(rng.uniform(0.02, 0.5))
        params = MinerParams(
            x_hat=float(rng.uniform(30.0, 60.0)), mu=float(rng.uniform(-5.0, 5.0)),
            sigma2=float(rng.uniform(0.5, 15.0)) ** 2, cost=float(rng.uniform(20.0, 120.0)),
        )
        reward = RewardModel(
            fixed_reward=float(rng.uniform(1000.0, 9000.0)),
            unit_tx_reward=float(rng.uniform(0.0, 20.0)),
            tx_count=float(rng.uniform(0.0, 500.0)),
        )

        def g(a, u):
            coeffs = BtiCoefficients.from_strategy(a, u, load, params, reward)
            return bti_constraint_value(coeffs, eps)

        def reference_certify(u):
            return g(alpha, u) >= 0.0

        margin = bti._threshold_certifier(alpha, load, params, reward, eps)
        for u in rng.uniform(-3000.0, 3000.0, size=4):
            assert (margin(float(u)) >= 0.0) == reference_certify(float(u))
        u_star = plain_bisect_threshold(reference_certify, params, reward)
        assert subproblem_threshold_gaussian(alpha, load, params, reward, eps) == u_star
        lo, hi = u_star, u_star + 2e-6
        while True:  # down to the two adjacent floats where the decision flips
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if reference_certify(mid) else (lo, mid)
        assert margin(lo) >= 0.0 and not margin(hi) >= 0.0

        for u in (u_star, float(rng.uniform(-3000.0, 3000.0))):
            slack = bti._strategy_slack(u, load, params, reward, eps)
            for a in (alpha, *rng.uniform(0.05, 1.0, size=3)):
                assert slack(float(a)) == g(float(a), u)
        tau0 = float(rng.uniform(0.05, 0.9))
        reference = scan_strategy(lambda a: g(a, u_star), alpha, tau0)
        assert subproblem_strategy_gaussian(
            u_star, alpha, load, params, reward, tau0, eps
        ) == reference


def test_gaussian_steps_build_no_coefficients(monkeypatch):
    # both steps evaluate g from per-step constants, never through the
    # reference dataclass (which a sweep would build millions of times)
    built = []
    original = BtiCoefficients.from_strategy.__func__

    def counted(cls, *args):
        built.append(args)
        return original(cls, *args)

    monkeypatch.setattr(BtiCoefficients, "from_strategy", classmethod(counted))
    response = robust_best_response_gaussian(0, [0.6] * 5, make_config(n=5, x_hat=50.0))
    assert response.iterations >= 1
    assert len(built) == 0


def test_robust_best_response_monotone_and_oracle():
    config = make_config(n=5, x_hat=50.0)
    profile = [0.6] * 5
    response = robust_best_response_gaussian(0, profile, config)
    hist = response.u_history
    assert all(hist[i + 1] >= hist[i] - 1e-9 for i in range(len(hist) - 1))
    params = config.miners[0]
    load = 4 * 0.6 * 50.0

    def threshold_value(alpha):
        return subproblem_threshold_gaussian(alpha, load, params, REWARD, config.epsilon)

    _, oracle_u = outer_best_response_oracle(threshold_value, config.tau0)
    assert response.u_min == pytest.approx(oracle_u, abs=1e-4)


def test_robust_best_response_small_sigma_matches_deterministic():
    config = make_config(n=5, x_hat=50.0, sigma=1e-3)
    profile = [0.6] * 5
    response = robust_best_response_gaussian(0, profile, config)
    det = best_response(0, profile, config)
    assert response.alpha == pytest.approx(det, abs=1e-2)


def test_no_feasible_threshold_raises_solver_error():
    from powgame import SolverError

    params = _params(sigma=500.0)
    with pytest.raises(SolverError):
        subproblem_threshold_gaussian(0.5, 110.0, params, REWARD, 0.1)


def test_strategy_step_with_no_feasible_alpha_returns_incoming():
    params = _params()
    alpha, slack, feasible = subproblem_strategy_gaussian(
        8000.0, 0.5, 110.0, params, REWARD, 0.5, 0.1
    )
    assert alpha == 0.5 and slack < 0.0 and not feasible


def test_bti_exceeds_tolerance_under_other_distributions_is_possible():
    # recorded, not asserted as pass/fail: the Gaussian-specific certificate
    # has no worst-case guarantee outside the Gaussian family
    from powgame import empirical_violation, solve_equilibrium, sample_uncertainty

    config = make_config()
    result = solve_equilibrium(config, "gaussian_bti")
    rates = {}
    for dist in ("uniform", "poisson_shifted"):
        batch = sample_uncertainty(dist, 0.0, 100.0, 1000, seed=3, miner_index=0)
        report = empirical_violation(result.alphas, result.u_mins[0], 0, config, batch)
        rates[dist] = report.rate
    print(f"BTI off-Gaussian violation rates (recorded): {rates}")
