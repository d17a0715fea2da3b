"""Tests for the Gaussian (Bernstein-bound) robust best response."""

import decimal
import math
from pathlib import Path

import numpy as np
import pytest

from powgame import (
    LossCoefficients,
    MomentMatrix,
    RewardModel,
    bti_constraint_value,
    robust_best_response_gaussian,
    subproblem_strategy_gaussian,
    subproblem_threshold_gaussian,
)
from powgame import _search, bti, robust, solve_equilibrium
from powgame.cli import load_scenario
from powgame.deterministic import best_response
from powgame.model import MinerParams, SolverError
from powgame.robust import scan_strategy

from conftest import (
    BAD_STEP_INPUTS,
    grid_scan_max,
    make_config,
    outer_best_response_oracle,
    plain_bisect_threshold,
)

REWARD = RewardModel()


def _params(sigma=10.0, x_hat=55.0, mu=0.0, cost=60.0):
    return MinerParams(x_hat=x_hat, mu=mu, sigma2=sigma * sigma, cost=cost,
                       x_min=min(10.0, x_hat), x_max=max(100.0, x_hat))


def _g(alpha, u_min, load, params, eps, reward=REWARD):
    """The reference g of the strategy, through the shared loss and moments."""
    coeffs = LossCoefficients.from_strategy(alpha, u_min, load, params.cost, reward.total)
    return bti_constraint_value(coeffs, MomentMatrix.from_params(params), eps)


def test_quadratic_coefficient_hand_value():
    # A = -a2 sigma^2 = -c alpha^2 sigma^2 = -60 * 0.25 * 100 = -1500; with
    # b = -sigma (a2 mu_bar + a1 / 2) = -4750 and D = -L(mu_bar) = -6875
    coeffs = LossCoefficients.from_strategy(0.5, 0.0, 110.0, 60.0, REWARD.total)
    assert -coeffs.a2 * _params().sigma2 == pytest.approx(-1500.0)
    log_eps = math.log(0.1)
    upsilon = math.hypot(1500.0, math.sqrt(2.0) * 4750.0)
    g = -1500.0 - math.sqrt(-2.0 * log_eps) * upsilon + log_eps * 1500.0 - 6875.0
    assert _g(0.5, 0.0, 110.0, _params(), 0.1) == pytest.approx(g)


@pytest.mark.parametrize("call, message", BAD_STEP_INPUTS.values(), ids=BAD_STEP_INPUTS)
def test_bad_step_inputs_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call(subproblem_threshold_gaussian, subproblem_strategy_gaussian, bti_constraint_value)


def test_constraint_value_epsilon_to_one_limit():
    # choose u_min so that b = 0; then g -> A + D as epsilon -> 1
    params = _params()
    alpha, load = 0.5, 110.0
    big_b = -REWARD.total + params.cost * load
    u_min = -big_b - 2.0 * params.cost * alpha * params.nominal
    coeffs = LossCoefficients.from_strategy(alpha, u_min, load, params.cost, REWARD.total)
    assert coeffs.a2 * params.nominal + 0.5 * coeffs.a1 == pytest.approx(0.0, abs=1e-9)  # b
    # residual shrinks like sqrt(-2 ln eps) * |A| ~ 2e-3 at eps = 1 - 1e-12
    g = bti_constraint_value(coeffs, MomentMatrix.from_params(params), 1.0 - 1e-12)
    assert g == pytest.approx(-coeffs.a2 * params.sigma2 - coeffs(params.nominal), abs=1e-2)  # A + D


def test_constraint_value_certifies_gaussian_chance():
    # whenever g >= 0, a standard-normal Monte Carlo confirms the coverage
    rng = np.random.default_rng(31)
    e = rng.standard_normal(100_000)
    params = _params()
    for eps in (0.05, 0.1, 0.3):
        u = subproblem_threshold_gaussian(0.5, 110.0, params, REWARD, eps)
        assert _g(0.5, u, 110.0, params, eps) >= -1e-6
        loss = LossCoefficients.from_strategy(0.5, u, 110.0, params.cost, REWARD.total)
        cover = float(np.mean(-loss(params.nominal + params.sigma * e) >= 0.0))  # f(e) >= 0
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
            return _g(alpha, u, load, params, eps)

        assert g(0.5 * (u1 + u2)) >= 0.5 * (g(u1) + g(u2)) - 1e-9


def test_threshold_bisection_is_exact():
    params = _params()
    for eps in (0.05, 0.1, 0.3):
        u = subproblem_threshold_gaussian(0.5, 110.0, params, REWARD, eps)

        def g(v):
            return _g(0.5, v, 110.0, params, eps)

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
    assert slack == pytest.approx(_g(alpha, u, 110.0, params, 0.1), rel=1e-9)


def test_strategy_fixed_point_and_exhaustive_scan():
    params = _params(x_hat=50.0)
    u = subproblem_threshold_gaussian(0.7, 120.0, params, REWARD, 0.1)
    a1, s1, ok1 = subproblem_strategy_gaussian(u, 0.7, 120.0, params, REWARD, 0.5, 0.1)
    a2, s2, ok2 = subproblem_strategy_gaussian(u, a1, 120.0, params, REWARD, 0.5, 0.1)
    assert ok1 and ok2
    assert a2 == pytest.approx(a1, abs=1e-6)
    assert s2 >= s1 - 1e-12
    grid = np.linspace(0.5, 1.0, 501)
    best = max(_g(float(a), u, 120.0, params, 0.1) for a in grid)
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
            return _g(a, u, load, params, eps, reward)

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
            slack, _ = bti._strategy_slack(u, load, params, reward, eps)
            for a in (alpha, *rng.uniform(0.05, 1.0, size=3)):
                assert slack(float(a)) == g(float(a), u)
        tau0 = float(rng.uniform(0.05, 0.9))
        reference = scan_strategy(lambda a: g(a, u_star), alpha, tau0)
        assert subproblem_strategy_gaussian(
            u_star, alpha, load, params, reward, tau0, eps
        ) == reference


def test_gaussian_steps_build_no_coefficients(monkeypatch):
    # both steps evaluate g from per-step constants, never through the
    # reference loss and moments (which a sweep would build millions of times)
    built = []
    for cls in (LossCoefficients, MomentMatrix):
        original = cls.__init__

        def counted_init(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)
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


# -- the strategy step's climb on the concave slack (see bti._strategy_slack)


def _wide_gaussian_step(rng):
    """A strategy step's arguments with sigma^2 in [1e-6, 1e8], eps in
    [1e-6, 0.999999] and tau0 in [1e-6, 0.99999], each log-uniform; u_min is
    the threshold at alpha_in, nudged, or a random one when none certifies."""
    params = MinerParams(
        x_hat=float(rng.uniform(30.0, 60.0)), mu=float(rng.uniform(-5.0, 5.0)),
        sigma2=10.0 ** rng.uniform(-6.0, 8.0), cost=float(rng.uniform(20.0, 120.0)),
    )
    reward = RewardModel(fixed_reward=float(rng.uniform(1000.0, 9000.0)))
    eps = 10.0 ** rng.uniform(-6.0, math.log10(0.999999))
    tau0 = 10.0 ** rng.uniform(-6.0, math.log10(0.99999))
    load = float(rng.uniform(20.0, 400.0))
    alpha_in = float(rng.uniform(tau0, 1.0))
    try:
        u = subproblem_threshold_gaussian(alpha_in, load, params, reward, eps)
    except SolverError:  # nothing certifies: every alpha is infeasible
        u = float(rng.uniform(-3000.0, 3000.0))
    u += float(rng.choice([-100.0, -1.0, 0.0, 0.0, 1.0]))
    return u, alpha_in, load, params, reward, tau0, eps


def _full_scan_steps(monkeypatch, cases):
    """Each step with every grid point scored: ``grid_scan_max`` in place of
    the scan, so no climb can run."""
    def oracle(f, lo, hi, step, tol, **hints):
        return grid_scan_max(f, lo, hi, step, tol)

    with monkeypatch.context() as patch:
        patch.setattr(robust, "scan_golden_max", oracle)
        return [subproblem_strategy_gaussian(*case) for case in cases]


def _counted(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


def test_climb_equals_the_full_scan_within_the_error_it_is_given():
    # f is a concave parabola plus up to 0.85 E of fixed noise, rounded to
    # multiples of E / 8: flat runs, false local peaks and exact ties within
    # 2 E of the top, which the climb must all pass over
    rng = np.random.default_rng(23)
    for _ in range(2000):
        lo = float(rng.uniform(0.0, 0.9))
        step = max((1.0 - lo) / 40.0, 1e-4)
        peak, curvature = float(rng.uniform(lo - 0.2, 1.2)), 10.0 ** rng.uniform(-4.0, 2.0)
        error = curvature * step * step * 10.0 ** rng.uniform(-2.0, 1.0)
        quantum = 0.125 * error

        def f(x):
            noisy = -curvature * (x - peak) ** 2 + 0.85 * error * math.sin(7.3e5 * x)
            return quantum * round(noisy / quantum)

        expected = grid_scan_max(f, lo, 1.0, step)
        start = float(rng.uniform(lo, 1.0))
        assert repr(_search.scan_golden_max(f, lo, 1.0, step, error=error, start=start)) == repr(expected)


def test_climb_equals_the_full_scan_on_wide_steps(monkeypatch):
    # the climb scores the grid points next to the peak only; the step must
    # return what scoring every point returns, float for float, and here the
    # full scan never has to run
    rng = np.random.default_rng(24)
    cases = [_wide_gaussian_step(rng) for _ in range(20_000)]
    full_scans = []
    monkeypatch.setattr(_search, "_grid_max", _counted(_search._grid_max, full_scans))
    steps = [subproblem_strategy_gaussian(*case) for case in cases]
    assert full_scans == []
    expected = _full_scan_steps(monkeypatch, cases)
    mismatched = [(case, got, want) for case, got, want in zip(cases, steps, expected) if repr(got) != repr(want)]
    assert mismatched[:3] == []
    assert 0 < sum(feasible for _, _, feasible in steps) < len(steps)


def test_climb_scores_incoming_alpha_once(monkeypatch):
    # a counting wrapper around the slack keeps the climb, since the slack's
    # error bound is an argument of the scan: the full scan never runs, the
    # climb scores fewer than the 41 grid points, and 0.7123, off the grid,
    # is scored once, by the incoming rule
    alpha_in, load, eps = 0.7123, 110.0, 0.1
    params = make_config().miners[0]
    u = subproblem_threshold_gaussian(alpha_in, load, params, REWARD, eps)
    original, scored = bti.scan_strategy, []

    def scanning(slack, alpha_in, tau0, error=None):
        return original(_counted(slack, scored), alpha_in, tau0, error=error)

    full_scans = []
    monkeypatch.setattr(bti, "scan_strategy", scanning)
    monkeypatch.setattr(_search, "_grid_max", _counted(_search._grid_max, full_scans))
    subproblem_strategy_gaussian(u - 1.0, alpha_in, load, params, REWARD, 0.5, eps)
    assert full_scans == []
    scored = [a for (a,) in scored]
    assert scored.count(alpha_in) == 1
    grid = np.arange(0.5, 1.0 + 0.5 * 0.0125, 0.0125).tolist()
    assert 0 < sum(a in grid for a in scored) < 41  # the climb ran, not the scan


@pytest.mark.parametrize("offset", [0, 1, -1])
def test_a_nan_slack_runs_the_full_scan(monkeypatch, offset):
    # a NaN at the climb's start or at a neighbour it scores: the step falls
    # back to the full scan, which reads the NaN as np.argmax does
    params, load, eps, tau0, alpha_in = make_config().miners[0], 110.0, 0.1, 0.5, 0.7123
    u = subproblem_threshold_gaussian(alpha_in, load, params, REWARD, eps)
    step = (1.0 - tau0) / 40.0
    target = tau0 + (round((alpha_in - tau0) / step) + offset) * step
    strategy_slack = bti._strategy_slack

    def holed_slack(*args):
        slack, error = strategy_slack(*args)

        def holed(a):
            return math.nan if abs(a - target) < 0.25 * step else slack(a)

        return holed, error

    monkeypatch.setattr(bti, "_strategy_slack", holed_slack)
    case = (u - 1.0, alpha_in, load, params, REWARD, tau0, eps)
    full_scans = []
    monkeypatch.setattr(_search, "_grid_max", _counted(_search._grid_max, full_scans))
    got = subproblem_strategy_gaussian(*case)
    assert len(full_scans) == 1
    assert repr(got) == repr(_full_scan_steps(monkeypatch, [case])[0])


def test_a_failed_curvature_check_runs_the_full_scan(monkeypatch):
    # kappa / K is at least about 1 / (2 L), so in float the check fails only
    # where its terms overflow: sigma^2 (1 + L) does here, though cost sigma^2
    # does not
    params = MinerParams(x_hat=55.0, sigma2=1e306, cost=1e-300)
    case = (-1e3, 0.7, 110.0, params, REWARD, 0.5, 1e-300)
    _, error = bti._strategy_slack(-1e3, 110.0, params, REWARD, 1e-300)
    assert error == math.inf
    full_scans = []
    monkeypatch.setattr(_search, "_grid_max", _counted(_search._grid_max, full_scans))
    got = subproblem_strategy_gaussian(*case)
    assert len(full_scans) == 1
    assert repr(got) == repr(_full_scan_steps(monkeypatch, [case])[0])


def _exact_g(alpha, u_min, load, params, reward, eps):
    """g(alpha) at 50 digits from the step's float constants s, u_min load,
    log(eps) and c, the concave function ``slack`` rounds."""
    dec = decimal.Decimal
    log_eps = math.log(eps)
    s = dec(u_min + (-reward.total + params.cost * load))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, cost, sigma, mu = dec(alpha), dec(params.cost), dec(params.sigma), dec(params.nominal)
        quad = cost * a * a
        big_a = -quad * sigma * sigma
        b = -sigma * (quad * mu + s / 2 * a)
        d = -(quad * mu * mu + s * a * mu + dec(u_min * load))
        return big_a * (1 - dec(log_eps)) - dec(math.sqrt(-2.0 * log_eps)) * (big_a * big_a + 2 * b * b).sqrt() + d


def test_slack_error_bound_holds():
    # E must bound |slack(alpha) - g(alpha)| at every alpha in (0, 1]; tiny
    # costs and variances make products underflow, which E covers too, and a
    # huge u_min makes u_min load the largest term
    rng = np.random.default_rng(25)
    for i in range(400):
        u, alpha_in, load, params, reward, tau0, eps = _wide_gaussian_step(rng)
        if i % 4 == 0:  # underflowing products
            params = MinerParams(x_hat=params.x_hat, mu=params.mu, sigma2=10.0 ** rng.uniform(-300.0, -6.0),
                                 cost=10.0 ** rng.uniform(-320.0, -280.0))
        elif i % 4 == 1:
            u = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(6.0, 12.0)
        slack, error = bti._strategy_slack(u, load, params, reward, eps)
        assert 0.0 < error < math.inf
        for alpha in (1.0, tau0, alpha_in, *10.0 ** rng.uniform(-8.0, 0.0, size=5)):
            alpha = float(alpha)
            exact = _exact_g(alpha, u, load, params, reward, eps)
            assert abs(decimal.Decimal(slack(alpha)) - exact) <= decimal.Decimal(error), (alpha, u, params, eps)


def test_slack_curvature_is_at_most_minus_kappa():
    # g'' <= -kappa: a second difference of the 50-digit g, divided by h^2,
    # is an average of g'' over [alpha - h, alpha + h]
    rng = np.random.default_rng(26)
    dec, h = decimal.Decimal, 1e-4
    for _ in range(300):
        u, _, load, params, reward, _, eps = _wide_gaussian_step(rng)
        big_l, c = -math.log(eps), math.sqrt(-2.0 * math.log(eps))
        var, mu2 = params.sigma ** 2, params.nominal ** 2
        kappa = 2.0 * params.cost * (var * (1.0 + big_l) + mu2 - c * params.sigma * math.sqrt(var + 2.0 * mu2))
        assert kappa > 1e-6 * params.cost * (var * (1.0 + big_l) + mu2)
        alpha = float(rng.uniform(2.0 * h, 1.0))
        g = [_exact_g(a, u, load, params, reward, eps) for a in (alpha - h, alpha, alpha + h)]
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            second = (g[0] - 2 * g[1] + g[2]) / (dec(h) * dec(h))
        assert second <= dec(-kappa) * dec(1.0 - 1e-9)


def test_heterogeneous_solve_does_the_same_work(monkeypatch):
    # machine-independent work counts of one gaussian_bti solve of
    # configs/heterogeneous.json: the strategy and threshold steps are those
    # of the full scan (12 and 22), the climb and the golden section leave
    # 303 slack evaluations of the 780 that scoring every point takes, and
    # the full scan never runs
    counts = {"steps": 0, "thresholds": 0, "slacks": 0}
    full_scans = []

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    strategy_slack = bti._strategy_slack

    def counted_slack(*args):
        slack, error = strategy_slack(*args)
        return counted(slack, "slacks"), error

    monkeypatch.setattr(bti, "subproblem_strategy_gaussian", counted(bti.subproblem_strategy_gaussian, "steps"))
    monkeypatch.setattr(bti, "subproblem_threshold_gaussian", counted(bti.subproblem_threshold_gaussian, "thresholds"))
    monkeypatch.setattr(bti, "_strategy_slack", counted_slack)
    monkeypatch.setattr(_search, "_grid_max", _counted(_search._grid_max, full_scans))
    scenario = load_scenario(Path(__file__).parent.parent / "configs" / "heterogeneous.json")
    result = solve_equilibrium(scenario.config, "gaussian_bti", initial_alpha=scenario.initial_alpha)
    assert result.converged
    assert counts == {"steps": 12, "thresholds": 22, "slacks": 303}
    assert full_scans == []
