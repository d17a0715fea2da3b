"""Tests for the Gaussian (Bernstein-bound) robust best response.

The contract both robust back-ends keep runs here from ``contract.py``, on
``BACKEND``; the tests below are this back-end's own.
"""

import decimal
import math
from pathlib import Path

import numpy as np
import pytest

from powgame import (
    LossCoefficients,
    RewardModel,
    bti_constraint_value,
    subproblem_strategy_gaussian,
    subproblem_threshold_gaussian,
)
from powgame import _search, bti, solve_equilibrium
from powgame.cli import load_scenario
from powgame.model import MinerParams, SolverError
from powgame.robust import scan_strategy

from conftest import grid_scan_max, make_config, plain_bisect_threshold, reference_scan_strategy, scan_grid
from contract import *  # noqa: F401,F403 -- the contract of both robust back-ends, run on BACKEND

BACKEND = "gaussian_bti"
REWARD = RewardModel()


def _params(sigma=10.0, x_hat=55.0, mu=0.0, cost=60.0):
    return MinerParams(x_hat=x_hat, mu=mu, sigma2=sigma * sigma, cost=cost,
                       x_min=min(10.0, x_hat), x_max=max(100.0, x_hat))


def _g(alpha, u_min, load, params, eps, reward=REWARD):
    """The reference g of the strategy, through the shared loss and moments."""
    coeffs = LossCoefficients.from_strategy(alpha, u_min, load, params.cost, reward.total)
    return bti_constraint_value(coeffs, params.nominal, params.sigma2, eps)


def test_quadratic_coefficient_hand_value():
    # A = -a2 sigma^2 = -c alpha^2 sigma^2 = -60 * 0.25 * 100 = -1500; with
    # b = -sigma (a2 mu_bar + a1 / 2) = -4750 and D = -L(mu_bar) = -6875
    coeffs = LossCoefficients.from_strategy(0.5, 0.0, 110.0, 60.0, REWARD.total)
    assert -coeffs.a2 * _params().sigma2 == pytest.approx(-1500.0)
    log_eps = math.log(0.1)
    upsilon = math.hypot(1500.0, math.sqrt(2.0) * 4750.0)
    g = -1500.0 - math.sqrt(-2.0 * log_eps) * upsilon + log_eps * 1500.0 - 6875.0
    assert _g(0.5, 0.0, 110.0, _params(), 0.1) == pytest.approx(g)


def test_constraint_value_epsilon_to_one_limit():
    # choose u_min so that b = 0; then g -> A + D as epsilon -> 1
    params = _params()
    alpha, load = 0.5, 110.0
    big_b = -REWARD.total + params.cost * load
    u_min = -big_b - 2.0 * params.cost * alpha * params.nominal
    coeffs = LossCoefficients.from_strategy(alpha, u_min, load, params.cost, REWARD.total)
    assert coeffs.a2 * params.nominal + 0.5 * coeffs.a1 == pytest.approx(0.0, abs=1e-9)  # b
    # residual shrinks like sqrt(-2 ln eps) * |A| ~ 2e-3 at eps = 1 - 1e-12
    g = bti_constraint_value(coeffs, params.nominal, params.sigma2, 1.0 - 1e-12)
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


def test_threshold_dominates_cvar_on_gaussian_instance():
    # the Gaussian-specific bound is less conservative than the
    # distribution-free certificate on the same instance at small eps
    from powgame import subproblem_threshold

    params = _params()
    for eps in (0.02, 0.05, 0.1):
        u_bti = subproblem_threshold_gaussian(0.5, 110.0, params, REWARD, eps)
        u_cvar = subproblem_threshold(0.5, 110.0, params, REWARD, eps)
        assert u_bti >= u_cvar


def test_strategy_slack_equals_constraint_value():
    # with the quadratic auxiliary tight, the strategy step's slack at any
    # alpha is exactly the deterministic bound value there
    params = _params()
    u = -400.0
    alpha, slack, ok = subproblem_strategy_gaussian(u, 0.7, 110.0, params, REWARD, 0.5, 0.1)
    assert ok
    assert slack == pytest.approx(_g(alpha, u, 110.0, params, 0.1), rel=1e-9)


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
            slack = bti._strategy_slack(u, load, params, reward, eps)[0]
            for a in (alpha, *rng.uniform(0.05, 1.0, size=3)):
                assert slack(float(a)) == g(float(a), u)
        tau0 = float(rng.uniform(0.05, 0.9))
        alpha_in = max(tau0, alpha)
        reference = scan_strategy(lambda a: g(a, u_star), alpha_in, tau0)
        assert subproblem_strategy_gaussian(
            u_star, alpha_in, load, params, reward, tau0, eps
        ) == reference


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


def _full_scan_steps(cases):
    """Each step by ``reference_scan_strategy``: every grid point scored, so
    neither a climb nor the curvature certificate can run."""
    return [reference_scan_strategy(bti._strategy_slack(u, load, params, reward, eps)[0], alpha_in, tau0)
            for u, alpha_in, load, params, reward, tau0, eps in cases]


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


def test_climb_equals_the_full_scan_on_wide_steps(work):
    # the climb scores the grid points next to the peak only; the step must
    # return what scoring every point returns, float for float, and here no
    # step reads a grid point twice or meets a NaN there
    rng = np.random.default_rng(24)
    cases = [_wide_gaussian_step(rng) for _ in range(20_000)]
    steps, reads = [], []
    for case in cases:
        steps.append(subproblem_strategy_gaussian(*case))
        reads.append(work.reads)
    for case, step_reads in zip(cases, reads):
        grid = set(scan_grid(case[5], 1.0, max((1.0 - case[5]) / 40.0, 1e-4)))
        on_grid = [(a, value) for a, value in step_reads if a in grid]
        assert len({a for a, _ in on_grid}) == len(on_grid), case
        assert not any(math.isnan(value) for _, value in on_grid), case
    expected = _full_scan_steps(cases)
    mismatched = [(case, got, want) for case, got, want in zip(cases, steps, expected) if repr(got) != repr(want)]
    assert mismatched[:3] == []
    assert 0 < sum(feasible for _, _, feasible in steps) < len(steps)


def test_grid_is_built_once_and_equals_the_fresh_grid():
    # the cached grid is the arange grid with its last point clipped, float
    # for float, also where 1 - tau0 < 40 * 1e-4 sets the step to 1e-4
    rng = np.random.default_rng(30)
    for tau0 in [*rng.uniform(1e-6, 0.99, size=200), *(1.0 - rng.uniform(1e-6, 40e-4, size=200))]:
        tau0 = float(tau0)
        step = max((1.0 - tau0) / 40.0, 1e-4)
        fresh = np.arange(tau0, 1.0 + 0.5 * step, step).tolist()
        fresh[-1] = min(fresh[-1], 1.0)
        grid = _search._grid(tau0, 1.0, step)
        assert [x.hex() for x in grid] == [x.hex() for x in fresh] == [x.hex() for x in scan_grid(tau0, 1.0, step)]
        assert _search._grid(tau0, 1.0, step) is grid


# -- the curvature certificate of robust.scan_strategy


def test_certificate_keeps_only_what_the_scan_keeps(work):
    # f is a parabola of curvature exactly kappa plus noise up to E, the
    # tightest slack the hints allow, with E from a tenth to the whole of the
    # incoming rule's margin m = 1e-6 (1 + |f(alpha_in)|).  Half the cases
    # take a sawtooth noise and a peak within 8 sqrt(E / kappa) of alpha_in;
    # the other half the worst noise, -E at alpha_in and +E elsewhere, and a
    # gain of g over alpha_in up to 1.2 m, where the certificate's bound is
    # exact and the scan keeps alpha_in only while gain + 2 E < m.  The step
    # must return what scoring every grid point returns, and read f only in
    # (0, 1]
    rng = np.random.default_rng(31)
    for case in range(4000):
        tau0 = float(rng.uniform(1e-3, 0.9))
        kappa = 10.0 ** rng.uniform(-1.0, 6.0)
        error = 1e-6 * 10.0 ** rng.uniform(-1.0, 0.0)
        top = float(rng.uniform(-2e-6, 2e-6))
        alpha_in = float(rng.choice([tau0, 1.0, rng.uniform(tau0, 1.0)]))
        worst, phase = case % 2 == 1, float(rng.uniform(0.0, 1.0))
        if worst:
            gain = float(rng.uniform(0.0, 1.2e-6))
            peak = alpha_in + float(rng.choice([-1.0, 1.0])) * math.sqrt(2.0 * gain / kappa)
        else:
            peak = alpha_in + float(rng.uniform(-1.0, 1.0)) * 8.0 * math.sqrt(error / kappa)

        def f(x):
            assert 0.0 < x <= 1.0
            if worst:
                noise = -error if x == alpha_in else error
            else:
                noise = error * (2.0 * ((x * 7.3e6 + phase) % 1.0) - 1.0)
            return top - 0.5 * kappa * (x - peak) ** 2 + noise

        got = scan_strategy(f, alpha_in, tau0, error=error, curvature=kappa)
        assert repr(got) == repr(reference_scan_strategy(f, alpha_in, tau0)), (tau0, kappa, error, top, alpha_in, peak)
    tried, kept = work.counts["certificates"], work.counts["kept"]
    assert 0.1 * tried < kept < 0.5 * tried


def test_settled_steps_skip_the_scan_and_return_the_oracle_s_step(work):
    # a settled step, as the alternation's confirming iteration makes it:
    # alpha_in is a step's own output and u_min the threshold there; then
    # alpha_in nudged by multiples of sqrt(E / kappa), so that the
    # certificate decides on both sides of its edge.  Every step must equal
    # the oracle's; most settled ones keep alpha_in without a scan
    rng = np.random.default_rng(32)
    settled, cases = [], []
    for _ in range(400):
        params = _params(sigma=float(rng.uniform(4.0, 12.0)), x_hat=float(rng.uniform(30.0, 60.0)),
                         cost=float(rng.uniform(40.0, 80.0)))
        load, eps = float(rng.uniform(20.0, 150.0)), float(rng.choice([0.05, 0.1, 0.2]))
        tau0 = float(rng.uniform(0.05, 0.3))
        alpha = float(rng.uniform(tau0, 1.0))
        try:
            for _ in range(20):  # the alternation, until a step keeps its alpha
                u = subproblem_threshold_gaussian(alpha, load, params, REWARD, eps)
                work.reset()
                moved = subproblem_strategy_gaussian(u, alpha, load, params, REWARD, tau0, eps)[0]
                if moved == alpha:
                    break
                alpha = moved
        except SolverError:
            continue
        settled.append(work.counts["certificates"] == work.counts["kept"] == 1)
        cases.append((u, alpha, load, params, REWARD, tau0, eps))
        _, error, kappa = bti._strategy_slack(u, load, params, REWARD, eps)
        for k in (-6.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 6.0):
            nudged = min(1.0, max(tau0, alpha + k * math.sqrt(error / kappa)))
            cases.append((u, nudged, load, params, REWARD, tau0, eps))
    work.reset()
    steps = [subproblem_strategy_gaussian(*case) for case in cases]
    assert [repr(step) for step in steps] == [repr(step) for step in _full_scan_steps(cases)]
    assert len(settled) > 300 and sum(settled) > 0.7 * len(settled)
    assert 0 < work.counts["kept"] < work.counts["certificates"]


def _grid_reads(work, case):
    """The Gaussian step on ``case``, and how often it read the slack at each
    point of its scan grid."""
    got = subproblem_strategy_gaussian(*case)
    tau0 = case[5]
    grid = scan_grid(tau0, 1.0, max((1.0 - tau0) / 40.0, 1e-4))
    return got, [sum(a == x for a, _ in work.reads) for x in grid]


@pytest.mark.parametrize("offset", [0, 1, -1, 5])
def test_a_nan_slack_the_climb_meets_certifies_nothing(monkeypatch, work, offset):
    # a NaN at the climb's start or at a neighbour it reads ends the scan
    # before it reads every grid point, and the step keeps the incoming
    # alpha, infeasible; five points away the climb never reaches the hole,
    # and the step is the clean one
    params, load, eps, tau0, alpha_in = make_config().miners[0], 110.0, 0.1, 0.5, 0.7123
    u = subproblem_threshold_gaussian(alpha_in, load, params, REWARD, eps)
    step = (1.0 - tau0) / 40.0
    target = tau0 + (round((alpha_in - tau0) / step) + offset) * step
    strategy_slack = bti._strategy_slack

    def holed_slack(*args):
        slack, *hints = strategy_slack(*args)

        def holed(a):
            return math.nan if abs(a - target) < 0.25 * step else slack(a)

        return holed, *hints

    case = (u - 1.0, alpha_in, load, params, REWARD, tau0, eps)
    clean = subproblem_strategy_gaussian(*case)
    monkeypatch.setattr(bti, "_strategy_slack", holed_slack)
    got, reads = _grid_reads(work, case)
    assert max(reads) == 1
    if offset == 5:
        assert reads[round((target - tau0) / step)] == 0
        assert repr(got) == repr(clean)
    else:
        assert sum(reads) < 41
        incoming = holed_slack(u - 1.0, load, params, REWARD, eps)[0](alpha_in)
        assert repr(got) == repr((alpha_in, incoming, False))


def test_a_failed_curvature_check_runs_the_full_scan(work):
    # kappa / K is at least about 1 / (2 L), so in float the check fails only
    # where its terms overflow: sigma^2 (1 + L) does here, though cost sigma^2
    # does not; the infinite error has the climb read every grid point, once
    params = MinerParams(x_hat=55.0, sigma2=1e306, cost=1e-300)
    case = (-1e3, 0.7, 110.0, params, REWARD, 0.5, 1e-300)
    _, error, curvature = bti._strategy_slack(-1e3, 110.0, params, REWARD, 1e-300)
    assert error == math.inf and curvature is None
    got, reads = _grid_reads(work, case)
    assert reads == [1] * 41
    assert repr(got) == repr(_full_scan_steps([case])[0])


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
        slack, error, _ = bti._strategy_slack(u, load, params, reward, eps)
        assert 0.0 < error < math.inf
        for alpha in (1.0, tau0, alpha_in, *10.0 ** rng.uniform(-8.0, 0.0, size=5)):
            alpha = float(alpha)
            exact = _exact_g(alpha, u, load, params, reward, eps)
            assert abs(decimal.Decimal(slack(alpha)) - exact) <= decimal.Decimal(error), (alpha, u, params, eps)


def test_slack_curvature_is_at_most_minus_kappa():
    # g'' <= -kappa: a second difference of the 50-digit g, divided by h^2,
    # is an average of g'' over [alpha - h, alpha + h].  The step's curvature
    # hint kappa_lo must lie at or below kappa computed at 50 digits from the
    # step's float constants, the bound the proof gives -g''; the float
    # kappa need not
    rng = np.random.default_rng(26)
    dec, h = decimal.Decimal, 1e-4
    for _ in range(300):
        u, _, load, params, reward, _, eps = _wide_gaussian_step(rng)
        big_l, c = -math.log(eps), math.sqrt(-2.0 * math.log(eps))
        var, mu2 = params.sigma ** 2, params.nominal ** 2
        kappa = 2.0 * params.cost * (var * (1.0 + big_l) + mu2 - c * params.sigma * math.sqrt(var + 2.0 * mu2))
        assert kappa > 1e-6 * params.cost * (var * (1.0 + big_l) + mu2)
        kappa_lo = bti._strategy_slack(u, load, params, reward, eps)[2]
        alpha = float(rng.uniform(2.0 * h, 1.0))
        g = [_exact_g(a, u, load, params, reward, eps) for a in (alpha - h, alpha, alpha + h)]
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            second = (g[0] - 2 * g[1] + g[2]) / (dec(h) * dec(h))
            sigma, mu = dec(params.sigma), dec(params.nominal)
            exact_kappa = 2 * dec(params.cost) * (
                sigma * sigma * (1 - dec(math.log(eps))) + mu * mu - dec(c) * sigma * (sigma * sigma + 2 * mu * mu).sqrt()
            )
            assert 0 < dec(kappa_lo) <= exact_kappa
        assert second <= dec(-kappa) * dec(1.0 - 1e-9) and second <= -dec(kappa_lo)


def test_heterogeneous_solve_does_the_same_work(work):
    # machine-independent work counts of one gaussian_bti solve of
    # configs/heterogeneous.json: the strategy and threshold steps are those
    # of the full scan (12 and 22); the curvature certificate keeps the
    # incoming alpha of 10 steps without a scan, so 2 scans run, and the
    # certificate's reads, the climbs and the golden sections leave 75 slack
    # evaluations of the 780 that scoring every point takes (303 before the
    # certificate); test_work.py pins every count of this solve
    scenario = load_scenario(Path(__file__).parent.parent / "configs" / "heterogeneous.json")
    result = solve_equilibrium(scenario.config, "gaussian_bti", initial_alpha=scenario.initial_alpha)
    assert result.converged
    counts = {key: work.counts[key] for key in ("strategy_steps", "threshold_steps", "slacks", "scans", "kept")}
    assert counts == {"strategy_steps": 12, "threshold_steps": 22, "slacks": 75, "scans": 2, "kept": 10}
