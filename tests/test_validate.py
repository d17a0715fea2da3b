"""Tests for Monte Carlo validation and the analytic two-point oracle."""

import math

import numpy as np
import pytest

from powgame import (
    discrete_worstcase_violation,
    empirical_utilities,
    empirical_violation,
    sample_uncertainty,
    solve_equilibrium,
)
from powgame import cli, validate
from powgame.validate import DISTRIBUTIONS, binomial_slack, two_point_atoms

from conftest import full_array_violation, make_config, two_point_batch


def test_two_point_atoms_exact_moments():
    hi, lo = two_point_atoms(0.0, 100.0, 0.5)
    assert (hi, lo) == (10.0, -10.0)
    rng = np.random.default_rng(50)
    for _ in range(50):
        mu = float(rng.uniform(-5.0, 5.0))
        s2 = float(rng.uniform(1.0, 200.0))
        p = float(rng.uniform(0.01, 0.99))
        hi, lo = two_point_atoms(mu, s2, p)
        mean = p * hi + (1 - p) * lo
        var = p * (hi - mean) ** 2 + (1 - p) * (lo - mean) ** 2
        assert mean == pytest.approx(mu, abs=1e-9)
        assert var == pytest.approx(s2, rel=1e-9)
    with pytest.raises(ValueError):
        two_point_atoms(0.0, 100.0, 1.0)


def test_sample_batches_match_target_moments():
    n = 4000
    for dist in ("gaussian", "uniform", "poisson_shifted", "two_point"):
        batch = sample_uncertainty(dist, 1.5, 100.0, n, seed=11)
        assert len(batch.draws) == n
        assert batch.draws.mean() == pytest.approx(1.5, abs=4.0 * 10.0 / math.sqrt(n))
        assert batch.draws.var() == pytest.approx(100.0, rel=0.2)


def test_poisson_shifted_construction():
    # lambda = sigma^2 = 100; integer lattice shifted to mean mu
    batch = sample_uncertainty("poisson_shifted", 2.0, 100.0, 1000, seed=3)
    lattice = batch.draws - 2.0 + 100.0
    assert np.allclose(lattice, np.round(lattice))
    assert batch.draws.var() == pytest.approx(100.0, rel=0.2)


def test_draws_replay_the_seeded_stream():
    # draws are the generator's output in order, whatever the batch holds
    mu, sigma2, n, seed, j = 2.5, 90.0, 5000, 12, 3
    s = math.sqrt(sigma2)
    half = math.sqrt(3.0) * s
    hi, lo = two_point_atoms(mu, sigma2, 0.5)
    replay = {
        "gaussian": lambda rng: rng.normal(mu, s, size=n),
        "uniform": lambda rng: rng.uniform(mu - half, mu + half, size=n),
        "poisson_shifted": lambda rng: rng.poisson(sigma2, size=n).astype(float) - sigma2 + mu,
        "two_point": lambda rng: np.where(rng.random(n) < 0.5, hi, lo),
    }
    for dist in DISTRIBUTIONS:
        batch = sample_uncertainty(dist, mu, sigma2, n, seed=seed, miner_index=j)
        expected = replay[dist](validate._stream(seed, j, dist))
        assert batch.draws.dtype == expected.dtype and np.array_equal(batch.draws, expected)
        if dist == "two_point":  # the test helper that draws other p agrees at p = 1/2
            built = two_point_batch(mu, sigma2, n, 0.5, seed=seed, miner_index=j)
            assert np.array_equal(built.values, batch.values)
            assert np.array_equal(built.counts, batch.counts)
            assert np.array_equal(built.draws, batch.draws)
        assert batch.n == n
        if batch.counts is None:  # continuous: every draw is its own value
            assert dist in ("gaussian", "uniform") and batch.values is batch.draws
        else:  # discrete: each value once, with its count
            assert len(np.unique(batch.values)) == len(batch.values)
            assert np.all(batch.counts > 0) and int(batch.counts.sum()) == n
            assert np.array_equal(np.sort(np.repeat(batch.values, batch.counts)), np.sort(expected))


def test_sampling_is_reproducible_and_order_independent():
    a = sample_uncertainty("gaussian", 0.0, 100.0, 1000, seed=9, miner_index=2)
    b = sample_uncertainty("gaussian", 0.0, 100.0, 1000, seed=9, miner_index=2)
    assert np.array_equal(a.draws, b.draws)
    # another miner's stream does not disturb miner 2's
    sample_uncertainty("gaussian", 0.0, 100.0, 1000, seed=9, miner_index=0)
    c = sample_uncertainty("gaussian", 0.0, 100.0, 1000, seed=9, miner_index=2)
    assert np.array_equal(a.draws, c.draws)
    d = sample_uncertainty("gaussian", 0.0, 100.0, 1000, seed=10, miner_index=2)
    assert not np.array_equal(a.draws, d.draws)


def test_sampling_validation_errors():
    with pytest.raises(ValueError):
        sample_uncertainty("cauchy", 0.0, 100.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_uncertainty("gaussian", 0.0, 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_uncertainty("gaussian", 0.0, 100.0, 0, seed=0)


def test_empirical_violation_counts_and_histogram(reference_config):
    batch = sample_uncertainty("gaussian", 0.0, 100.0, 1000, seed=1)
    report = empirical_violation([0.5] * 5, -1e9, 0, reference_config, batch)
    assert report.n_violations == 0 and report.rate == 0.0 and report.passed
    assert int(report.counts.sum()) == report.n_samples == 1000
    assert len(report.bin_edges) == len(report.counts) + 1
    # mean-level threshold splits the draws roughly in half
    report = empirical_violation([0.5] * 5, -50.0, 0, reference_config, batch)
    assert report.rate == report.n_violations / 1000
    assert 0.3 < report.rate < 0.7


def test_empirical_matches_analytic_two_point_probability(reference_config):
    # pick a threshold between the two atoms' utilities so only one violates
    p = 0.23
    batch = two_point_batch(0.0, 100.0, 100_000, p, seed=21)
    alphas = [0.5] * 5
    hi, lo = two_point_atoms(0.0, 100.0, p)
    u_hi = empirical_utilities(alphas, 0, reference_config, np.array([hi]))[0]
    u_lo = empirical_utilities(alphas, 0, reference_config, np.array([lo]))[0]
    threshold = 0.5 * (min(u_hi, u_lo) + max(u_hi, u_lo))
    analytic = p if u_hi < threshold else (1.0 - p)
    report = empirical_violation(alphas, threshold, 0, reference_config, batch)
    slack = 3.0 * math.sqrt(p * (1 - p) / report.n_samples)
    assert report.rate == pytest.approx(analytic, abs=slack)


def test_clamped_draws_stay_in_confidence_interval(reference_config):
    batch = sample_uncertainty("gaussian", 0.0, 900.0, 2000, seed=2)
    params = reference_config.miners[0]
    clamped = empirical_utilities([0.5] * 5, 0, reference_config, batch.draws, clamp=True)
    x = params.x_hat + batch.draws
    assert np.any(x > params.x_max) or np.any(x < params.x_min)  # clamp must matter
    load = 110.0
    worst_x = np.clip(x, params.x_min, params.x_max)
    own = 0.5 * worst_x
    expected = reference_config.reward.total * own / (own + load) - params.cost * own
    assert np.allclose(clamped, expected)


def test_discrete_worstcase_vacuous_threshold(reference_config):
    assert discrete_worstcase_violation([0.5] * 5, [-1e9] * 5, reference_config) == 0.0


def test_discrete_worstcase_flags_infeasible_solution(reference_config):
    result = solve_equilibrium(reference_config, "dro_cvar")
    u = list(result.u_mins)
    worst = discrete_worstcase_violation(result.alphas, u, reference_config)
    assert worst <= reference_config.epsilon + 1e-12
    inflated = [v + 0.1 * abs(v) for v in u]
    worst_bad = discrete_worstcase_violation(result.alphas, inflated, reference_config)
    assert worst_bad > reference_config.epsilon


def test_cvar_guarantee_holds_for_whole_sampled_family(reference_config):
    # forward direction of the chance-constraint/CVaR equivalence: any
    # moment-matched distribution violates with probability <= eps (+ slack)
    result = solve_equilibrium(reference_config, "dro_cvar")
    n = 10_000
    eps = reference_config.epsilon
    slack = 3.0 * math.sqrt(eps / n)
    batches = [sample_uncertainty(d, 0.0, 100.0, n, seed=33) for d in DISTRIBUTIONS]
    batches.append(two_point_batch(0.0, 100.0, n, eps, seed=33))
    for batch in batches:
        report = empirical_violation(result.alphas, result.u_mins[0], 0, reference_config, batch)
        assert report.rate <= reference_config.epsilon + slack


def test_binomial_slack_value():
    assert binomial_slack(0.1, 1000) == pytest.approx(3.0 * math.sqrt(0.09 / 1000))


def test_distinct_value_scoring_equals_the_full_array_oracle():
    # scoring each distinct value once, weighted by its count, must give the
    # report of scoring every draw: the same floats, not close ones
    rng = np.random.default_rng(2026)
    single_atom = wide_lattice = 0
    for case in range(640):
        dist = DISTRIBUTIONS[case % 4]
        clamp = case % 8 >= 4
        sigma2 = float(10.0 ** rng.uniform(-2.0, 4.0))
        mu = float(rng.uniform(-30.0, 30.0))
        n = int(10.0 ** rng.uniform(0.0, math.log10(20000.0)))
        p = float(rng.choice([1e-9, 1.0 - 1e-9, rng.uniform(0.01, 0.99)]))
        config = make_config(
            x_hat=rng.uniform(20.0, 80.0, 5),
            cost=float(rng.uniform(20.0, 80.0)),
            epsilon=float(rng.uniform(0.01, 0.5)),
        )
        alphas = rng.uniform(0.05, 1.0, 5)
        j = int(rng.integers(5))
        if dist == "two_point":
            batch = two_point_batch(mu, sigma2, n, p, seed=case, miner_index=j)
        else:
            batch = sample_uncertainty(dist, mu, sigma2, n, seed=case, miner_index=j)
        utils = empirical_utilities(alphas, j, config, batch.values, clamp=clamp)
        if rng.random() < 0.5:  # a threshold equal to some utility tests the strict <
            u_min = float(rng.choice(utils))
        else:
            u_min = float(rng.uniform(utils.min() - 1.0, utils.max() + 1.0))
        new = empirical_violation(alphas, u_min, j, config, batch, clamp=clamp)
        old = full_array_violation(alphas, u_min, j, config, batch.draws, clamp=clamp)
        assert new.n_samples == old.n_samples == n
        assert new.n_violations == old.n_violations and type(new.n_violations) is int
        assert new.rate == old.rate and type(new.rate) is float
        assert new.passed == old.passed and type(new.passed) is bool  # the CSV writes bools by type
        assert np.array_equal(new.bin_edges, old.bin_edges)
        assert np.array_equal(new.counts, old.counts) and new.counts.dtype == old.counts.dtype
        if dist == "two_point" and len(batch.values) == 1:  # np.histogram pads the range by 0.5
            single_atom += 1
            assert new.bin_edges[0] == utils[0] - 0.5 and new.counts.max() == n
        if dist == "poisson_shifted":
            k = np.rint(batch.draws - mu + sigma2)
            wide_lattice += k.max() - k.min() >= n
    assert single_atom >= 40 and wide_lattice >= 20


def test_validate_scores_each_distinct_value_once(tmp_path, monkeypatch):
    # work counter: the utilities of a discrete batch are computed once per
    # value that occurs, not once per draw
    samples, seed = 3000, 4
    scenario = cli.scenario_from_dict(
        {
            "miners": 3,
            "mode": "det",
            "seed": seed,
            "validation": {"distributions": list(DISTRIBUTIONS), "samples": samples},
        }
    )
    sizes = []
    scored = validate.empirical_utilities

    def counting(alphas, j, config, draws, clamp=False):
        sizes.append(len(draws))
        return scored(alphas, j, config, draws, clamp=clamp)

    monkeypatch.setattr(validate, "empirical_utilities", counting)
    assert cli.run_validate(scenario, tmp_path) == 0
    config = scenario.config
    assert len(sizes) == config.n_miners * len(DISTRIBUTIONS)  # one mode
    for j in range(config.n_miners):
        by_dist = dict(zip(DISTRIBUTIONS, sizes[4 * j : 4 * j + 4]))
        k = validate._stream(seed, j, "poisson_shifted").poisson(config.miners[j].sigma2, size=samples)
        assert by_dist["poisson_shifted"] <= k.max() - k.min() + 1 < samples
        assert by_dist["two_point"] <= 2
        assert by_dist["gaussian"] == by_dist["uniform"] == samples
