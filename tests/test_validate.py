"""Tests for Monte Carlo validation and the exact worst-case violation oracle."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from powgame import (
    discrete_worstcase_violation,
    empirical_violation,
    sample_uncertainty,
    solve_equilibrium,
)
from powgame import LossCoefficients, cli, others_load, validate
from powgame.validate import (
    _BLOCK,
    DISTRIBUTIONS,
    SampleBatch,
    _loss_roots,
    _mean_variance_violation,
    binomial_slack,
)

from conftest import (
    atom_search_violation,
    exact_gaussian_violation,
    full_array_utilities,
    full_array_violation,
    make_config,
    two_point_atoms,
    two_point_batch,
)

CONFIGS = Path(__file__).parent.parent / "configs"


def _kernel_utilities(alphas, j, config, draws, clamp):
    """Every utility the block kernel yields, its blocks copied into one array."""
    blocks = validate._utility_blocks(alphas, j, config, draws, clamp)
    return np.concatenate([block.copy() for _, block in blocks])


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
    # a continuous batch is the generator's output in order; a discrete one
    # holds the same multiset of draws, grouped by value.  Past _BLOCK draws,
    # two_point counts its draws over several calls to the stream, and the
    # result is still that of the one call the replay makes
    mu, sigma2, seed, j = 2.5, 90.0, 12, 3
    s = math.sqrt(sigma2)
    half = math.sqrt(3.0) * s
    hi, lo = two_point_atoms(mu, sigma2, 0.5)
    replay = {
        "gaussian": lambda rng, n: rng.normal(mu, s, size=n),
        "uniform": lambda rng, n: rng.uniform(mu - half, mu + half, size=n),
        "poisson_shifted": lambda rng, n: rng.poisson(sigma2, size=n).astype(float) - sigma2 + mu,
        "two_point": lambda rng, n: np.where(rng.random(n) < 0.5, hi, lo),
    }
    for n, dist in itertools.product((5000, 3 * _BLOCK + 7), DISTRIBUTIONS):
        batch = sample_uncertainty(dist, mu, sigma2, n, seed=seed, miner_index=j)
        expected = replay[dist](validate._stream(seed, j, validate._DIST_CODE[dist]), n)
        assert batch.draws.dtype == expected.dtype and len(batch.draws) == batch.n == n
        if dist == "two_point":  # the test helper that draws other p agrees at p = 1/2
            built = two_point_batch(mu, sigma2, n, 0.5, seed=seed, miner_index=j)
            assert np.array_equal(built.values, batch.values)
            assert np.array_equal(built.counts, batch.counts)
            assert np.array_equal(built.draws, batch.draws)
        if batch.counts is None:  # continuous: every draw is its own value, in order
            assert dist in ("gaussian", "uniform") and batch.values is batch.draws
            assert np.array_equal(batch.draws, expected)
        else:  # discrete: each value once, with its count
            assert len(np.unique(batch.values)) == len(batch.values)
            assert np.all(batch.counts > 0) and int(batch.counts.sum()) == n
            assert np.array_equal(batch.draws, np.repeat(batch.values, batch.counts))
            assert np.array_equal(np.sort(batch.draws), np.sort(expected))
    # a Poisson lattice wider than a block: each block is sorted rather than
    # tallied, and values drawn in several blocks are merged into one count
    n, lam = 3 * _BLOCK + 7, 1e10
    batch = sample_uncertainty("poisson_shifted", mu, lam, n, seed=seed, miner_index=j)
    k = validate._stream(seed, j, validate._DIST_CODE["poisson_shifted"]).poisson(lam, size=n)
    ints, counts = np.unique(k, return_counts=True)
    assert np.array_equal(batch.values, ints.astype(float) - lam + mu)
    assert np.array_equal(batch.counts, counts) and len(ints) < n


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_two_point_counts_on_raw_words_what_random_counts(n):
    # two_point counts a draw high where its raw Philox word r is below 2**63,
    # with no double made: random() is (r >> 11) 2**-53, one word per draw,
    # so the count is that of rng.random(n) < 0.5 on the same stream
    mu, sigma2, j = -4.0, 49.0, 2
    for seed in range(20):
        batch = sample_uncertainty("two_point", mu, sigma2, n, seed=seed, miner_index=j)
        rng = validate._stream(seed, j, validate._DIST_CODE["two_point"])
        n_high = int(np.count_nonzero(rng.random(n) < 0.5))
        assert dict(zip(batch.values.tolist(), batch.counts.tolist())) == {
            value: count for value, count in ((mu + 7.0, n_high), (mu - 7.0, n - n_high)) if count
        }
    # the premise, on this numpy: random() is made from the word as above,
    # and the words at and around 2**63 fall on the side their double does
    raw, doubles = validate._stream(5, 0, 0), validate._stream(5, 0, 0)
    words = raw.bit_generator.random_raw(1000)
    assert np.array_equal(doubles.random(1000), (words >> np.uint64(11)) * 2.0**-53)
    edge = np.array([0, 2**63 - 2**11, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    assert np.array_equal(edge < validate._HALF_RAW, (edge >> np.uint64(11)) * 2.0**-53 < 0.5)


def test_x_hat_draw_is_numpys_uniform_bit_for_bit():
    # a heterogeneous scenario's x_hat draw replays numpy's Philox stream
    # under (0xFEED,) without numpy: the seed's low 32 bits, a negative seed
    # included, every count the CLI allows and spans from tiny to huge
    seeds = (0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 5, -12345)
    spans = ((30.0, 60.0), (5e-324, 1e-323), (1e-300, 3e-300), (1.0, 1.0 + 2**-52), (1e-10, 1e300), (1e300, 1.7e308))
    most = cli.MAX_MINERS
    for seed, (lo, hi) in itertools.product(seeds, spans):
        drawn = validate._uniform_x_hats(seed, lo, hi, most)
        expected = validate._stream(seed, 0xFEED).uniform(lo, hi, size=most).tolist()
        assert [x.hex() for x in drawn] == [x.hex() for x in expected], (seed, lo, hi)
        for count in (2, 3, 4, 5, 8, 9, 255, 257, most - 1):
            assert validate._uniform_x_hats(seed, lo, hi, count) == drawn[:count]
    for seed in seeds:  # each count is its own numpy call; the draws are positive, so == is bit for bit
        drawn = validate._uniform_x_hats(seed, 30.0, 60.0, most)
        for count in range(2, most + 1):
            assert validate._stream(seed, 0xFEED).uniform(30.0, 60.0, size=count).tolist() == drawn[:count]


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
    u_hi = full_array_utilities(alphas, 0, reference_config, np.array([hi]))[0]
    u_lo = full_array_utilities(alphas, 0, reference_config, np.array([lo]))[0]
    threshold = 0.5 * (min(u_hi, u_lo) + max(u_hi, u_lo))
    analytic = p if u_hi < threshold else (1.0 - p)
    report = empirical_violation(alphas, threshold, 0, reference_config, batch)
    slack = 3.0 * math.sqrt(p * (1 - p) / report.n_samples)
    assert report.rate == pytest.approx(analytic, abs=slack)


def test_clamped_draws_stay_in_confidence_interval(reference_config):
    batch = sample_uncertainty("gaussian", 0.0, 900.0, 2000, seed=2)
    params = reference_config.miners[0]
    clamped = _kernel_utilities([0.5] * 5, 0, reference_config, batch.draws, clamp=True)
    x = params.x_hat + batch.draws
    assert np.any(x > params.x_max) or np.any(x < params.x_min)  # clamp must matter
    load = 110.0
    worst_x = np.clip(x, params.x_min, params.x_max)
    own = 0.5 * worst_x
    expected = reference_config.reward.total * own / (own + load) - params.cost * own
    assert np.allclose(clamped, expected)


def _miner_losses(alphas, u_mins, config):
    """(loss coefficients, mean, variance) of each miner at (alphas, u_mins)."""
    x = config.nominal
    return [
        (
            LossCoefficients.from_strategy(
                alphas[j], u_mins[j], others_load(j, alphas, x), params.cost, config.reward.total
            ),
            params.nominal,
            params.sigma2,
        )
        for j, params in enumerate(config.miners)
    ]


def test_discrete_worstcase_vacuous_threshold(reference_config):
    # a threshold of -1e9 puts one loss root 275 below the mean: no two-point
    # law on a p grid reaches it, but Cantelli's one-sided law does
    alphas, u_mins = [0.5] * 5, [-1e9] * 5
    worst = discrete_worstcase_violation(alphas, u_mins, reference_config)
    found = max(
        atom_search_violation(m, sigma2, *_loss_roots(coeffs))
        for coeffs, m, sigma2 in _miner_losses(alphas, u_mins, reference_config)
    )
    assert abs(worst - found) <= 1e-12, (worst, found)
    assert worst == pytest.approx(1.3206e-3, rel=1e-4)


def test_discrete_worstcase_is_one_where_no_root_interval_holds_the_mean(reference_config):
    # at u_min 1400 the loss has no real root; at 1e7 its roots, about
    # -333066 and -220, both lie below the mean 55.  Either way a law with
    # the miner's mean and variance puts every draw where the loss is positive
    alphas = [0.5] * 5
    (rootless, _, _), *_ = _miner_losses(alphas, [1400.0] * 5, reference_config)
    (below, m, _), *_ = _miner_losses(alphas, [1e7] * 5, reference_config)
    assert _loss_roots(rootless) is None and max(_loss_roots(below)) < m
    for u_min in (1400.0, 1e7):
        assert discrete_worstcase_violation(alphas, [u_min] * 5, reference_config) == 1.0


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_exact_oracle_dominates_the_two_point_grid(path):
    # every two-point law is in the ambiguity set, so the supremum over it is
    # at least the largest violation over the 199-point two-point p grid
    config = cli.load_scenario(path).config
    rng = np.random.default_rng(16)
    p_grid = np.linspace(0.005, 0.995, 199)
    above = 0
    for _ in range(30):
        alphas = rng.uniform(config.tau0, 1.0, config.n_miners)
        u_mins = []
        for j, params in enumerate(config.miners):  # one loss root k sigmas from the mean
            k = rng.uniform(0.5, 6.0) * math.sqrt(params.sigma2)
            u_mins.append(float(min(full_array_utilities(alphas, j, config, [params.mu - k, params.mu + k]))))
        grid_max = 0.0
        for coeffs, m, sigma2 in _miner_losses(alphas, u_mins, config):
            for p in p_grid:
                hi, lo = two_point_atoms(m, sigma2, float(p))
                grid_max = max(grid_max, p * (coeffs(hi) > 0.0) + (1.0 - p) * (coeffs(lo) > 0.0))
        worst = discrete_worstcase_violation(alphas, u_mins, config)
        assert worst >= grid_max - 1e-12, (alphas, u_mins, worst, grid_max)
        above += worst > grid_max + 1e-6
    assert above >= 10, above  # the grid misses mass that the exact oracle finds


def test_discrete_worstcase_flags_infeasible_solution(reference_config):
    result = solve_equilibrium(reference_config, "dro_cvar")
    u = list(result.u_mins)
    worst = discrete_worstcase_violation(result.alphas, u, reference_config)
    assert worst <= reference_config.epsilon + 1e-12
    inflated = [v + 0.1 * abs(v) for v in u]
    worst_bad = discrete_worstcase_violation(result.alphas, inflated, reference_config)
    assert worst_bad > reference_config.epsilon


def test_mean_variance_violation_matches_an_atom_search():
    # the closed form against a search of two- and three-atom laws, on seeded
    # intervals hitting each branch: sigma2 >= a b, Cantelli's, Selberg's.
    # The search grid holds each optimal atom up to rounding, so the two agree
    # to TOL; no law found may exceed the supremum by more than rounding.
    TOL = 1e-12
    rng = np.random.default_rng(2026)
    branches = [0, 0, 0]
    for _ in range(3000):
        m = float(rng.uniform(-50.0, 100.0))
        d1, d2 = np.exp(rng.uniform(math.log(0.5), math.log(50.0), 2)).tolist()
        a, b = sorted((d1, d2))
        sigma2 = a * b * float(rng.uniform(0.0, 1.3))
        branches[0 if sigma2 >= a * b else 1 if a * (b - a) >= 2.0 * sigma2 else 2] += 1
        exact = _mean_variance_violation(m, sigma2, (m - d1, m + d2))
        found = atom_search_violation(m, sigma2, m - d1, m + d2)
        assert abs(exact - found) <= TOL, (m, sigma2, d1, d2, exact, found)
    assert min(branches) >= 500, branches


def _violations(result, config, violation):
    """``violation`` of each miner's loss at the equilibrium ``result``."""
    return [violation(*loss) for loss in _miner_losses(result.alphas, result.u_mins, config)]


def _worstcase_violation(coeffs, m, sigma2):
    return _mean_variance_violation(m, sigma2, _loss_roots(coeffs))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_equilibria_under_the_exact_violation_oracles(path):
    config = cli.load_scenario(path).config
    eps = config.epsilon
    # cvar: the certificate is exact, so the worst case over every law with
    # the miner's mean and variance sits on epsilon (about 1e-10 below it)
    cvar = solve_equilibrium(config, "dro_cvar")
    worst = _violations(cvar, config, _worstcase_violation)
    assert all(eps - 1e-7 <= p <= eps + 1e-12 for p in worst), worst
    assert discrete_worstcase_violation(cvar.alphas, cvar.u_mins, config) == max(worst)
    # bti: the Bernstein bound is conservative for the Gaussian it assumes
    bti = solve_equilibrium(config, "gaussian_bti")
    gaussian = _violations(bti, config, exact_gaussian_violation)
    assert all(p <= eps for p in gaussian), gaussian
    worst = _violations(bti, config, _worstcase_violation)
    assert discrete_worstcase_violation(bti.alphas, bti.u_mins, config) == max(worst)


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


def _assert_same_report(new, old):
    """The two reports hold the same numbers, of the same types."""
    assert new.n_samples == old.n_samples
    assert new.n_violations == old.n_violations and type(new.n_violations) is int
    assert new.rate == old.rate and type(new.rate) is float
    assert new.passed == old.passed and type(new.passed) is bool  # the CSV writes bools by type
    assert new.bin_edges.tobytes() == old.bin_edges.tobytes()
    assert new.counts.dtype == old.counts.dtype and np.array_equal(new.counts, old.counts)


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
        utils = full_array_utilities(alphas, j, config, batch.values, clamp=clamp)
        if rng.random() < 0.5:  # a threshold equal to some utility tests the strict <
            u_min = float(rng.choice(utils))
        else:
            u_min = float(rng.uniform(utils.min() - 1.0, utils.max() + 1.0))
        new = empirical_violation(alphas, u_min, j, config, batch, clamp=clamp)
        old = full_array_violation(alphas, u_min, j, config, batch.draws, clamp=clamp)
        assert new.n_samples == n
        _assert_same_report(new, old)
        if dist == "two_point" and len(batch.values) == 1:  # np.histogram pads the range by 0.5
            single_atom += 1
            assert new.bin_edges[0] == utils[0] - 0.5 and new.counts.max() == n
        if dist == "poisson_shifted":
            k = np.rint(batch.draws - mu + sigma2)
            wide_lattice += k.max() - k.min() >= n
    assert single_atom >= 40 and wide_lattice >= 20


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_block_wise_scoring_equals_the_one_shot_oracle(n):
    # scoring in blocks of _BLOCK values, and binning each block against the
    # whole batch's edges, must give the floats and counts of one pass over
    # every draw: a continuous batch (one value per draw), a weighted batch of
    # n distinct values, and a single value holding every draw (min = max, so
    # np.histogram pads the edges by 0.5), each with the clamp on and off
    rng = np.random.default_rng(n)
    config = make_config(x_hat=rng.uniform(20.0, 80.0, 5), cost=float(rng.uniform(20.0, 80.0)))
    alphas = rng.uniform(0.05, 1.0, 5)
    j = int(rng.integers(5))
    lattice = np.arange(n) * 0.37 - 0.185 * n  # n distinct values, wide enough to clamp
    counts = rng.integers(1, 5, n)
    batches = {
        "continuous": sample_uncertainty("gaussian", 0.0, 900.0, n, seed=n, miner_index=j),
        "weighted": SampleBatch(int(counts.sum()), lattice, counts),
        "single atom": SampleBatch(n, np.array([-3.5]), np.array([n])),
    }
    for (kind, batch), clamp in itertools.product(batches.items(), (False, True)):
        utils = _kernel_utilities(alphas, j, config, batch.values, clamp=clamp)
        expected = full_array_utilities(alphas, j, config, batch.values, clamp=clamp)
        assert utils.tobytes() == expected.tobytes(), (kind, clamp)
        for u_min in (float(utils[len(utils) // 2]), float(np.median(utils)) + 0.25):
            new = empirical_violation(alphas, u_min, j, config, batch, clamp=clamp)
            old = full_array_violation(alphas, u_min, j, config, batch.draws, clamp=clamp)
            _assert_same_report(new, old)
        if kind == "single atom" or n == 1:
            assert new.bin_edges[0] == utils[0] - 0.5 and new.counts.max() == batch.n


def _assert_bins_like_numpy(block, span, weights=None) -> bool:
    """The binning kernel gives np.histogram's edges and counts, bit for bit
    and of its dtypes, for ``block`` (inside ``span``) with ``weights``, or
    raises numpy's ValueError; True if numpy bins the block."""
    try:
        counts, edges = np.histogram(block, bins=validate.HISTOGRAM_BINS, range=span, weights=weights)
    except ValueError as exc:
        with pytest.raises(ValueError) as refusal:
            validate._uniform_binning(span)
        assert str(refusal.value) == str(exc)
        return False
    kernel_edges, bin_counts = validate._uniform_binning(span)
    kernel_counts = bin_counts(block, weights)
    assert kernel_edges.tobytes() == edges.tobytes()
    assert kernel_counts.dtype == counts.dtype and kernel_counts.tobytes() == counts.tobytes()
    return True


def _edge_neighbours(span):
    """numpy's edges over ``span`` and the floats on either side of each,
    those inside the span, each twice."""
    edges = np.histogram_bin_edges(np.empty(0), bins=validate.HISTOGRAM_BINS, range=span)
    near = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    return np.repeat(near[(near >= edges[0]) & (near <= edges[-1])], 2)


@pytest.mark.parametrize(
    "span",
    [
        (-3.0, 5.0),
        (0.1, 0.7),  # edges that are not exact decimal fractions
        (-1e-300, 3e-300),
        (1e-300, 1.00000000000002e-300),  # 120 floats wide: three per bin
        (1e300, 7e300),
        (-1e300, 1.7e308),
        (-0.0, 1.0),
        (2.0**53 - 200.0, 2.0**53),  # five floats per bin
    ],
)
def test_binning_kernel_equals_np_histogram_on_edges(span):
    # utilities exactly on the interior edges, on the top edge and a float
    # either side of each, where numpy's bin index is corrected by one; with
    # no weights, int64 weights and float weights, a block at a time and
    # one value at a time
    rng = np.random.default_rng(8)
    block = np.concatenate([_edge_neighbours(span), rng.uniform(*span, 1000).clip(*span), [span[1]] * 3])
    rng.shuffle(block)
    for weights in (None, rng.integers(1, 2**40, len(block)), rng.uniform(0.0, 3.0, len(block))):
        _assert_bins_like_numpy(block, span, weights)
    for k in range(0, len(block), 97):
        _assert_bins_like_numpy(block[k : k + 1], span, None)
        _assert_bins_like_numpy(block[k : k + 1], span, np.array([3], dtype=np.int64))


def test_binning_kernel_equals_np_histogram_on_random_spans():
    # spans of random centre and width, from a few floats to 1e300 wide,
    # including zero-width ones (numpy pads them by 0.5 each side) and
    # one-value blocks
    rng = np.random.default_rng(31)
    binned = 0
    for _ in range(300):
        centre = rng.choice([0.0, 1.0, -1.0]) * 10.0 ** rng.uniform(-300, 300)
        width = abs(centre) * 10.0 ** rng.uniform(-14, 2) if centre else 10.0 ** rng.uniform(-300, 300)
        span = (centre - width / 2, centre + width / 2)
        try:
            block = np.concatenate([_edge_neighbours(span), rng.uniform(*span, 200).clip(*span)])
        except ValueError:  # too narrow a span for 40 bins: numpy's error is the kernel's too
            continue
        _assert_bins_like_numpy(block, span, rng.integers(1, 1000, len(block)))
        _assert_bins_like_numpy(block[:1], span)
        value = block[len(block) // 2]  # beyond 2**52 in size, padding by 0.5 leaves a zero width
        binned += _assert_bins_like_numpy(np.full(5, value), (value, value))
        _assert_bins_like_numpy(np.array([value]), (value, value), np.array([7], dtype=np.int64))
    assert binned >= 100


SPANS_NUMPY_REFUSES = [(math.nan, math.nan), (math.nan, 1.0), (-math.inf, 0.0), (0.0, math.inf), (1e16, 1e16 + 2)]


@pytest.mark.parametrize("span", SPANS_NUMPY_REFUSES)
def test_binning_kernel_refuses_what_np_histogram_refuses(span):
    with pytest.raises(ValueError) as numpy_refusal:
        np.histogram(np.empty(0), bins=validate.HISTOGRAM_BINS, range=span)
    with pytest.raises(ValueError) as refusal:
        validate._uniform_binning(span)
    assert str(refusal.value) == str(numpy_refusal.value)


@pytest.mark.parametrize("span", SPANS_NUMPY_REFUSES)
def test_validate_reports_numpy_refusal_to_bin(tmp_path, monkeypatch, capsys, span):
    # utilities whose span numpy cannot split into bins are a config error
    # that quotes numpy's message (a NaN utility makes both ends NaN)
    utilities = np.array(span)

    def utilities_over_span(alphas, j, config, draws, clamp):
        yield 0, utilities

    with pytest.raises(ValueError) as numpy_refusal:
        np.histogram(np.empty(0), bins=validate.HISTOGRAM_BINS, range=(utilities.min(), utilities.max()))
    config = tmp_path / "scenario.json"
    config.write_text('{"miners": 3, "mode": "det", "validation": {"distributions": "uniform", "samples": 10}}')
    monkeypatch.setattr(validate, "_utility_blocks", utilities_over_span)
    assert cli.main(["validate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"config error: miner 0, distribution uniform: cannot bin the utilities: {numpy_refusal.value}\n"
    )


def _traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while ``call()`` runs again; numpy's
    allocations are traced, and the untraced first run loads what numpy
    imports lazily."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_array_of_n_draws_or_utilities_is_made():
    # a Poisson or two-point batch is drawn and tallied _BLOCK draws at a
    # time, and a batch is scored in two passes over _BLOCK-sized blocks, so
    # none holds an array of n draws or utilities.  Scoring's peak is under
    # 5.3 blocks of doubles (the utility kernel's three buffers and the
    # binning kernel's temporaries; 7.4 blocks when np.histogram binned each
    # block), so the scoring guard takes a batch of 8 blocks, where an array
    # of its n utilities would show
    n = 4 * _BLOCK + 7
    for dist in ("poisson_shifted", "two_point"):
        assert _traced_peak(lambda: sample_uncertainty(dist, 0.0, 100.0, n, seed=5)) < n * 8
    n = 8 * _BLOCK + 7
    config = make_config()
    batch = sample_uncertainty("gaussian", 0.0, 100.0, n, seed=5)
    assert _traced_peak(lambda: empirical_violation([0.5] * 5, 100.0, 0, config, batch)) < n * 8


def test_validate_scores_each_distinct_value_once(tmp_path, monkeypatch):
    # work counter, through the block kernel: each pass over a discrete batch
    # computes one utility per value that occurs, not one per draw.  The
    # batches are scored on two threads in no fixed order, so a miner's
    # passes are told apart by their sizes
    samples, seed = 3000, 4
    scenario = cli.scenario_from_dict(
        {
            "miners": 3,
            "mode": "det",
            "seed": seed,
            "validation": {"distributions": list(DISTRIBUTIONS), "samples": samples},
        }
    )
    passes = []  # (miner, values scored), one per pass of the kernel
    blocks = validate._utility_blocks

    def counting(alphas, j, config, draws, clamp):
        passes.append((j, len(draws)))
        return blocks(alphas, j, config, draws, clamp)

    monkeypatch.setattr(validate, "_utility_blocks", counting)
    assert cli.run_validate(scenario, tmp_path) == 0
    config = scenario.config
    assert len(passes) == 2 * config.n_miners * len(DISTRIBUTIONS)  # two passes, one mode
    for j in range(config.n_miners):
        sizes = sorted(size for miner, size in passes if miner == j)
        rng = validate._stream(seed, j, validate._DIST_CODE["poisson_shifted"])
        k = rng.poisson(config.miners[j].sigma2, size=samples)
        assert sizes[0] == sizes[1] <= 2  # two_point
        assert 2 < sizes[2] == sizes[3] <= k.max() - k.min() + 1 < samples  # poisson_shifted
        assert sizes[4:] == [samples] * 4  # gaussian and uniform
