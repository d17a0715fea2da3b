"""Unit tests for the domain types and utility mathematics."""

import math
import re

import numpy as np
import pytest

from powgame import GameConfig, LossCoefficients, MinerParams, RewardModel, others_load, utility
from powgame.deterministic import best_response_interior
from powgame.model import _as_floats, _pairwise_sum

from conftest import (
    BAD_STRATEGY,
    finite_difference,
    hash_power,
    make_config,
    second_finite_difference,
    utility_gradient,
    utility_second_derivative,
)

REWARD = RewardModel()  # 5000 + 10 * 300 = 8000


def test_reward_total():
    assert REWARD.total == 8000.0
    assert RewardModel(0.0, 2.0, 50.0).total == 100.0


def test_reward_invariants():
    with pytest.raises(ValueError):
        RewardModel(fixed_reward=-1.0)
    with pytest.raises(ValueError):
        RewardModel(0.0, 0.0, 0.0)  # total must be positive


def test_miner_params_invariants():
    with pytest.raises(ValueError):
        MinerParams(x_hat=-5.0)
    with pytest.raises(ValueError):
        MinerParams(x_hat=55.0, sigma2=-1.0)
    with pytest.raises(ValueError):
        MinerParams(x_hat=55.0, cost=0.0)
    with pytest.raises(ValueError):
        MinerParams(x_hat=5.0, x_min=10.0, x_max=100.0)  # x_hat below x_min
    with pytest.raises(ValueError):
        MinerParams(x_hat=55.0, mu=-60.0)  # nominal resource must stay positive
    with pytest.raises(ValueError, match=r"cost \* x_max must be finite"):
        MinerParams(x_hat=55.0, cost=1e300, x_max=1e10)  # the resource bill overflows
    p = MinerParams(x_hat=55.0, mu=1.5, sigma2=100.0)
    assert p.nominal == 56.5
    assert p.sigma == 10.0


def test_game_config_invariants():
    miners = (MinerParams(x_hat=55.0),)
    with pytest.raises(ValueError):
        GameConfig(miners=miners)  # J >= 2
    with pytest.raises(ValueError):
        make_config(tau0=0.0)
    with pytest.raises(ValueError):
        make_config(epsilon=1.0)
    with pytest.raises(ValueError):
        make_config(kappa=0.0)
    with pytest.raises(ValueError, match="max_iterations"):
        make_config(max_iterations=0)
    for value in (2.5, 3.0, math.inf, np.float64(3), True):  # range() takes none of them, or a bool
        with pytest.raises(ValueError, match=re.escape(f"max_iterations must be a whole number, got {value!r}")):
            make_config(max_iterations=value)
    assert make_config(max_iterations=np.int64(3)).max_iterations == 3
    with pytest.raises(ValueError, match="reward total"):
        make_config(x_hat=1e305, x_max=1e305)  # R times the summed resources overflows
    assert make_config(x_hat=1e300, x_max=1e300).n_miners == 5  # 4e304 is a float


def test_hash_power_symmetric_cases():
    # J equal miners at equal alpha each win 1/J
    assert hash_power(2, [0.5] * 5, [55.0] * 5) == pytest.approx(0.2, abs=1e-15)
    assert hash_power(1, [0.5] * 3, [40.0] * 3) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_hash_power_hand_value():
    # alpha=(1,1), x=(75,25): miner 0 holds 75 of 100 committed units
    assert hash_power(0, [1.0, 1.0], [75.0, 25.0]) == pytest.approx(0.75, abs=1e-15)
    assert hash_power(1, [1.0, 1.0], [75.0, 25.0]) == pytest.approx(0.25, abs=1e-15)


def test_hash_power_partition_and_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0.05, 1.0, size=n)
        x = rng.uniform(1.0, 100.0, size=n)
        shares = [hash_power(j, a, x) for j in range(n)]
        assert abs(sum(shares) - 1.0) <= 1e-12
        assert all(0.0 < s < 1.0 for s in shares)


def test_hash_power_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.1, 1.0, size=n)
        x = rng.uniform(5.0, 80.0, size=n)
        lam = float(rng.uniform(0.1, 10.0))
        for j in range(n):
            assert hash_power(j, a, x) == pytest.approx(hash_power(j, a, lam * x), rel=1e-12)


def test_hash_power_errors():
    # the library's utility and others_load check indices and shapes as the
    # test-only hash_power does
    for share in (
        hash_power,
        others_load,
        lambda j, profile, resources: utility(j, profile, resources, REWARD, 60.0),
    ):
        with pytest.raises(IndexError):
            share(2, [0.5, 0.5], [50.0, 50.0])
        with pytest.raises(ValueError):
            share(0, [0.5, 0.5], [50.0, -1.0])
        with pytest.raises(ValueError):
            share(0, [0.5, 0.5], [50.0, 0.0])
        with pytest.raises(ValueError):
            share(0, [0.5, 1.5], [50.0, 50.0])
        with pytest.raises(ValueError):
            share(0, [0.5, 0.5, 0.5], [50.0, 50.0])
        for profile in ([[0.5], [0.5]], 0.5):  # a nested entry, a scalar
            with pytest.raises(ValueError, match="must be flat sequences of numbers"):
                share(0, profile, [50.0, 50.0])


def test_as_floats_reads_a_flat_ndarray_and_refuses_others():
    # the model never imports numpy, but reads an ndarray once numpy is loaded
    assert _as_floats(np.array([0.5, 1.0]), np.arange(1.0, 3.0)) == ([0.5, 1.0], [1.0, 2.0])
    for shape in ((2, 1), ()):  # 2-D, 0-d
        with pytest.raises(ValueError, match="must be flat sequences of numbers"):
            _as_floats(np.full(shape, 0.5), [50.0, 50.0])
        with pytest.raises(ValueError, match="must be flat sequences of numbers"):
            _as_floats([0.5, 0.5], np.full(shape, 50.0))


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "alpha, cost, load",
    [(0.0, 60.0, 110.0), (INF, 60.0, 110.0), (1.5, 60.0, 110.0), (NAN, 60.0, 110.0),
     (0.5, 0.0, 110.0), (0.5, 60.0, 0.0)],
    ids=["alpha-0", "alpha-inf", "alpha-1.5", "alpha-nan", "cost-0", "load-0"],
)
def test_loss_from_a_bad_strategy_is_refused(alpha, cost, load):
    # every reference formula and the exact oracle read the loss built here,
    # so this check is the one that refuses their bad strategies
    with pytest.raises(ValueError, match=BAD_STRATEGY):
        LossCoefficients.from_strategy(alpha, 0.0, load, cost, REWARD.total)


@pytest.mark.parametrize(
    "profile, resources",
    [
        ([NAN, 0.5], [50.0, 50.0]),
        ([0.5, NAN], [50.0, 50.0]),
        ([0.5, 0.5], [NAN, 50.0]),
        ([0.5, 0.5], [50.0, NAN]),
        ([INF, 0.5], [50.0, 50.0]),
        ([0.5, 0.5], [INF, 50.0]),
        ([0.5, 0.5], [50.0, INF]),
    ],
)
def test_nan_entries_are_rejected(profile, resources):
    # a NaN or infinite alpha or resource is outside every range, not a
    # silent NaN or infinite load
    for fn in (
        lambda: hash_power(0, profile, resources),
        lambda: others_load(0, profile, resources),
        lambda: utility(0, profile, resources, REWARD, 60.0),
        lambda: utility_gradient(0, profile, resources, REWARD, 60.0),
        lambda: utility_second_derivative(0, profile, resources, REWARD),
    ):
        with pytest.raises(ValueError):
            fn()


def test_utility_hand_values():
    # J=2 symmetric: 8000 * 0.5 - 60 * 1 * 50 = 1000
    assert utility(0, [1.0, 1.0], [50.0, 50.0], REWARD, 60.0) == pytest.approx(1000.0)
    # J=5 symmetric at alpha=0.5: 1600 - 1650 = -50 (negative utility is allowed)
    assert utility(3, [0.5] * 5, [55.0] * 5, REWARD, 60.0) == pytest.approx(-50.0)
    # zero cost, symmetric pair: exactly half the reward
    assert utility(0, [0.7, 0.7], [40.0, 40.0], REWARD, 0.0) == pytest.approx(4000.0)


def test_others_load():
    assert others_load(0, [0.5] * 5, [55.0] * 5) == pytest.approx(110.0)


def _in_sequence(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_pairwise_sum_is_numpys_sum_bit_for_bit():
    # others_load, utility and the Gauss-Seidel stop rule sum lists of floats
    # in numpy's pairwise order; should numpy change its order, this fails
    # before a golden does
    rng = np.random.default_rng(33)
    told_apart = 0  # vectors whose sum in plain sequence is another float
    for n in range(1, 301):
        signs = rng.choice([-1.0, 1.0], n)
        wide = signs * 10.0 ** rng.uniform(-300.0, 300.0, n)
        close = signs * rng.uniform(0.5, 1.0, n) * 10.0 ** rng.integers(-3, 4, n)
        zeros = rng.choice([0.0, -0.0], n)
        mixed = np.where(rng.random(n) < 0.2, zeros, np.where(rng.random(n) < 0.5, wide, close))
        for v in (wide, close, mixed, zeros, np.full(n, -0.0)):
            got = _pairwise_sum(v.tolist())
            assert type(got) is float
            assert got.hex() == float(np.add.reduce(v)).hex(), (n, v.tolist())
        told_apart += _in_sequence(close.tolist()) != _pairwise_sum(close.tolist())
    assert told_apart > 200  # the order shows on these vectors


def test_others_load_and_utility_equal_numpys_on_every_input_type():
    rng = np.random.default_rng(5)
    for n in (2, 5, 7, 8, 9, 16, 130, 300):
        a = rng.uniform(0.01, 1.0, n)
        x = rng.uniform(1.0, 1000.0, n)
        committed = a * x
        for j in sorted({0, n // 2, n - 1}):
            load = float(committed.sum() - committed[j])
            value = float(REWARD.total * committed[j] / committed.sum() - 60.0 * committed[j])
            for profile, resources in ((a.tolist(), x.tolist()), (tuple(a), tuple(x)), (a, x)):
                got = others_load(j, profile, resources)
                assert type(got) is float and got.hex() == load.hex()
                got = utility(j, profile, resources, REWARD, 60.0)
                assert type(got) is float and got.hex() == value.hex()


def test_gradient_hand_value():
    # x R sum_others / S^2 - c x = 50*8000*25/2500 - 3000 = 1000
    val = utility_gradient(0, [0.5, 0.5], [50.0, 50.0], REWARD, 60.0)
    assert val == pytest.approx(1000.0)


def test_second_derivative_hand_value():
    # -2 x^2 R sum_others / S^3 = -2*2500*8000*25/125000 = -8000
    val = utility_second_derivative(0, [0.5, 0.5], [50.0, 50.0], REWARD)
    assert val == pytest.approx(-8000.0)


def _random_point(rng):
    n = int(rng.integers(2, 8))
    a = rng.uniform(0.1, 1.0, size=n)
    x = rng.uniform(10.0, 90.0, size=n)
    c = float(rng.uniform(20.0, 90.0))
    j = int(rng.integers(0, n))
    return j, a, x, c


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(2)
    for _ in range(100):
        j, a, x, c = _random_point(rng)
        if not 0.1 + 1e-6 < a[j] < 1.0 - 1e-6:
            continue

        def f(alpha_j):
            b = a.copy()
            b[j] = alpha_j
            return utility(j, b, x, REWARD, c)

        fd = finite_difference(f, a[j], 1e-6)
        grad = utility_gradient(j, a, x, REWARD, c)
        assert grad == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_second_derivative_matches_finite_difference_and_sign():
    rng = np.random.default_rng(3)
    for _ in range(100):
        j, a, x, c = _random_point(rng)
        if not 0.1 + 1e-4 < a[j] < 1.0 - 1e-4:
            continue

        def f(alpha_j):
            b = a.copy()
            b[j] = alpha_j
            return utility(j, b, x, REWARD, c)

        fd2 = second_finite_difference(f, a[j], 1e-4)
        second = utility_second_derivative(j, a, x, REWARD)
        assert second < 0.0
        assert second == pytest.approx(fd2, rel=1e-3, abs=1e-3)


def test_gradient_vanishes_at_interior_stationary_point():
    # at the stationary alpha of the closed-form best response the slope is 0
    x = np.array([50.0, 40.0, 45.0])
    a = np.array([0.6, 0.55, 0.7])
    c = 60.0
    load = float(np.dot(a[1:], x[1:]))
    alpha_star = best_response_interior(load, x[0], c, REWARD.total)
    assert 0.0 < alpha_star <= 1.0
    b = a.copy()
    b[0] = alpha_star
    assert abs(utility_gradient(0, b, x, REWARD, c)) <= 1e-9


def test_utility_concavity_randomized():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        j, a, x, c = _random_point(rng)
        if not 0.1 + 1e-4 < a[j] < 1.0 - 1e-4:
            continue

        def f(alpha_j):
            b = a.copy()
            b[j] = alpha_j
            return utility(j, b, x, REWARD, c)

        assert second_finite_difference(f, a[j], 1e-4) <= 1e-9
        checked += 1
