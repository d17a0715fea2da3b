"""The threshold step (``robust.bisect_threshold``) against the plain bisection.

The step brackets the root of its margin by false position and then replays
the bisection, evaluating only the probes next to the root.  It must return
the plain bisection's threshold (``conftest.plain_bisect_threshold``) float
for float, and raise what it raises, while evaluating far fewer margins.
"""

import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from powgame import MinerParams, RewardModel, SolverError, bti, cvar, robust, solve_equilibrium
from powgame.cli import load_scenario

from conftest import plain_bisect_threshold

CONFIGS = Path(__file__).parent.parent / "configs"
BACKENDS = {"gaussian_bti": bti, "dro_cvar": cvar}


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _random_margin(rng, module):
    """(margin, params, reward) of one threshold step, over ranges wide enough
    that about a third of the instances have no feasible threshold."""
    x_hat = _log_uniform(rng, 1.0, 1e3)
    params = MinerParams(
        x_hat=x_hat, mu=0.0, sigma2=_log_uniform(rng, 1e-2, 1e4) ** 2,
        cost=_log_uniform(rng, 1e-2, 1e3), x_min=min(10.0, x_hat), x_max=max(100.0, x_hat),
    )
    reward = RewardModel(fixed_reward=_log_uniform(rng, 10.0, 1e6), unit_tx_reward=0.0, tx_count=0.0)
    alpha, load, eps = _log_uniform(rng, 1e-2, 1.0), _log_uniform(rng, 1.0, 1e4), _log_uniform(rng, 1e-3, 0.9)
    return module._threshold_certifier(alpha, load, params, reward, eps), params, reward


def _outcome(search, margin_or_certify, params, reward, u_lo):
    try:
        return search(margin_or_certify, params, reward, u_lo)
    except (SolverError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _nan_above(margin, cut):
    return lambda u: math.nan if u > cut else margin(u)


def _nan_below(margin, cut):
    return lambda u: math.nan if u < cut else margin(u)


@pytest.mark.parametrize("mode", sorted(BACKENDS))
def test_threshold_step_replays_the_plain_bisection(mode):
    # 4000 seeded instances: cold starts, warm starts 1e-5 and up to 3000
    # below the threshold, and on each instance one altered margin: NaN above
    # or below a random cut, NaN everywhere, or shifted so that the full
    # reward certifies.  Thresholds must be equal, not close.
    rng = np.random.default_rng(4000 + len(mode))
    seen = Counter()
    for instance in range(4000):
        margin, params, reward = _random_margin(rng, BACKENDS[mode])
        starts = [None]
        cold = _outcome(plain_bisect_threshold, lambda u: margin(u) >= 0.0, params, reward, None)
        if isinstance(cold, float):
            starts += [cold - 1e-5, cold - float(rng.uniform(0.0, 3000.0))]
        seen["threshold" if isinstance(cold, float) else cold[1].split(" above")[0]] += 1
        u_hi = reward.total
        u_lo = -u_hi - params.cost * params.x_max
        cut = float(rng.uniform(u_lo, u_hi))
        variants = [
            ("nan above a cut", _nan_above(margin, cut)),
            ("nan below a cut", _nan_below(margin, cut)),
            ("nan everywhere", lambda u: math.nan),
            ("full reward certifies", lambda u, top=margin(u_hi): margin(u) - top),
        ]
        name, altered = variants[instance % len(variants)]
        cases = [(margin, u) for u in starts] + [(altered, None)]
        for m, start in cases:
            expected = _outcome(plain_bisect_threshold, lambda u, m=m: m(u) >= 0.0, params, reward, start)
            assert _outcome(robust.bisect_threshold, m, params, reward, start) == expected, (instance, name, start)
        seen[name] += 1
    # every path was taken: thresholds, both SolverErrors, every altered margin
    assert seen["threshold"] >= 2000
    assert seen["no feasible threshold"] >= 500
    assert min(seen[name] for name, _ in variants) == 1000


def test_threshold_step_raises_like_the_plain_bisection():
    params = MinerParams(x_hat=55.0, sigma2=100.0)
    reward = RewardModel()
    for margin, message in (
        (lambda u: 1.0, "threshold at the full reward certifies"),
        (lambda u: -1.0, "no feasible threshold above"),
        (lambda u: math.nan, "no feasible threshold above"),
    ):
        for search in (robust.bisect_threshold, plain_bisect_threshold):
            certify = margin if search is robust.bisect_threshold else (lambda u, m=margin: m(u) >= 0.0)
            with pytest.raises(SolverError, match=message):
                search(certify, params, reward)
    with pytest.raises(ValueError, match="positive variance"):
        robust.bisect_threshold(lambda u: 1.0, MinerParams(x_hat=55.0, sigma2=0.0), reward)


def test_threshold_step_brackets_a_root_at_either_end():
    # a margin whose root is a bracket end (the floor, or an evaluated
    # point with margin exactly 0) still closes the bracket in a few steps
    params = MinerParams(x_hat=55.0, sigma2=100.0)
    reward = RewardModel()
    for root in (-reward.total - params.cost * params.x_max, -123.5, 0.0, reward.total - 1e-3):
        calls = []

        def margin(u, root=root):
            calls.append(u)
            return root - u

        expected = plain_bisect_threshold(lambda u, root=root: root - u >= 0.0, params, reward)
        assert robust.bisect_threshold(margin, params, reward) == expected
        assert len(calls) <= 8, root


def test_threshold_step_bisects_through_overflowing_margins():
    # margins that overflow to +-inf away from the root leave false position
    # no point (inf / inf), so the bracket bisects there; the threshold is
    # still the plain bisection's float
    params = MinerParams(x_hat=55.0, sigma2=100.0)
    reward = RewardModel()
    seen = []

    def margin(u):
        value = (-123.5 - u) * 1e306  # +-inf once |u + 123.5| > ~180
        seen.append(value)
        return value

    expected = plain_bisect_threshold(lambda u: margin(u) >= 0.0, params, reward)
    assert math.inf in seen and -math.inf in seen
    assert robust.bisect_threshold(margin, params, reward) == expected


def test_threshold_step_evaluates_every_probe_where_the_sign_is_unreliable():
    # within its rounding error of the root an evaluated margin may take
    # either sign.  Model that as a margin whose sign is arbitrary (a hash of
    # u) within w of the root: the bracket may close anywhere in that zone,
    # and as long as w is at most half the pad the replay evaluates every
    # probe in it, so the threshold is still the plain bisection's
    params = MinerParams(x_hat=55.0, sigma2=100.0)
    reward = RewardModel()
    rng = np.random.default_rng(77)
    inside = 0
    for root in rng.uniform(-5000.0, 5000.0, size=400).tolist():
        w = 0.5 * robust.PAD * (1.0 + 2.0 * abs(root))

        def margin(u, root=root, w=w):
            if abs(u - root) < w:
                return 1e-12 if hash(u) % 3 else -1e-12
            return root - u

        expected = plain_bisect_threshold(lambda u: margin(u) >= 0.0, params, reward)
        assert robust.bisect_threshold(margin, params, reward) == expected, root
        inside += abs(expected - root) < w
    assert inside >= 5


def test_a_nan_seen_while_bracketing_leaves_every_probe_to_the_replay():
    # a concave margin whose root is 0: the first false-position probe lands
    # near the floor, inside a NaN window below the root.  The bracket gives
    # up there, so every bisection probe is evaluated, as the plain
    # bisection does; a bracket that read the NaN as "not certified" would
    # close around the window instead and skip the probes above it
    params = MinerParams(x_hat=55.0, sigma2=100.0)
    reward = RewardModel()
    u_lo = -reward.total - params.cost * params.x_max
    calls = []

    def margin(u):
        calls.append(u)
        if u_lo + 10.0 < u < u_lo + 100.0:
            return math.nan
        return -u if u > 0.0 else -1e-3 * u

    first = reward.total - margin(reward.total) * (reward.total - u_lo) / (margin(reward.total) - margin(u_lo))
    assert u_lo + 10.0 < first < u_lo + 100.0
    calls.clear()
    expected = plain_bisect_threshold(lambda u: margin(u) >= 0.0, params, reward)
    plain_calls = len(calls)
    calls.clear()
    assert robust.bisect_threshold(margin, params, reward) == expected
    assert len(calls) == plain_calls + 1  # the plain probes, and the NaN


@pytest.mark.parametrize("mode", sorted(BACKENDS))
@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_threshold_steps_evaluate_few_margins(monkeypatch, config, mode):
    # the plain bisection evaluates its certificate 35.2-35.5 times per
    # threshold step on every configs/*.json, in both back-ends; the bracket
    # brings that to 5.3-7.2 (9.4-11.2 without the Illinois halving)
    module = BACKENDS[mode]
    steps, evals = [0], [0]
    search = module.bisect_threshold

    def counted_search(margin, *args):
        steps[0] += 1

        def counted(u):
            evals[0] += 1
            return margin(u)

        return search(counted, *args)

    monkeypatch.setattr(module, "bisect_threshold", counted_search)
    result = solve_equilibrium(load_scenario(config).config, mode)
    assert result.converged
    assert steps[0] > 0
    assert evals[0] / steps[0] <= 8.0
