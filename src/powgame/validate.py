"""Monte Carlo robustness validation of equilibrium strategies.

Solutions are stress-tested by sampling the resource perturbation from
moment-matched distributions (same mean and variance, different shapes),
recomputing the realized utilities, and counting how often they fall below
the certified threshold.  A two-point family evaluated in closed form is an
analytic probe: its violation probability is exact, atom by atom, and
independent of any solver internals, but it covers two-point laws only.

Sampling uses the counter-based Philox generator; each (seed, miner,
distribution) triple hashes to its own stream, so batches are reproducible
and independent of evaluation order.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cvar import LossCoefficients
from .model import GameConfig, others_load

__all__ = [
    "DISTRIBUTIONS",
    "SampleBatch",
    "ViolationReport",
    "sample_uncertainty",
    "empirical_utilities",
    "empirical_violation",
    "discrete_worstcase_violation",
]

DISTRIBUTIONS = ("gaussian", "uniform", "poisson_shifted", "two_point")
_DIST_CODE = {name: k for k, name in enumerate(DISTRIBUTIONS)}
HISTOGRAM_BINS = 40
SLACK_SIGMAS = 3.0  # binomial slack width for pass/fail at finite sample size
TWO_POINT_P_GRID = np.linspace(0.005, 0.995, 199)
# the largest lambda numpy's Generator.poisson accepts; poisson_shifted draws
# Poisson(sigma2), so a larger variance cannot be sampled
POISSON_LAM_MAX = np.iinfo(np.int64).max - math.sqrt(np.iinfo(np.int64).max) * 10.0


def _stream(seed: int, miner_index: int, distribution: str) -> np.random.Generator:
    seq = np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFF,
        spawn_key=(int(miner_index), _DIST_CODE[distribution]),
    )
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Seeded draws of the resource perturbation under one distribution.

    The n draws are held as ``values`` with ``counts``: a lattice or
    two-atom batch (poisson_shifted, two_point) holds each value that
    occurs once, with the number of draws that took it; a continuous batch
    (gaussian, uniform) holds every draw as its own value and ``counts`` is
    None.  ``draws``, the draws in sampling order, is built on first read.
    """

    n: int
    values: np.ndarray
    counts: np.ndarray | None
    _expand: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    @cached_property
    def draws(self) -> np.ndarray:
        return self.values if self._expand is None else self._expand()


def two_point_atoms(mu, sigma2, p):
    """Atoms (high, low) of the two-point distribution matching (mu, sigma2).

    High atom mu + s*sqrt((1-p)/p) with probability p, low atom
    mu - s*sqrt(p/(1-p)) with probability 1-p; moments match exactly.
    """
    if not 0 < p < 1:
        raise ValueError(f"two-point probability must be in (0,1), got {p}")
    s = math.sqrt(sigma2)
    return mu + s * math.sqrt((1 - p) / p), mu - s * math.sqrt(p / (1 - p))


def sample_uncertainty(
    distribution: str,
    mu: float,
    sigma2: float,
    n: int,
    seed: int,
    miner_index: int = 0,
) -> SampleBatch:
    """Draw n perturbations with the requested mean/variance and shape.

    gaussian:        N(mu, sigma2)
    uniform:         U(mu - sqrt(3) s, mu + sqrt(3) s)
    poisson_shifted: (Poisson(lambda) - lambda) + mu with lambda = sigma2,
                     which matches both moments exactly on an integer lattice
    two_point:       mu - s or mu + s, each with probability 1/2
    """
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")
    if sigma2 <= 0:
        raise ValueError("sampling needs positive variance")
    if n < 1:
        raise ValueError("need at least one draw")
    rng = _stream(seed, miner_index, distribution)
    s = math.sqrt(sigma2)
    counts = expand = None
    if distribution == "gaussian":
        values = rng.normal(mu, s, size=n)
    elif distribution == "uniform":
        half = math.sqrt(3.0) * s
        values = rng.uniform(mu - half, mu + half, size=n)
    elif distribution == "poisson_shifted":
        lam = sigma2
        k = rng.poisson(lam, size=n)
        low = int(k.min())
        if int(k.max()) - low < n:
            tally = np.bincount(k - low)
            ints = np.flatnonzero(tally)
            counts = tally[ints]
            ints += low
        else:  # a lattice wider than the batch: sort rather than tally
            ints, counts = np.unique(k, return_counts=True)
        values = ints.astype(float) - lam + mu
        expand = lambda: k.astype(float) - lam + mu
    else:
        hi, lo = two_point_atoms(mu, sigma2, 0.5)
        high = rng.random(n) < 0.5
        n_high = np.count_nonzero(high)
        counts = np.array([n_high, n - n_high])
        values, counts = np.array([hi, lo])[counts > 0], counts[counts > 0]
        expand = lambda: np.where(high, hi, lo)
    return SampleBatch(n, values, counts, _expand=expand)


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """Violation counts and a utility histogram for one miner and batch."""

    n_samples: int
    n_violations: int
    rate: float
    epsilon: float
    passed: bool
    bin_edges: np.ndarray
    counts: np.ndarray


def binomial_slack(epsilon, n) -> float:
    return SLACK_SIGMAS * math.sqrt(epsilon * (1.0 - epsilon) / n)


def empirical_utilities(alphas, j, config: GameConfig, draws, clamp=False) -> np.ndarray:
    """Realized utilities of miner j across draws, rivals at nominal resources.

    Only miner j's resource is random: x_j = x_hat_j + dx, optionally clamped
    to the confidence interval (floored at 1e-9 so a huge negative draw can
    never produce a nonpositive resource).  Each utility is computed as
    R*own/(own + load) - cost*own, one correctly rounded operation at a time,
    so a draw's utility does not depend on the draws around it.
    """
    params = config.miners[j]
    a = np.asarray(alphas, dtype=float)
    load = others_load(j, a, config.nominal_resources())
    own = np.array(draws, dtype=float)
    own += params.x_hat
    if clamp:
        np.clip(own, max(params.x_min, 1e-9), params.x_max, out=own)
    else:
        np.maximum(own, 1e-9, out=own)  # a pathological negative draw must not flip signs
    own *= a[j]
    utils = np.multiply(config.reward.total, own)
    utils /= own + load
    own *= params.cost
    utils -= own
    return utils


def empirical_violation(
    alphas,
    u_min,
    j,
    config: GameConfig,
    batch: SampleBatch,
    clamp=False,
) -> ViolationReport:
    """Count how often miner j's realized utility falls below u_min.

    Utilities are computed once per value of the batch and weighted by its
    counts.  A utility depends only on its draw, and ``np.histogram`` bins a
    utility by its value and the edges alone (the edges come from the least
    and greatest utility), so the report equals the one scored draw by draw.
    """
    utils = empirical_utilities(alphas, j, config, batch.values, clamp=clamp)
    below = utils < u_min
    if batch.counts is None:
        violations = int(np.count_nonzero(below))
    else:
        violations = int(batch.counts[below].sum())
    rate = violations / batch.n
    counts, edges = np.histogram(utils, bins=HISTOGRAM_BINS, weights=batch.counts)
    return ViolationReport(
        n_samples=batch.n,
        n_violations=violations,
        rate=rate,
        epsilon=config.epsilon,
        passed=rate <= config.epsilon + binomial_slack(config.epsilon, batch.n),
        bin_edges=edges,
        counts=counts,
    )


def discrete_worstcase_violation(alphas, u_mins, config: GameConfig) -> float:
    """Exact violation probability maximized over the two-point family.

    For every miner and every p on ``TWO_POINT_P_GRID``, place the two
    moment-matched atoms, evaluate the loss at each atom analytically, and add
    up the atom probabilities where the loss is positive (utility below
    threshold).  A certified solution must stay at or below epsilon on the
    whole family.
    """
    a = np.asarray(alphas, dtype=float)
    x = config.nominal_resources()
    worst = 0.0
    for j, params in enumerate(config.miners):
        load = others_load(j, a, x)
        coeffs = LossCoefficients.from_strategy(
            a[j], u_mins[j], load, params.cost, config.reward.total
        )
        for p in TWO_POINT_P_GRID:
            hi, lo = two_point_atoms(params.nominal, params.sigma2, float(p))
            rate = 0.0
            if coeffs(hi) > 0.0:
                rate += p
            if coeffs(lo) > 0.0:
                rate += 1.0 - p
            worst = max(worst, float(rate))
    return worst
