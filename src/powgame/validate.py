"""Monte Carlo robustness validation of equilibrium strategies.

Solutions are stress-tested by sampling the resource perturbation from
moment-matched distributions (same mean and variance, different shapes),
recomputing the realized utilities, and counting how often they fall below
the certified threshold.  The guarantee itself is checked exactly, free of
solver internals: the worst-case violation probability over every law with a
miner's mean and variance, in closed form at the roots of the miner's loss.
This module imports nothing from the package but ``model`` (the loss is
``model.LossCoefficients``), so no back-end it checks is part of the check.

Sampling uses the counter-based Philox generator; each (seed, miner,
distribution) triple hashes to its own stream, so batches are reproducible
and independent of evaluation order.  numpy is imported by the functions
that sample and score, on their first call, not with the module: the exact
oracle and the scenario's x_hat draw (``_uniform_x_hats``, numpy's Philox
stream replayed in plain Python) run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import GameConfig, LossCoefficients, others_load

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DISTRIBUTIONS",
    "SampleBatch",
    "ViolationReport",
    "sample_uncertainty",
    "empirical_violation",
    "discrete_worstcase_violation",
]

DISTRIBUTIONS = ("gaussian", "uniform", "poisson_shifted", "two_point")
_DIST_CODE = {name: k for k, name in enumerate(DISTRIBUTIONS)}
HISTOGRAM_BINS = 40
SLACK_SIGMAS = 3.0  # binomial slack width for pass/fail at finite sample size
_INT64_MAX = 2**63 - 1
# the largest lambda numpy's Generator.poisson accepts; poisson_shifted draws
# Poisson(sigma2), so a larger variance cannot be sampled
POISSON_LAM_MAX = _INT64_MAX - math.sqrt(_INT64_MAX) * 10.0
# draws made (poisson_shifted, two_point) and scored at a time: a block's
# scratch arrays fit in cache, and no array of n draws or utilities is made
_BLOCK = 16384
_HALF_RAW = 1 << 63  # a raw Philox word below it makes a double below 0.5


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """Philox stream of ``seed``'s low 32 bits under ``spawn_key``: (miner,
    distribution code) for a batch; ``_uniform_x_hats`` replays the one under
    (0xFEED,) for the scenario's x_hat draw."""
    import numpy as np

    seq = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFF, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))


_M32, _M64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF


def _x_hat_key(seed: int) -> tuple[int, int]:
    """The Philox key that ``_stream(seed, 0xFEED)`` runs under: numpy's
    ``SeedSequence(seed & 0xFFFFFFFF, spawn_key=(0xFEED,)).generate_state(2, uint64)``.

    The entropy is the seed's word, zero-padded to the pool of 4 words as
    numpy pads it when a spawn key is given, then the spawn key's word.
    numpy hashes the first 4 into the pool, mixes every pool word into every
    other, mixes in the fifth, and hashes the pool out into 32-bit words, two
    to a 64-bit key word, low word first.  All arithmetic is modulo 2**32.
    """
    entropy = [seed & _M32, 0, 0, 0, 0xFEED]
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for word in pool:
        word ^= hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        word = word * hash_const & _M32
        words.append(word ^ word >> 16)
    return words[0] | words[1] << 32, words[2] | words[3] << 32


def _philox_words(key: tuple[int, int], count: int) -> list[int]:
    """The first ``count`` raw 64-bit words of Philox4x64-10 (Salmon et al.
    2011) under ``key``, as numpy's ``Philox`` makes them from counter 0: it
    adds 1 to the counter, then runs ten rounds on it and emits the four
    words in order."""
    words = []
    for block in range(1, (count + 3) // 4 + 1):
        c0, c1, c2, c3 = block, 0, 0, 0
        k0, k1 = key
        for _ in range(10):
            p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _M64, (p0 >> 64) ^ c3 ^ k1, p0 & _M64
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _M64, (k1 + 0xBB67AE8584CAA73B) & _M64
        words += (c0, c1, c2, c3)
    return words[:count]


def _uniform_x_hats(seed: int, lo: float, hi: float, count: int) -> list[float]:
    """``count`` resources drawn uniformly on [lo, hi) under ``seed``: the
    floats of ``_stream(seed, 0xFEED).uniform(lo, hi, size=count)``, made
    without numpy.

    numpy's ``uniform`` takes one raw word r per draw, makes the double
    d = (r >> 11) 2**-53 and returns lo + (hi - lo) d, each operation
    correctly rounded, as here.
    """
    span = hi - lo
    return [lo + span * ((r >> 11) * 2.0**-53) for r in _philox_words(_x_hat_key(seed), count)]


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Seeded draws of the resource perturbation under one distribution.

    The n draws are held as ``values`` with ``counts``: a lattice or
    two-atom batch (poisson_shifted, two_point) holds each value that
    occurs once, with the number of draws that took it; a continuous batch
    (gaussian, uniform) holds every draw as its own value and ``counts`` is
    None.  ``draws`` is ``values`` repeated by ``counts``, grouped by value.
    """

    n: int
    values: np.ndarray
    counts: np.ndarray | None

    @property
    def draws(self) -> np.ndarray:
        import numpy as np

        return self.values if self.counts is None else np.repeat(self.values, self.counts)


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
    two_point:       mu - s or mu + s, each with probability 1/2: mu + s where
                     rng.random() < 0.5, which is counted on the stream's raw
                     64-bit words r without making the doubles.  Philox's
                     random() is (r >> 11) 2**-53, one word per draw, and
                     (r >> 11) 2**-53 < 0.5 <=> r >> 11 < 2**52 <=> r < 2**63.
    """
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")
    if sigma2 <= 0:
        raise ValueError("sampling needs positive variance")
    if n < 1:
        raise ValueError("need at least one draw")
    import numpy as np

    rng = _stream(seed, miner_index, _DIST_CODE[distribution])
    s = math.sqrt(sigma2)
    counts = None
    if distribution == "gaussian":
        values = rng.normal(mu, s, size=n)
    elif distribution == "uniform":
        half = math.sqrt(3.0) * s
        values = rng.uniform(mu - half, mu + half, size=n)
    elif distribution == "poisson_shifted":
        lam = sigma2
        # drawn and tallied over successive blocks of the one stream, so no
        # n-draw array is held; the blocks' tallies are then merged by value
        parts = [_tally(rng.poisson(lam, size=min(_BLOCK, n - start))) for start in range(0, n, _BLOCK)]
        ints, counts = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(ints)
        ints, first = np.unique(ints[order], return_index=True)
        counts = np.add.reduceat(counts[order], first)
        values = ints.astype(float) - lam + mu
    else:
        # counted over successive blocks of the one stream, so no n-draw array
        # is held, and on its raw words, so no double is made (see the docstring)
        raw = rng.bit_generator.random_raw
        n_high = sum(
            int(np.count_nonzero(raw(min(_BLOCK, n - start)) < _HALF_RAW)) for start in range(0, n, _BLOCK)
        )
        counts = np.array([n_high, n - n_high])
        values, counts = np.array([mu + s, mu - s])[counts > 0], counts[counts > 0]
    return SampleBatch(n, values, counts)


def _tally(k: np.ndarray):
    """The distinct integers of k, ascending, and how often each occurs."""
    import numpy as np

    low = int(k.min())
    if int(k.max()) - low >= len(k):  # a lattice wider than the draws: sort rather than tally
        return np.unique(k, return_counts=True)
    k -= low  # in place: no second array of draws
    tally = np.bincount(k)
    ints = np.flatnonzero(tally)
    return ints + low, tally[ints]


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


def _utility_blocks(alphas, j, config: GameConfig, draws, clamp):
    """Miner j's realized utilities across draws, rivals at nominal resources:
    yield (start, utilities) for each block of ``_BLOCK`` draws, the
    utilities held in a scratch array that the next block overwrites.

    Only miner j's resource is random: x_j = x_hat_j + dx, optionally clamped
    to the confidence interval (floored at 1e-9 so a huge negative draw can
    never produce a nonpositive resource).  Each utility is computed as
    R*own/(own + load) - cost*own, one correctly rounded operation at a time,
    so a draw's utility does not depend on the draws around it, nor on how
    often it is computed: the floats are those of scoring all the draws at
    once.
    """
    import numpy as np

    params = config.miners[j]
    load = others_load(j, alphas, config.nominal)
    draws = np.asarray(draws, dtype=float)
    n = len(draws)
    own_buf, den_buf, out_buf = (np.empty(min(n, _BLOCK)) for _ in range(3))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        own, den, out = own_buf[: stop - start], den_buf[: stop - start], out_buf[: stop - start]
        np.add(draws[start:stop], params.x_hat, out=own)
        if clamp:
            np.clip(own, max(params.x_min, 1e-9), params.x_max, out=own)
        else:
            np.maximum(own, 1e-9, out=own)  # a pathological negative draw must not flip signs
        own *= alphas[j]
        np.multiply(config.reward.total, own, out=out)
        np.add(own, load, out=den)
        out /= den
        own *= params.cost
        out -= own
        yield start, out


def _uniform_binning(span):
    """numpy's ``HISTOGRAM_BINS`` edges over ``span`` = (least, greatest
    utility), and a kernel that bins a block of utilities against them as
    numpy's ``histogram(block, HISTOGRAM_BINS, range=span, weights=weights)``
    does, without its per-call set-up.

    The edges are ``histogram_bin_edges``' for a float array, so they are
    numpy's, with its 0.5 padding of a zero-width span, and a span numpy
    cannot split (not finite, or too narrow for its size) raises numpy's
    ValueError.  ``bin_counts(block, weights)`` returns the block's counts, of
    numpy's dtype (intp, or that of the weights), by numpy's rule for uniform
    bins: the index of ((u - first) / (last - first)) * bins, the top index
    folded into the top bin, then one bin down where u lies below the bin's
    lower edge, or one bin up where u reaches its upper edge, but not from
    the top bin, which holds its upper edge.  The block's values must lie in
    the span, as numpy keeps only those.
    """
    import numpy as np

    edges = np.histogram_bin_edges(np.empty(0), bins=HISTOGRAM_BINS, range=span)
    # edges[0] is first, or +0.0 for a first of -0.0, which bins alike
    first, width = edges[0], edges[-1] - edges[0]
    upper = edges[1:].copy()
    upper[-1] = np.inf  # a finite u never moves up from the top bin

    def bin_counts(block, weights):
        k = block - first
        k /= width
        k *= HISTOGRAM_BINS
        k = k.astype(np.intp)
        np.minimum(k, HISTOGRAM_BINS - 1, out=k)
        k -= block < edges.take(k)
        k += block >= upper.take(k)
        part = np.bincount(k, weights, minlength=HISTOGRAM_BINS)
        return part.astype(np.intp if weights is None else weights.dtype, copy=False)

    return edges, bin_counts


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
    counts.  A utility depends only on its draw, and it is binned by its
    value and the edges alone (the edges come from the least and greatest
    utility), so the report equals the one scored draw by draw.  The batch is
    scored in two passes over the blocks of ``_BLOCK`` values, and no array
    of its utilities is made: the first pass takes the least and greatest
    utility, and the second computes each block's utilities again (the same
    floats, see ``_utility_blocks``), counts them and bins them against the
    edges of the whole batch.  The edges and each block's counts are those
    of numpy's ``histogram`` (see ``_uniform_binning``), and the blocks'
    counts are summed, so the report holds the arrays that ``histogram``
    makes of all the utilities at once.  ``cli.run_validate`` calls this on
    two worker threads at once, each on its own batch.  None of this changes
    a byte of the CSVs that ``tests/data/golden/*/validate/`` holds.
    """
    import numpy as np

    spans = np.array(
        [(block.min(), block.max()) for _, block in _utility_blocks(alphas, j, config, batch.values, clamp)]
    )
    edges, bin_counts = _uniform_binning((spans[:, 0].min(), spans[:, 1].max()))
    violations = 0
    counts = None
    for start, block in _utility_blocks(alphas, j, config, batch.values, clamp):
        weights = None if batch.counts is None else batch.counts[start : start + len(block)]
        below = block < u_min
        violations += int(np.count_nonzero(below) if weights is None else weights[below].sum())
        part = bin_counts(block, weights)
        counts = part if counts is None else counts + part
    rate = violations / batch.n
    return ViolationReport(
        n_samples=batch.n,
        n_violations=violations,
        rate=rate,
        epsilon=config.epsilon,
        passed=rate <= config.epsilon + binomial_slack(config.epsilon, batch.n),
        bin_edges=edges,
        counts=counts,
    )


def _loss_roots(coeffs: LossCoefficients):
    """Roots r1 < r2 of the convex loss a2 x^2 + a1 x + a0, found without
    cancellation, or None when the loss is positive at all but one point."""
    disc = coeffs.a1 * coeffs.a1 - 4.0 * coeffs.a2 * coeffs.a0
    if disc <= 0.0:
        return None
    q = -0.5 * (coeffs.a1 + math.copysign(math.sqrt(disc), coeffs.a1))
    return tuple(sorted((q / coeffs.a2, coeffs.a0 / q)))


def _mean_variance_violation(m, sigma2, roots) -> float:
    """sup Pr[X outside [r1, r2]] over the laws of X with mean m and variance
    sigma2, at ``roots`` (r1, r2) or None: with a <= b the mean's distances to
    the roots, 1 when sigma2 >= a b; Cantelli's sigma2 / (sigma2 + a^2) when its
    partner atom, sigma2 / a past the mean, leaves room, a (b - a) >= 2 sigma2;
    else Selberg's (4 sigma2 + (b - a)^2) / (a + b)^2 (Vandenberghe et al. 2007).
    """
    if roots is None or not roots[0] < m < roots[1]:
        return 1.0
    a, b = sorted((m - roots[0], roots[1] - m))
    if sigma2 >= a * b:
        return 1.0
    if a * (b - a) >= 2.0 * sigma2:
        return sigma2 / (sigma2 + a * a)
    return (4.0 * sigma2 + (b - a) ** 2) / (a + b) ** 2


def discrete_worstcase_violation(alphas, u_mins, config: GameConfig) -> float:
    """The largest over the miners of sup Pr[loss > 0] (utility below u_min)
    over every law with the miner's mean and variance; at a dro_cvar solution it
    sits just below epsilon, the worst-case CVaR bound being tight (Zymler et al. 2013)."""
    worst = 0.0
    for j, params in enumerate(config.miners):
        coeffs = LossCoefficients.from_strategy(
            alphas[j], u_mins[j], others_load(j, alphas, config.nominal), params.cost, config.reward.total
        )
        rate = _mean_variance_violation(params.nominal, params.sigma2, _loss_roots(coeffs))
        worst = max(worst, float(rate))
    return worst
