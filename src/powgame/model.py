"""Domain types, the utility mathematics and the loss of the mining game.

A set of miners splits a block reward in proportion to the computing power
each one commits.  Miner j commits the fraction ``alpha_j`` of its available
resource ``x_j``, wins the reward ``R = fixed + unit_tx * tx_count`` with
probability equal to its share of the total committed power, and pays
``cost_j * alpha_j * x_j`` for the resources it burns.  Everything else in
the package (closed forms, robust solvers, Monte Carlo validation) is built
on the functions and records defined here.  ``LossCoefficients``, the
chance constraint's quadratic loss, is stated once, for the two reference
formulas, the CVaR witness check and the exact violation oracle, and so are
the checks of a strategy, of tau0 and of epsilon.  Each of those reads the
resource only through its mean and variance, as two floats.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "RewardModel",
    "MinerParams",
    "GameConfig",
    "ConvergenceError",
    "SolverError",
    "LossCoefficients",
    "utility",
    "others_load",
]


def _require_finite(record, names):
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be a finite number, got {getattr(record, name)}")


def _check_epsilon(epsilon):
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")


def _check_tau0(tau0):
    if not 0 < tau0 < 1:
        raise ValueError(f"tau0 must be in (0,1), got {tau0}")


def _check_strategy(alpha, cost, load):
    if not (0 < alpha <= 1 and cost > 0 and load > 0):  # NaN-safe
        raise ValueError("need 0 < alpha <= 1, cost > 0 and positive rivals' load")


class SolverError(RuntimeError):
    """A solver received inputs for which no feasible point exists."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap.

    The last iterate is attached as ``last`` so callers can inspect it.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


@dataclass(frozen=True)
class RewardModel:
    """Block reward: a fixed part plus a per-transaction commission."""

    fixed_reward: float = 5000.0
    unit_tx_reward: float = 10.0
    tx_count: float = 300.0

    def __post_init__(self):
        _require_finite(self, ("fixed_reward", "unit_tx_reward", "tx_count", "total"))
        if self.fixed_reward < 0 or self.unit_tx_reward < 0 or self.tx_count < 0:
            raise ValueError("reward components must be nonnegative")
        if not self.total > 0:
            raise ValueError("total reward must be positive")

    @property
    def total(self) -> float:
        return self.fixed_reward + self.unit_tx_reward * self.tx_count


@dataclass(frozen=True)
class MinerParams:
    """One miner: resource estimate, uncertainty moments, cost, resource bounds.

    ``x_hat`` is the estimated available resource; the realized resource is
    ``x_hat + dx`` where the perturbation ``dx`` has mean ``mu`` and variance
    ``sigma2`` but otherwise unknown distribution.  ``nominal`` is the mean
    realized resource ``x_hat + mu`` used whenever a point value is needed.
    """

    x_hat: float
    mu: float = 0.0
    sigma2: float = 0.0
    cost: float = 60.0
    x_min: float = 10.0
    x_max: float = 100.0

    def __post_init__(self):
        _require_finite(self, ("x_hat", "mu", "sigma2", "cost", "x_min", "x_max", "nominal"))
        if not self.x_hat > 0:
            raise ValueError(f"x_hat must be positive, got {self.x_hat}")
        if not self.sigma2 >= 0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")
        if not self.cost > 0:
            raise ValueError(f"cost must be positive, got {self.cost}")
        if not (0 < self.x_min <= self.x_hat <= self.x_max):
            raise ValueError(
                f"need 0 < x_min <= x_hat <= x_max, got "
                f"({self.x_min}, {self.x_hat}, {self.x_max})"
            )
        if not self.nominal > 0:
            raise ValueError("nominal resource x_hat + mu must be positive")
        if not math.isfinite(self.cost * self.x_max):
            raise ValueError(f"cost * x_max must be finite, got {self.cost} * {self.x_max}")

    @property
    def nominal(self) -> float:
        return self.x_hat + self.mu

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


@dataclass(frozen=True)
class GameConfig:
    """Full game instance: miners, reward, box floor and solver tolerances.

    ``nominal``, set once, is the tuple of the miners' x_hat + mu as floats:
    every layer reads the resources from it.
    """

    miners: tuple[MinerParams, ...]
    reward: RewardModel = RewardModel()
    tau0: float = 0.5
    epsilon: float = 0.1
    kappa: float = 1e-6
    max_iterations: int = 100

    def __post_init__(self):
        object.__setattr__(self, "miners", tuple(self.miners))
        if len(self.miners) < 2:
            raise ValueError("need at least 2 miners")
        _check_tau0(self.tau0)
        _check_epsilon(self.epsilon)
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        # a bool is an int to Python, and a float would reach range() only in the
        # solve; numbers.Integral covers numpy's integers too
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError(f"max_iterations must be a whole number, got {self.max_iterations!r}")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")
        total = self.reward.total * sum(m.nominal for m in self.miners)
        if not math.isfinite(total):
            raise ValueError(f"reward total * summed nominal resources must be finite, got {total}")
        object.__setattr__(self, "nominal", tuple(float(m.nominal) for m in self.miners))

    @property
    def n_miners(self) -> int:
        return len(self.miners)


@dataclass(frozen=True)
class LossCoefficients:
    """Quadratic loss L(x) = a2 x^2 + a1 x + a0 encoding "utility below u_min".

    At strategy alpha against the rivals' load, the utility at realized
    resource x is below u_min exactly when L(x) > 0: the utility requirement
    with its denominator alpha x + load cleared.  The two reference formulas
    (``cvar.worstcase_cvar``, ``bti.bti_constraint_value``), the witness check
    ``cvar.CvarCertificate.slacks`` and the exact violation oracle
    (``validate.discrete_worstcase_violation``) read this loss; the solver's
    steps inline it.
    """

    a2: float
    a1: float
    a0: float

    @classmethod
    def from_strategy(cls, alpha, u_min, load, cost, reward_total):
        _check_strategy(alpha, cost, load)
        b = -reward_total + cost * load
        return cls(a2=cost * alpha * alpha, a1=(u_min + b) * alpha, a0=u_min * load)

    def __call__(self, x):
        return (self.a2 * x + self.a1) * x + self.a0


def _as_floats(profile, resources) -> tuple[list[float], list[float]]:
    """The profile and resources as equal-length lists of floats, checked."""
    # an ndarray is read through tolist(), so a 2-D or 0-d one is refused below;
    # none can exist before numpy is imported, and this module does not import it
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(profile, np.ndarray):
            profile = profile.tolist()
        if isinstance(resources, np.ndarray):
            resources = resources.tolist()
    try:
        a = list(map(float, profile))
        x = list(map(float, resources))
    except TypeError as exc:  # a scalar, or an entry that is itself a sequence
        raise ValueError(f"profile and resources must be flat sequences of numbers: {exc}") from exc
    if len(a) != len(x):
        raise ValueError(f"profile and resources must match, got {len(a)} vs {len(x)} entries")
    # plain loops, a third faster than all() over a generator; a NaN fails
    # these comparisons
    inf = math.inf
    for v in x:
        if not 0 < v < inf:
            raise ValueError("resources must be positive and finite")
    for v in a:
        if not 0 < v <= 1:
            raise ValueError("alphas must be in (0,1]")
    return a, x


def _pairwise_sum(values) -> float:
    """Sum of a list of floats, bit for bit ``np.add.reduce`` on a float64 vector.

    It adds in numpy's pairwise order: in sequence below 8 entries, in eight
    strided accumulators up to 128, and above that as the sum of two halves
    split at a multiple of 8.  numpy starts its reduction from 0.0, so a sum
    of zeros is +0.0.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = values[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            for k in range(8):
                r[k] += values[i + k]
        total = 0.0 + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
        for v in values[tail:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _check_index(j, n):
    if not 0 <= j < n:
        raise IndexError(f"miner index {j} out of range for {n} miners")


def _committed(j, profile, resources) -> list[float]:
    """Each miner's committed power alpha_l x_l, the inputs checked and j in range."""
    a, x = _as_floats(profile, resources)
    _check_index(j, len(a))
    return [alpha * resource for alpha, resource in zip(a, x)]


def utility(
    j: int,
    profile: Sequence[float],
    resources: Sequence[float],
    reward: RewardModel,
    cost: float,
) -> float:
    """Expected utility of miner j: reward share minus resource cost.

    ``R * h_j - cost * alpha_j * x_j``.  May be negative; the participation
    floor tau0 deliberately keeps miners in the game even at a loss.
    """
    committed = _committed(j, profile, resources)
    return float(reward.total * committed[j] / _pairwise_sum(committed) - cost * committed[j])


def others_load(j: int, profile: Sequence[float], resources: Sequence[float]) -> float:
    """Total power committed by everyone except miner j: sum_{l != j} alpha_l x_l."""
    committed = _committed(j, profile, resources)
    return _pairwise_sum(committed) - committed[j]

