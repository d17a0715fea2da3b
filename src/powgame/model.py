"""Domain types, the utility mathematics and the loss of the mining game.

A set of miners splits a block reward in proportion to the computing power
each one commits.  Miner j commits the fraction ``alpha_j`` of its available
resource ``x_j``, wins the reward ``R = fixed + unit_tx * tx_count`` with
probability equal to its share of the total committed power, and pays
``cost_j * alpha_j * x_j`` for the resources it burns.  Everything else in
the package (closed forms, robust solvers, Monte Carlo validation) is built
on the functions and records defined here.  ``LossCoefficients`` (the
chance constraint's quadratic loss) and ``MomentMatrix`` (the resource's
moments) are stated once, for both robust certificates and the exact
violation oracle, and so are the checks of a strategy and of epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "RewardModel",
    "MinerParams",
    "GameConfig",
    "ConvergenceError",
    "SolverError",
    "LossCoefficients",
    "MomentMatrix",
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


def _check_strategy(alpha, cost, load):
    if alpha <= 0 or cost <= 0 or load <= 0:
        raise ValueError("need alpha > 0, cost > 0 and positive rivals' load")


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
    """Full game instance: miners, reward, box floor and solver tolerances."""

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
        if not 0 < self.tau0 < 1:
            raise ValueError(f"tau0 must be in (0,1), got {self.tau0}")
        _check_epsilon(self.epsilon)
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")
        total = self.reward.total * sum(m.nominal for m in self.miners)
        if not math.isfinite(total):
            raise ValueError(f"reward total * summed nominal resources must be finite, got {total}")

    @property
    def n_miners(self) -> int:
        return len(self.miners)

    def nominal_resources(self) -> np.ndarray:
        return np.array([m.nominal for m in self.miners])

    def costs(self) -> np.ndarray:
        return np.array([m.cost for m in self.miners])


@dataclass(frozen=True)
class LossCoefficients:
    """Quadratic loss L(x) = a2 x^2 + a1 x + a0 encoding "utility below u_min".

    At strategy alpha against the rivals' load, the utility at realized
    resource x is below u_min exactly when L(x) > 0: the utility requirement
    with its denominator alpha x + load cleared.  Both robust certificates
    (``cvar.worstcase_cvar``, ``bti.bti_constraint_value``) and the exact
    violation oracle (``validate.discrete_worstcase_violation``) read this loss.
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


@dataclass(frozen=True)
class MomentMatrix:
    """Second-moment matrix Omega = [[s2 + m^2, m], [m, 1]] of the resource.

    ``mu_bar = x_hat + mu`` is the mean realized resource.  det(Omega) = s2,
    so Omega is positive definite whenever the variance is positive.
    """

    mu_bar: float
    sigma2: float

    @classmethod
    def from_params(cls, params: MinerParams):
        return cls(mu_bar=params.nominal, sigma2=params.sigma2)

    @property
    def matrix(self) -> np.ndarray:
        m = self.mu_bar
        return np.array([[self.sigma2 + m * m, m], [m, 1.0]])


def _as_arrays(profile, resources) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(profile, dtype=float)
    x = np.asarray(resources, dtype=float)
    if a.shape != x.shape or a.ndim != 1:
        raise ValueError(f"profile and resources must match, got {a.shape} vs {x.shape}")
    # plain comparisons: on a few entries they cost a fraction of np.any, and
    # a NaN fails them
    if not all(0 < v < math.inf for v in x.tolist()):
        raise ValueError("resources must be positive and finite")
    if not all(0 < v <= 1 for v in a.tolist()):
        raise ValueError("alphas must be in (0,1]")
    return a, x


def _check_index(j, n):
    if not 0 <= j < n:
        raise IndexError(f"miner index {j} out of range for {n} miners")


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
    a, x = _as_arrays(profile, resources)
    _check_index(j, len(a))
    committed = a * x
    return float(reward.total * committed[j] / committed.sum() - cost * committed[j])


def others_load(j: int, profile: Sequence[float], resources: Sequence[float]) -> float:
    """Total power committed by everyone except miner j: sum_{l != j} alpha_l x_l."""
    a, x = _as_arrays(profile, resources)
    _check_index(j, len(a))
    committed = a * x
    return float(committed.sum() - committed[j])

