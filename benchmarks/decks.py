"""Seeded workload generator: the fixed game decks and the per-seed op order.

Every workload draws its games once, from ``DECK_SEED``, out of ``RANGES``,
which cover and widen the committed configs (3-8 miners rather than 5, and so
on).  The deck is the same on every run, so each run does the same work and
every op has an output recorded in ``reference/``; the run seed sets the
order in which the ops are issued.  The program only ever sees the scenario
JSON files written here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DECK_SEED = 20260117

RANGES = {
    "miners": [3, 8],
    "x_hat": [30.0, 60.0],
    "sigma": [4.0, 12.0],
    "unit_cost": [40.0, 80.0],
    "tau0": [0.1, 0.5],
    "epsilon": [0.05, 0.1, 0.2],
}
REWARD = {"fixed_reward": 5000, "unit_tx_reward": 10, "tx_count": 300}
DISTRIBUTIONS = ["gaussian", "uniform", "poisson_shifted", "two_point"]
VALIDATE_SAMPLES = 200_000

SWEEP_AXES = ("epsilon", "unit_cost", "num_miners", "fixed_reward")
# the CLI's built-in axis values, which the sweep ops use
SWEEP_VALUES = {
    "epsilon": [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
    "fixed_reward": [2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0],
    "unit_cost": [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
    "num_miners": [3, 4, 5, 6, 7, 8, 9, 10],
}


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    mode: str
    games: int
    why: str
    op: str


# deck sizes are set so one pass over a deck takes 20-25 s on a 2-core Xeon;
# a run repeats whole passes, so every run issues the same ops
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-cvar",
            "solve",
            "cvar",
            12,
            "independent games solved by the distribution-free back-end, where the worst-case CVaR certificate does most of the work",
            "powgame solve --mode cvar on one game",
        ),
        Workload(
            "sweep-bti",
            "sweep",
            "bti",
            14,
            "Gaussian sweeps of near-identical neighbouring games, made of many tiny certificate calls; never touches cvar",
            "powgame sweep --mode bti along one axis with the built-in values; consecutive ops cycle the four axes",
        ),
        Workload(
            "validate-mc",
            "validate",
            "bti",
            56,
            "Monte Carlo validation over all four distributions at 200k samples, where numpy sampling and counting do most of the work",
            "powgame validate --mode bti with all four distributions and 200000 samples per miner",
        ),
    )
}


def _game(rng: random.Random, name: str, workload: Workload) -> dict:
    lo, hi = RANGES["miners"]
    miners = rng.randint(lo, hi)
    doc = {
        "name": name,
        "miners": miners,
        "resources": {"mode": "heterogeneous", "lo": RANGES["x_hat"][0], "hi": RANGES["x_hat"][1]},
        "mu": 0.0,
        "sigma": [round(rng.uniform(*RANGES["sigma"]), 3) for _ in range(miners)],
        "reward": dict(REWARD),
        "unit_cost": [round(rng.uniform(*RANGES["unit_cost"]), 3) for _ in range(miners)],
        "tau0": round(rng.uniform(*RANGES["tau0"]), 3),
        "epsilon": rng.choice(RANGES["epsilon"]),
        "kappa": 1e-6,
        "initial_alpha": 0.35,
        "seed": rng.randrange(2**31),
        "mode": workload.mode,
    }
    if workload.verb == "validate":
        doc["validation"] = {"distributions": list(DISTRIBUTIONS), "samples": VALIDATE_SAMPLES}
    return doc


def deck(workload: Workload) -> list[dict]:
    """The workload's games; the same on every run and every machine."""
    rng = random.Random(f"{DECK_SEED}:{workload.name}")
    return [_game(rng, f"{workload.name}-{k:02d}", workload) for k in range(workload.games)]


def scenario_text(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def fingerprint(doc: dict) -> str:
    return hashlib.sha256(scenario_text(doc).encode()).hexdigest()[:16]


def write_deck(workload: Workload, directory: Path) -> list[tuple[dict, Path]]:
    directory.mkdir(parents=True, exist_ok=True)
    games = []
    for doc in deck(workload):
        path = directory / f"{doc['name']}.json"
        path.write_text(scenario_text(doc), encoding="utf-8")
        games.append((doc, path))
    return games


@dataclass(frozen=True)
class Op:
    game: int  # index into the deck
    axis: str | None  # sweep axis, None for solve and validate

    @property
    def key(self) -> str:
        return str(self.game) if self.axis is None else f"{self.game}:{self.axis}"


def deck_ops(workload: Workload) -> list[Op]:
    """Every op of one pass, in deck order (the order references are recorded in)."""
    if workload.verb != "sweep":
        return [Op(g, None) for g in range(workload.games)]
    return [Op(g, axis) for g in range(workload.games) for axis in SWEEP_AXES]


def pass_order(workload: Workload, seed: int) -> list[Op]:
    """One pass over the deck in the order the run seed gives.

    Sweep ops visit every (game, axis) pair once per pass; consecutive ops
    cycle through the four axes.
    """
    games = list(range(workload.games))
    random.Random(seed).shuffle(games)
    if workload.verb != "sweep":
        return [Op(g, None) for g in games]
    n = len(SWEEP_AXES)
    return [
        Op(g, SWEEP_AXES[(i + r) % n]) for r in range(n) for i, g in enumerate(games)
    ]


def op_argv(workload: Workload, op: Op, config: Path, out: Path) -> list[str]:
    argv = [workload.verb, "--config", str(config), "--out", str(out), "--mode", workload.mode]
    if op.axis is not None:
        argv += ["--axis", op.axis]
    return argv
