"""Scenario ingestion, experiment orchestration and CSV emission.

A scenario is a single JSON document describing the game (miners, reward,
uncertainty moments, tolerances), the solver mode(s) to run, and the
validation plan.  Three verbs drive it:

    powgame solve    --config scenario.json --out results/
    powgame sweep    --config scenario.json --axis epsilon --values 0.02,0.1,0.5
    powgame validate --config scenario.json --out results/

Outputs are plain CSV (UTF-8, LF, headers first) with fixed schemas so that
plots can be produced externally.  Exit codes: 0 success, 1 malformed
configuration or usage, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .equilibrium import EquilibriumResult, solve_equilibrium
from .model import ConvergenceError, GameConfig, MinerParams, RewardModel, SolverError
from .validate import DISTRIBUTIONS, POISSON_LAM_MAX, empirical_violation, sample_uncertainty

__all__ = [
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "run_solve",
    "run_sweep",
    "run_validate",
    "main",
]

MODE_ALIASES = {"det": "deterministic", "bti": "gaussian_bti", "cvar": "dro_cvar"}
MODE_SHORT = {v: k for k, v in MODE_ALIASES.items()}
SWEEP_AXES = ("epsilon", "fixed_reward", "unit_cost", "num_miners")
DEFAULT_SWEEP_VALUES = {
    "epsilon": [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
    "fixed_reward": [2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0],
    "unit_cost": [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
    "num_miners": [3, 4, 5, 6, 7, 8, 9, 10],
}

EQUILIBRIUM_HEADER = ["miner_id", "alpha_star", "u_min_star", "x_hat", "cost"]
TRACE_HEADER = ["sweep", "miner_id", "alpha", "u_min"]
SWEEP_HEADER = ["axis_value", "mode", "sum_u_min", "sum_alpha_x", "sweeps_to_converge", "status"]
HISTOGRAM_HEADER = ["mode", "distribution", "miner_id", "bin_lo", "bin_hi", "count"]
VIOLATIONS_HEADER = ["mode", "distribution", "miner_id", "violation_rate", "epsilon", "pass"]


class ScenarioError(ValueError):
    """Malformed scenario document."""


@dataclass(frozen=True)
class Scenario:
    """A named experiment: game instance plus orchestration knobs."""

    name: str
    config: GameConfig
    modes: tuple[str, ...]
    seed: int
    initial_alpha: float
    distributions: tuple[str, ...]
    samples: int
    clamp: bool


def _require(condition, message):
    if not condition:
        raise ScenarioError(message)


def _names(field, kind, selector, known, hint, aliases=None) -> tuple[str, ...]:
    """A ``kind`` name or a non-empty list of distinct ones, each in ``known``
    once ``aliases`` are resolved; ``hint`` lists the accepted spellings."""
    aliases = aliases or {}
    if isinstance(selector, str):
        selector = [selector]
    _require(
        isinstance(selector, list),
        f"field '{field}': expected a {kind} name or a list of them, got {reprlib.repr(selector)}",
    )
    _require(selector, f"field '{field}': need at least one {kind}")
    names = []
    for item in selector:
        name = aliases.get(item, item) if isinstance(item, str) else item
        _require(
            name in known, f"field '{field}': unknown {kind} {reprlib.repr(item)} (use {hint})"
        )
        _require(name not in names, f"field '{field}': {reprlib.repr(item)} is listed twice")
        names.append(name)
    return tuple(names)


def _resolve_modes(selector) -> tuple[str, ...]:
    """A mode name, "all", or a non-empty list of distinct mode names."""
    modes = tuple(MODE_ALIASES.values())
    if selector == "all":
        return modes
    return _names("mode", "solver mode", selector, modes, "det|bti|cvar|all", MODE_ALIASES)


def _field(name, convert, raw):
    """``convert(raw)``, with a failure reported as a ScenarioError naming the field."""
    try:
        return convert(raw)
    except OverflowError as exc:
        raise ScenarioError(f"field '{name}': {reprlib.repr(raw)} is out of range") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"field '{name}': {exc}") from exc


def _whole(raw) -> int:
    """``int(raw)``, refusing a number with a fractional part: 5.0 is 5, 2.7 an error."""
    value = int(raw)
    if isinstance(raw, float) and value != raw:
        raise ValueError(f"need a whole number, got {raw!r}")
    return value


def _variance(sigma: float) -> float:
    if sigma < 0:
        raise ValueError(f"need sigma >= 0, got {sigma!r}")
    return sigma ** 2


def _per_miner(raw, count, field):
    if isinstance(raw, (int, float)):
        return [_field(field, float, raw)] * count
    _require(
        isinstance(raw, list) and len(raw) == count,
        f"field '{field}': expected a number or a list of length {count}",
    )
    return [_field(field, float, v) for v in raw]


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document (reference defaults built in)."""
    _require(isinstance(doc, dict), "top-level document must be a JSON object")
    try:  # coerces every field, so a wrong type or range is a ScenarioError
        name = str(doc.get("name", "scenario"))
        count = _field("miners", _whole, doc.get("miners", 5))
        _require(count >= 2, "field 'miners': need at least 2 miners")
        seed = _field("seed", _whole, doc.get("seed", 0))

        resources = doc.get("resources", {"mode": "homogeneous", "x_hat": 55.0})
        _require(isinstance(resources, dict) and "mode" in resources, "field 'resources': need a mode")
        if resources["mode"] == "homogeneous":
            x_hats = [_field("resources.x_hat", float, resources.get("x_hat", 55.0))] * count
        elif resources["mode"] == "heterogeneous":
            lo = _field("resources.lo", float, resources.get("lo", 30.0))
            hi = _field("resources.hi", float, resources.get("hi", 60.0))
            _require(0 < lo < hi, "field 'resources': need 0 < lo < hi")
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed & 0xFFFFFFFF, spawn_key=(0xFEED,)))
            )
            x_hats = [float(v) for v in rng.uniform(lo, hi, size=count)]
        else:
            raise ScenarioError(
                f"field 'resources.mode': expected homogeneous|heterogeneous, got {resources['mode']!r}"
            )

        reward_doc = doc.get("reward", {})
        _require(isinstance(reward_doc, dict), "field 'reward': expected an object")
        reward = RewardModel(
            fixed_reward=_field(
                "reward.fixed_reward", float, reward_doc.get("fixed_reward", 5000.0)
            ),
            unit_tx_reward=_field(
                "reward.unit_tx_reward", float, reward_doc.get("unit_tx_reward", 10.0)
            ),
            tx_count=_field("reward.tx_count", float, reward_doc.get("tx_count", 300.0)),
        )

        costs = _per_miner(doc.get("unit_cost", 60.0), count, "unit_cost")
        mus = _per_miner(doc.get("mu", 0.0), count, "mu")
        sigma = _per_miner(doc.get("sigma", 10.0), count, "sigma")
        x_min = _field("x_min", float, doc.get("x_min", 10.0))
        x_max = _field("x_max", float, doc.get("x_max", 100.0))

        miners = tuple(
            MinerParams(
                x_hat=x_hats[j],
                mu=mus[j],
                sigma2=_field("sigma", _variance, sigma[j]),
                cost=costs[j],
                x_min=x_min,
                x_max=x_max,
            )
            for j in range(count)
        )
        config = GameConfig(
            miners=miners,
            reward=reward,
            tau0=_field("tau0", float, doc.get("tau0", 0.5)),
            epsilon=_field("epsilon", float, doc.get("epsilon", 0.1)),
            kappa=_field("kappa", float, doc.get("kappa", 1e-6)),
            max_iterations=_field("max_iterations", _whole, doc.get("max_iterations", 100)),
        )

        validation = doc.get("validation", {})
        _require(isinstance(validation, dict), "field 'validation': expected an object")
        distributions = _names(
            "validation.distributions",
            "distribution",
            validation.get("distributions", ["gaussian", "uniform", "poisson_shifted"]),
            DISTRIBUTIONS,
            "|".join(DISTRIBUTIONS),
        )
        clamp = validation.get("clamp", False)
        _require(
            isinstance(clamp, bool),
            f"field 'validation.clamp': expected true or false, got {reprlib.repr(clamp)}",
        )
        samples = _field("validation.samples", _whole, validation.get("samples", 1000))
        _require(samples >= 1, "field 'validation.samples': need at least 1")

        return Scenario(
            name=name,
            config=config,
            modes=_resolve_modes(doc.get("mode", "all")),
            seed=seed,
            initial_alpha=_field("initial_alpha", float, doc.get("initial_alpha", 0.35)),
            distributions=distributions,
            samples=samples,
            clamp=clamp,
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path, seed=None, mode=None) -> Scenario:
    """Parse a scenario file; JSON syntax errors keep their line anchors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    scenario = scenario_from_dict(doc)
    if seed is not None:
        # the seed feeds heterogeneous draws, so the whole scenario is rebuilt
        doc["seed"] = int(seed)
        scenario = scenario_from_dict(doc)
    if mode is not None:
        scenario = replace(scenario, modes=_resolve_modes(mode))
    # after the --mode override, so `--mode det` still runs a zero-variance scenario
    robust = set(scenario.modes) != {"deterministic"}
    if robust and any(m.sigma2 <= 0 for m in scenario.config.miners):
        raise ScenarioError("field 'sigma': modes bti and cvar need sigma > 0 for every miner")
    return scenario


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _solve_mode(scenario: Scenario, mode: str) -> EquilibriumResult:
    return solve_equilibrium(scenario.config, mode, initial_alpha=scenario.initial_alpha)


def run_solve(scenario: Scenario, out_dir) -> int:
    """Solve each requested mode; write equilibrium.csv and trace.csv per mode."""
    out = Path(out_dir)
    exit_code = 0
    for mode in scenario.modes:
        result = _solve_mode(scenario, mode)
        u_values = result.u_values
        config = scenario.config
        _write_csv(
            out / MODE_SHORT[mode] / "equilibrium.csv",
            EQUILIBRIUM_HEADER,
            [
                (j, result.alphas[j], u_values[j], config.miners[j].x_hat, config.miners[j].cost)
                for j in range(config.n_miners)
            ],
        )
        _write_csv(
            out / MODE_SHORT[mode] / "trace.csv",
            TRACE_HEADER,
            [
                (sweep, j, alphas[j], us[j])
                for sweep, (alphas, us) in enumerate(result.trace, start=1)
                for j in range(config.n_miners)
            ],
        )
        if not result.converged:
            exit_code = 2
    return exit_code


def _config_for_axis(config: GameConfig, axis: str, value) -> GameConfig:
    """``config`` with ``axis`` set to ``value``; a value the game rejects is a ScenarioError."""
    try:
        if axis == "epsilon":
            return replace(config, epsilon=float(value))
        if axis == "fixed_reward":
            return replace(config, reward=replace(config.reward, fixed_reward=float(value)))
        if axis == "unit_cost":
            miners = tuple(replace(m, cost=float(value)) for m in config.miners)
            return replace(config, miners=miners)
        count = _whole(value)  # num_miners, the last axis
        # cycle the configured miners up or down to the requested count
        miners = tuple(config.miners[j % len(config.miners)] for j in range(count))
        return replace(config, miners=miners)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"--values: {axis} = {value!r}: {exc}") from exc


def run_sweep(scenario: Scenario, axis: str, values, out_dir) -> int:
    """One solve per (axis value, mode); failures become status rows.

    Every axis value is checked before the first solve.
    """
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values:
        raise ScenarioError("sweep needs at least one axis value")
    configs = [_config_for_axis(scenario.config, axis, value) for value in values]
    rows = []
    for value, config in zip(values, configs):
        x = config.nominal_resources()
        for mode in scenario.modes:
            try:
                result = solve_equilibrium(config, mode, initial_alpha=scenario.initial_alpha)
            except (ConvergenceError, SolverError) as exc:  # recorded; the sweep continues
                print(f"sweep point {axis}={value} mode {MODE_SHORT[mode]}: {exc}", file=sys.stderr)
                rows.append((value, MODE_SHORT[mode], math.nan, math.nan, -1, f"error:{type(exc).__name__}"))
                continue
            committed = float(np.dot(np.asarray(result.alphas, dtype=float), x))
            rows.append(
                (
                    value,
                    MODE_SHORT[mode],
                    result.total_u_min(),
                    committed,
                    result.iterations,
                    "ok" if result.converged else "not_converged",
                )
            )
    _write_csv(Path(out_dir) / "sweep.csv", SWEEP_HEADER, rows)
    return 0


def _samples_refused(samples, exc) -> ScenarioError:
    return ScenarioError(f"field 'validation.samples': {samples}: {exc}")


def run_validate(scenario: Scenario, out_dir) -> int:
    """Solve, then Monte Carlo-check every (mode, miner, distribution) triple."""
    out = Path(out_dir)
    config = scenario.config
    if any(m.sigma2 <= 0 for m in config.miners):  # nothing to sample in any mode
        raise ScenarioError("field 'sigma': validate needs sigma > 0 for every miner")
    if "poisson_shifted" in scenario.distributions:  # its draws are Poisson(sigma^2)
        largest = max(m.sigma2 for m in config.miners)
        _require(
            largest <= POISSON_LAM_MAX,
            f"field 'sigma': distribution poisson_shifted needs sigma <= "
            f"{math.sqrt(POISSON_LAM_MAX):.6g}, got {math.sqrt(largest):g}",
        )
    try:  # a batch is n floats: a count numpy refuses fails here, before any solve
        np.empty(scenario.samples)
    except MemoryError as exc:
        raise _samples_refused(scenario.samples, exc) from exc
    results = [_solve_mode(scenario, mode) for mode in scenario.modes]
    # a batch depends only on (seed, miner, distribution): draw each once and
    # score it against every mode, keeping the rows in mode-major order
    hist_rows = [[] for _ in results]
    report_rows = [[] for _ in results]
    for j in range(config.n_miners):
        params = config.miners[j]
        for dist in scenario.distributions:
            try:
                batch = sample_uncertainty(
                    dist, params.mu, params.sigma2, scenario.samples, scenario.seed, miner_index=j
                )
            except MemoryError as exc:  # numpy refuses a batch this large at once
                raise _samples_refused(scenario.samples, exc) from exc
            for mode, result, hist, reports in zip(scenario.modes, results, hist_rows, report_rows):
                short = MODE_SHORT[mode]
                report = empirical_violation(
                    result.alphas, result.u_values[j], j, config, batch, clamp=scenario.clamp
                )
                reports.append((short, dist, j, report.rate, config.epsilon, report.passed))
                hist.extend(
                    (short, dist, j, report.bin_edges[k], report.bin_edges[k + 1], int(report.counts[k]))
                    for k in range(len(report.counts))
                )
    _write_csv(out / "histogram.csv", HISTOGRAM_HEADER, [row for rows in hist_rows for row in rows])
    _write_csv(out / "violations.csv", VIOLATIONS_HEADER, [row for rows in report_rows for row in rows])
    return 0 if all(result.converged for result in results) else 2


def _parse_values(raw: str, axis: str):
    if raw is None:
        return DEFAULT_SWEEP_VALUES[axis]
    try:
        return [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ScenarioError(f"--values: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powgame",
        description="Mining-game equilibria under resource uncertainty, with Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("solve", "compute equilibria and convergence traces"),
        ("sweep", "re-solve along a parameter axis"),
        ("validate", "Monte Carlo robustness check of the equilibrium"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument(
            "--mode",
            choices=sorted(MODE_ALIASES) + ["all"],
            default=None,
            help="override the scenario solver mode",
        )
        if verb == "sweep":
            p.add_argument("--axis", choices=SWEEP_AXES, required=True)
            p.add_argument(
                "--values",
                default=None,
                help="comma-separated axis values (defaults are built in)",
            )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its help (0) or usage error (2)
        return 0 if exc.code == 0 else 1
    try:
        scenario = load_scenario(args.config, seed=args.seed, mode=args.mode)
        if args.verb == "solve":
            return run_solve(scenario, args.out)
        if args.verb == "sweep":
            return run_sweep(scenario, args.axis, _parse_values(args.values, args.axis), args.out)
        return run_validate(scenario, args.out)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, SolverError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
