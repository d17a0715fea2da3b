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
import functools
import json
import math
import reprlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .equilibrium import INITIAL_ALPHA, MODES, EquilibriumResult, solve_equilibrium
from .model import ConvergenceError, GameConfig, MinerParams, RewardModel, SolverError, _pairwise_sum
from .validate import DISTRIBUTIONS, POISSON_LAM_MAX, _uniform_x_hats, empirical_violation, sample_uncertainty

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
MAX_MINERS = 1000  # a 1000-miner det solve takes about 1 s; configs use at most 10
# the variance is sigma ** 2, which is 0 for a positive sigma below 2**-537.5
_NONZERO_VARIANCE = "for every miner, and sigma ** 2 > 0: below about 1.57e-162 it underflows to 0"
DEFAULT_SWEEP_VALUES = {
    "epsilon": [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
    "fixed_reward": [2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0],
    "unit_cost": [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
    "num_miners": [3, 4, 5, 6, 7, 8, 9, 10],
}
SWEEP_AXES = tuple(DEFAULT_SWEEP_VALUES)

EQUILIBRIUM_HEADER = ["miner_id", "alpha_star", "u_min_star", "x_hat", "cost"]
TRACE_HEADER = ["sweep", "miner_id", "alpha", "u_min"]
SWEEP_HEADER = ["axis_value", "mode", "sum_u_min", "sum_alpha_x", "sweeps_to_converge", "status"]
HISTOGRAM_HEADER = ["mode", "distribution", "miner_id", "bin_lo", "bin_hi", "count"]
VIOLATIONS_HEADER = ["mode", "distribution", "miner_id", "violation_rate", "epsilon", "pass"]


class ScenarioError(ValueError):
    """Malformed scenario document."""


@dataclass(frozen=True)
class Scenario:
    """An experiment: game instance plus orchestration knobs."""

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


SCENARIO_KEYS = (  # what the top level of a scenario may hold; "name" is a label
    "name", "miners", "seed", "resources", "reward", "unit_cost", "mu", "sigma", "x_min", "x_max",
    "tau0", "epsilon", "kappa", "max_iterations", "initial_alpha", "mode", "validation",
)


def _known_keys(field, obj, keys):
    """Refuse the first key of ``obj`` not in ``keys``, so a misspelling is
    an error rather than a silent default; ``field`` prefixes its name."""
    for key in obj:
        if key not in keys:  # raises rather than _require, as _number does
            raise ScenarioError(f"field '{field}{key}': unknown key (expected one of {', '.join(keys)})")


def _resolve_modes(selector) -> tuple[str, ...]:
    """A mode name, "all", or a non-empty list of distinct mode names."""
    if selector == "all":
        return MODES
    return _names("mode", "solver mode", selector, MODES, "det|bti|cvar|all", MODE_ALIASES)


def _number(field, raw, whole=False):
    """``raw`` as a float, or with ``whole`` as an int (5.0 is 5, 2.7 an error).

    Only a finite JSON number is accepted: a bool, a string, a non-finite
    value or an overflow is a ScenarioError naming the field.
    """
    # raises rather than _require, so that no message is formatted for a good value
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"field '{field}': expected a number, got {reprlib.repr(raw)}")
    try:
        value = float(raw)
    except OverflowError as exc:  # an int literal beyond the float range
        raise ScenarioError(f"field '{field}': {reprlib.repr(raw)} is out of range") from exc
    if not math.isfinite(value):
        raise ScenarioError(f"field '{field}': need a finite number, got {raw!r}")
    if not whole:
        return value
    if not value.is_integer():
        raise ScenarioError(f"field '{field}': need a whole number, got {raw!r}")
    return int(raw)


def _miner_count(field, raw) -> int:
    """``raw`` as a number of miners: a whole number from 2 to ``MAX_MINERS``."""
    count = _number(field, raw, whole=True)
    _require(
        2 <= count <= MAX_MINERS, f"field '{field}': need 2 to {MAX_MINERS} miners, got {raw!r}"
    )
    return count


def _per_miner(raw, count, field):
    if not isinstance(raw, list):
        return [_number(field, raw)] * count
    _require(len(raw) == count, f"field '{field}': expected a number or a list of length {count}")
    return [_number(field, v) for v in raw]


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; a field it leaves out
    takes its default, the model's where the model declares one.  A key the
    format does not know is a ScenarioError naming it."""
    _require(isinstance(doc, dict), "top-level document must be a JSON object")
    _known_keys("", doc, SCENARIO_KEYS)
    try:  # reads every field, so a wrong type or range is a ScenarioError
        count = _miner_count("miners", doc.get("miners", 5))
        seed = _number("seed", doc.get("seed", 0), whole=True)

        resources = doc.get("resources", {"mode": "homogeneous", "x_hat": 55.0})
        _require(isinstance(resources, dict) and "mode" in resources, "field 'resources': need a mode")
        if resources["mode"] == "homogeneous":
            _known_keys("resources.", resources, ("mode", "x_hat"))
            x_hats = [_number("resources.x_hat", resources.get("x_hat", 55.0))] * count
        elif resources["mode"] == "heterogeneous":
            _known_keys("resources.", resources, ("mode", "lo", "hi"))
            lo = _number("resources.lo", resources.get("lo", 30.0))
            hi = _number("resources.hi", resources.get("hi", 60.0))
            _require(0 < lo < hi, "field 'resources': need 0 < lo < hi")
            x_hats = _uniform_x_hats(seed, lo, hi, count)
        else:
            raise ScenarioError(
                f"field 'resources.mode': expected homogeneous|heterogeneous, got {resources['mode']!r}"
            )

        reward_doc = doc.get("reward", {})
        _require(isinstance(reward_doc, dict), "field 'reward': expected an object")
        _known_keys("reward.", reward_doc, ("fixed_reward", "unit_tx_reward", "tx_count"))
        # a component the document leaves out takes RewardModel's default
        reward = RewardModel(**{key: _number(f"reward.{key}", raw) for key, raw in reward_doc.items()})

        costs = _per_miner(doc.get("unit_cost", MinerParams.cost), count, "unit_cost")
        mus = _per_miner(doc.get("mu", MinerParams.mu), count, "mu")
        sigma = _per_miner(doc.get("sigma", 10.0), count, "sigma")
        _require(min(sigma) >= 0, f"field 'sigma': need sigma >= 0, got {min(sigma)!r}")
        try:  # sigma ** 2, not sigma * sigma, which can differ in the last bit
            sigma2 = [s ** 2 for s in sigma]
        except OverflowError as exc:
            raise ScenarioError(f"field 'sigma': {reprlib.repr(max(sigma))} is out of range") from exc
        x_min = _number("x_min", doc.get("x_min", MinerParams.x_min))
        x_max = _number("x_max", doc.get("x_max", MinerParams.x_max))

        miners = tuple(
            MinerParams(x_hat=x, mu=mu, sigma2=s2, cost=c, x_min=x_min, x_max=x_max)
            for x, mu, s2, c in zip(x_hats, mus, sigma2, costs)
        )
        config = GameConfig(
            miners=miners,
            reward=reward,
            tau0=_number("tau0", doc.get("tau0", GameConfig.tau0)),
            epsilon=_number("epsilon", doc.get("epsilon", GameConfig.epsilon)),
            kappa=_number("kappa", doc.get("kappa", GameConfig.kappa)),
            max_iterations=_number(
                "max_iterations", doc.get("max_iterations", GameConfig.max_iterations), whole=True
            ),
        )

        validation = doc.get("validation", {})
        _require(isinstance(validation, dict), "field 'validation': expected an object")
        _known_keys("validation.", validation, ("distributions", "samples", "clamp"))
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
        samples = _number("validation.samples", validation.get("samples", 1000), whole=True)
        _require(samples >= 1, "field 'validation.samples': need at least 1")

        return Scenario(
            config=config,
            modes=_resolve_modes(doc.get("mode", "all")),
            seed=seed,
            initial_alpha=_number("initial_alpha", doc.get("initial_alpha", INITIAL_ALPHA)),
            distributions=distributions,
            samples=samples,
            clamp=clamp,
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path, seed=None, mode=None) -> Scenario:
    """Parse a scenario file, with ``seed`` and ``mode`` (when given) in place
    of the document's own; JSON syntax errors keep their line anchors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deeply to parse") from exc
    _require(isinstance(doc, dict), "top-level document must be a JSON object")
    for key, override in (("seed", seed), ("mode", mode)):
        if override is not None:
            doc[key] = override
    scenario = scenario_from_dict(doc)
    # after the --mode override, so `--mode det` still runs a zero-variance scenario
    robust = set(scenario.modes) != {"deterministic"}
    if robust and any(m.sigma2 <= 0 for m in scenario.config.miners):
        raise ScenarioError(f"field 'sigma': modes bti and cvar need sigma > 0 {_NONZERO_VARIANCE}")
    return scenario


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _lines(rows) -> list[str]:
    """Each row as a CSV line, without its line end."""
    return [",".join(_fmt(v) for v in row) for row in rows]


def _write_csv(path: Path, header, lines):
    """Write the header and ``lines`` (rows that ``_lines`` has formatted)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:  # e.g. --out names an existing file
        raise ScenarioError(f"cannot write {path}: {exc}") from exc


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
            _lines(
                (j, result.alphas[j], u_values[j], config.miners[j].x_hat, config.miners[j].cost)
                for j in range(config.n_miners)
            ),
        )
        _write_csv(
            out / MODE_SHORT[mode] / "trace.csv",
            TRACE_HEADER,
            _lines(
                (sweep, j, alphas[j], us[j])
                for sweep, (alphas, us) in enumerate(result.trace, start=1)
                for j in range(config.n_miners)
            ),
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
        count = _miner_count("num_miners", value)  # the last axis
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
        for mode in scenario.modes:
            try:
                result = solve_equilibrium(config, mode, initial_alpha=scenario.initial_alpha)
            except (ConvergenceError, SolverError) as exc:  # recorded; the sweep continues
                print(f"sweep point {axis}={value} mode {MODE_SHORT[mode]}: {exc}", file=sys.stderr)
                rows.append((value, MODE_SHORT[mode], math.nan, math.nan, -1, f"error:{type(exc).__name__}"))
                continue
            # sum_alpha_x: the pairwise sum of alpha_j x_j, as others_load sums them
            committed = _pairwise_sum([a * x for a, x in zip(result.alphas, config.nominal)])
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
    _write_csv(Path(out_dir) / "sweep.csv", SWEEP_HEADER, _lines(rows))
    return 0


def _samples_refused(samples, exc) -> ScenarioError:
    return ScenarioError(f"field 'validation.samples': {samples}: {exc}")


def run_validate(scenario: Scenario, out_dir) -> int:
    """Solve, then Monte Carlo-check every (mode, miner, distribution) triple.

    Each (miner, distribution) pair is one job: draw its batch, score the
    batch against every mode and format the rows.  Two worker threads run
    the jobs (numpy's samplers and array operations release the interpreter
    lock), so at most two batches are alive at once; once the workers are
    done, each mode's rows are written in job order.  A batch depends only
    on (seed, miner, distribution), so the output does not depend on which
    thread runs a job or when.  Once a job has failed, a job that starts
    after it draws nothing, and the workers are joined before this returns
    or raises.
    """
    # imported here, not with the module: concurrent.futures pulls in logging,
    # and numpy takes most of a cold start, which solve and sweep never need
    from concurrent.futures import ThreadPoolExecutor
    from threading import Event

    import numpy as np

    out = Path(out_dir)
    config = scenario.config
    if any(m.sigma2 <= 0 for m in config.miners):  # nothing to sample in any mode
        raise ScenarioError(f"field 'sigma': validate needs sigma > 0 {_NONZERO_VARIANCE}")
    if "poisson_shifted" in scenario.distributions:  # its draws are Poisson(sigma^2)
        largest = max(m.sigma2 for m in config.miners)
        _require(
            largest <= POISSON_LAM_MAX,
            f"field 'sigma': distribution poisson_shifted needs sigma <= "
            f"{math.sqrt(POISSON_LAM_MAX):.6g}, got {math.sqrt(largest):g}",
        )
    try:  # a batch is n floats: a count numpy refuses fails here, before any solve
        np.empty(scenario.samples)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest array
        raise _samples_refused(scenario.samples, exc) from exc
    results = [_solve_mode(scenario, mode) for mode in scenario.modes]
    # a batch depends only on (seed, miner, distribution): draw each once and
    # score it against every mode, keeping the rows in mode-major order
    jobs = [(j, dist) for j in range(config.n_miners) for dist in scenario.distributions]
    stop = Event()  # set once a job has failed, or the run has ended

    def draw(j, dist):
        params = config.miners[j]
        try:
            return sample_uncertainty(
                dist, params.mu, params.sigma2, scenario.samples, scenario.seed, miner_index=j
            )
        except MemoryError as exc:  # numpy refuses a batch this large at once
            raise _samples_refused(scenario.samples, exc) from exc

    def score(j, dist, batch):
        """The batch's violations line and histogram lines for each mode,
        formatted here, so the main thread only concatenates them."""
        try:
            # an overflow leaves an inf or NaN utility, reported below as a config
            # error: numpy's warnings about it would only add lines to stderr
            with np.errstate(over="ignore", invalid="ignore"):
                reports = [
                    empirical_violation(result.alphas, result.u_values[j], j, config, batch, clamp=scenario.clamp)
                    for result in results
                ]
        except ValueError as exc:  # NaN or inf utilities, or a span too narrow for their size
            raise ScenarioError(f"miner {j}, distribution {dist}: cannot bin the utilities: {exc}") from exc
        formatted = []
        for mode, report in zip(scenario.modes, reports):
            short = MODE_SHORT[mode]
            edges, counts = report.bin_edges.tolist(), report.counts.tolist()
            formatted.append(
                (
                    _lines([(short, dist, j, report.rate, config.epsilon, report.passed)]),
                    _lines((short, dist, j, edges[k], edges[k + 1], counts[k]) for k in range(len(counts))),
                )
            )
        return formatted

    def draw_and_score(j, dist):
        if stop.is_set():  # a job that starts after a failure draws nothing
            return None
        try:
            return score(j, dist, draw(j, dist))
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(max_workers=2) as pool:
        try:  # a job returns None only once another has failed, whose result raises here
            formatted = [future.result() for future in [pool.submit(draw_and_score, *job) for job in jobs]]
        finally:
            stop.set()  # the jobs not yet started return at once, and the pool joins
    for name, header, part in (("histogram.csv", HISTOGRAM_HEADER, 1), ("violations.csv", VIOLATIONS_HEADER, 0)):
        lines = [line for m in range(len(results)) for job in formatted for line in job[m][part]]  # mode-major
        _write_csv(out / name, header, lines)
    return 0 if all(result.converged for result in results) else 2


def _parse_values(raw: str, axis: str):
    if raw is None:
        return DEFAULT_SWEEP_VALUES[axis]
    try:
        return [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ScenarioError(f"--values: {axis}: {exc}") from exc


@functools.cache  # built on the first call, not at import, and reused: parse_args keeps no state
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
