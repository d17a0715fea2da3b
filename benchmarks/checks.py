"""Output checks for every op, run outside the timed region.

Each check reads the CSVs an op wrote, verifies them against the schemas in
the README, and compares the numbers with the reference outputs recorded in
``reference/<workload>.json``.  ``extract`` turns one op's outputs into the
record stored there, so recording and checking share one parser.
"""

from __future__ import annotations

import math
from pathlib import Path

from decks import DISTRIBUTIONS, SWEEP_VALUES, VALIDATE_SAMPLES

# the solver tolerance the equilibria are compared at (bisection and kappa)
TOL = 1e-6
# Monte Carlo counts may move by this many samples when a threshold moves
# within TOL
COUNT_SLACK = 2

EQUILIBRIUM_HEADER = ["miner_id", "alpha_star", "u_min_star", "x_hat", "cost"]
TRACE_HEADER = ["sweep", "miner_id", "alpha", "u_min"]
SWEEP_HEADER = ["axis_value", "mode", "sum_u_min", "sum_alpha_x", "sweeps_to_converge", "status"]
HISTOGRAM_HEADER = ["mode", "distribution", "miner_id", "bin_lo", "bin_hi", "count"]
VIOLATIONS_HEADER = ["mode", "distribution", "miner_id", "violation_rate", "epsilon", "pass"]


class CheckFailed(Exception):
    """An op's output does not match its schema or its reference."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(value, reference, what):
    _require(
        abs(value - reference) <= TOL * (1.0 + abs(reference)),
        f"{what}: {value!r} differs from reference {reference!r}",
    )


def _number(text, what):
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: {text!r} is not a number") from None
    _require(math.isfinite(value), f"{what}: {text!r} is not finite")
    return value


def _read_csv(path: Path, header):
    _require(path.is_file(), f"missing {path.name}")
    text = path.read_text(encoding="utf-8")
    _require(text.endswith("\n") and "\r" not in text, f"{path.name}: not LF-terminated")
    lines = text[:-1].split("\n")
    _require(lines[0].split(",") == header, f"{path.name}: header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), f"{path.name}: ragged rows")
    return rows


def _alpha(text, tau0, what):
    alpha = _number(text, what)
    _require(tau0 - 1e-12 <= alpha <= 1.0 + 1e-12, f"{what}: alpha {alpha} outside [{tau0}, 1]")
    return alpha


def _extract_solve(doc, out: Path):
    m, tau0 = doc["miners"], doc["tau0"]
    rows = _read_csv(out / "cvar" / "equilibrium.csv", EQUILIBRIUM_HEADER)
    _require(len(rows) == m, f"equilibrium.csv: {len(rows)} rows for {m} miners")
    _require([r[0] for r in rows] == [str(j) for j in range(m)], "equilibrium.csv: miner ids")
    record = {
        "alpha": [_alpha(r[1], tau0, "alpha_star") for r in rows],
        "u_min": [_number(r[2], "u_min_star") for r in rows],
        "x_hat": [_number(r[3], "x_hat") for r in rows],
        "cost": [_number(r[4], "cost") for r in rows],
    }
    trace = _read_csv(out / "cvar" / "trace.csv", TRACE_HEADER)
    sweeps = len(trace) // m
    _require(sweeps >= 1 and len(trace) == sweeps * m, f"trace.csv: {len(trace)} rows for {m} miners")
    expected = [(str(s), str(j)) for s in range(1, sweeps + 1) for j in range(m)]
    _require([(r[0], r[1]) for r in trace] == expected, "trace.csv: sweep/miner ids")
    for r in trace:
        _alpha(r[2], tau0, "trace alpha")
        _number(r[3], "trace u_min")
    _require(
        [_number(r[2], "alpha") for r in trace[-m:]] == record["alpha"],
        "trace.csv: last sweep differs from equilibrium.csv",
    )
    return record


def _extract_sweep(out: Path, axis):
    values = SWEEP_VALUES[axis]
    rows = _read_csv(out / "sweep.csv", SWEEP_HEADER)
    _require(len(rows) == len(values), f"sweep.csv: {len(rows)} rows for {len(values)} values")
    for r, value in zip(rows, values):
        _require(_number(r[0], "axis_value") == value, f"sweep.csv: axis value {r[0]}")
        _require(r[1] == "bti", f"sweep.csv: mode {r[1]!r}")
        _require(r[5] == "ok", f"sweep.csv: status {r[5]!r} at {axis}={r[0]}")
        _require(r[4].isdigit() and int(r[4]) >= 1, f"sweep.csv: sweeps {r[4]!r}")
    return {
        "sum_u_min": [_number(r[2], "sum_u_min") for r in rows],
        "sum_alpha_x": [_number(r[3], "sum_alpha_x") for r in rows],
    }


def _extract_validate(doc, out: Path):
    m, eps = doc["miners"], doc["epsilon"]
    groups = [(j, dist) for j in range(m) for dist in DISTRIBUTIONS]
    rows = _read_csv(out / "violations.csv", VIOLATIONS_HEADER)
    _require(len(rows) == len(groups), f"violations.csv: {len(rows)} rows, want {len(groups)}")
    violations, passed = [], []
    for r, (j, dist) in zip(rows, groups):
        _require(r[:3] == ["bti", dist, str(j)], f"violations.csv: row {r[:3]}")
        rate = _number(r[3], "violation_rate")
        _require(0.0 <= rate <= 1.0, f"violations.csv: rate {rate}")
        _require(_number(r[4], "epsilon") == eps, f"violations.csv: epsilon {r[4]}")
        _require(r[5] in ("true", "false"), f"violations.csv: pass {r[5]!r}")
        violations.append(round(rate * VALIDATE_SAMPLES))
        passed.append(r[5] == "true")
    hist = _read_csv(out / "histogram.csv", HISTOGRAM_HEADER)
    bins = len(hist) // len(groups)
    _require(bins >= 1 and len(hist) == bins * len(groups), f"histogram.csv: {len(hist)} rows")
    u_lo, u_hi = [], []
    for k, (j, dist) in enumerate(groups):
        block = hist[k * bins : (k + 1) * bins]
        _require(all(r[:3] == ["bti", dist, str(j)] for r in block), f"histogram.csv: group {j} {dist}")
        _require(
            all(a[4] == b[3] for a, b in zip(block, block[1:])), "histogram.csv: bins not contiguous"
        )
        counts = [int(r[5]) for r in block]
        _require(sum(counts) == VALIDATE_SAMPLES, f"histogram.csv: {sum(counts)} samples in {j} {dist}")
        u_lo.append(_number(block[0][3], "bin_lo"))
        u_hi.append(_number(block[-1][4], "bin_hi"))
    return {"violations": violations, "pass": passed, "bins": bins, "u_lo": u_lo, "u_hi": u_hi}


def extract(verb, doc, out: Path, axis=None) -> dict:
    """Parse and schema-check one op's outputs into its reference record."""
    if verb == "solve":
        return _extract_solve(doc, out)
    if verb == "sweep":
        return _extract_sweep(out, axis)
    return _extract_validate(doc, out)


def compare(record: dict, reference: dict):
    """Require an extracted record to agree with its reference."""
    for key, ref in reference.items():
        got = record[key]
        if isinstance(ref, list):
            _require(len(got) == len(ref), f"{key} has {len(got)} entries, want {len(ref)}")
        if key == "violations":
            for a, b in zip(got, ref):
                _require(abs(a - b) <= COUNT_SLACK, f"{a} violations, reference {b}")
        elif isinstance(ref, list) and ref and isinstance(ref[0], float):
            for k, (a, b) in enumerate(zip(got, ref)):
                _close(a, b, f"{key}[{k}]")
        else:
            _require(got == ref, f"{key} {got!r}, reference {ref!r}")


def check_worstcase(record: dict, config, worstcase_violation):
    """Every cvar equilibrium must hold the chance constraint on the two-point family."""
    worst = worstcase_violation(record["alpha"], record["u_min"], config)
    _require(
        worst <= config.epsilon, f"two-point worst-case violation {worst} > epsilon {config.epsilon}"
    )
