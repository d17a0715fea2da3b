"""Benchmark trajectory: run ``benchmarks/run.py`` and write a ``BENCH_<n>.json``.

    python3 tools/bench.py BENCH_24.json --parent ../parent-checkout --pairs 10
    python3 tools/bench.py BENCH_20.json --pairs 3      # this tree alone

Run from the root of a checkout.  Every run is one fresh process of

    python3 benchmarks/run.py --workload W --seed S --seconds 25 --trace 0

started from the root of the tree it measures, whose last line of standard
output is the run's result as one JSON object.  Every workload of
``WORKLOADS`` runs, so each file covers all of them.  Pair i of a workload runs on
seed ``FIRST_SEED + i``.  With ``--parent``, each pair runs the parent tree
and this one on that seed, the parent first in even pairs and second in odd
ones, so that a drift in host speed falls on both sides alike.

For each workload the file holds, per end-to-end metric of ``BENCHMARK.json``
and per side, the median and the interquartile range of the runs, and, with
``--parent``, the median over pairs of the change-to-parent ratio and the
number of pairs the change won (a tie counts for neither side).  It also
holds the failed and attempted op counts, the commits, and the Python and
numpy versions and CPU count of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve-cvar", "sweep-bti", "validate-mc")
FIRST_SEED = 2  # seed 1 is left to development runs, so a claim holds on unseen seeds
SECONDS = 25
COMMAND = f"python3 benchmarks/run.py --workload W --seed S --seconds {SECONDS} --trace 0"


def run_argv(workload: str, seed: int) -> list[str]:
    return [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def parse_result(stdout: str) -> dict:
    """The result object a run prints as its last line of standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def run_once(tree: Path, workload: str, seed: int) -> dict:
    child = subprocess.run(run_argv(workload, seed), cwd=tree, stdout=subprocess.PIPE, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with {child.returncode}")
    return parse_result(child.stdout)


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile and their distance of ``values``."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": list(values)}


def summarize(spec: list[dict], change: list[dict], parent: list[dict] | None = None) -> dict:
    """One workload's entry: ``spec`` is ``BENCHMARK.json``'s ``end_to_end``
    list, ``change`` and ``parent`` the run results of each side, pair by
    pair."""
    sides = {"change": change} if parent is None else {"parent": parent, "change": change}
    entry = {
        "runs_per_side": len(change),
        "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
        "metrics": {},
    }
    for metric in spec:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in sides.items()}
        row = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
        row.update({side: quartiles(v) for side, v in values.items()})
        if parent is not None:
            pairs = list(zip(values["parent"], values["change"]))
            sign = 1.0 if metric["better"] == "higher" else -1.0
            row["median_ratio"] = statistics.median(c / p for p, c in pairs)
            row["wins"] = sum(sign * (c - p) > 0.0 for p, c in pairs)
        entry["metrics"][name] = row
    return entry


def commit_of(tree: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, stdout=subprocess.PIPE, text=True).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "cpu_count": os.cpu_count()}


def document(spec, results: dict, trees: dict) -> dict:
    """The ``BENCH_*.json`` document: ``results`` maps a workload to its
    (change, parent or None) run lists, ``trees`` a side to its commit."""
    return {
        "command": COMMAND,
        **{f"{side}_commit": commit for side, commit in trees.items()},
        "environment": environment(),
        "workloads": {name: summarize(spec, change, parent) for name, (change, parent) in results.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="file to write, e.g. BENCH_24.json")
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit to pair against")
    parser.add_argument("--pairs", type=int, default=3, help="pairs (or runs, without --parent) per workload")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent = args.parent.resolve() if args.parent else None
    results = {}
    for workload in WORKLOADS:
        change_runs, parent_runs = [], []
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = [(parent, parent_runs), (ROOT, change_runs)] if parent else [(ROOT, change_runs)]
            for tree, runs in order if i % 2 == 0 else reversed(order):
                runs.append(run_once(tree, workload, seed))
                result = runs[-1]
                print(f"# {workload} seed {seed} {'parent' if tree == parent else 'change'}: ops_per_s "
                      f"{result['metrics']['ops_per_s']['value']:.4g}, failed {result['failed']}", flush=True)
        results[workload] = (change_runs, parent_runs if parent else None)
    trees = {"change": commit_of(ROOT), **({"parent": commit_of(parent)} if parent else {})}
    args.out.write_text(json.dumps(document(spec, results, trees), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
