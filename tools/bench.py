"""Benchmark trajectory: run ``benchmarks/run.py`` and write a ``BENCH_<n>.json``.

    python3 tools/bench.py BENCH_24.json --parent ../parent-checkout --pairs 10
    python3 tools/bench.py BENCH_20.json --pairs 3      # this tree alone

Run from the root of a checkout.  Every run is one fresh process of

    python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0

started from the root of the tree it measures, whose last line of standard
output is the run's result as one JSON object.  The workloads W and the run
seconds T are ``BENCHMARK.json``'s; every workload runs, so each file covers
all of them.  Pair i of a workload runs on seed ``FIRST_SEED + i``.  With
``--parent``, each pair runs the parent tree and this one on that seed, the
parent first in even pairs and second in odd ones, so that a drift in host
speed falls on both sides alike.

For each workload the file holds, per end-to-end metric of ``BENCHMARK.json``
and per side, the median and the interquartile range of the runs, and, with
``--parent``, the median over pairs of the change-to-parent ratio and the
number of pairs the change won (a tie counts for neither side).  It also
holds the failed and attempted op counts, the commits, and the Python and
numpy versions and CPU count of the host, and per side the Tier-1 suite's
wall time and outcome counts from one ``python3 -m pytest -q`` run in the
tree's root, after its workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 2  # seed 1 is left to development runs, so a claim holds on unseen seeds
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]  # the cache would write into the tree


def run_argv(workload: str, seed: int, seconds) -> list[str]:
    return [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def parse_result(stdout: str) -> dict:
    """The result object a run prints as its last line of standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def run_once(tree: Path, workload: str, seed: int, seconds) -> dict:
    child = subprocess.run(run_argv(workload, seed, seconds), cwd=tree, stdout=subprocess.PIPE, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with {child.returncode}")
    return parse_result(child.stdout)


def parse_tier1(stdout: str, exit_code: int, wall_s: float) -> dict:
    """A Tier-1 run: its wall time, its exit code and the counts of pytest's
    closing summary line (e.g. "441 passed, 1 failed in 16.51s")."""
    summary = next((line for line in reversed(stdout.splitlines()) if re.search(r"\d+ \w+.* in [\d.]+s", line)), "")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary.rsplit(" in ", 1)[0])}
    return {"wall_s": wall_s, "exit_code": exit_code, "counts": counts}


def run_tier1(tree: Path) -> dict:
    start = time.perf_counter()
    child = subprocess.run([sys.executable, *TIER1], cwd=tree, stdout=subprocess.PIPE, text=True)
    return parse_tier1(child.stdout, child.returncode, time.perf_counter() - start)


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
    """The tree's HEAD commit and whether its tracked files differ from it;
    both None when the tree is not the top of a git checkout (one made with
    ``git archive``, say), so that no other repository's commit is named."""
    def git(*args):
        child = subprocess.run(["git", *args], cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               text=True)
        return child.stdout.strip() if child.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != tree.resolve():
        return {"commit": None, "dirty": None}
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "cpu_count": os.cpu_count()}


def collect(spec: dict, pairs: int, parent: Path | None, run=run_once) -> dict:
    """Run every workload that ``spec`` (the ``BENCHMARK.json`` document)
    declares, for its run seconds, ``pairs`` times per side, and return each
    workload's (change, parent or None) result lists.  ``run(tree, workload,
    seed, seconds)`` makes one run."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        change_runs, parent_runs = [], []
        for i in range(pairs):
            seed = FIRST_SEED + i
            order = [(parent, parent_runs), (ROOT, change_runs)] if parent else [(ROOT, change_runs)]
            for tree, runs in order if i % 2 == 0 else reversed(order):
                runs.append(run(tree, workload, seed, spec["run_seconds"]))
                result = runs[-1]
                print(f"# {workload} seed {seed} {'parent' if tree == parent else 'change'}: ops_per_s "
                      f"{result['metrics']['ops_per_s']['value']:.4g}, failed {result['failed']}", flush=True)
        results[workload] = (change_runs, parent_runs if parent else None)
    return results


def document(spec: dict, results: dict, trees: dict, tier1: dict) -> dict:
    """The ``BENCH_*.json`` document: ``spec`` is ``BENCHMARK.json``,
    ``results`` maps a workload to its (change, parent or None) run lists,
    ``trees`` a side to its commit and ``tier1`` a side to its Tier-1 run."""
    return {
        "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {spec['run_seconds']} --trace 0",
        **{f"{side}_commit": commit for side, commit in trees.items()},
        "environment": environment(),
        "workloads": {name: summarize(spec["end_to_end"], change, parent)
                      for name, (change, parent) in results.items()},
        "tier1": {"command": "python3 " + " ".join(TIER1), **tier1},
    }


def positive_int(text: str) -> int:
    """``--pairs``'s type: a run count of at least 1, since no run gives no
    median to record."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="file to write, e.g. BENCH_24.json")
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit to pair against")
    parser.add_argument("--pairs", type=positive_int, default=3, help="pairs (or runs, without --parent) per workload")
    args = parser.parse_args(argv)
    parent = args.parent.resolve() if args.parent else None
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = collect(spec, args.pairs, parent)
    sides = {"change": ROOT, **({"parent": parent} if parent else {})}
    tier1 = {side: run_tier1(tree) for side, tree in sides.items()}
    trees = {side: commit_of(tree) for side, tree in sides.items()}
    doc = document(spec, results, trees, tier1)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
