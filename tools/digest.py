"""Output digest: hash every CSV the CLI writes on the configs and benchmark decks.

    python3 tools/digest.py                              # this tree
    python3 tools/digest.py --tree ../parent-checkout    # another tree

For each ``configs/*.json`` of the tree and each ``--mode`` in all, det, bti
and cvar, it runs ``solve``, ``validate`` and ``sweep --axis A`` for each of
the four axes.  Each call is a fresh ``python3 -m powgame.cli`` process with
``PYTHONPATH=<tree>/src``, started in a temporary directory that holds a
copy of the tree's ``configs``, so every path in a call is relative.  Then
it writes the games of every workload of the tree's ``benchmarks/decks.py``
into ``decks/<workload>`` and runs each op of one pass over the deck, in
``decks.deck_ops`` order, as the benchmark issues it, but each as a fresh
process too.  It prints one line per call, its exit code and argv, then
``sha256  path`` for each CSV the calls wrote, sorted by path.  Two trees
whose outputs are byte-identical print identical text; ``diff`` the two
outputs to check a change that should move no output byte.  The calls' own
messages go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("all", "det", "bti", "cvar")
AXES = ("epsilon", "fixed_reward", "unit_cost", "num_miners")  # powgame.cli.SWEEP_AXES


def calls(config_names: list[str]) -> list[list[str]]:
    """The CLI argv of every call, in run order, each writing its own
    ``out/<config>/<mode>/<verb>`` directory."""
    runs = [("solve", "solve", []), ("validate", "validate", []),
            *(("sweep", f"sweep-{axis}", ["--axis", axis]) for axis in AXES)]
    return [
        [verb, "--config", f"configs/{name}", "--out", f"out/{Path(name).stem}/{mode}/{out}", "--mode", mode, *extra]
        for name in config_names for mode in MODES for verb, out, extra in runs
    ]


def load_decks(tree: Path):
    """The tree's ``benchmarks/decks.py``, imported without running anything
    else of the benchmark."""
    spec = importlib.util.spec_from_file_location("benchmark_decks", tree / "benchmarks" / "decks.py")
    decks = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(decks)
    return decks


def deck_calls(tree: Path, work: Path) -> list[list[str]]:
    """Writes every benchmark deck of ``tree`` into ``work/decks``; the CLI
    argv of one pass over each deck, in workload and deck order, each op
    writing its own ``out/decks/<workload>/<op>`` directory."""
    decks = load_decks(tree)
    argvs = []
    for workload in decks.WORKLOADS.values():
        games = decks.write_deck(workload, work / "decks" / workload.name)
        for op in decks.deck_ops(workload):
            config = games[op.game][1].relative_to(work)
            out = Path("out", "decks", workload.name, op.key.replace(":", "-"))
            argvs.append(decks.op_argv(workload, op, config, out))
    return argvs


def run_cli(tree: Path, work: Path, argv: list[str]) -> int:
    """One call: a fresh interpreter running the tree's ``powgame.cli`` in
    ``work``; its exit code."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    child = subprocess.run([sys.executable, "-m", "powgame.cli", *argv], cwd=work, env=env,
                           stdout=subprocess.DEVNULL)
    return child.returncode


def digest(tree: Path, work: Path, run=run_cli) -> list[str]:
    """The digest's lines for ``tree``, made in the empty directory ``work``;
    ``run(tree, work, argv)`` makes one call and returns its exit code."""
    shutil.copytree(tree / "configs", work / "configs")
    names = sorted(path.name for path in (work / "configs").glob("*.json"))
    argvs = calls(names) + deck_calls(tree, work)
    lines = [f"{run(tree, work, argv)}  {' '.join(argv)}" for argv in argvs]
    for path in sorted(work.glob("out/**/*.csv")):
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(work).as_posix()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="root of the checkout to run (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        for line in digest(args.tree.resolve(), Path(work)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
