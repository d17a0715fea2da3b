"""Output digest: run every CLI verb on every ``configs/*.json`` and hash each CSV.

    python3 tools/digest.py                              # this tree
    python3 tools/digest.py --tree ../parent-checkout    # another tree

For each ``configs/*.json`` of the tree and each ``--mode`` in all, det, bti
and cvar, it runs ``solve``, ``validate`` and ``sweep --axis A`` for each of
the four axes.  Each call is a fresh ``python3 -m powgame.cli`` process with
``PYTHONPATH=<tree>/src``, started in a temporary directory that holds a
copy of the tree's ``configs``, so every path in a call is relative.  It
prints one line per call, its exit code and argv, then ``sha256  path`` for
each CSV the calls wrote, sorted by path.  Two trees whose outputs are
byte-identical print identical text; ``diff`` the two outputs to check a
change that should move no output byte.  The calls' own messages go to
standard error.
"""

from __future__ import annotations

import argparse
import hashlib
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
    lines = [f"{run(tree, work, argv)}  {' '.join(argv)}" for argv in calls(names)]
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
