"""``tools/digest.py`` runs every CLI verb on every config, and one pass over
each benchmark deck, and hashes the CSVs.

A stub stands in for the CLI processes: nothing here starts one.
"""

import hashlib
import itertools
import shutil
from pathlib import Path

from powgame import cli

from conftest import ROOT, load_repo_module

digest = load_repo_module("tools/digest.py")
decks = digest.load_decks(ROOT)


def _tree(tmp_path):
    """A tree with three configs, made out of name order, and the benchmark
    decks."""
    tree = tmp_path / "tree"
    (tree / "configs").mkdir(parents=True)
    (tree / "benchmarks").mkdir()
    shutil.copy(ROOT / "benchmarks" / "decks.py", tree / "benchmarks" / "decks.py")
    for name in ("b.json", "c.json", "a.json"):
        (tree / "configs" / name).write_text("{}\n", encoding="utf-8")
    (tree / "configs" / "notes.txt").write_text("not a config\n", encoding="utf-8")
    return tree


def _stub(calls):
    """A CLI stand-in: it records each argv and writes two CSVs into the
    call's ``--out``, the later name first; a cvar call exits 2."""
    def run(tree, work, argv):
        calls.append(argv)
        out = work / argv[argv.index("--out") + 1]
        out.mkdir(parents=True)
        for name in ("z.csv", "a.csv"):
            (out / name).write_text(" ".join(argv) + name, encoding="utf-8")
        return 2 if "cvar" in argv else 0

    return run


def test_every_call_is_made_once_and_the_output_order_is_stable(tmp_path):
    tree, calls = _tree(tmp_path), []
    (tmp_path / "w1").mkdir()
    lines = digest.digest(tree, tmp_path / "w1", _stub(calls))
    expected = [(f"configs/{name}", mode, verb, axis)
                for name, mode, (verb, axis) in itertools.product(
                    ("a.json", "b.json", "c.json"), ("all", "det", "bti", "cvar"),
                    [("solve", None), ("validate", None), *(("sweep", axis) for axis in cli.SWEEP_AXES)])]
    made = [(argv[2], argv[argv.index("--mode") + 1], argv[0], argv[-1] if argv[0] == "sweep" else None)
            for argv in calls[:len(expected)]]
    assert made == expected  # each once, in config, mode and verb order
    # then every op of one pass over each deck, once, in deck order
    ops = [(workload.name, op) for workload in decks.WORKLOADS.values() for op in decks.deck_ops(workload)]
    assert len(calls) == len(expected) + len(ops) and len(ops) == 124
    for argv, (name, op) in zip(calls[len(expected):], ops):
        workload = decks.WORKLOADS[name]
        config = Path("decks", name, f"{decks.deck(workload)[op.game]['name']}.json")
        assert argv == decks.op_argv(workload, op, config, Path("out", "decks", name, op.key.replace(":", "-")))
        assert (tmp_path / "w1" / config).read_text(encoding="utf-8") == decks.scenario_text(decks.deck(workload)[op.game])
    assert lines[:len(calls)] == [f"{2 if 'cvar' in argv else 0}  {' '.join(argv)}" for argv in calls]
    assert lines[0] == "0  solve --config configs/a.json --out out/a/all/solve --mode all"
    assert lines[8] == "0  sweep --config configs/a.json --out out/a/det/sweep-epsilon --mode det --axis epsilon"
    hashed = [line.split("  ") for line in lines[len(calls):]]
    paths = [path for _, path in hashed]
    assert len(paths) == 2 * len(calls) and paths == sorted(paths)
    work = tmp_path / "w1"
    assert all(digest_ == hashlib.sha256((work / path).read_bytes()).hexdigest() for digest_, path in hashed)
    # a second run in another directory prints the same lines
    (tmp_path / "w2").mkdir()
    assert digest.digest(tree, tmp_path / "w2", _stub([])) == lines


def test_axes_and_modes_are_the_cli_s():
    assert digest.AXES == cli.SWEEP_AXES
    assert set(digest.MODES) == {"all", *cli.MODE_ALIASES}
