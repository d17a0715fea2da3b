"""``tools/bench.py`` turns benchmark results into a ``BENCH_*.json`` entry.

Canned results stand in for runs of ``benchmarks/run.py`` and of the Tier-1
suite: nothing here runs the benchmark or pytest, or reads a clock.
"""

import json
import subprocess
from pathlib import Path

import pytest

from conftest import ROOT, load_repo_module

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = DECLARED["end_to_end"]
bench = load_repo_module("tools/bench.py")


def _result(ops_per_s, op_p50_s, failed=0, attempted=56):
    """The last line of a run: every end-to-end metric, two of them given."""
    values = {"setup_s": 0.2, "ops_per_s": ops_per_s, "op_p50_s": op_p50_s, "op_tail_s": 0.05, "peak_rss_mb": 40.0}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _stdout(result):
    return "# sweep-bti seed=2: 56 ops in 1 pass(es)\nops_per_s 20 1/s\n" + json.dumps(result) + "\n"


def test_parse_result_reads_the_last_line():
    result = _result(20.0, 0.04)
    assert bench.parse_result(_stdout(result)) == result
    with pytest.raises(ValueError):
        bench.parse_result("")


def test_pairs_give_medians_quartiles_ratios_and_wins():
    parent = [bench.parse_result(_stdout(_result(v, p))) for v, p in ((20.0, 0.040), (19.0, 0.042), (21.0, 0.038),
                                                                      (20.0, 0.041))]
    change = [_result(v, p) for v, p in ((26.0, 0.030), (19.0, 0.043), (25.0, 0.031), (30.0, 0.041))]
    entry = bench.summarize(SPEC, change, parent)
    assert entry["runs_per_side"] == 4
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert entry["attempted"] == {"parent": 224, "change": 224}
    ops = entry["metrics"]["ops_per_s"]
    assert (ops["unit"], ops["better"], ops["bound"]) == ("1/s", "higher", 0.25)
    assert ops["parent"]["median"] == 20.0 and ops["change"]["median"] == 25.5
    assert ops["parent"]["q1"] == 19.75 and ops["parent"]["q3"] == 20.25 and ops["parent"]["iqr"] == 0.5
    assert ops["change"]["runs"] == [26.0, 19.0, 25.0, 30.0]
    assert ops["median_ratio"] == pytest.approx((1.3 + 25.0 / 21.0) / 2.0)
    assert ops["wins"] == 3  # 19 against 19 is a tie
    p50 = entry["metrics"]["op_p50_s"]  # lower is better: 0.043 loses, 0.041 ties
    assert p50["wins"] == 2
    setup = entry["metrics"]["setup_s"]  # equal everywhere: no wins, ratio 1
    assert setup["wins"] == 0 and setup["median_ratio"] == 1.0


def test_failed_ops_are_counted_per_side():
    entry = bench.summarize(SPEC, [_result(20.0, 0.04, failed=2), _result(20.0, 0.04, failed=1)],
                            [_result(20.0, 0.04), _result(20.0, 0.04)])
    assert entry["failed"] == {"parent": 0, "change": 3}


def test_without_a_parent_only_this_tree_is_summarized():
    entry = bench.summarize(SPEC, [_result(20.0, 0.04)])
    ops = entry["metrics"]["ops_per_s"]
    assert "parent" not in ops and "wins" not in ops and "median_ratio" not in ops
    assert ops["change"]["median"] == 20.0 and ops["change"]["iqr"] == 0.0
    assert entry["failed"] == {"change": 0}


def test_runs_cover_the_declared_workloads_at_the_declared_seconds():
    # a canned BENCHMARK.json: the workloads and run seconds come from it,
    # and the two trees alternate which runs first
    spec = {"run_seconds": 7, "workloads": [{"name": "alpha"}, {"name": "beta"}], "end_to_end": SPEC}
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        return _result(20.0, 0.04)

    parent = Path("/parent-tree")
    results = bench.collect(spec, 2, parent, run)
    assert calls == [(parent, "alpha", 2, 7), (bench.ROOT, "alpha", 2, 7), (bench.ROOT, "alpha", 3, 7),
                     (parent, "alpha", 3, 7), (parent, "beta", 2, 7), (bench.ROOT, "beta", 2, 7),
                     (bench.ROOT, "beta", 3, 7), (parent, "beta", 3, 7)]
    assert list(results) == ["alpha", "beta"] and all(len(c) == len(p) == 2 for c, p in results.values())
    assert bench.run_argv("alpha", 3, 7)[1:] == ["benchmarks/run.py", "--workload", "alpha", "--seed", "3",
                                                 "--seconds", "7", "--trace", "0"]
    doc = bench.document(spec, results, {"change": {"commit": "abc", "dirty": False}}, {})
    assert doc["command"] == "python3 benchmarks/run.py --workload W --seed S --seconds 7 --trace 0"
    assert list(doc["workloads"]) == ["alpha", "beta"]


def test_tier1_run_reads_the_summary_line():
    stdout = ("........F.                                                 [100%]\n"
              "============================= slowest 5 durations ==============================\n"
              "2.25s call     tests/test_bti.py::test_climb_equals_the_full_scan_on_wide_steps\n"
              "=========================== short test summary info ============================\n"
              "FAILED tests/test_bti.py::test_a - AssertionError: 2 in 3s\n"
              "2 failed, 439 passed, 1 skipped in 61.20s (0:01:01)\n")
    assert bench.parse_tier1(stdout, 1, 62.5) == {
        "wall_s": 62.5, "exit_code": 1, "counts": {"failed": 2, "passed": 439, "skipped": 1}}
    assert bench.parse_tier1("", 4, 0.5)["counts"] == {}


def test_document_names_the_command_commits_and_host():
    tier1 = {side: bench.parse_tier1("441 passed in 16.51s\n", 0, 17.0) for side in ("change", "parent")}
    doc = bench.document(DECLARED, {"sweep-bti": ([_result(20.0, 0.04)], [_result(19.0, 0.04)])},
                         {"change": {"commit": "abc", "dirty": False}, "parent": {"commit": "def", "dirty": False}},
                         tier1)
    assert doc["command"] == "python3 benchmarks/run.py --workload W --seed S --seconds 25 --trace 0"
    assert doc["change_commit"]["commit"] == "abc" and doc["parent_commit"]["commit"] == "def"
    assert set(doc["environment"]) == {"python", "numpy", "cpu_count"}
    assert set(doc["workloads"]["sweep-bti"]["metrics"]) == {m["name"] for m in SPEC}
    assert doc["tier1"]["command"] == "python3 -m pytest -q -p no:cacheprovider"
    assert doc["tier1"]["change"] == {"wall_s": 17.0, "exit_code": 0, "counts": {"passed": 441}}
    json.dumps(doc)  # plain JSON throughout


def test_a_tree_outside_git_has_no_commit(tmp_path, capfd):
    # a checkout made with git archive has no git metadata, and a folder
    # inside another checkout is not its top: neither names a commit, and
    # git's complaint stays off stderr
    assert bench.commit_of(tmp_path) == {"commit": None, "dirty": None}
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "f").write_text("1\n")
    subprocess.run([*git, "-C", str(tmp_path), "add", "f"], check=True)
    subprocess.run([*git, "-C", str(tmp_path), "commit", "-q", "-m", "one"], check=True)
    head = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()
    assert bench.commit_of(tmp_path) == {"commit": head, "dirty": False}
    (tmp_path / "f").write_text("2\n")
    assert bench.commit_of(tmp_path) == {"commit": head, "dirty": True}
    (tmp_path / "sub").mkdir()
    assert bench.commit_of(tmp_path / "sub") == {"commit": None, "dirty": None}
    assert "fatal" not in capfd.readouterr().err


@pytest.mark.parametrize("pairs", [["--pairs", "0"], ["--pairs=-1"]])
def test_fewer_than_one_pair_is_refused(tmp_path, capsys, pairs):
    # no run gives no median: the count is refused before anything runs,
    # and no file is written
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        bench.main([str(out), *pairs])
    assert exit_info.value.code == 2
    assert "--pairs: must be at least 1" in capsys.readouterr().err
    assert not out.exists()
