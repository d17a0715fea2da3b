"""``tools/bench.py`` turns benchmark results into a ``BENCH_*.json`` entry.

Canned results stand in for runs of ``benchmarks/run.py``: nothing here runs
the benchmark or reads a clock.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


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


def test_document_names_the_command_commits_and_host():
    doc = bench.document(SPEC, {"sweep-bti": ([_result(20.0, 0.04)], [_result(19.0, 0.04)])},
                         {"change": {"commit": "abc", "dirty": False}, "parent": {"commit": "def", "dirty": False}})
    assert doc["command"] == "python3 benchmarks/run.py --workload W --seed S --seconds 25 --trace 0"
    assert doc["change_commit"]["commit"] == "abc" and doc["parent_commit"]["commit"] == "def"
    assert set(doc["environment"]) == {"python", "numpy", "cpu_count"}
    assert set(doc["workloads"]["sweep-bti"]["metrics"]) == {m["name"] for m in SPEC}
    json.dumps(doc)  # plain JSON throughout
