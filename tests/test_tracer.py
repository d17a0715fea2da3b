"""The benchmark's tracer still finds every solver name it wraps.

``benchmarks/tracer.py`` patches functions by module and attribute name, so a
rename in the library would otherwise surface only as a crash or as zeroed
metrics of ``benchmarks/run.py --trace 1``.
"""

import json
import sys

import pytest

from powgame import cli
from powgame.validate import DISTRIBUTIONS

from conftest import load_repo_module

SCENARIO = {
    "miners": 3,
    "resources": {"mode": "homogeneous", "x_hat": 55.0},
    "sigma": 10.0,
    "epsilon": 0.1,
}


def _powgame_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "powgame" or name.startswith("powgame.")
    }


def _run_traced(tmp_path, doc, *argv):
    """The tracer installed around one ``cli.main`` call on ``doc``, which must exit 0."""
    tracing = load_repo_module("benchmarks/tracer.py")
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = str(tmp_path / "out")
        assert cli.main([argv[0], "--config", str(config), "--out", out, *argv[1:]]) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_binds_the_solver_spans(tmp_path):
    tracing = load_repo_module("benchmarks/tracer.py")
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(SCENARIO), encoding="utf-8")
    loss = sys.modules["powgame.cvar"].LossCoefficients
    before = _powgame_namespaces()
    from_strategy = loss.__dict__["from_strategy"]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for table in (tracing.SPANS, tracing.LEAVES):
            for module, attr in table.values():
                assert getattr(sys.modules[module], attr) is not before[module][attr]
        for mode in ("bti", "cvar"):
            out = str(tmp_path / mode)
            assert cli.main(["solve", "--config", str(config), "--mode", mode, "--out", out]) == 0
    finally:
        tracer.uninstall()

    stats = tracer.layer_stats()
    traced = [
        "cli.run_solve",
        "equilibrium.solve_equilibrium",
        "bti.robust_best_response_gaussian",
        "bti.subproblem_threshold_gaussian",
        "bti.subproblem_strategy_gaussian",
        "cvar.robust_best_response",
        "cvar.subproblem_threshold",
        "cvar.subproblem_strategy",
        "search.scan_golden_max",
    ]
    for name in traced:
        assert stats[name][0] > 0, name
    metrics = tracer.metrics(0.0)
    assert metrics["cvar.ao_iters_per_br"][0] > 0 and metrics["bti.ao_iters_per_br"][0] > 0

    after = _powgame_namespaces()
    for name, namespace in before.items():
        for key, value in namespace.items():
            assert after[name][key] is value, f"{name}.{key}"
    assert loss.__dict__["from_strategy"] is from_strategy


@pytest.mark.parametrize(
    "mode, strategy",
    [("bti", "bti.subproblem_strategy_gaussian"), ("cvar", "cvar.subproblem_strategy")],
)
def test_each_strategy_step_runs_one_scan(tmp_path, work, mode, strategy):
    # traced one back-end at a time, so neither can route around the scan
    # while the other's calls make up the count; a bti step whose curvature
    # certificate keeps the incoming alpha runs none, and a cvar step passes
    # no curvature
    stats = _run_traced(tmp_path, SCENARIO, "solve", "--mode", mode).layer_stats()
    scans, steps = stats["search.scan_golden_max"][0], stats[strategy][0]
    assert steps > 0 and 0 < scans
    assert scans + work.counts["kept"] == steps
    assert (work.counts["kept"] > 0) == (mode == "bti")


def _assert_spans(stats, names):
    for name in names:
        assert stats[name][0] > 0 and stats[name][1] > 0.0, name


def test_tracer_counts_a_validate_run(tmp_path):
    # the validate-mc workload's path: its sample hook reads each batch
    doc = dict(SCENARIO, validation={"distributions": list(DISTRIBUTIONS), "samples": 200})
    tracer = _run_traced(tmp_path, doc, "validate", "--mode", "bti")
    stats = tracer.layer_stats()
    _assert_spans(stats, ["cli.load_scenario", "cli.run_validate", "equilibrium.solve_equilibrium",
                          "bti.robust_best_response_gaussian", "validate.sample_uncertainty",
                          "validate.empirical_violation"])
    assert stats["validate.sample_uncertainty"][0] == 3 * len(DISTRIBUTIONS)
    assert tracer.metrics(0.0)["validate.samples_drawn"][0] == 3 * 4 * 200


def test_tracer_counts_a_sweep_run(tmp_path):
    tracer = _run_traced(tmp_path, SCENARIO, "sweep", "--mode", "bti", "--axis", "epsilon",
                         "--values", "0.05,0.1")
    stats = tracer.layer_stats()
    _assert_spans(stats, ["cli.load_scenario", "cli.run_sweep", "equilibrium.solve_equilibrium",
                          "bti.robust_best_response_gaussian", "bti.subproblem_strategy_gaussian"])
    assert stats["equilibrium.solve_equilibrium"][0] == 2
    assert tracer.metrics(0.0)["equilibrium.gs_sweeps_per_solve"][0] > 0
