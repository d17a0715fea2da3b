"""The benchmark's tracer still finds every solver name it wraps.

``benchmarks/tracer.py`` patches functions by module and attribute name, so a
rename in the library would otherwise surface only as a crash or as zeroed
metrics of ``benchmarks/run.py --trace 1``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from powgame import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

SCENARIO = {
    "miners": 3,
    "resources": {"mode": "homogeneous", "x_hat": 55.0},
    "sigma": 10.0,
    "epsilon": 0.1,
}


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _powgame_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "powgame" or name.startswith("powgame.")
    }


def test_tracer_binds_the_solver_spans(tmp_path):
    tracing = _load_tracer_module()
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
def test_each_strategy_step_runs_one_scan(tmp_path, mode, strategy):
    # traced one back-end at a time, so neither can route around the scan
    # while the other's calls make up the count
    tracing = _load_tracer_module()
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(SCENARIO), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = str(tmp_path / mode)
        assert cli.main(["solve", "--config", str(config), "--mode", mode, "--out", out]) == 0
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats[strategy][0] > 0
    assert stats["search.scan_golden_max"][0] == stats[strategy][0]
