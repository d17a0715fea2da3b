"""End-to-end tests of the command-line harness and its CSV contracts."""

import json
from pathlib import Path

import pytest

from powgame import ConvergenceError, SolverError, cli
from powgame.cli import (
    EQUILIBRIUM_HEADER,
    HISTOGRAM_HEADER,
    SWEEP_HEADER,
    TRACE_HEADER,
    VIOLATIONS_HEADER,
    ScenarioError,
    load_scenario,
    main,
    scenario_from_dict,
)

REFERENCE_DOC = {
    "name": "reference",
    "miners": 5,
    "resources": {"mode": "homogeneous", "x_hat": 55.0},
    "mu": 0.0,
    "sigma": 10.0,
    "reward": {"fixed_reward": 5000, "unit_tx_reward": 10, "tx_count": 300},
    "unit_cost": 60.0,
    "tau0": 0.5,
    "epsilon": 0.1,
    "kappa": 1e-6,
    "seed": 7,
    "mode": "all",
    "validation": {"distributions": ["gaussian", "uniform", "poisson_shifted"], "samples": 500},
}


def write_config(tmp_path, doc=None, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else REFERENCE_DOC), encoding="utf-8")
    return path


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_scenario_defaults():
    scenario = scenario_from_dict({})
    config = scenario.config
    assert config.n_miners == 5
    assert config.reward.total == 8000.0
    assert config.miners[0].x_hat == 55.0
    assert config.miners[0].cost == 60.0
    assert config.tau0 == 0.5 and config.epsilon == 0.1 and config.kappa == 1e-6
    assert config.miners[0].x_min == 10.0 and config.miners[0].x_max == 100.0
    assert scenario.modes == ("deterministic", "gaussian_bti", "dro_cvar")


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"miners": 1})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"mode": "alien"})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"resources": {"mode": "bimodal"}})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"tau0": 0.0})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"unit_cost": [60.0, 60.0]})  # wrong length


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "miners": 5,\n  "oops"\n}', encoding="utf-8")
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert "line 4" in captured.err  # the decoder flags the missing ':' at line 4


def test_solve_reference_scenario(tmp_path):
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="det"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    header, rows = read_csv(out / "det" / "equilibrium.csv")
    assert header == EQUILIBRIUM_HEADER
    assert len(rows) == 5
    for row in rows:
        assert float(row[1]) == pytest.approx(0.5)
        assert float(row[2]) == pytest.approx(-50.0)
        assert float(row[3]) == 55.0
        assert float(row[4]) == 60.0
    header, rows = read_csv(out / "det" / "trace.csv")
    assert header == TRACE_HEADER
    assert all(len(r) == 4 for r in rows)


def test_solve_is_byte_reproducible(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(config), "--out", str(out2)]) == 0
    for mode in ("det", "bti", "cvar"):
        for name in ("equilibrium.csv", "trace.csv"):
            a = (out1 / mode / name).read_bytes()
            b = (out2 / mode / name).read_bytes()
            assert a == b


def test_heterogeneous_resources_are_seeded(tmp_path):
    doc = dict(REFERENCE_DOC, resources={"mode": "heterogeneous", "lo": 30.0, "hi": 60.0}, mode="det")
    scenario = load_scenario(write_config(tmp_path, doc))
    x_hats = [m.x_hat for m in scenario.config.miners]
    assert len(set(x_hats)) == 5
    assert all(30.0 <= x <= 60.0 for x in x_hats)
    again = load_scenario(write_config(tmp_path, doc, name="again.json"))
    assert [m.x_hat for m in again.config.miners] == x_hats
    other_seed = load_scenario(write_config(tmp_path, doc), seed=99)
    assert [m.x_hat for m in other_seed.config.miners] != x_hats


def test_solve_exit_code_on_non_convergence(tmp_path):
    doc = dict(
        REFERENCE_DOC,
        mode="det",
        tau0=0.05,
        max_iterations=1,
        resources={"mode": "heterogeneous", "lo": 30.0, "hi": 60.0},
        initial_alpha=0.05,
    )
    config = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


def test_sweep_schema_and_values(tmp_path):
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="bti"))
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", str(config), "--out", str(out), "--axis", "epsilon",
         "--values", "0.05,0.1,0.3"]
    )
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == SWEEP_HEADER
    assert len(rows) == 3
    u_sums = [float(r[2]) for r in rows]
    assert u_sums == sorted(u_sums)
    assert all(r[1] == "bti" and r[5] == "ok" for r in rows)


def test_sweep_num_miners_axis(tmp_path):
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="det"))
    out = tmp_path / "out"
    assert main(
        ["sweep", "--config", str(config), "--out", str(out), "--axis", "num_miners",
         "--values", "3,5,8"]
    ) == 0
    header, rows = read_csv(out / "sweep.csv")
    totals = {int(float(r[0])): float(r[2]) for r in rows}
    assert totals[3] > totals[5] > totals[8]


def test_sweep_records_failed_points(tmp_path, capsys):
    # a variance this large leaves no certifiable threshold (SolverError);
    # the sweep must record that point, say why on stderr and keep going
    doc = dict(REFERENCE_DOC, sigma=500.0, mode="bti")
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(
        ["sweep", "--config", str(config), "--out", str(out), "--axis", "epsilon",
         "--values", "0.1,0.2"]
    ) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2
    assert all(r[5].startswith("error:") for r in rows)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line, value in zip(err, ("0.1", "0.2")):
        assert line.startswith(f"sweep point epsilon={value} mode bti: ")
        assert "no feasible threshold above" in line


def test_validate_outputs(tmp_path):
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="cvar"))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config), "--out", str(out)]) == 0
    header, rows = read_csv(out / "violations.csv")
    assert header == VIOLATIONS_HEADER
    assert len(rows) == 5 * 3  # miners x distributions
    assert all(row[5] == "true" for row in rows)
    header, hist_rows = read_csv(out / "histogram.csv")
    assert header == HISTOGRAM_HEADER
    assert len(hist_rows) == 5 * 3 * 40
    counts = sum(int(r[5]) for r in hist_rows)
    assert counts == 5 * 3 * 500


def test_mode_override_flag(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out), "--mode", "det"]) == 0
    assert (out / "det" / "equilibrium.csv").exists()
    assert not (out / "cvar").exists()


@pytest.mark.parametrize(
    "doc",
    [
        dict(REFERENCE_DOC, miners="five"),
        dict(REFERENCE_DOC, tau0="half"),
        dict(REFERENCE_DOC, reward={"fixed_reward": -1.0}),
        dict(REFERENCE_DOC, sigma=["a"] * 5),
        dict(REFERENCE_DOC, mode=5),
        dict(REFERENCE_DOC, validation={"distributions": ["cauchy"]}),
        dict(REFERENCE_DOC, validation={"distributions": "gaussian"}),
        dict(REFERENCE_DOC, validation={"samples": "many"}),
        dict(REFERENCE_DOC, sigma=0.0, mode="bti"),
        dict(REFERENCE_DOC, sigma=[10.0, 10.0, 0.0, 10.0, 10.0], mode="cvar"),
    ],
    ids=[
        "miners-text", "tau0-text", "negative-reward", "sigma-list-text", "mode-number",
        "unknown-distribution", "distributions-not-list", "samples-text", "sigma0-bti",
        "sigma0-one-miner-cvar",
    ],
)
@pytest.mark.parametrize("verb", ["solve", "validate"])
def test_malformed_scenario_exits_1(tmp_path, capsys, doc, verb):
    config = write_config(tmp_path, doc)
    code = main([verb, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_zero_sigma_is_accepted_for_deterministic_override(tmp_path):
    # sigma = 0 is rejected only for the robust modes, after the --mode override
    config = write_config(tmp_path, dict(REFERENCE_DOC, sigma=0.0, mode="all"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out), "--mode", "det"]) == 0
    assert (out / "det" / "equilibrium.csv").exists()


def _raise(exc):
    def solve(*args, **kwargs):
        raise exc

    return solve


@pytest.mark.parametrize("error", [ConvergenceError("AO cap hit"), SolverError("no threshold")])
@pytest.mark.parametrize("verb", ["solve", "validate"])
def test_solver_errors_exit_2(tmp_path, capsys, monkeypatch, error, verb):
    monkeypatch.setattr(cli, "solve_equilibrium", _raise(error))
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="bti"))
    code = main([verb, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"solver error: {error}\n"


@pytest.mark.parametrize("error", [ConvergenceError("AO cap hit"), SolverError("no threshold")])
def test_sweep_records_solver_errors(tmp_path, monkeypatch, error):
    monkeypatch.setattr(cli, "solve_equilibrium", _raise(error))
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="bti"))
    out = tmp_path / "out"
    assert main(
        ["sweep", "--config", str(config), "--out", str(out), "--axis", "epsilon",
         "--values", "0.1,0.2"]
    ) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [r[5] for r in rows] == [f"error:{type(error).__name__}"] * 2


def test_sweep_does_not_hide_programming_errors(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "solve_equilibrium", _raise(ZeroDivisionError("bug")))
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="bti"))
    with pytest.raises(ZeroDivisionError):
        main(["sweep", "--config", str(config), "--out", str(tmp_path / "out"),
              "--axis", "epsilon", "--values", "0.1"])
