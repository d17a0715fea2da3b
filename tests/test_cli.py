"""End-to-end tests of the command-line harness and its CSV contracts."""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powgame import ConvergenceError, SolverError, cli, discrete_worstcase_violation, solve_equilibrium
from powgame.cli import (
    EQUILIBRIUM_HEADER,
    HISTOGRAM_HEADER,
    MODE_ALIASES,
    SWEEP_AXES,
    SWEEP_HEADER,
    TRACE_HEADER,
    VIOLATIONS_HEADER,
    ScenarioError,
    load_scenario,
    main,
    scenario_from_dict,
)
from powgame.validate import DISTRIBUTIONS

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
    """Write a scenario file; a str ``doc`` is written verbatim."""
    path = tmp_path / name
    text = doc if isinstance(doc, str) else json.dumps(doc if doc is not None else REFERENCE_DOC)
    path.write_text(text, encoding="utf-8")
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


def test_validation_fields_take_a_name_or_a_list_and_a_boolean():
    # one distribution may be named bare, as one mode may
    scenario = scenario_from_dict({"validation": {"distributions": "two_point", "clamp": True}})
    assert scenario.distributions == ("two_point",) and scenario.clamp is True
    assert scenario_from_dict({}).clamp is False


def test_whole_floats_are_accepted_in_integer_fields():
    whole = {"miners": 5.0, "seed": 7.0, "max_iterations": 100.0, "validation": {"samples": 500.0}}
    exact = {"miners": 5, "seed": 7, "max_iterations": 100, "validation": {"samples": 500}}
    assert scenario_from_dict(whole) == scenario_from_dict(exact)


README = Path(__file__).parent.parent / "README.md"


def test_readme_scenario_example_shows_the_defaults():
    # README says omitted fields take the defaults its example shows
    block = README.read_text(encoding="utf-8").split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert scenario_from_dict(json.loads(re.sub(r"//.*", "", block))) == scenario_from_dict({})


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


GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_solve_writes_the_golden_csvs(tmp_path, config):
    # tests/data/golden/<config> holds `solve --mode all` outputs, byte for
    # byte; a change meant to move answers re-records them with
    # `powgame solve --config configs/<config>.json --out tests/data/golden/<config> --mode all`
    # (its validate/ subdirectory belongs to the next test)
    golden = GOLDEN / config.stem
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out), "--mode", "all"]) == 0
    expected = sorted(p.relative_to(golden) for p in golden.rglob("*.csv") if p.parent.name != "validate")
    assert sorted(p.relative_to(out) for p in out.rglob("*.csv")) == expected
    for name in expected:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("name", [p.stem for p in sorted(CONFIGS.glob("*.json"))] + ["heterogeneous_clamp"])
def test_validate_writes_the_golden_csvs(tmp_path, name):
    # tests/data/golden/<config>/validate holds `validate --mode all` outputs,
    # byte for byte; heterogeneous_clamp is configs/heterogeneous.json with
    # "validation.clamp" set to true
    stem = name.removesuffix("_clamp")
    doc = json.loads((CONFIGS / f"{stem}.json").read_text(encoding="utf-8"))
    doc["validation"]["clamp"] = name != stem
    golden = GOLDEN / name / "validate"
    out = tmp_path / "out"
    config = write_config(tmp_path, doc)
    assert main(["validate", "--config", str(config), "--out", str(out), "--mode", "all"]) == 0
    expected = sorted(p.name for p in golden.glob("*.csv"))
    assert sorted(p.name for p in out.iterdir()) == expected == ["histogram.csv", "violations.csv"]
    for csv in expected:
        assert (out / csv).read_bytes() == (golden / csv).read_bytes(), csv


@pytest.mark.parametrize("axis", ["unit_cost", "epsilon"])
def test_cvar_sweep_writes_the_golden_csv(tmp_path, axis):
    # tests/data/golden/sweep/heterogeneous-cvar-<axis>.csv holds
    # `powgame sweep --config configs/heterogeneous.json --mode cvar --axis <axis>`
    # over the built-in axis values, byte for byte
    out = tmp_path / "out"
    config = CONFIGS / "heterogeneous.json"
    assert main(["sweep", "--config", str(config), "--out", str(out), "--mode", "cvar",
                 "--axis", axis]) == 0
    golden = GOLDEN / "sweep" / f"heterogeneous-cvar-{axis}.csv"
    assert (out / "sweep.csv").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_bti_sweep_writes_the_golden_csv(tmp_path, axis):
    # tests/data/golden/sweep/heterogeneous-bti-<axis>.csv holds
    # `powgame sweep --config configs/heterogeneous.json --mode bti --axis <axis>`
    # over the built-in axis values, byte for byte (num_miners reaches 10)
    out = tmp_path / "out"
    config = CONFIGS / "heterogeneous.json"
    assert main(["sweep", "--config", str(config), "--out", str(out), "--mode", "bti",
                 "--axis", axis]) == 0
    golden = GOLDEN / "sweep" / f"heterogeneous-bti-{axis}.csv"
    assert (out / "sweep.csv").read_bytes() == golden.read_bytes()


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


def test_overrides_are_written_into_the_one_parse(tmp_path, monkeypatch):
    # --seed and --mode read as if the document held them; the seed draws x_hat
    parses = []
    original = cli.scenario_from_dict

    def counted(doc):
        parses.append(doc)
        return original(doc)

    monkeypatch.setattr(cli, "scenario_from_dict", counted)
    doc = dict(REFERENCE_DOC, resources={"mode": "heterogeneous", "lo": 30.0, "hi": 60.0})
    overridden = load_scenario(write_config(tmp_path, doc), seed=99, mode="bti")
    assert len(parses) == 1
    written = load_scenario(write_config(tmp_path, dict(doc, seed=99, mode="bti"), name="written.json"))
    assert overridden == written
    assert overridden.seed == 99 and overridden.modes == ("gaussian_bti",)
    unseeded = load_scenario(write_config(tmp_path, doc, name="unseeded.json"))
    assert overridden.config != unseeded.config


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


CVAR_OVERFLOW = ("the worst-case CVaR certificate overflows float at total reward 1e+155, cost 60, "
                 "nominal resource 55 and variance 100")


def test_sweep_names_an_overflowing_cvar_certificate(tmp_path, capsys):
    # at this reward the cvar certificate overflows float; det and bti solve
    # the same game, and the cvar row is an error whose message says why
    config = write_config(tmp_path, {"miners": 3})
    out = tmp_path / "out"
    assert main(
        ["sweep", "--config", str(config), "--out", str(out), "--axis", "fixed_reward",
         "--values", "1e155", "--mode", "all"]
    ) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [(r[1], r[5]) for r in rows] == [("det", "ok"), ("bti", "ok"), ("cvar", "error:SolverError")]
    assert capsys.readouterr().err == f"sweep point fixed_reward=1e+155 mode cvar: {CVAR_OVERFLOW}\n"


def test_solve_exits_2_on_an_overflowing_cvar_certificate(tmp_path):
    # in a subprocess, so that a traceback would show on stderr
    config = write_config(tmp_path, {"miners": 3, "reward": {"fixed_reward": 1e155}, "mode": "cvar"})
    result = subprocess.run(
        [sys.executable, "-m", "powgame.cli", "solve", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=Path(cli.__file__).parent.parent, timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr == f"solver error: {CVAR_OVERFLOW}\n"


@pytest.mark.parametrize("doc, named", [
    ({"miners": 3, "unit_cost": 1e200}, "cost 1e+200"),
    ({"miners": 3, "resources": {"mode": "homogeneous", "x_hat": 1e200}, "x_max": 1e200},
     "nominal resource 1e+200"),
], ids=["cost", "resource"])
def test_an_overflowing_cvar_certificate_names_the_large_input(tmp_path, capsys, doc, named):
    # the total reward is ordinary here; the message names the input that overflowed
    config = write_config(tmp_path, {**doc, "mode": "cvar"})
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: the worst-case CVaR certificate overflows float at total reward 8000, ")
    assert named in err


BAD_SWEEP_VALUES = [  # (axis, --values): each value the game rejects, or a fractional count
    ("epsilon", "0.1,nan"),
    ("epsilon", "1.5"),
    ("unit_cost", "-5"),
    ("fixed_reward", "inf"),
    ("num_miners", "inf"),
    ("num_miners", "nan"),
    ("num_miners", "3.7"),
    ("num_miners", "5,1"),
    # counts above MAX_MINERS are refused before any miner tuple is built
    ("num_miners", "1e19"),
    ("num_miners", "1001"),
    ("epsilon", "0.1,abc"),  # not a number
]


@pytest.mark.parametrize(
    "axis, values", BAD_SWEEP_VALUES, ids=[f"{a}-{v}" for a, v in BAD_SWEEP_VALUES]
)
def test_sweep_rejects_bad_values_before_solving(tmp_path, capsys, monkeypatch, axis, values):
    solved = []
    original = cli.solve_equilibrium

    def counted(*args, **kwargs):
        solved.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_equilibrium", counted)
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="det"))
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", str(config), "--out", str(out), "--axis", axis, "--values", values]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: --values: {axis}") and err.count("\n") == 1
    assert solved == []
    assert not out.exists()


def test_sweep_refuses_an_unknown_axis_or_no_values(tmp_path):
    scenario = scenario_from_dict(dict(REFERENCE_DOC, mode="det"))
    with pytest.raises(ScenarioError, match="unknown sweep axis 'sigma'"):
        cli.run_sweep(scenario, "sigma", [1.0], tmp_path / "out")
    with pytest.raises(ScenarioError, match="at least one axis value"):
        cli.run_sweep(scenario, "epsilon", [], tmp_path / "out")
    assert not (tmp_path / "out").exists()


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


def test_validate_draws_each_batch_once(tmp_path, monkeypatch):
    # a batch depends only on (seed, miner, distribution), so three modes
    # share it; the rows stay mode-major
    drawn = []
    original = cli.sample_uncertainty

    def counted(distribution, *args, miner_index, **kwargs):
        drawn.append((miner_index, distribution))
        return original(distribution, *args, miner_index=miner_index, **kwargs)

    monkeypatch.setattr(cli, "sample_uncertainty", counted)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    assert len(drawn) == len(set(drawn)) == 5 * 3
    _, rows = read_csv(out / "violations.csv")
    assert [r[0] for r in rows] == ["det"] * 15 + ["bti"] * 15 + ["cvar"] * 15


def test_validate_output_does_not_depend_on_the_schedule(tmp_path, monkeypatch):
    # job 0's draw waits until job 1 has drawn its batch, so the batches are
    # made out of job order; the rows are still written in job order.  A
    # batch is alive from its draw until its job drops it: at most two at once
    config = write_config(tmp_path)
    normal = tmp_path / "normal"
    assert main(["validate", "--config", str(config), "--out", str(normal)]) == 0
    first, second = ((0, dist) for dist in REFERENCE_DOC["validation"]["distributions"][:2])
    second_drawn = threading.Event()
    lock = threading.Lock()
    alive = most = 0
    original = cli.sample_uncertainty

    def dropped():
        nonlocal alive
        with lock:
            alive -= 1

    def held(distribution, *args, miner_index, **kwargs):
        nonlocal alive, most
        if (miner_index, distribution) == first:
            assert second_drawn.wait(timeout=60)
        batch = original(distribution, *args, miner_index=miner_index, **kwargs)
        with lock:
            alive += 1
            most = max(most, alive)
        weakref.finalize(batch, dropped)
        if (miner_index, distribution) == second:
            second_drawn.set()
        return batch

    monkeypatch.setattr(cli, "sample_uncertainty", held)
    reordered = tmp_path / "reordered"
    assert main(["validate", "--config", str(config), "--out", str(reordered)]) == 0
    for name in ("histogram.csv", "violations.csv"):
        assert (reordered / name).read_bytes() == (normal / name).read_bytes()
    assert alive == 0 and 1 <= most <= 2


@pytest.mark.parametrize("doc, mode", [
    ({"miners": 3, "reward": {"fixed_reward": 3e10}}, "all"),
    ({"miners": 3, "unit_cost": 1e300}, "det"),
    ({"miners": 3, "unit_cost": 1e300}, "bti"),
], ids=["large-reward", "large-cost-det", "large-cost-bti"])
def test_validate_solves_raise_no_floating_point_warning(tmp_path, capsys, doc, mode):
    # the suite turns every warning into an error, and validate silences
    # numpy's floating-point warnings only while it scores: a solve that
    # overflowed in numpy would fail here
    config = write_config(tmp_path, doc)
    assert main(["validate", "--config", str(config), "--out", str(tmp_path / "out"), "--mode", mode]) == 0
    assert capsys.readouterr().err == ""


def test_validate_refuses_a_sample_count_before_solving(tmp_path, capsys, monkeypatch):
    # numpy cannot allocate 1e15 draws; the count is refused before the cvar
    # solve, whose result would be thrown away
    solves = []
    original = cli.solve_equilibrium

    def counted(*args, **kwargs):
        solves.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_equilibrium", counted)
    doc = json.loads((CONFIGS / "cost_sweep_interior.json").read_text(encoding="utf-8"))
    doc["validation"] = dict(doc.get("validation", {}), samples=10**15)
    config = write_config(tmp_path, doc)
    code = main(["validate", "--config", str(config), "--out", str(tmp_path / "out"), "--mode", "cvar"])
    assert code == 1
    assert "'validation.samples'" in capsys.readouterr().err
    assert solves == []


def test_validate_reports_a_batch_numpy_refuses(tmp_path, capsys, monkeypatch):
    # a count numpy can hold as one empty array may still fail in the sampler
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli, "sample_uncertainty", refuse)
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="det"))
    assert main(["validate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: field 'validation.samples': 500: Unable to allocate\n"
    assert not (tmp_path / "out").exists()


def hold_job_0_until_job_1_fails(monkeypatch, error):
    """Patch ``cli.sample_uncertainty`` so that job 1's draw (miner 0, second
    distribution) raises ``error`` and job 0's draw waits until it has: job 1
    then runs on the second thread.  Returns the list of jobs drawn."""
    first, second = ((0, dist) for dist in REFERENCE_DOC["validation"]["distributions"][:2])
    failed = threading.Event()
    drawn = []
    original = cli.sample_uncertainty

    def draw(distribution, *args, miner_index, **kwargs):
        drawn.append((miner_index, distribution))
        if (miner_index, distribution) == second:
            failed.set()
            raise error
        if (miner_index, distribution) == first:
            assert failed.wait(timeout=60)
        return original(distribution, *args, miner_index=miner_index, **kwargs)

    monkeypatch.setattr(cli, "sample_uncertainty", draw)
    return drawn


def test_validate_reports_a_later_batch_numpy_refuses(tmp_path, capsys, monkeypatch):
    # job 1's draw fails on the second thread while job 0's is held.  Each
    # job checks a stop flag before it draws, and the failed job sets it
    # before its thread takes another job; job 0's thread takes one only
    # after its own draw and scoring.  So jobs 0 and 1 are the only ones
    # drawn, and the MemoryError still ends the run with the same message
    drawn = hold_job_0_until_job_1_fails(monkeypatch, MemoryError("Unable to allocate"))
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="det"))
    assert main(["validate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: field 'validation.samples': 500: Unable to allocate\n"
    assert sorted(drawn) == [(0, "gaussian"), (0, "uniform")]
    assert not (tmp_path / "out").exists()


def test_validate_leaves_no_thread_running(tmp_path, monkeypatch):
    # the worker threads are joined whether run_validate returns or raises,
    # whether the error comes from scoring or from a draw on the second thread
    scenario = scenario_from_dict(dict(REFERENCE_DOC, mode="det"))
    before = threading.active_count()
    assert cli.run_validate(scenario, tmp_path / "ok") == 0
    assert threading.active_count() == before

    def refuse(*args, **kwargs):
        raise RuntimeError("scoring failed")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "empirical_violation", refuse)
        with pytest.raises(RuntimeError, match="scoring failed"):
            cli.run_validate(scenario, tmp_path / "raised")
    assert threading.active_count() == before
    hold_job_0_until_job_1_fails(monkeypatch, RuntimeError("draw failed"))
    with pytest.raises(RuntimeError, match="draw failed"):
        cli.run_validate(scenario, tmp_path / "draw raised")
    assert threading.active_count() == before


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {missing}: ") and err.count("\n") == 1


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    config = tmp_path / "latin1.json"
    config.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {config}: 'utf-8' codec")
    assert err.count("\n") == 1


def test_config_nested_too_deeply_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, "[" * 100_000 + "]" * 100_000)
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {config}: JSON nested too deeply to parse\n"


@pytest.mark.parametrize("verb", ["solve", "validate"])
def test_out_naming_a_file_exits_1(tmp_path, capsys, verb):
    config = write_config(tmp_path, dict(REFERENCE_DOC, mode="det"))
    out = tmp_path / "out"
    out.write_text("not a directory", encoding="utf-8")
    assert main([verb, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}") and err.count("\n") == 1
    assert out.read_text(encoding="utf-8") == "not a directory"


def test_mode_override_flag(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out), "--mode", "det"]) == 0
    assert (out / "det" / "equilibrium.csv").exists()
    assert not (out / "cvar").exists()


MALFORMED = [  # (id, document, text stderr must contain, verbs)
    ("miners-text", dict(REFERENCE_DOC, miners="five"), "'miners'", None),
    ("tau0-text", dict(REFERENCE_DOC, tau0="half"), "'tau0'", None),
    ("negative-reward", dict(REFERENCE_DOC, reward={"fixed_reward": -1.0}), "", None),
    ("sigma-list-text", dict(REFERENCE_DOC, sigma=["a"] * 5), "'sigma'", None),
    # sigma is squared into the variance, so a negative one ran as its absolute value
    ("sigma-negative", dict(REFERENCE_DOC, sigma=-10.0), "'sigma'", None),
    ("sigma-list-negative", dict(REFERENCE_DOC, sigma=[10.0, 10.0, -5.0, 10.0, 10.0]), "'sigma'", None),
    # integer fields ran truncated: 2.7 miners as 2, 10.9 samples as 10
    ("miners-fraction", dict(REFERENCE_DOC, miners=2.7), "'miners'", None),
    ("samples-fraction", dict(REFERENCE_DOC, validation={"samples": 10.9}), "'validation.samples'", None),
    ("max-iterations-fraction", dict(REFERENCE_DOC, max_iterations=2.5), "'max_iterations'", None),
    ("seed-fraction", dict(REFERENCE_DOC, seed=1.5), "'seed'", None),
    # only a JSON number is a number: true ran as 1 and "0.5" as 0.5
    ("sigma-boolean-bti", dict(REFERENCE_DOC, sigma=True, mode="bti"), "'sigma'", None),
    ("unit-cost-list-boolean", dict(REFERENCE_DOC, unit_cost=[60.0, 60.0, True, 60.0, 60.0]),
     "'unit_cost'", None),
    ("seed-boolean", dict(REFERENCE_DOC, seed=True), "'seed'", None),
    ("samples-boolean", dict(REFERENCE_DOC, validation={"samples": True}), "'validation.samples'", None),
    ("tau0-numeric-text", dict(REFERENCE_DOC, tau0="0.5"), "'tau0'", None),
    ("mode-number", dict(REFERENCE_DOC, mode=5), "'mode'", None),
    ("mode-null", dict(REFERENCE_DOC, mode=None), "'mode'", None),
    ("mode-empty-list", dict(REFERENCE_DOC, mode=[]), "'mode'", None),
    ("mode-listed-twice", dict(REFERENCE_DOC, mode=["cvar", "dro_cvar"]), "'mode'", None),
    ("unknown-distribution", dict(REFERENCE_DOC, validation={"distributions": ["cauchy"]}), "", None),
    ("distributions-not-list", dict(REFERENCE_DOC, validation={"distributions": 5}),
     "'validation.distributions'", None),
    ("distributions-empty-list", dict(REFERENCE_DOC, validation={"distributions": []}),
     "'validation.distributions'", None),
    ("distributions-listed-twice", dict(REFERENCE_DOC, validation={"distributions": ["gaussian"] * 2}),
     "'validation.distributions'", None),
    ("clamp-text", dict(REFERENCE_DOC, validation={"clamp": "false"}), "'validation.clamp'", None),
    ("clamp-number", dict(REFERENCE_DOC, validation={"clamp": 1}), "'validation.clamp'", None),
    ("samples-text", dict(REFERENCE_DOC, validation={"samples": "many"}), "'validation.samples'", None),
    ("sigma0-bti", dict(REFERENCE_DOC, sigma=0.0, mode="bti"), "'sigma'", None),
    ("sigma0-one-miner-cvar", dict(REFERENCE_DOC, sigma=[10.0, 10.0, 0.0, 10.0, 10.0], mode="cvar"),
     "'sigma'", None),
    # validate samples the perturbation, so it needs sigma > 0 in det mode too
    ("sigma0-det", dict(REFERENCE_DOC, miners=3, sigma=0.0, mode="det"),
     "field 'sigma': validate needs sigma > 0", ("validate",)),
    # a positive sigma whose square underflows: the message said only "sigma > 0"
    ("sigma-1e-300-bti", dict(REFERENCE_DOC, sigma=1e-300, mode="bti"),
     "modes bti and cvar need sigma > 0 for every miner, and sigma ** 2 > 0", None),
    ("sigma-1e-300-det", dict(REFERENCE_DOC, miners=3, sigma=1e-300, mode="det"),
     "validate needs sigma > 0 for every miner, and sigma ** 2 > 0", ("validate",)),
    # non-finite numbers: NaN made the robust threshold search loop forever
    ("cost-nan-det", dict(REFERENCE_DOC, miners=3, unit_cost=math.nan, mode="det"), "", None),
    ("reward-nan-det", dict(REFERENCE_DOC, reward={"fixed_reward": math.nan}, mode="det"), "", None),
    ("sigma-infinity-det", dict(REFERENCE_DOC, sigma=math.inf, mode="det"), "", None),
    # initial_alpha went unchecked: NaN and Infinity started the solve at a box end
    ("initial-alpha-nan-det", dict(REFERENCE_DOC, initial_alpha=math.nan, mode="det"),
     "'initial_alpha'", None),
    ("initial-alpha-infinity-det", dict(REFERENCE_DOC, initial_alpha=math.inf, mode="det"),
     "'initial_alpha'", None),
    ("miners-1e400-det", '{"miners": 1e400, "mode": "det"}', "'miners'", None),
    # counts above MAX_MINERS are refused before any per-miner list is built
    ("miners-1e19-det", dict(REFERENCE_DOC, miners=1e19, mode="det"), "'miners'", None),
    ("miners-1001-det", dict(REFERENCE_DOC, miners=1001, mode="det"), "'miners'", None),
    ("cost-400-digits-det", dict(REFERENCE_DOC, unit_cost=10**400, mode="det"), "'unit_cost'", None),
    ("sigma-1e200-det", dict(REFERENCE_DOC, sigma=1e200, mode="det"), "'sigma'", None),
    # a det solve needs no samples; numpy cannot draw Poisson(sigma^2) this large
    ("sigma-1e10-poisson-det", dict(REFERENCE_DOC, sigma=1e10, mode="det"),
     "'sigma': distribution poisson_shifted", ("validate",)),
    # numpy refuses a batch this large at once (7.11 PiB of float64)
    ("samples-1e15-det", dict(REFERENCE_DOC, mode="det", validation={"samples": 10**15}),
     "'validation.samples'", ("validate",)),
    # beyond numpy's largest array: its refusal is a ValueError, not a MemoryError
    ("samples-2**63-det", dict(REFERENCE_DOC, mode="det", validation={"samples": 2**63}),
     "'validation.samples'", ("validate",)),
    # np.histogram refused these utilities with a traceback: too large to split
    # into 40 bins, or overflowed to NaN
    ("x-hat-1e300-det", dict(REFERENCE_DOC, resources={"mode": "homogeneous", "x_hat": 1e300}, x_max=1e300,
                             mode="det"), "miner 0, distribution ", ("validate",)),
    ("mu-1e300-det", dict(REFERENCE_DOC, mu=1e300, mode="det"), "miner 0, distribution ", ("validate",)),
    # cost * x_max overflows: refused at load, where validate refused it only
    # when np.histogram could not bin its utilities
    ("hi-1e308-det", dict(REFERENCE_DOC, resources={"mode": "heterogeneous", "lo": 30.0, "hi": 1e308},
                          x_max=1e308, mode="det"), "x_max", None),
    # a misspelled key was ignored: epsilom ran at the default epsilon 0.1,
    # fixed_rewad at the default 5000
    ("unknown-key-det", {"miners": 3, "epsilom": 0.05, "mode": "det"}, "'epsilom': unknown key", None),
    ("unknown-reward-key", dict(REFERENCE_DOC, reward={"fixed_rewad": 1.0}),
     "'reward.fixed_rewad': unknown key", None),
    ("unknown-resources-key", dict(REFERENCE_DOC, resources={"mode": "homogeneous", "xhat": 40.0}),
     "'resources.xhat': unknown key", None),
    # lo and hi bound the heterogeneous draw; a homogeneous scenario has none
    ("resources-key-of-other-mode", dict(REFERENCE_DOC, resources={"mode": "homogeneous", "lo": 30.0}),
     "'resources.lo': unknown key", None),
    ("unknown-validation-key", dict(REFERENCE_DOC, validation={"sample": 10}),
     "'validation.sample': unknown key", None),
]


@pytest.mark.parametrize(
    "verb, doc, names",
    [
        pytest.param(verb, doc, names, id=f"{verb}-{name}")
        for verb in ("solve", "validate")
        for name, doc, names, verbs in MALFORMED
        if verbs is None or verb in verbs
    ],
)
def test_malformed_scenario_exits_1(tmp_path, capsys, verb, doc, names):
    config = write_config(tmp_path, doc)
    code = main([verb, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert names in err
    assert not (tmp_path / "out").exists()


# thresholds beyond 2**33, where adjacent floats lie more than BISECT_TOL
# apart: the threshold step halved its last interval forever.  Each sweep
# document holds the game of its one sweep point
HUGE_THRESHOLDS = [  # (id, document, argv after the verb's --config)
    ("solve-bti-reward-3e10", {"miners": 3, "reward": {"fixed_reward": 3e10}}, ["--mode", "bti"]),
    ("solve-cvar-reward-3e10", {"miners": 3, "reward": {"fixed_reward": 3e10}}, ["--mode", "cvar"]),
    ("sweep-bti-reward-1e11", {"miners": 3, "reward": {"fixed_reward": 1e11}},
     ["--mode", "bti", "--axis", "fixed_reward", "--values", "1e11"]),
    ("sweep-cvar-reward-1e11", {"miners": 3, "reward": {"fixed_reward": 1e11}},
     ["--mode", "cvar", "--axis", "fixed_reward", "--values", "1e11"]),
    ("solve-bti-cost-1e300", {"miners": 3, "unit_cost": 1e300}, ["--mode", "bti"]),
]


@pytest.mark.parametrize(
    "doc, argv", [pytest.param(doc, argv, id=name) for name, doc, argv in HUGE_THRESHOLDS]
)
def test_huge_thresholds_end(tmp_path, doc, argv):
    # in a subprocess, so that a hang fails this test instead of stalling the
    # suite; each case takes under a second
    config = write_config(tmp_path, doc)
    verb = "sweep" if "--axis" in argv else "solve"
    result = subprocess.run(
        [sys.executable, "-m", "powgame.cli", verb, "--config", str(config), "--out", str(tmp_path / "out"), *argv],
        capture_output=True, text=True, cwd=Path(cli.__file__).parent.parent, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    mode = MODE_ALIASES[argv[1]]
    game = load_scenario(config).config
    solved = solve_equilibrium(game, mode)
    assert solved.converged
    if mode == "dro_cvar":  # the certified thresholds keep the worst case within epsilon
        assert discrete_worstcase_violation(solved.alphas, solved.u_values, game) <= game.epsilon + 1e-12


def test_sweep_warns_of_nothing_but_its_failed_points(tmp_path):
    # in a subprocess, so that numpy's warnings show: the deterministic cold
    # start returned a numpy scalar, and the robust steps built on it printed
    # "overflow encountered in scalar ..." at epsilon = 1e-300
    config = write_config(tmp_path, {"miners": 3, "sigma": 10.0, "epsilon": 0.1})
    result = subprocess.run(
        [sys.executable, "-m", "powgame.cli", "sweep", "--config", str(config), "--out", str(tmp_path / "out"),
         "--axis", "epsilon", "--values", "1e-300"],
        capture_output=True, text=True, cwd=Path(cli.__file__).parent.parent, timeout=60,
    )
    assert result.returncode == 0
    lines = result.stderr.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("sweep point epsilon=1e-300 mode ") for line in lines)


# games whose utilities overflow float: solve ran them with numpy warnings,
# writing nan/inf in det mode and stopping at "no feasible threshold" in bti
# and cvar.  The sweep point's document is fine at the default reward
OVERFLOW_DOC = {"miners": 3, "resources": {"mode": "heterogeneous", "lo": 30, "hi": 1e308}, "x_max": 1e308}
OVERFLOWING = [  # (id, document, argv after the verb's --config, what the error names)
    *((f"solve-{mode}", OVERFLOW_DOC, ["--mode", mode], "cost * x_max") for mode in ("det", "bti", "cvar")),
    ("sweep-fixed-reward-1e305", {"miners": 3, "resources": {"mode": "homogeneous", "x_hat": 1000.0}, "x_max": 1000.0},
     ["--axis", "fixed_reward", "--values", "1e305"], "fixed_reward = 1e+305: reward total"),
]


@pytest.mark.parametrize(
    "doc, argv, names", [pytest.param(doc, argv, names, id=name) for name, doc, argv, names in OVERFLOWING]
)
def test_overflowing_games_exit_1(tmp_path, doc, argv, names):
    # in a subprocess, so that a numpy warning printed to stderr shows
    config = write_config(tmp_path, doc)
    verb = "sweep" if "--axis" in argv else "solve"
    result = subprocess.run(
        [sys.executable, "-m", "powgame.cli", verb, "--config", str(config), "--out", str(tmp_path / "out"), *argv],
        capture_output=True, text=True, cwd=Path(cli.__file__).parent.parent, timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("config error: ") and result.stderr.count("\n") == 1
    assert names in result.stderr
    assert not (tmp_path / "out").exists()


USAGE_ERRORS = {  # id -> argv
    "no-verb": [],
    "no-config": ["solve"],
    "unknown-flag": ["solve", "--config", "x.json", "--fast"],
    "bad-mode": ["solve", "--config", "x.json", "--mode", "gauss"],
    # a leading minus reads as an option, so --values is left without its value
    "values-minus-inf": ["sweep", "--config", "x.json", "--axis", "epsilon", "--values", "-inf"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_exit_1(capsys, argv):
    # 2 is the exit code of a solve that did not converge
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: powgame")
    assert err[-1].startswith("powgame") and ": error: " in err[-1]


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0
    assert capsys.readouterr().out.count("usage: powgame") == 2


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first main call, so an import stays as cheap
    # as it was; in a subprocess, where nothing has imported the CLI yet
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
        "import powgame.cli\n"
        "print(len(built), powgame.cli._build_parser.cache_info().currsize)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        cwd=Path(cli.__file__).parent.parent, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "0 0\n", "")


REUSED_PARSER_CALLS = {
    "sweep-values": ("sweep --config {config} --out {out} --axis epsilon --values 0.05,0.3 --mode bti", 0),
    "usage-error": ("solve --config {config} --out {out} --fast", 1),
    "sweep-help": ("sweep --help", 0),
    "sweep-default-values": ("sweep --config {config} --out {out} --axis fixed_reward --mode det", 0),
    "solve": ("solve --config {config} --out {out}", 0),
}


def test_a_reused_parser_writes_what_a_fresh_one_writes(tmp_path, capsys):
    # main builds its parser once per process; every call through the reused
    # parser writes the same bytes, stdout and stderr as through a fresh one
    config = write_config(tmp_path)
    out = tmp_path / "out"

    def call(name):
        template, code = REUSED_PARSER_CALLS[name]
        assert main([arg.format(config=config, out=out) for arg in template.split()]) == code
        std = capsys.readouterr()
        written = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        shutil.rmtree(out, ignore_errors=True)
        return std.out, std.err, written

    fresh = {}
    for name in REUSED_PARSER_CALLS:
        cli._build_parser.cache_clear()
        fresh[name] = call(name)
    cli._build_parser.cache_clear()
    # twice round, so every call also follows every other on the same parser
    for name in [*REUSED_PARSER_CALLS, *REUSED_PARSER_CALLS]:
        assert call(name) == fresh[name], name
    assert cli._build_parser.cache_info().misses == 1
    assert fresh["sweep-values"][2].keys() == {"sweep.csv"}
    assert fresh["sweep-help"][0].startswith("usage: powgame sweep")
    assert fresh["usage-error"][1].startswith("usage: powgame")


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


MUTATIONS = {
    "text": "oops",
    "nan": math.nan,
    "infinity": math.inf,
    "1e400": "__1e400__",  # a float literal that overflows; spliced in after dumping
    "negative": -1.0,
    "zero": 0,
    "boolean": True,
}
NON_NUMBERS = ("text", "nan", "infinity", "1e400", "boolean")
MUTABLE_FIELDS = (
    ("miners",), ("sigma",), ("unit_cost",), ("mu",), ("tau0",), ("epsilon",), ("kappa",),
    ("seed",), ("max_iterations",), ("initial_alpha",), ("reward", "fixed_reward"),
    ("resources", "x_hat"), ("validation", "samples"),
)


def mutated_text(doc, field, mutation):
    """``doc`` as JSON text with ``MUTATIONS[mutation]`` at the ``field`` path."""
    *parents, key = field
    target = doc
    for name in parents:
        target = target[name]
    target[key] = MUTATIONS[mutation]
    return json.dumps(doc).replace('"__1e400__"', "1e400")


@pytest.mark.parametrize("field", MUTABLE_FIELDS, ids=".".join)
def test_non_numbers_are_refused_in_every_numeric_field(tmp_path, capsys, field):
    for mutation in NON_NUMBERS:
        doc = json.loads(json.dumps(dict(REFERENCE_DOC, mode="det")))
        config = write_config(tmp_path, mutated_text(doc, field, mutation))
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 1, mutation
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"'{'.'.join(field)}'" in err, (mutation, err)


@st.composite
def scenario_texts(draw, mutate=True):
    """(mutation, text): a valid scenario document, or (with ``mutate``) one
    spoiled by a single mutation, named by its ``MUTATIONS`` key (None if unspoiled)."""
    doc = {
        "miners": draw(st.integers(2, 4)),
        "resources": {"mode": "homogeneous", "x_hat": draw(st.floats(20.0, 90.0))},
        "sigma": draw(st.floats(0.5, 20.0)),
        "unit_cost": draw(st.floats(40.0, 100.0)),
        "reward": {"fixed_reward": draw(st.floats(2000.0, 8000.0))},
        "tau0": draw(st.floats(0.1, 0.9)),
        "epsilon": draw(st.floats(0.02, 0.5)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "mode": draw(st.sampled_from(["det", "bti"])),
        "validation": {
            "distributions": draw(
                st.lists(st.sampled_from(DISTRIBUTIONS), min_size=1, unique=True)
            ),
            "samples": draw(st.integers(1, 200)),
        },
    }
    mutation = draw(st.sampled_from([None, *MUTATIONS])) if mutate else None
    if mutation is None:
        return None, json.dumps(doc)
    return mutation, mutated_text(doc, draw(st.sampled_from(MUTABLE_FIELDS)), mutation)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=scenario_texts(), verb=st.sampled_from(["solve", "validate"]))
def test_any_scenario_exits_0_1_or_2(case, verb):
    mutation, text = case
    # tmp_path is function-scoped, which hypothesis rejects across examples
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), text)
        code = main([verb, "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if mutation in NON_NUMBERS:  # every mutable field holds a number
        assert code == 1


# a finite whole miner count builds that many miners, so counts stay small
MINER_COUNTS = st.one_of(
    st.integers(-2, 6).map(float), st.floats(-2.0, 6.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
AXIS_VALUES = st.one_of(
    st.floats(0.01, 0.99), st.floats(1.0, 1e4), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0]),
)


@st.composite
def sweep_arguments(draw):
    """(axis, --values) with finite, non-finite and negative values."""
    axis = draw(st.sampled_from(SWEEP_AXES))
    values = draw(st.lists(MINER_COUNTS if axis == "num_miners" else AXIS_VALUES, min_size=1,
                           max_size=3))
    return axis, ",".join(repr(v) for v in values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=scenario_texts(mutate=False), arguments=sweep_arguments())
def test_any_sweep_exits_0_1_or_2(case, arguments):
    _, text = case
    axis, values = arguments
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), text)
        # --values=...: argparse would take a leading "-inf" for an option
        code = main(["sweep", "--config", str(config), "--out", str(Path(tmp) / "out"),
                     "--mode", "det", "--axis", axis, f"--values={values}"])
    assert code in (0, 1, 2)
