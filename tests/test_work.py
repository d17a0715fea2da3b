"""The work table: the solver's work on fixed public calls, counted exactly.

Each row is one public call, or a short run of them (a solve, a best
response, one step), and the counts ``ledger.Ledger`` takes of it.  The
counts depend on no machine, so a row that moves shows that some step, bound
or search decided differently.  A change that moves work edits the row and
lists the old and new counts in CHANGES.md; the budgets below hold over the
rows whatever they read.  A 0 in a row is written where a test pinned it;
every counter a row leaves out is 0 too.
"""

import tempfile
from functools import partial
from pathlib import Path

import pytest

from powgame import RewardModel, certify, cli, others_load, solve_equilibrium, subproblem_threshold
from powgame.cli import load_scenario

from conftest import BACKENDS, ROOT, load_repo_module, make_config

REWARD = RewardModel()
MODES = ("gaussian_bti", "dro_cvar")
CONFIGS = ("cost_sweep_interior", "heterogeneous", "homogeneous")
SPREAD = dict(x_hat=[35.0, 42.0, 50.0, 57.0, 60.0], tau0=0.1)


def _solve_config(name, mode):
    scenario = load_scenario(ROOT / "configs" / f"{name}.json")
    assert solve_equilibrium(scenario.config, mode, initial_alpha=scenario.initial_alpha).converged


def _solve(mode, **game):
    assert solve_equilibrium(make_config(**game), mode).converged


def _solve_cvar_deck():
    """One pass over the solve-cvar deck, in deck order, each op through
    ``cli.main`` as the benchmark issues it."""
    decks = load_repo_module("benchmarks/decks.py")
    workload = decks.WORKLOADS["solve-cvar"]
    with tempfile.TemporaryDirectory() as tmp:
        games = decks.write_deck(workload, Path(tmp, "games"))
        for op in decks.deck_ops(workload):
            assert cli.main(decks.op_argv(workload, op, games[op.game][1], Path(tmp, op.key))) == 0


def _off_grid_step(mode):
    """The strategy step at alpha_in = 0.7123, off the scan grid, one below
    its threshold: only the incoming score lands on 0.7123, and the
    curvature certificate cannot keep it, so the scan runs."""
    backend, params = BACKENDS[mode], make_config().miners[0]
    u = backend.threshold(0.7123, 110.0, params, REWARD, 0.1)
    backend.strategy(u - 1.0, 0.7123, 110.0, params, REWARD, 0.5, 0.1)


def _best_response(mode, alpha, certified=False, **game):
    """Miner 0's best response to rivals at ``alpha``, and with ``certified``
    the witness of its threshold."""
    config, profile = make_config(n=5, x_hat=50.0, **game), [alpha] * 5
    response = BACKENDS[mode].best_response(0, profile, config)
    if certified:
        load = others_load(0, profile, config.nominal)
        cert = certify(response.alpha, response.u_min, load, config.miners[0], REWARD, config.epsilon)
        assert cert.u_min == response.u_min


def _certified_threshold():
    params = make_config().miners[0]
    certify(0.5, subproblem_threshold(0.5, 110.0, params, REWARD, 0.1), 110.0, params, REWARD, 0.1)


ROWS = {  # name -> (call, counts)
    "cost_sweep_interior/gaussian_bti": (partial(_solve_config, "cost_sweep_interior", "gaussian_bti"), dict(
        threshold_steps=223, resumed_steps=70, margins=1293, resumed_margins_max=2, strategy_steps=153,
        slacks=3117, incoming_max=1, scans=99, ceilings=351, ceilings_max=16, certificates=153, kept=54)),
    "cost_sweep_interior/dro_cvar": (partial(_solve_config, "cost_sweep_interior", "dro_cvar"), dict(
        threshold_steps=317, resumed_steps=94, margins=1855, resumed_margins_max=2, strategy_steps=222,
        slacks=1104, bounds=6245, incoming_max=1, scans=222, ceilings=726, ceilings_max=15, beta_searches=1104)),
    "heterogeneous/gaussian_bti": (partial(_solve_config, "heterogeneous", "gaussian_bti"), dict(
        threshold_steps=22, resumed_steps=10, margins=104, resumed_margins_max=1, strategy_steps=12,
        slacks=75, incoming_max=1, scans=2, ceilings=7, ceilings_max=4, certificates=12, kept=10)),
    "heterogeneous/dro_cvar": (partial(_solve_config, "heterogeneous", "dro_cvar"), dict(
        threshold_steps=33, resumed_steps=15, margins=139, resumed_margins_max=1, strategy_steps=18,
        slacks=37, bounds=464, incoming_max=1, scans=18, ceilings=42, ceilings_max=4, beta_searches=37)),
    "homogeneous/gaussian_bti": (partial(_solve_config, "homogeneous", "gaussian_bti"), dict(
        threshold_steps=20, resumed_steps=10, margins=75, resumed_margins_max=1, strategy_steps=10, slacks=20,
        incoming_max=1, certificates=10, kept=10)),
    "homogeneous/dro_cvar": (partial(_solve_config, "homogeneous", "dro_cvar"), dict(
        threshold_steps=20, resumed_steps=10, margins=65, resumed_margins_max=1, strategy_steps=10, slacks=10,
        bounds=250, incoming_max=1, scans=10, ceilings=20, ceilings_max=2, beta_searches=10)),
    "solve-cvar-deck": (_solve_cvar_deck, dict(
        threshold_steps=1600, resumed_steps=608, margins=7752, resumed_margins_max=2, strategy_steps=986,
        slacks=3602, bounds=26821, incoming_max=2, scans=986, ceilings=2776, ceilings_max=22,
        beta_searches=3602)),
    "spread-x_hat-tau0-0.1/dro_cvar": (partial(_solve, "dro_cvar", **SPREAD), dict(
        threshold_steps=256, resumed_steps=79, margins=1485, resumed_margins_max=2, strategy_steps=176,
        slacks=815, bounds=5100, incoming_max=1, scans=176, ceilings=538, ceilings_max=7, beta_searches=815)),
    "three-miners/dro_cvar": (partial(_solve, "dro_cvar", n=3, x_hat=[45.0, 50.0, 55.0], tau0=0.4), dict(
        threshold_steps=98, resumed_steps=30, margins=616, resumed_margins_max=2, strategy_steps=68,
        slacks=346, bounds=1911, incoming_max=1, scans=68, ceilings=221, ceilings_max=9, beta_searches=346,
        witnesses=0)),
    "off-grid-step/gaussian_bti": (partial(_off_grid_step, "gaussian_bti"), dict(
        threshold_steps=1, margins=8, strategy_steps=1, slacks=43, incoming_max=1, scans=1, ceilings=19,
        ceilings_max=19, certificates=1)),
    "off-grid-step/dro_cvar": (partial(_off_grid_step, "dro_cvar"), dict(
        threshold_steps=1, margins=5, strategy_steps=1, slacks=3, bounds=41, incoming_max=1, scans=1,
        ceilings=19, ceilings_max=19, beta_searches=3)),
    "best-response/gaussian_bti": (partial(_best_response, "gaussian_bti", 0.6), dict(
        threshold_steps=2, resumed_steps=1, margins=9, resumed_margins_max=1, strategy_steps=1, slacks=2,
        incoming_max=1, certificates=1, kept=1, loss_coefficients=0)),
    "certified-best-response/dro_cvar": (partial(_best_response, "dro_cvar", 0.6, certified=True), dict(
        threshold_steps=2, resumed_steps=1, margins=7, resumed_margins_max=1, strategy_steps=1, slacks=1,
        bounds=25, incoming_max=1, scans=1, ceilings=2, ceilings_max=2, beta_searches=1, witnesses=1,
        loss_coefficients=0, eigh=0, inv=0)),
    "best-response-tau0-0.1/dro_cvar": (partial(_best_response, "dro_cvar", 0.3, tau0=0.1), dict(
        threshold_steps=5, resumed_steps=1, margins=35, resumed_margins_max=2, strategy_steps=4, slacks=21,
        bounds=115, incoming_max=1, scans=4, ceilings=12, ceilings_max=3, beta_searches=21, witnesses=0)),
    "certified-threshold-step/dro_cvar": (_certified_threshold, dict(
        threshold_steps=1, margins=6, beta_searches=0, witnesses=1)),
}


@pytest.mark.parametrize("name", ROWS)
def test_row_counts_the_work_of_its_call(work, name):
    call, row = ROWS[name]
    call()
    assert dict(work.counts) == {key: n for key, n in row.items() if n}


def test_the_rows_keep_the_budgets():
    rows = {name: counts for name, (_, counts) in ROWS.items()}
    configs = [rows[f"{name}/{mode}"] for name in CONFIGS for mode in MODES]
    # the plain bisection evaluates 35.2-35.5 margins a threshold step on
    # every config; the bracket, and the record of the confirming step,
    # bring that to 3.25-5.85, and a resumed step evaluates its floor and at
    # most 2 probes next to the root
    assert all(r["resumed_steps"] > 0 and r["margins"] / r["threshold_steps"] <= 5.9 for r in configs)
    assert max(r["resumed_margins_max"] for r in configs) <= 3
    # the cvar climb reads a few of the 41 grid ceilings, next to the incoming alpha
    cvar = [rows[f"{name}/dro_cvar"] for name in CONFIGS]
    assert max(r["ceilings_max"] for r in cvar) <= 16
    assert sum(r["ceilings"] for r in cvar) / sum(r["scans"] for r in cvar) <= 4
    # 41 grid points, ~24 golden probes and the incoming alpha would cost one
    # beta search each; the bounds decide most comparisons (configs/homogeneous.json
    # is make_config())
    assert load_scenario(ROOT / "configs" / "homogeneous.json").config == make_config()
    both = [rows["homogeneous/dro_cvar"], rows["spread-x_hat-tau0-0.1/dro_cvar"]]
    steps = sum(r["strategy_steps"] for r in both)
    assert steps >= 10 and sum(r["beta_searches"] for r in both) / steps <= 4.5
    # off the grid, alpha_in is scored once, and the climb, not a full scan, reads the grid
    for mode in MODES:
        row = rows[f"off-grid-step/{mode}"]
        assert row["incoming_max"] == 1 and row["scans"] == 1 and 0 < row["ceilings"] < 41
