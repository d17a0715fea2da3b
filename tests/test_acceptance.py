"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time
import numpy as np

from powgame import (
    best_response,
    closed_form_equilibrium,
    discrete_worstcase_violation,
    empirical_violation,
    robust_best_response,
    robust_best_response_gaussian,
    sample_uncertainty,
    solve_equilibrium,
    subproblem_threshold,
    subproblem_threshold_gaussian,
    utility,
    utility_gradient,
    utility_second_derivative,
)
from powgame.cli import main as cli_main
from powgame.model import others_load

from conftest import (
    finite_difference,
    grid_best_response,
    make_config,
    outer_best_response_oracle,
    random_interior_config,
    second_finite_difference,
)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_deterministic_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_alpha_gap = 0.0
    worst_deviation = -np.inf
    for _ in range(50):
        config = random_interior_config(rng)
        eq = closed_form_equilibrium(config)
        iterated = solve_equilibrium(config, "deterministic")
        assert iterated.converged
        worst_alpha_gap = max(
            worst_alpha_gap,
            float(np.max(np.abs(np.asarray(eq.alphas) - np.asarray(iterated.alphas)))),
        )
        base = np.asarray(eq.alphas)
        x = config.nominal_resources()
        grid = np.linspace(config.tau0, 1.0, 1000)
        for j in range(config.n_miners):
            load = float(np.dot(base, x) - base[j] * x[j])
            own = grid * x[j]
            utils = config.reward.total * own / (own + load) - config.miners[j].cost * own
            worst_deviation = max(worst_deviation, float(utils.max()) - eq.u_values[j])
    elapsed = time.time() - start
    ok = worst_alpha_gap <= 1e-8 and worst_deviation <= 1e-6 and elapsed < 5.0
    _report(
        1,
        "deterministic oracle equivalence",
        ok,
        f"max |alpha gap|={worst_alpha_gap:.2e}, max deviation gain={worst_deviation:.2e}, "
        f"{elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_boundary_equilibrium():
    config = make_config()
    start = time.time()
    result = solve_equilibrium(config, "deterministic")
    elapsed = time.time() - start  # the bound applies to the solve itself
    at_floor = np.allclose(np.asarray(result.alphas), 0.5, atol=1e-9)
    oracle_ok = all(
        abs(grid_best_response(j, np.asarray(result.alphas), config) - 0.5) <= 1e-5
        for j in range(config.n_miners)
    )
    ok = result.converged and result.iterations <= 10 and at_floor and oracle_ok and elapsed < 1.0
    _report(
        2,
        "boundary equilibrium on the reference instance",
        ok,
        f"alphas at 0.5={at_floor}, sweeps={result.iterations} (<= 10), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_03_derivative_correctness():
    rng = np.random.default_rng(103)
    reward = make_config().reward
    worst_first = worst_second = 0.0
    all_negative = True
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 8))
        a = rng.uniform(0.15, 0.95, size=n)
        x = rng.uniform(10.0, 90.0, size=n)
        cost = float(rng.uniform(20.0, 90.0))
        j = int(rng.integers(0, n))

        def f(alpha_j):
            b = a.copy()
            b[j] = alpha_j
            return utility(j, b, x, reward, cost)

        grad = utility_gradient(j, a, x, reward, cost)
        fd = finite_difference(f, a[j], 1e-6)
        worst_first = max(worst_first, abs(grad - fd) / max(1.0, abs(fd)))
        second = utility_second_derivative(j, a, x, reward)
        fd2 = second_finite_difference(f, a[j], 1e-4)
        worst_second = max(worst_second, abs(second - fd2) / max(1.0, abs(fd2)))
        all_negative = all_negative and second < 0.0
        checked += 1
    ok = worst_first <= 1e-4 and worst_second <= 1e-4 and all_negative
    _report(
        3,
        "derivative correctness",
        ok,
        f"max rel err: first={worst_first:.2e}, second={worst_second:.2e}, "
        f"second derivative always negative={all_negative}",
    )


def test_criterion_04_cvar_chance_constraint_soundness():
    start = time.time()
    config = make_config()
    result = solve_equilibrium(config, "dro_cvar")
    n = 1000
    slack = 3.0 * math.sqrt(0.1 * 0.9 / n)
    worst_rate = 0.0
    for j in range(config.n_miners):
        for dist in ("gaussian", "uniform", "poisson_shifted"):
            batch = sample_uncertainty(dist, 0.0, 100.0, n, seed=104, miner_index=j)
            report = empirical_violation(result.alphas, result.u_mins[j], j, config, batch)
            worst_rate = max(worst_rate, report.rate)
    analytic = discrete_worstcase_violation(result.alphas, result.u_mins, config)
    elapsed = time.time() - start
    ok = (
        result.converged
        and worst_rate <= 0.1 + slack
        and analytic <= 0.1 + 1e-12
        and elapsed < 60.0
    )
    _report(
        4,
        "worst-case-CVaR chance-constraint soundness",
        ok,
        f"max empirical rate={worst_rate:.4f} (<= {0.1 + slack:.4f}), "
        f"analytic two-point max={analytic:.4f} (<= 0.1), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_bti_gaussian_soundness():
    start = time.time()
    config = make_config()
    bti_result = solve_equilibrium(config, "gaussian_bti")
    cvar_result = solve_equilibrium(config, "dro_cvar")
    n = 1000
    slack = 3.0 * math.sqrt(0.1 * 0.9 / n)
    gaussian_worst = 0.0
    recorded = {}
    for j in range(config.n_miners):
        for dist in ("gaussian", "uniform", "poisson_shifted"):
            batch = sample_uncertainty(dist, 0.0, 100.0, n, seed=105, miner_index=j)
            report = empirical_violation(bti_result.alphas, bti_result.u_mins[j], j, config, batch)
            if dist == "gaussian":
                gaussian_worst = max(gaussian_worst, report.rate)
            else:
                recorded[dist] = max(recorded.get(dist, 0.0), report.rate)
    dominance = all(
        b >= c - 1e-6 for b, c in zip(bti_result.u_mins, cvar_result.u_mins)
    )
    elapsed = time.time() - start
    ok = gaussian_worst <= 0.1 + slack and dominance and elapsed < 30.0
    _report(
        5,
        "Gaussian-bound soundness and threshold dominance",
        ok,
        f"gaussian rate={gaussian_worst:.4f} (<= {0.1 + slack:.4f}), "
        f"off-Gaussian rates recorded={ {k: round(v, 4) for k, v in recorded.items()} }, "
        f"u_min BTI >= CVaR={dominance}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_06_ao_and_iteration_convergence():
    start = time.time()
    rng = np.random.default_rng(106)
    all_converged = True
    all_monotone = True
    for k in range(20):
        hom = k % 2 == 0
        mode = "dro_cvar" if k % 4 < 2 else "gaussian_bti"
        if hom:
            config = make_config(
                n=5, x_hat=float(rng.uniform(35.0, 60.0)), sigma=float(rng.uniform(4.0, 12.0)),
                tau0=float(rng.choice([0.3, 0.5])),
            )
        else:
            config = make_config(
                n=5, x_hat=rng.uniform(30.0, 60.0, size=5), sigma=float(rng.uniform(4.0, 12.0)),
                tau0=float(rng.choice([0.3, 0.5])),
            )
        result = solve_equilibrium(config, mode)
        all_converged = all_converged and result.converged and result.iterations <= 100
        # sample AO loops at the converged profile and at the first sweep's profile
        for alphas, _ in (result.trace[0], result.trace[-1]):
            j = int(rng.integers(0, config.n_miners))
            if mode == "dro_cvar":
                hist = robust_best_response(j, np.array(alphas), config).u_history
            else:
                hist = robust_best_response_gaussian(j, np.array(alphas), config).u_history
            all_monotone = all_monotone and all(
                hist[i + 1] >= hist[i] - 1e-9 for i in range(len(hist) - 1)
            )
    elapsed = time.time() - start
    ok = all_converged and all_monotone
    _report(
        6,
        "AO monotonicity and best-response convergence",
        ok,
        f"20 instances converged={all_converged}, sampled AO histories monotone={all_monotone}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_outer_search_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(107)
    worst_cvar = worst_bti = 0.0
    for _ in range(10):
        n = 5
        config = make_config(
            n=n,
            x_hat=rng.uniform(30.0, 60.0, size=n),
            sigma=float(rng.uniform(3.0, 12.0)),
            cost=float(rng.uniform(40.0, 90.0)),
            tau0=float(rng.choice([0.3, 0.5])),
            epsilon=float(rng.choice([0.05, 0.1, 0.2])),
        )
        profile = rng.uniform(config.tau0, 1.0, size=n)
        params = config.miners[0]
        load = others_load(0, profile, config.nominal_resources())

        cvar_response = robust_best_response(0, profile, config)
        _, cvar_oracle = outer_best_response_oracle(
            lambda a: subproblem_threshold(a, load, params, config.reward, config.epsilon),
            config.tau0,
        )
        worst_cvar = max(worst_cvar, abs(cvar_response.u_min - cvar_oracle))

        bti_response = robust_best_response_gaussian(0, profile, config)
        _, bti_oracle = outer_best_response_oracle(
            lambda a: subproblem_threshold_gaussian(a, load, params, config.reward, config.epsilon),
            config.tau0,
        )
        worst_bti = max(worst_bti, abs(bti_response.u_min - bti_oracle))
    elapsed = time.time() - start
    ok = worst_cvar <= 1e-4 and worst_bti <= 1e-4
    _report(
        7,
        "outer-search oracle equivalence",
        ok,
        f"max |u gap|: cvar={worst_cvar:.2e}, bti={worst_bti:.2e} (<= 1e-4), {elapsed:.1f}s",
    )


def _run_sweep_csv(tmp_path, doc, axis, values, tag):
    config_path = tmp_path / f"{tag}.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / tag
    code = cli_main(
        ["sweep", "--config", str(config_path), "--out", str(out), "--axis", axis,
         "--values", ",".join(str(v) for v in values)]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    rows = {}
    for line in lines:
        cells = line.split(",")
        rows.setdefault(cells[1], []).append(
            (float(cells[0]), float(cells[2]), float(cells[3]), cells[5])
        )
    return rows


def test_criterion_08_sweep_monotonicity(tmp_path):
    reference_doc = {
        "miners": 5,
        "resources": {"mode": "homogeneous", "x_hat": 55.0},
        "sigma": 10.0,
        "mode": "all",
        "seed": 1,
    }
    start = time.time()
    eps_rows = _run_sweep_csv(
        tmp_path, reference_doc, "epsilon", [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5], "eps"
    )
    eps_elapsed = time.time() - start
    eps_ok = True
    for mode in ("cvar", "bti"):
        u = [r[1] for r in sorted(eps_rows[mode])]
        eps_ok = eps_ok and all(u[i] <= u[i + 1] + 1e-9 for i in range(len(u) - 1))
    det_u = [r[1] for r in sorted(eps_rows["det"])]
    eps_ok = eps_ok and max(det_u) - min(det_u) <= 1e-9

    start = time.time()
    miners_rows = _run_sweep_csv(
        tmp_path, reference_doc, "num_miners", [3, 4, 5, 6, 7, 8, 9, 10], "jsweep"
    )
    miners_elapsed = time.time() - start
    miners_ok = True
    for mode in ("det", "bti", "cvar"):
        u = [r[1] for r in sorted(miners_rows[mode])]
        miners_ok = miners_ok and all(u[i] > u[i + 1] for i in range(len(u) - 1))

    # the cost-sweep claim concerns interior equilibria: at the reference
    # floor tau0=0.5 every alpha clips and total utility scales with cost,
    # so the sweep runs on an interior-regime instance instead
    interior_doc = {
        "miners": 5,
        "resources": {"mode": "homogeneous", "x_hat": 36.0},
        "sigma": 10.0,
        "tau0": 0.3,
        "mode": "all",
        "seed": 1,
    }
    start = time.time()
    cost_rows = _run_sweep_csv(
        tmp_path, interior_doc, "unit_cost", [40, 50, 60, 70, 80, 90, 100], "cost"
    )
    cost_elapsed = time.time() - start
    cost_ok = True
    for mode in ("det", "bti", "cvar"):
        ordered = sorted(cost_rows[mode])
        committed = [r[2] for r in ordered]
        u = [r[1] for r in ordered]
        decreasing = all(committed[i] > committed[i + 1] for i in range(len(committed) - 1))
        variation = (max(u) - min(u)) / max(abs(max(u)), abs(min(u)))
        cost_ok = cost_ok and decreasing and variation < 0.05

    ok = (
        eps_ok
        and miners_ok
        and cost_ok
        and max(eps_elapsed, miners_elapsed, cost_elapsed) < 300.0
    )
    _report(
        8,
        "sweep monotonicity properties",
        ok,
        f"epsilon ok={eps_ok} ({eps_elapsed:.0f}s), miners decreasing={miners_ok} "
        f"({miners_elapsed:.0f}s), cost sweep ok={cost_ok} ({cost_elapsed:.0f}s); "
        f"each < 300s",
    )


def test_criterion_09_small_sigma_consistency():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(6):
        n = 5
        config = make_config(
            n=n,
            x_hat=rng.uniform(30.0, 60.0, size=n),
            sigma=1e-3,
            cost=float(rng.uniform(40.0, 90.0)),
            tau0=float(rng.choice([0.25, 0.4, 0.5])),
        )
        profile = rng.uniform(config.tau0, 1.0, size=n)
        det = best_response(0, profile, config)
        cvar_alpha = robust_best_response(0, profile, config).alpha
        bti_alpha = robust_best_response_gaussian(0, profile, config).alpha
        worst = max(worst, abs(cvar_alpha - det), abs(bti_alpha - det))
    ok = worst <= 1e-2
    _report(
        9,
        "small-sigma consistency with the deterministic best response",
        ok,
        f"max |alpha gap|={worst:.2e} (<= 1e-2)",
    )


def test_criterion_10_reproducibility(tmp_path):
    doc = {
        "miners": 5,
        "resources": {"mode": "heterogeneous", "lo": 30.0, "hi": 60.0},
        "sigma": 10.0,
        "mode": "all",
        "seed": 42,
        "validation": {"samples": 400},
    }
    config_path = tmp_path / "repro.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    digests = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert cli_main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
        assert cli_main(["validate", "--config", str(config_path), "--out", str(out)]) == 0
        assert cli_main(
            ["sweep", "--config", str(config_path), "--out", str(out), "--axis", "epsilon",
             "--values", "0.05,0.1"]
        ) == 0
        blobs = {
            str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))
        }
        digests.append(blobs)
    same_files = digests[0].keys() == digests[1].keys()
    identical = same_files and all(digests[0][k] == digests[1][k] for k in digests[0])
    ok = identical and len(digests[0]) >= 8
    _report(
        10,
        "byte-identical reproducibility",
        ok,
        f"{len(digests[0])} CSV files compared, identical={identical}",
    )
