"""powgame benchmark: seeded closed-loop workloads driven through the CLI.

    python3 benchmarks/run.py --workload solve-cvar --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1      # each workload in its own process
    python3 benchmarks/run.py --record-reference           # re-record reference/*.json

Run from the root of a checkout; the program is imported from ``src/``.  One
client issues ops in a closed loop: every op is one in-process call to
``powgame.cli.main([...])`` and the next op starts when it returns.  A run
repeats whole passes over the workload's fixed deck, in the order the seed
gives, for as many passes as fit in ``--seconds`` (at least one), so every run
does the same work.  Each op's outputs are checked outside the timed region.
Times are reported at nominal host speed (see ``NOMINAL_LOOP_S``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and the same pass traced, and prints the per-layer metrics; the
ratio of the two passes' op time is the tracing overhead.  The last line of
standard output is the result as one JSON object; the lines before it say
the same for people.  Full results, op times and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import decks
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"

SETUP_PROBES = 7
TAIL_BEYOND = 10  # the tail percentile leaves this many ops of a pass beyond it
TIME_CAP_S = 140.0  # no op starts after this, so a run ends well within 180 s

# Host speed on a shared machine drifts.  On the 2-vCPU Xeon where this
# benchmark was defined, the same sweep op took 0.75x to 1.36x its median time
# from one run to the next.  A fixed pure-Python kernel that builds small
# objects and does float math, as the solvers do, slowed by nearly the same
# factor at the same moments (4% residual, against 10-20% raw).  Every timed
# interval is therefore bracketed by samples of that kernel and reported at
# nominal host speed: wall time x NOMINAL_LOOP_S / median kernel time around
# it.  The median keeps one sample caught in a burst from skewing an op.  Raw
# wall times go to the result file.
LOOP_N = 15_000
LOOP_SAMPLES = 3  # on each side of a timed interval
NOMINAL_LOOP_S = 0.0055  # the kernel's median time there


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def loop_times():
    sqrt = math.sqrt
    samples = []
    for _ in range(LOOP_SAMPLES):
        start = perf_counter()
        acc = 0.0
        for i in range(LOOP_N):
            p = _Point(i * 0.5, i + 1.0)
            acc += sqrt(p.a * p.a + p.b)
        samples.append(perf_counter() - start)
    return samples


def at_nominal_speed(wall, loops_before, loops_after):
    return wall * NOMINAL_LOOP_S / statistics.median(loops_before + loops_after)


def fail(message):
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def import_powgame():
    if not (SRC / "powgame" / "__init__.py").is_file():
        fail(f"no powgame sources under {SRC}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import powgame.cli
    import powgame.validate

    if Path(powgame.__file__).resolve().parent != SRC / "powgame":
        fail(f"imported powgame from {powgame.__file__}, not from {SRC}")
    return powgame


def set_up(workload, directory: Path):
    """Import the program, write the deck and load every scenario (warms lazy RNG set-up)."""
    powgame = import_powgame()
    games = decks.write_deck(workload, directory)
    configs = [powgame.cli.load_scenario(path).config for _, path in games]
    return powgame, games, configs


def measure_setup(workload) -> list[float]:
    """(wall, nominal) time from starting a fresh interpreter to its 'ready' line, SETUP_PROBES times."""
    times = []
    for k in range(SETUP_PROBES):
        directory = OUT / f"probe-{workload.name}-{os.getpid()}-{k}"
        loops_before = loop_times()
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(directory),
             "--workload", workload.name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            wall = perf_counter() - start
            child.stdout.read()
            code = child.wait()
        times.append((wall, at_nominal_speed(wall, loops_before, loop_times())))
        shutil.rmtree(directory, ignore_errors=True)
        if code != 0 or line.strip() != "ready":
            fail(f"set-up probe exited with {code}")
    return times


def load_reference(workload, games):
    path = REFERENCE / f"{workload.name}.json"
    if not path.is_file():
        fail(f"missing {path}; record it with --record-reference")
    ref = json.loads(path.read_text(encoding="utf-8"))
    deck_prints = {doc["name"]: decks.fingerprint(doc) for doc, _ in games}
    if ref["games"] != deck_prints:
        fail(f"{path.name} was recorded for another deck; re-record it")
    return ref["ops"]


class Runner:
    """Issues ops one at a time and checks each op's outputs after it returns."""

    def __init__(self, workload, powgame, games, configs, reference, scratch: Path):
        self.workload = workload
        self.powgame = powgame
        self.games = games
        self.configs = configs
        self.reference = reference
        self.scratch = scratch
        self.attempted = 0
        self.failures = []

    def op(self, op, op_id, tracer=None):
        """Run one op; return its (wall, nominal) time in seconds."""
        w = self.workload
        doc, config_path = self.games[op.game]
        out = self.scratch / "out"
        argv = decks.op_argv(w, op, config_path, out)
        main = self.powgame.cli.main
        loops_before = loop_times()
        start = perf_counter()
        try:
            code = main(argv) if tracer is None else tracer.region("op", op_id, main, argv)
        except (Exception, SystemExit):
            code = traceback.format_exc(limit=3)
        wall = perf_counter() - start
        nominal = at_nominal_speed(wall, loops_before, loop_times())
        self.attempted += 1
        what = doc["name"] + (f" axis={op.axis}" if op.axis else "")
        try:
            if isinstance(code, str):
                raise checks.CheckFailed(f"raised\n{code}")
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}")
            record = checks.extract(w.verb, doc, out, op.axis)
            checks.compare(record, self.reference[op.key])
            if w.verb == "solve":
                oracle = self.powgame.validate.discrete_worstcase_violation
                check = (record, self.configs[op.game], oracle)
                if tracer is None:
                    checks.check_worstcase(*check)
                else:
                    tracer.region("check", op_id, checks.check_worstcase, *check)
        except checks.CheckFailed as exc:
            self.failures.append(f"{what}: {exc}")
        except Exception:  # a malformed output must fail the op, not end the run
            self.failures.append(f"{what}: unreadable output\n{traceback.format_exc(limit=3)}")
        shutil.rmtree(out, ignore_errors=True)
        return wall, nominal

    def run_pass(self, order, started, tracer=None):
        times = []
        for op in order:
            if perf_counter() - started > TIME_CAP_S:
                print(f"# time cap reached after {len(times)} ops of a pass", file=sys.stderr)
                break
            times.append(self.op(op, self.attempted, tracer))
        return times


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "one process, one client, closed loop",
    }


def quantile(values, p, steps=64):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    A run holds a dozen to a few dozen ops whose times differ by game, so a
    single order statistic jumps whenever two games swap ranks.  Over ten runs
    per workload on the 2-vCPU Xeon, this estimator cut the run-to-run spread
    of the median from 18% to 11% on solve-cvar and from 10% to 7% on
    sweep-bti.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))

    h = 1.0 / (n * steps)
    weights = []  # Beta(a, b) mass over each (i/n, (i+1)/n], by Simpson's rule
    for i in range(n):
        lo = i / n
        inner = sum((4.0 if k % 2 else 2.0) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3.0)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def op_stats(times, per_pass):
    """ops_per_s, op_p50_s and op_tail_s of a list of op times, and where the tail sits."""
    rank = max(1, per_pass - TAIL_BEYOND)
    tail = {"percentile": 100.0 * rank / per_pass, "ops": len(times),
            "beyond": len(times) - math.ceil(rank / per_pass * len(times))}
    stats = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (quantile(times, 0.5), "s"),
        "op_tail_s": (quantile(times, rank / per_pass), "s"),
    }
    return stats, tail


def run_workload(args):
    workload = decks.WORKLOADS[args.workload]
    import_powgame()  # fail before any probe when the sources are missing
    setup = measure_setup(workload) if not args.trace else []
    scratch = OUT / f"run-{workload.name}-seed{args.seed}-{os.getpid()}"
    powgame, games, configs = set_up(workload, scratch / "deck")
    runner = Runner(workload, powgame, games, configs, load_reference(workload, games), scratch)
    order = decks.pass_order(workload, args.seed)
    started = perf_counter()
    times = runner.run_pass(order, started)
    passes = 1
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(order, started, tracer)
        finally:
            tracer.uninstall()
        untraced = sum(t for _, t in times[: len(traced)])
        metrics = tracer.metrics(sum(t for _, t in traced) / untraced - 1.0)
        times += traced
    else:
        while perf_counter() - started + (perf_counter() - started) / passes <= args.seconds:
            if perf_counter() - started > TIME_CAP_S:
                break
            times += runner.run_pass(order, started)
            passes += 1
        metrics, tail = op_stats([t for _, t in times], len(order))
        wall_metrics, _ = op_stats([w for w, _ in times], len(order))
        metrics = {
            "setup_s": (quantile([t for _, t in setup], 0.5), "s"),
            **metrics,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        wall_metrics["setup_s"] = (quantile([w for w, _ in setup], 0.5), "s")
    shutil.rmtree(scratch, ignore_errors=True)

    failed = len(runner.failures)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "deck": {"seed": decks.DECK_SEED, "ranges": decks.RANGES, "games": workload.games,
                 "op": workload.op, "why": workload.why, "ops_per_pass": len(order)},
        "passes": 2 if args.trace else passes,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures,
        "op_times_s": {"wall": [w for w, _ in times], "nominal": [t for _, t in times]},
        "setup_times_s": {"wall": [w for w, _ in setup], "nominal": [t for _, t in setup]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.trace:
        result["op_tail"] = tail
        result["wall_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in wall_metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.tsv.gz")

    env = result["environment"]
    print(f"# {workload.name} seed={args.seed}: {runner.attempted} ops in {result['passes']} pass(es), "
          f"{failed} failed (failed_frac {result['failed_frac']:.4g})")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, {env['cpu']}, "
          f"BLAS/OpenMP threads 1")
    if not args.trace:
        print(f"# op_tail_s is the p{tail['percentile']:.1f} op time: {tail['beyond']} of "
              f"{tail['ops']} ops lie beyond it")
        print("# times at nominal host speed; raw wall clock: " + ", ".join(
            f"{k} {v:.6g} {u}" for k, (v, u) in wall_metrics.items()))
    for failure in runner.failures[:10]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))


def run_all(args):
    """Every workload, each in its own process so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in decks.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            fail(f"workload {name} exited with {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


def record_reference():
    """Run every deck once, in deck order, and store each op's checked outputs."""
    REFERENCE.mkdir(exist_ok=True)
    for workload in decks.WORKLOADS.values():
        scratch = OUT / f"record-{workload.name}"
        powgame, games, configs = set_up(workload, scratch / "deck")
        ops = {}
        for op in decks.deck_ops(workload):
            doc, path = games[op.game]
            out = scratch / "out"
            code = powgame.cli.main(decks.op_argv(workload, op, path, out))
            if code != 0:
                fail(f"{doc['name']} {op.axis or ''} exited with {code}")
            record = checks.extract(workload.verb, doc, out, op.axis)
            if workload.verb == "solve":
                checks.check_worstcase(record, configs[op.game], powgame.validate.discrete_worstcase_violation)
            ops[op.key] = record
            shutil.rmtree(out)
        shutil.rmtree(scratch)
        doc = {
            "workload": workload.name,
            "deck_seed": decks.DECK_SEED,
            "games": {d["name"]: decks.fingerprint(d) for d, _ in games},
            "ops": ops,
        }
        (REFERENCE / f"{workload.name}.json").write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
        print(f"recorded {len(ops)} ops of {workload.name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*decks.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="sets the op order")
    parser.add_argument("--seconds", type=float, default=30.0, help="whole passes that fit in this time, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        set_up(decks.WORKLOADS[args.workload], Path(args.setup_probe))
        print("ready", flush=True)
    elif args.record_reference:
        record_reference()
    elif args.workload == "all":
        run_all(args)
    elif args.workload:
        run_workload(args)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main()
