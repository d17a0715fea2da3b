"""Outside-in tracer: spans around powgame's public functions, recorded from the benchmark.

Nothing in the program changes.  ``install`` replaces every binding of each
traced function in the loaded ``powgame`` modules with a wrapper: the
defining module and every module that imported the function by name
(``cli`` binds ``solve_equilibrium``, ``sample_uncertainty`` and
``empirical_violation``; ``cvar`` and ``bti`` bind ``scan_golden_max``).
``uninstall`` puts the originals back.

A span is (name, start, end, parent, op).  Spans are kept in memory and
written when the run ends; a layer's self time is its spans' duration minus
the part covered by child spans.  The hottest leaves (certificate
evaluations, deterministic best responses) run hundreds of thousands of times
per op, so they are kept as one (calls, total time) record per parent span
instead of one span per call.  They have no traced children, so their self
time equals their total time.

The threshold step reaches the CVaR certificate through the private
``cvar._threshold_feasible``, which is not traced; its certificates are
counted through ``LossCoefficients.from_strategy`` (span name
``cvar.cert_eval``) and their time stays in ``cvar.subproblem_threshold``'s
self time.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# span name -> (defining module, attribute)
SPANS = {
    "cli.load_scenario": ("powgame.cli", "load_scenario"),
    "cli.run_solve": ("powgame.cli", "run_solve"),
    "cli.run_sweep": ("powgame.cli", "run_sweep"),
    "cli.run_validate": ("powgame.cli", "run_validate"),
    "equilibrium.solve_equilibrium": ("powgame.equilibrium", "solve_equilibrium"),
    "cvar.robust_best_response": ("powgame.cvar", "robust_best_response"),
    "cvar.subproblem_threshold": ("powgame.cvar", "subproblem_threshold"),
    "cvar.subproblem_strategy": ("powgame.cvar", "subproblem_strategy"),
    "bti.robust_best_response_gaussian": ("powgame.bti", "robust_best_response_gaussian"),
    "bti.subproblem_threshold_gaussian": ("powgame.bti", "subproblem_threshold_gaussian"),
    "bti.subproblem_strategy_gaussian": ("powgame.bti", "subproblem_strategy_gaussian"),
    "search.scan_golden_max": ("powgame._search", "scan_golden_max"),
    "validate.sample_uncertainty": ("powgame.validate", "sample_uncertainty"),
    "validate.empirical_violation": ("powgame.validate", "empirical_violation"),
    "validate.discrete_worstcase_violation": ("powgame.validate", "discrete_worstcase_violation"),
}
LEAVES = {
    "cvar.worstcase_cvar": ("powgame.cvar", "worstcase_cvar"),
    "bti.bti_constraint_value": ("powgame.bti", "bti_constraint_value"),
    "deterministic.best_response": ("powgame.deterministic", "best_response"),
}
CERT_EVAL = "cvar.cert_eval"  # LossCoefficients.from_strategy, a classmethod


def _iterations(key):
    def hook(counters, args, kwargs, result):
        counters[key] += result.iterations

    return hook


def _moved(key, position):
    def hook(counters, args, kwargs, result):
        alpha_in = kwargs["alpha_in"] if "alpha_in" in kwargs else args[position]
        counters[key] += result[0] != alpha_in

    return hook


def _samples(counters, args, kwargs, result):
    counters["validate.samples_drawn"] += len(result.draws)


# counters read off return values, at the boundary where the work happens
HOOKS = {
    "equilibrium.solve_equilibrium": _iterations("equilibrium.gs_sweeps"),
    "cvar.robust_best_response": _iterations("cvar.ao_iters"),
    "bti.robust_best_response_gaussian": _iterations("bti.ao_iters"),
    "cvar.subproblem_strategy": _moved("cvar.moved", 2),
    "bti.subproblem_strategy_gaussian": _moved("bti.moved", 1),
    "validate.sample_uncertainty": _samples,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, total_s]
        self.counters = defaultdict(int)
        self.stack = []
        self.op = -1
        self._patched = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[1] = start
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def leaf(self, name, fn):
        leaves, stack = self.leaves, self.stack

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record = leaves[name, stack[-1] if stack else -1]
                record[0] += 1
                record[1] += perf_counter() - start

        return traced

    def region(self, name, op, fn, *args):
        """Run fn(*args) as a root span of op ``op``."""
        self.op = op
        return self.span(name, fn)(*args)

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "powgame" or n.startswith("powgame.")]
        for table, make in ((SPANS, self.span), (LEAVES, self.leaf)):
            for name, (module, attr) in table.items():
                original = getattr(sys.modules[module], attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
        cls = sys.modules["powgame.cvar"].LossCoefficients
        original = cls.__dict__["from_strategy"]
        self._patched.append((cls, "from_strategy", original))
        cls.from_strategy = classmethod(self.leaf(CERT_EVAL, original.__func__))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def _owner(self, sid, names, memo):
        """Nearest ancestor span (sid itself included) whose name is in names."""
        path = []
        while sid >= 0 and sid not in memo:
            if self.spans[sid][0] in names:
                memo[sid] = sid
                break
            path.append(sid)
            sid = self.spans[sid][3]
        found = memo.get(sid, -1) if sid >= 0 else -1
        for s in path:
            memo[s] = found
        return found

    def _leaf_calls_by_owner(self, leaf, names):
        memo, calls = {}, defaultdict(int)
        for (name, parent), (count, _) in self.leaves.items():
            if name == leaf:
                owner = self._owner(parent, names, memo)
                calls[self.spans[owner][0] if owner >= 0 else None] += count
        return calls

    def layer_stats(self):
        """name -> [calls, total_s, self_s] over every span and leaf."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, parent), (_, total) in self.leaves.items():
            if parent >= 0:
                child[parent] += total
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[sid]
        for (name, _), (calls, total) in self.leaves.items():
            s = stats[name]
            s[0] += calls
            s[1] += total
            s[2] += total
        return stats

    def metrics(self, overhead_frac):
        """The per-layer metrics, in BENCHMARK.json order: name -> (value, unit)."""
        stats = self.layer_stats()
        c = self.counters
        out = {}

        def timed(name, fields=("calls", "total_s", "self_s")):
            calls, total, own = stats[name]
            values = {"calls": (calls, "count"), "total_s": (total, "s"), "self_s": (own, "s")}
            for field in fields:
                out[f"{name}.{field}"] = values[field]

        def ratio(num, den):
            return num / den if den else 0.0

        for module, br, threshold, strategy, cert, cert_leaf in (
            ("cvar", "robust_best_response", "subproblem_threshold", "subproblem_strategy",
             "worstcase_cvar", CERT_EVAL),
            ("bti", "robust_best_response_gaussian", "subproblem_threshold_gaussian",
             "subproblem_strategy_gaussian", "bti_constraint_value", "bti.bti_constraint_value"),
        ):
            for fn in (br, threshold, strategy, cert):
                timed(f"{module}.{fn}")
            t_name, s_name = f"{module}.{threshold}", f"{module}.{strategy}"
            module_spans = {n for n in SPANS if n.startswith(module + ".")}
            by_module = self._leaf_calls_by_owner(cert_leaf, module_spans)
            by_step = self._leaf_calls_by_owner(cert_leaf, {t_name, s_name})
            out[f"{module}.cert_evals"] = (sum(v for k, v in by_module.items() if k), "count")
            out[f"{module}.cert_evals_per_threshold"] = (
                ratio(by_step[t_name], stats[t_name][0]), "count/call")
            out[f"{module}.cert_evals_per_strategy"] = (
                ratio(by_step[s_name], stats[s_name][0]), "count/call")
            out[f"{module}.ao_iters_per_br"] = (
                ratio(c[f"{module}.ao_iters"], stats[f"{module}.{br}"][0]), "count/call")
            out[f"{module}.strategy_moved_frac"] = (ratio(c[f"{module}.moved"], stats[s_name][0]), "frac")
        timed("search.scan_golden_max", ("calls", "self_s"))
        timed("equilibrium.solve_equilibrium")
        out["equilibrium.gs_sweeps_per_solve"] = (
            ratio(c["equilibrium.gs_sweeps"], stats["equilibrium.solve_equilibrium"][0]), "count/call")
        timed("validate.sample_uncertainty", ("calls", "self_s"))
        out["validate.samples_drawn"] = (c["validate.samples_drawn"], "count")
        timed("validate.empirical_violation", ("calls", "self_s"))
        timed("validate.discrete_worstcase_violation", ("calls", "self_s"))
        timed("cli.load_scenario", ("calls", "self_s"))
        for verb in ("solve", "sweep", "validate"):
            timed(f"cli.run_{verb}", ("self_s",))
        timed("deterministic.best_response", ("calls",))
        out["trace.overhead_frac"] = (overhead_frac, "frac")
        return out

    def write(self, path: Path):
        """Spans, then leaf records, as tab-separated lines (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tid\tname\tstart\tend\tparent\top\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(f"span\t{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
            f.write("leaf\tname\tparent\tcalls\ttotal_s\n")
            for (name, parent), (calls, total) in self.leaves.items():
                f.write(f"leaf\t{name}\t{parent}\t{calls}\t{total:.9f}\n")
