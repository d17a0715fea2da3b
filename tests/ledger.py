"""The work ledger: the one place in the suite that counts the solver's work.

``Ledger.install(monkeypatch)`` wraps each counted function at the one
binding the solver calls it through; the ``work`` fixture of ``conftest.py``
installs a fresh ledger for a test and returns it.  The counters, in
``Ledger.counts``:

- ``bisect_threshold`` as ``bti`` and ``cvar`` bind it: ``threshold_steps``,
  ``resumed_steps`` (the step's record held a bracket), ``margins``, and
  ``resumed_margins_max``, the most margins one resumed step evaluated.
  ``Ledger.thresholds`` lists the thresholds the steps returned, in order.
- ``scan_strategy`` as ``bti`` and ``cvar`` bind it: ``strategy_steps``,
  ``slacks``, ``bounds`` and ``incoming_max``, the most times one step
  scored its incoming alpha.  ``Ledger.reads`` lists the (alpha, slack)
  pairs the last step read, in order.
- ``robust.scan_golden_max``: ``scans``, and ``ceilings`` and
  ``ceilings_max``, the grid points at which the scans, and at most one
  scan, read a ceiling: ``bounds``, or the slack where a scan has none.
- ``robust._certified``: curvature ``certificates`` tried, and ``kept``.
- ``cvar._beta_search``: ``beta_searches``.
- ``cvar._trace_minimal_witness``: ``witnesses``.
- ``loss_coefficients`` built, and ``eigh`` and ``inv`` calls of
  ``np.linalg``.

A counter that stays 0 is absent from ``counts``.  The counts depend on no
machine, so ``test_work.py`` pins them exactly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from powgame import LossCoefficients, _search, bti, cvar, robust


class Ledger:
    """The counts, thresholds and reads of the module docstring."""

    def __init__(self):
        self.reset()

    def reset(self):
        """Zero every counter and empty both lists."""
        self.counts, self.thresholds, self.reads = Counter(), [], []

    def _add(self, key, n=1):
        if n:
            self.counts[key] += n

    def _most(self, key, n):
        if n > self.counts[key]:
            self.counts[key] = n

    def _calls(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, monkeypatch):
        """Wrap every counted binding through ``monkeypatch``; returns the ledger."""
        for module in (bti, cvar):
            monkeypatch.setattr(module, "bisect_threshold", self._threshold_step(module.bisect_threshold))
            monkeypatch.setattr(module, "scan_strategy", self._strategy_step(module.scan_strategy))
        monkeypatch.setattr(robust, "scan_golden_max", self._scan())
        monkeypatch.setattr(robust, "_certified", self._certificate(robust._certified))
        monkeypatch.setattr(cvar, "_beta_search", self._calls("beta_searches", cvar._beta_search))
        monkeypatch.setattr(cvar, "_trace_minimal_witness", self._calls("witnesses", cvar._trace_minimal_witness))
        monkeypatch.setattr(LossCoefficients, "__init__", self._calls("loss_coefficients", LossCoefficients.__init__))
        for name in ("eigh", "inv"):
            monkeypatch.setattr(np.linalg, name, self._calls(name, getattr(np.linalg, name)))
        return self

    def _threshold_step(self, step):
        def counted(margin, params, reward, u_lo=None, record=None):
            evaluated = [0]

            def counted_margin(u):
                evaluated[0] += 1
                return margin(u)

            resumes = record is not None and record.bracket is not None
            self._add("threshold_steps")
            self._add("resumed_steps", resumes)
            try:
                u = step(counted_margin, params, reward, u_lo, record)
            finally:
                self._add("margins", evaluated[0])
                if resumes:
                    self._most("resumed_margins_max", evaluated[0])
            self.thresholds.append(u)
            return u

        return counted

    def _strategy_step(self, step):
        def counted(slack, alpha_in, tau0, bounds=None, error=None, curvature=None):
            reads = self.reads = []

            def counted_slack(alpha):
                reads.append((alpha, slack(alpha)))
                return reads[-1][1]

            self._add("strategy_steps")
            try:
                return step(counted_slack, alpha_in, tau0, bounds and self._calls("bounds", bounds), error, curvature)
            finally:
                self._add("slacks", len(reads))
                self._most("incoming_max", sum(alpha == alpha_in for alpha, _ in reads))

        return counted

    def _scan(self):
        def counted(f, lo, hi, step, tol=1e-6, bounds=None, **hints):
            # looked up at each call: a wrapper that the benchmark's tracer
            # puts on the defining module later still sees every scan
            scan = _search.scan_golden_max
            grid, read = set(_search._grid(lo, hi, step)), [0]

            def on_grid(ceiling):
                def counted_ceiling(x):
                    read[0] += x in grid
                    return ceiling(x)

                return counted_ceiling

            self._add("scans")
            try:
                if bounds is None:  # the slack is its own ceiling
                    return scan(on_grid(f), lo, hi, step, tol, **hints)
                return scan(f, lo, hi, step, tol, bounds=on_grid(bounds), **hints)
            finally:
                self._add("ceilings", read[0])
                self._most("ceilings_max", read[0])

        return counted

    def _certificate(self, certified):
        def counted(*args):
            kept = certified(*args)
            self._add("certificates")
            self._add("kept", kept)
            return kept

        return counted
