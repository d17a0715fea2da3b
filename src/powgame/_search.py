"""The strategy step's scalar search: a dense scan, then golden-section refinement.

``scan_golden_max`` may be given a ``ceiling``: a cheap function with
``ceiling(x) >= f(x)`` at every x.  The bound decides a comparison whenever
it can, so ``f`` is evaluated exactly only where the bound leaves the answer
open, and the result is the one every exact evaluation would give, float
for float:

- a point whose ceiling is below a value already found cannot be the grid's
  maximum, since its own value is at most its ceiling;
- a golden-section probe whose ceiling is below the other probe's value
  loses that comparison, and a probe whose value is at least the other
  probe's ceiling wins it.

A NaN has no order: a NaN ceiling decides nothing, and a NaN among the grid
values or ceilings sends every grid point through ``f``.  A NaN value at a
point its ceiling has already ruled out is not seen, so ``f`` may be NaN
only where its ceiling is NaN too.  Without a ceiling every point is
evaluated once, in the order of the plain scan.
"""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _grid_max(f, points, ceiling):
    """(k, f(points[k])) for the first k of a maximum, as ``np.argmax`` picks it.

    With a ceiling, points are evaluated in descending-ceiling order until
    the next ceiling is below the best value found; the points left cannot
    reach it.  A NaN, in a ceiling or a value, has no order, so it sends
    every point through ``f``, as without a ceiling.
    """
    if ceiling is not None:
        bounds = [ceiling(x) for x in points]
        if not any(math.isnan(b) for b in bounds):
            vals, best = {}, -math.inf
            for i in sorted(range(len(points)), key=bounds.__getitem__, reverse=True):
                if bounds[i] < best:
                    break
                value = vals[i] = f(points[i])
                if value > best:
                    best = value
            if not any(math.isnan(v) for v in vals.values()):
                k = min(i for i, v in vals.items() if v == best)
                return k, vals[k]
    vals = [f(x) for x in points]
    k = int(np.argmax(vals))
    return k, vals[k]


def scan_golden_max(f, lo, hi, step, tol=1e-6, ceiling=None):
    """Maximize ``f`` on [lo, hi]: a scan at ``step`` resolution, then golden
    section on the two cells around the best grid point, to width ``tol``.

    ``ceiling``, if given, bounds ``f`` from above and spares the exact
    evaluations it rules out (see the module docstring); the result is the
    same either way.
    """
    if hi <= lo:
        return lo, f(lo)
    grid = np.arange(lo, hi + 0.5 * step, step)
    grid[-1] = min(grid[-1], hi)
    k, grid_best = _grid_max(f, [float(a) for a in grid], ceiling)
    grid_x = float(grid[k])
    lo, hi = max(lo, grid_x - step), min(hi, grid_x + step)

    # golden section.  With a ceiling, the probe placed last (``new``) is
    # known only by its bound, which stands in for its value where it
    # settles the comparison; the probe that survives is always exact.
    bound = f if ceiling is None else ceiling
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), bound(x2)
    new = 2
    for _ in range(200):
        if not hi - lo > tol:
            break
        if ceiling is not None:
            if new == 1:
                if not f1 < f2:  # x1 may win: its value decides
                    f1 = f(x1)
            elif not f1 >= f2:  # x2 may win: its value decides
                f2 = f(x2)
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = bound(x1)
            new = 1
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = bound(x2)
            new = 2
    x = 0.5 * (lo + hi)
    best_x, best_f = x, f(x)
    if grid_best > best_f:
        best_x, best_f = grid_x, grid_best
    return best_x, best_f
