"""The strategy step's scalar search: a dense scan, then golden-section refinement.

``scan_golden_max`` may be given ``bounds``: a cheap function with
``bounds(x) = (floor, ceiling)`` and ``floor <= f(x) <= ceiling`` at every
x.  The bounds decide a comparison whenever they can, so ``f`` is evaluated
exactly only where they leave the answer open, and the result is the one
every exact evaluation would give, float for float:

- a grid point whose ceiling is below a value already found cannot be the
  grid's maximum, since its own value is at most its ceiling; the grid
  reads only the ceilings;
- each golden-section probe is kept as its interval [floor, ceiling] until
  it is scored.  A probe whose floor is at least the other probe's ceiling
  wins the comparison, and one whose ceiling is below the other's floor
  loses it; only where the two intervals overlap are both probes scored,
  and a surviving probe may stay unscored for the next comparison.

A NaN has no order: a NaN bound decides nothing, and a NaN among the grid
values or ceilings sends every grid point through ``f``.  A NaN value at a
point its bounds have already decided is not seen, so ``f`` may be NaN
only where its floor and ceiling are NaN too.  Where that rule is broken
(the CVaR slack at a huge variance, see ``cvar._strategy_slack``) the scan
may return a NaN maximum, which ``robust.scan_strategy`` reads as
infeasible.  Without bounds every point is evaluated once, in the order of
the plain scan.

``f`` may instead carry ``f.concave_near = (error, start)``: a claim that
every value of ``f`` on [lo, hi] lies within ``error`` of a concave
function, with room for the rounding of ``best - 2 * error`` (the Gaussian
slack makes it, see ``bti._strategy_slack``).  The grid is then climbed
from the point nearest ``start`` and widened both ways until each end lies
more than ``2 * error`` below the best value found.  Each point left out
lies strictly below that best value, so the grid's first maximum is the one
``np.argmax`` picks over every point.  A NaN value, or an ``error`` that is
not a finite number >= 0, runs the full scan instead.  The golden
refinement is the same on every path.
"""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _grid_max(f, points, bounds):
    """(k, f(points[k])) for the first k of a maximum, as ``np.argmax`` picks it.

    With bounds, points are evaluated in descending-ceiling order until the
    next ceiling is below the best value found; the points left cannot reach
    it.  A NaN, in a ceiling or a value, has no order, so it sends every
    point through ``f``, as without bounds.
    """
    if bounds is not None:
        ceilings = [bounds(x)[1] for x in points]
        if not any(math.isnan(c) for c in ceilings):
            vals, best = {}, -math.inf
            for i in sorted(range(len(points)), key=ceilings.__getitem__, reverse=True):
                if ceilings[i] < best:
                    break
                value = vals[i] = f(points[i])
                if value > best:
                    best = value
            if not any(math.isnan(v) for v in vals.values()):
                k = min(i for i, v in vals.items() if v == best)
                return k, vals[k]
    vals = [f(x) for x in points]
    k = _first_argmax(vals)
    return k, vals[k]


def _climb_max(f, points, step, error, start):
    """(k, f(points[k])) as ``_grid_max`` gives it, for an ``f`` within
    ``error`` of a concave function, from the points next to its peak; None
    on a NaN value or an ``error`` that is not a finite number >= 0.

    The evaluated points are the window [l, r] around the point nearest
    ``start``, and an end grows while its value is not more than
    ``2 * error`` below the best, at k.  Once f(r) is, the concave function
    is lower at r than at k < r, so it falls beyond r, and f stays below the
    best there; likewise left of l.  A tie keeps the leftmost point, as
    ``np.argmax`` does.
    """
    if not 0.0 <= error < math.inf:
        return None
    n, margin = len(points), 2.0 * error
    k = int(min(max(0.0, (start - points[0]) / step), n - 1.0) + 0.5)  # nearest; a NaN start reads 0
    best = f(points[k])
    if best != best:
        return None
    l = r = k
    v_l = v_r = best
    while True:
        floor = best - margin
        if r < n - 1 and not v_r < floor:
            r += 1
            v_r = f(points[r])
            if v_r > best:
                k, best = r, v_r
            elif v_r != v_r:
                return None
        elif l > 0 and not v_l < floor:
            l -= 1
            v_l = f(points[l])
            if v_l >= best:
                k, best = l, v_l
            elif v_l != v_l:
                return None
        else:
            return k, best


def _first_argmax(values):
    """Index of the first maximum of ``values``, or of their first NaN, as
    ``np.argmax`` picks it."""
    k, best = 0, values[0]
    for i, v in enumerate(values):
        if v > best:
            k, best = i, v
        elif v != v:
            return i
    return k


def scan_golden_max(f, lo, hi, step, tol=1e-6, bounds=None):
    """Maximize ``f`` on [lo, hi]: a scan at ``step`` resolution, then golden
    section on the two cells around the best grid point, to width ``tol``.

    ``bounds``, if given, brackets ``f`` as (floor, ceiling) and spares the
    exact evaluations it decides, and ``f.concave_near``, if set, lets the
    grid scan only the points next to the peak (see the module docstring);
    the result is the same either way.
    """
    if hi <= lo:
        return lo, f(lo)
    grid = np.arange(lo, hi + 0.5 * step, step)
    grid[-1] = min(grid[-1], hi)
    points = grid.tolist()
    near = getattr(f, "concave_near", None)
    found = None if near is None else _climb_max(f, points, step, *near)
    k, grid_best = _grid_max(f, points, bounds) if found is None else found
    grid_x = points[k]
    lo, hi = max(lo, grid_x - step), min(hi, grid_x + step)
    if bounds is None:
        lo, hi = _golden(f, lo, hi, tol)
    else:
        lo, hi = _bounded_golden(f, bounds, lo, hi, tol)
    x = 0.5 * (lo + hi)
    best_x, best_f = x, f(x)
    if grid_best > best_f:
        best_x, best_f = grid_x, grid_best
    return best_x, best_f


def _golden(f, lo, hi, tol):
    """The golden-section bracket of ``f``'s maximum in [lo, hi], to width
    ``tol``, with every probe scored."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if not hi - lo > tol:
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    return lo, hi


def _bounded_golden(f, bounds, lo, hi, tol):
    """``_golden``'s bracket, each probe held as its interval [floor,
    ceiling], and as [value, value] once scored; the probes are scored only
    where their intervals overlap (or hold a NaN)."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    (lo1, hi1), (lo2, hi2) = bounds(x1), bounds(x2)
    exact1 = exact2 = False
    for _ in range(200):
        if not hi - lo > tol:
            break
        if not (lo1 >= hi2 or hi1 < lo2):
            if not exact1:
                lo1 = hi1 = f(x1)
                exact1 = True
            if not exact2:
                lo2 = hi2 = f(x2)
                exact2 = True
        if lo1 >= hi2:  # f(x1) >= f(x2)
            hi, x2, lo2, hi2, exact2 = x2, x1, lo1, hi1, exact1
            x1 = hi - _INV_PHI * (hi - lo)
            (lo1, hi1), exact1 = bounds(x1), False
        else:
            lo, x1, lo1, hi1, exact1 = x1, x2, lo2, hi2, exact2
            x2 = lo + _INV_PHI * (hi - lo)
            (lo2, hi2), exact2 = bounds(x2), False
    return lo, hi
