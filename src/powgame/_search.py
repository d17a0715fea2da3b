"""The strategy step's scalar search: a dense scan, then golden-section refinement.

``scan_golden_max`` takes the first maximum of a grid, as ``np.argmax``
picks it, and refines it by golden section.  Its hints spare evaluations of
``f``; the result is the one every exact evaluation would give, float for
float.

One reader climbs the grid.  It reads ``f``, or with ``bounds`` the
ceilings, from the point nearest ``start`` (the first point without one),
and widens each end of its window until the end's reading lies more than
``2 * error`` below the best reading.  An ``error`` that is not a finite
number >= 0, None included, puts no limit on the window, so without hints
every point is read once, in order.

- ``error`` is a claim that the readings on [lo, hi] lie within ``error`` of
  a concave function, with room for the rounding of ``best - 2 * error``
  (the Gaussian slack makes it, see ``bti._strategy_slack``).  Each point
  left out then reads strictly below the best, so the grid's first maximum
  lies in the window.
- ``bounds`` is a cheap function with ``bounds(x) = (floor, ceiling)`` and
  ``floor <= f(x) <= ceiling`` at every x.  The claim of ``error`` is then
  about the ceilings, with room for half the widest gap between a point's
  floor and ceiling as well (the CVaR slack makes it, see
  ``cvar._strategy_slack``): a point left out has a value below its
  ceiling, which lies more than that gap below the best ceiling, so below
  the best point's floor.  The window's points are scored in
  descending-ceiling order until the next ceiling is below the best value
  found, which no point left can reach.  Each golden-section probe is kept
  as its interval [floor, ceiling] until it is scored.  A probe whose floor
  is at least the other probe's ceiling wins the comparison, and one whose
  ceiling is below the other's floor loses it; only where the two intervals
  overlap are both probes scored, and a surviving probe may stay unscored
  for the next comparison.

A NaN has no order.  A NaN bound decides nothing, and a NaN reading or
value on the grid sends every grid point through ``f`` (``_grid_max``, the
full scan), which reuses the values already read.  A NaN value at a point
its bounds have already decided is not seen, so ``f`` may be NaN only where
its floor and ceiling are NaN too.  The golden section scores a probe only
when a comparison reads it, so it skips the last probe, which none does.
"""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _grid_max(f, points):
    """(k, f(points[k])) for the first k of a maximum, or of a NaN, as
    ``np.argmax`` picks it: the full scan."""
    vals = [f(x) for x in points]
    k = _first_argmax(vals)
    return k, vals[k]


def _read_grid(f, points, step, bounds, error, start, values):
    """``_grid_max``'s result from the climb of the module docstring, or
    None on a NaN; it puts the values of ``f`` it reads in the list
    ``values``, by index.

    The window [l, r] grows at an end while its reading is not more than
    ``2 * error`` below the best, at k.  Once the reading at r is, the
    concave function is lower at r than at k < r, so it falls beyond r, and
    the readings stay below the best there; likewise left of l.  A tie keeps
    the leftmost point, as ``np.argmax`` does.
    """
    n = len(points)
    margin = 2.0 * error if error is not None and 0.0 <= error < math.inf else math.inf
    k = 0 if start is None else int(min(max(0.0, (start - points[0]) / step), n - 1.0) + 0.5)  # nearest
    read = f if bounds is None else lambda x: bounds(x)[1]
    got = values if bounds is None else [None] * n  # the climb's readings, by index
    best = got[k] = read(points[k])
    if best != best:
        return None
    l = r = k
    v_l = v_r = best
    while True:
        floor = best - margin
        if r < n - 1 and not v_r < floor:
            r += 1
            v_r = got[r] = read(points[r])
            if v_r > best:
                k, best = r, v_r
            elif v_r != v_r:
                return None
        elif l > 0 and not v_l < floor:
            l -= 1
            v_l = got[l] = read(points[l])
            if v_l >= best:
                k, best = l, v_l
            elif v_l != v_l:
                return None
        elif bounds is None:
            return k, best
        else:
            break
    best = -math.inf
    for i in sorted(range(l, r + 1), key=got.__getitem__, reverse=True):
        if got[i] < best:
            break
        value = values[i] = f(points[i])
        if value > best:
            best = value
        elif value != value:
            return None
    k = min(i for i in range(l, r + 1) if values[i] == best)
    return k, values[k]


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


def scan_golden_max(f, lo, hi, step, tol=1e-6, bounds=None, error=None, start=None):
    """Maximize ``f`` on [lo, hi]: a scan at ``step`` resolution, then golden
    section on the two cells around the best grid point, to width ``tol``.

    ``bounds``, ``error`` and ``start`` are the hints of the module
    docstring: they spare evaluations, and the result is the same with or
    without them.
    """
    if hi <= lo:
        return lo, f(lo)
    points = np.arange(lo, hi + 0.5 * step, step).tolist()
    points[-1] = min(points[-1], hi)
    values = [None] * len(points)  # f on the grid, where read
    found = _read_grid(f, points, step, bounds, error, start, values)
    if found is None:  # a NaN: the full scan, which reuses the values read
        found = _grid_max(lambda i: f(points[i]) if values[i] is None else values[i], range(len(points)))
    k, grid_best = found
    grid_x = points[k]
    lo, hi = _golden(f, bounds, max(lo, grid_x - step), min(hi, grid_x + step), tol)
    x = 0.5 * (lo + hi)
    best_x, best_f = x, f(x)
    if grid_best > best_f:
        best_x, best_f = grid_x, grid_best
    return best_x, best_f


def _golden(f, bounds, lo, hi, tol):
    """The golden-section bracket of ``f``'s maximum in [lo, hi], to width
    ``tol``.  A probe is scored only when a comparison needs its value: with
    ``bounds``, where the probes' intervals overlap (a scored probe's is
    [value, value]; see the module docstring), and without them at every
    comparison, so that only the probe made after the last one goes
    unscored."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = f2 = None  # a probe's value, once scored
    if bounds:
        (lo1, hi1), (lo2, hi2) = bounds(x1), bounds(x2)
    for _ in range(200):
        if not hi - lo > tol:
            break
        if bounds and (lo1 >= hi2 or hi1 < lo2):
            left = lo1 >= hi2
        else:
            if f1 is None:
                lo1 = hi1 = f1 = f(x1)
            if f2 is None:
                lo2 = hi2 = f2 = f(x2)
            left = f1 >= f2
        # swaps of at most three names: CPython builds a tuple for longer ones
        if left:  # f(x1) >= f(x2)
            hi, x2, f2 = x2, x1, f1
            lo2, hi2 = lo1, hi1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = None
            if bounds:
                lo1, hi1 = bounds(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            lo1, hi1 = lo2, hi2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = None
            if bounds:
                lo2, hi2 = bounds(x2)
    return lo, hi
