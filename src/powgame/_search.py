"""The strategy step's scalar search: a dense scan, then golden-section refinement.

``scan_golden_max`` takes the first maximum of a grid, as ``np.argmax``
picks it where the grid holds no NaN, and refines it by golden section.
Its hints spare evaluations of ``f``; the result is the one every exact
evaluation would give, float for float.

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
  the best point's floor.

With ``bounds``, ``f`` is scored only where a decision reads its value;
a scored point's interval is [value, value].

- The grid: the climb keeps each point's floor and ceiling.  The point with
  the best ceiling is the first maximum, unscored, when its floor lies above
  every other ceiling of the window, or equals only ceilings to its right.
  Otherwise the window's points are scored in descending-ceiling order
  until the next ceiling is below the best value found, which no point
  left can reach.
- The golden section: a probe whose floor is at least the other probe's
  ceiling wins the comparison, and one whose ceiling is below the other's
  floor loses it.  Where the two intervals overlap, the unscored probe with
  the higher ceiling is scored, and the other only if they still overlap;
  a surviving probe may stay unscored for the next comparison.
- The last comparison, of the grid point with the golden section's
  midpoint, scores the grid point only if its ceiling lies above the
  midpoint's value.
- ``bar`` is a value below which the caller discards the maximum.  When the
  grid point's value, or its ceiling, and the midpoint's ceiling all lie
  below it, so does the maximum: the scan returns None, scoring neither.

``robust.scan_strategy`` takes one more hint, ``curvature``, with which it
may skip this scan altogether; it states that claim itself.  The grid of a
(lo, hi, step) is built once and kept, since a solve scans the same one at
every step.

A NaN has no order, so a NaN on the grid certifies nothing: the first NaN
reading, or NaN value of ``f``, that the scan meets on the grid ends it
with ``(lo, nan)``.  No reading is NaN where the claim of ``error`` holds,
and a climb may leave a NaN out where it does not.  A value that its
bounds have decided is not read, so with ``bounds`` ``f`` may be NaN only
where a bound is NaN too.  A NaN bound decides nothing, and a probe is
scored only when a comparison reads it, so the golden section's last
probe, which none does, is skipped.
"""

from __future__ import annotations

import functools
import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@functools.lru_cache(maxsize=16)
def _grid(lo, hi, step):
    """The scan's grid on [lo, hi], its last point clipped to hi, as a tuple.

    The points are those of ``np.arange(lo, hi + 0.5 * step, step)``, float
    for float: numpy takes ceil((stop - lo) / step) points, writes lo and
    lo + step, and fills point i as lo + i * ((lo + step) - lo).
    """
    n = math.ceil((hi + 0.5 * step - lo) / step)
    second = lo + step
    points = [lo, second][:n] + [lo + i * (second - lo) for i in range(2, n)]
    points[-1] = min(points[-1], hi)
    return tuple(points)


def _read_grid(f, points, step, bounds, error, start):
    """(k, value, top) for the grid's first maximum k, by the climb of the
    module docstring, or None at the first NaN reading or value it meets.
    ``value`` is f(points[k]), or None where the bounds settle k without it,
    and ``top`` the value, or the ceiling where it is None.

    The window [l, r] grows at an end while its reading is not more than
    ``2 * error`` below the best, at k.  Once the reading at r is, the
    concave function is lower at r than at k < r, so it falls beyond r, and
    the readings stay below the best there; likewise left of l.  A tie keeps
    the leftmost point, as ``np.argmax`` does.
    """
    n = len(points)
    margin = 2.0 * error if error is not None and 0.0 <= error < math.inf else math.inf
    k = 0 if start is None else int(min(max(0.0, (start - points[0]) / step), n - 1.0) + 0.5)  # nearest
    if bounds is None:
        read = f
    else:
        floors = {}  # the climb's floors, by point

        def read(x):
            floors[x], ceiling = bounds(x)
            return ceiling

    got = [None] * n  # the climb's readings, by index
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
            return k, best, best
        else:
            break
    top = floors[points[k]]
    if all(got[i] < top for i in range(l, k)) and all(got[i] <= top for i in range(k + 1, r + 1)):
        return k, None, best  # its floor beats every other ceiling, or ties one to its right
    best, k = -math.inf, n
    for i in sorted(range(l, r + 1), key=got.__getitem__, reverse=True):
        if got[i] < best:
            break
        value = f(points[i])
        if value > best or value == best and i < k:
            k, best = i, value
        elif value != value:
            return None
    return k, best, best


def scan_golden_max(f, lo, hi, step, tol=1e-6, bounds=None, error=None, start=None, bar=None):
    """Maximize ``f`` on [lo, hi], lo < hi: a scan at ``step`` resolution,
    then golden section on the two cells around the best grid point, to
    width ``tol``; ``(lo, nan)`` once the scan meets a NaN on the grid.

    ``bounds``, ``error`` and ``start`` are the hints of the module
    docstring: they spare evaluations, and the result is the same with or
    without them.  ``bar`` changes nothing either, but that with ``bounds``
    the scan may return None instead of a maximum below it.
    """
    points = _grid(lo, hi, step)
    found = _read_grid(f, points, step, bounds, error, start)
    if found is None:  # a NaN on the grid certifies nothing
        return lo, math.nan
    k, grid_best, grid_top = found
    grid_x = points[k]
    lo, hi = _golden(f, bounds, max(lo, grid_x - step), min(hi, grid_x + step), tol)
    x = 0.5 * (lo + hi)
    if bar is not None and bounds and grid_top < bar and bounds(x)[1] < bar:
        return None
    value = f(x)
    if grid_best is None:
        if not grid_top > value:  # the grid point cannot win
            return x, value
        grid_best = f(grid_x)
    return (grid_x, grid_best) if grid_best > value else (x, value)


def _golden(f, bounds, lo, hi, tol):
    """The golden-section bracket of ``f``'s maximum in [lo, hi], to width
    ``tol``.  A probe is scored only when a comparison needs its value: with
    ``bounds``, by the rule of the module docstring, and without them at
    every comparison, so that only the probe made after the last one goes
    unscored."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = f2 = None  # a probe's value, once scored
    if bounds:
        (lo1, hi1), (lo2, hi2) = bounds(x1), bounds(x2)
    else:  # carried along by the swaps, never read
        lo1 = hi1 = lo2 = hi2 = None
    for _ in range(200):
        if not hi - lo > tol:
            break
        if not bounds:
            if f1 is None:
                f1 = f(x1)
            if f2 is None:
                f2 = f(x2)
            left = f1 >= f2
        else:  # a scored probe's interval is [value, value]
            if not (lo1 >= hi2 or hi1 < lo2) and f1 is None and (f2 is not None or hi1 >= hi2):
                lo1 = hi1 = f1 = f(x1)
            if not (lo1 >= hi2 or hi1 < lo2) and f2 is None:
                lo2 = hi2 = f2 = f(x2)
            if not (lo1 >= hi2 or hi1 < lo2) and f1 is None:
                lo1 = hi1 = f1 = f(x1)
            left = lo1 >= hi2
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
