"""Scalar search primitives shared by the solvers (golden section, scan+refine)."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo, hi, tol=1e-6):
    """Maximize a unimodal scalar function on [lo, hi] by golden-section search."""
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
    x = 0.5 * (lo + hi)
    return x, f(x)


def scan_golden_max(f, lo, hi, step, tol=1e-6):
    """Dense scan at `step` resolution, golden refinement around the best cell."""
    if hi <= lo:
        return lo, f(lo)
    grid = np.arange(lo, hi + 0.5 * step, step)
    grid[-1] = min(grid[-1], hi)
    vals = [f(float(a)) for a in grid]
    k = int(np.argmax(vals))
    g_lo = max(lo, float(grid[k]) - step)
    g_hi = min(hi, float(grid[k]) + step)
    best_x, best_f = golden_max(f, g_lo, g_hi, tol)
    if vals[k] > best_f:
        best_x, best_f = float(grid[k]), vals[k]
    return best_x, best_f

