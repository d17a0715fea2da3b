"""Scalar search primitives shared by the solvers (golden section, scan+refine)."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi, tol=1e-6, max_iter=200):
    """Minimize a unimodal scalar function on [lo, hi] by golden-section search."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    it = 0
    while hi - lo > tol and it < max_iter:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        it += 1
    x = 0.5 * (lo + hi)
    return x, f(x)


def golden_max(f, lo, hi, tol=1e-6, max_iter=200):
    x, fneg = golden_min(lambda t: -f(t), lo, hi, tol, max_iter)
    return x, -fneg


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


def expand_bracket_min(f, lo, hi, max_expand=80):
    """Grow [lo, hi] until it contains a minimizer of a coercive convex f."""
    f_lo, f_hi = f(lo), f(hi)
    mid = 0.5 * (lo + hi)
    f_mid = f(mid)
    for _ in range(max_expand):
        if f_lo > f_mid and f_hi > f_mid:
            break
        width = hi - lo
        if f_lo <= f_mid:
            lo -= 2.0 * width
            f_lo = f(lo)
        if f_hi <= f_mid:
            hi += 2.0 * width
            f_hi = f(hi)
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
    return lo, hi
