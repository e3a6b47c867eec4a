"""Trapezoid quadrature on uniform grids.

One discretization and one integral, for curves and surfaces alike, shared
by the estimators, the evolution operator and the net-transition integrals,
so the three stay consistent. All reductions use numpy's fixed-order pairwise
summation (no BLAS), so results are bitwise identical at any caller threading.
"""

from __future__ import annotations

import numpy as np


def weights(grid) -> np.ndarray:
    """Trapezoid weights for a uniform grid: h/2 at the ends, h inside."""
    w = np.full(grid.count, grid.spacing)
    w[0] = w[-1] = 0.5 * grid.spacing
    return w


def integrate(grid, values) -> float:
    """Trapezoid integral of point values over the grid, or of a surface
    sampled on grid x grid (2-D values): each row first, then across rows."""
    w = weights(grid)
    v = np.asarray(values)
    if v.ndim == 2:
        v = np.sum(v * w, axis=1)
    return float(np.sum(w * v))


def l1_distance(grid, a, b) -> float:
    """L1 distance between two point-value arrays on a shared grid."""
    return integrate(grid, np.abs(np.asarray(a) - np.asarray(b)))


def cumulative(grid, values) -> np.ndarray:
    """Cumulative trapezoid integral along the last axis; entry k integrates
    up to point k. Each row of a 2-D array gets the same sum as on its own."""
    v = np.asarray(values, dtype=float)
    cells = 0.5 * grid.spacing * (v[..., :-1] + v[..., 1:])
    out = np.empty(v.shape)
    out[..., 0] = 0.0
    np.cumsum(cells, axis=-1, out=out[..., 1:])
    return out
