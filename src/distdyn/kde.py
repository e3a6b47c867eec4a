"""Gaussian kernel density estimation on uniform grids.

One- and two-dimensional product-kernel estimators with Silverman
rule-of-thumb bandwidths, plus the conditional-density construction that
turns a joint estimate and its x-marginal into a row-normalized stochastic
kernel.

Incomes are positive, so grids are clipped at zero and every density is
renormalized on its grid after evaluation (truncation correction). Raw,
pre-normalization evaluations are available separately where point values
matter.

Sample sums are accumulated in input order in fixed-size blocks, so results
are bitwise reproducible and independent of caller threading. The 2-D
accumulation uses ``np.einsum`` with its default non-optimized (fixed-order,
BLAS-free) contraction for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _quad
from .errors import (
    DegenerateGrid,
    EmptySamples,
    GridMismatch,
    InsufficientData,
    ZeroSpread,
)

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_BLOCK = 4096  # samples per accumulation block; fixed so sums are reproducible
MIN_GRID_POINTS = 16  # fewest points a Grid may have


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniformly spaced evaluation grid."""

    points: np.ndarray
    lower: float
    upper: float
    count: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if self.count < MIN_GRID_POINTS:
            raise DegenerateGrid(f"grid needs at least {MIN_GRID_POINTS} points, got {self.count}")
        if pts.shape != (self.count,):
            raise DegenerateGrid("point array does not match declared count")
        if not np.all(np.isfinite(pts)) or not self.upper > self.lower:
            raise DegenerateGrid(
                f"grid bounds must be finite with upper > lower, got [{self.lower}, {self.upper}]"
            )
        step = (self.upper - self.lower) / (self.count - 1)
        if not np.allclose(np.diff(pts), step, rtol=1e-12, atol=1e-12 * abs(step)):
            raise DegenerateGrid("grid spacing is not uniform")
        object.__setattr__(self, "points", _readonly(pts))

    @classmethod
    def uniform(cls, lower: float, upper: float, count: int) -> "Grid":
        if count < MIN_GRID_POINTS:
            raise DegenerateGrid(f"grid needs at least {MIN_GRID_POINTS} points, got {count}")
        pts = np.linspace(lower, upper, count)
        return cls(points=pts, lower=float(lower), upper=float(upper), count=int(count))

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.count - 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.count == other.count
            and np.array_equal(self.points, other.points)
        )

    def __hash__(self):
        return hash((self.lower, self.upper, self.count))


@dataclass(frozen=True)
class Bandwidths:
    """Kernel bandwidths for the x and y axes of a joint estimate."""

    h_x: float
    h_y: float

    def __post_init__(self):
        if not (self.h_x > 0 and self.h_y > 0):
            raise ValueError(f"bandwidths must be positive, got {self.h_x}, {self.h_y}")


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """A probability density evaluated on a grid, unit trapezoid mass."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.count,):
            raise ValueError("values do not match the grid")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite and nonnegative")
        if abs(_quad.integrate(self.grid, v) - 1.0) > 1e-6:
            raise ValueError("density does not integrate to 1; use from_values")
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def from_values(cls, grid: Grid, values) -> "DensityCurve":
        """Renormalize raw nonnegative point values to unit trapezoid mass."""
        v = np.asarray(values, dtype=float)
        mass = _quad.integrate(grid, v)
        if not np.isfinite(mass) or mass <= 0:
            raise ValueError("cannot normalize a curve with nonpositive mass")
        return cls(grid=grid, values=v / mass)

    def integral(self) -> float:
        return _quad.integrate(self.grid, self.values)


@dataclass(frozen=True, eq=False)
class DensitySurface:
    """A joint density on a grid pair, unit 2-D trapezoid mass."""

    grid_x: Grid
    grid_y: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid_x.count, self.grid_y.count):
            raise ValueError("values do not match the grid pair")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("surface values must be finite and nonnegative")
        if abs(_quad.integrate_2d(self.grid_x, self.grid_y, v) - 1.0) > 1e-6:
            raise ValueError("surface does not integrate to 1; use from_values")
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def from_values(cls, grid_x: Grid, grid_y: Grid, values) -> "DensitySurface":
        v = np.asarray(values, dtype=float)
        mass = _quad.integrate_2d(grid_x, grid_y, v)
        if not np.isfinite(mass) or mass <= 0:
            raise ValueError("cannot normalize a surface with nonpositive mass")
        return cls(grid_x=grid_x, grid_y=grid_y, values=v / mass)

    def integral(self) -> float:
        return _quad.integrate_2d(self.grid_x, self.grid_y, self.values)


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """Discretized conditional density: one row (a density over grid_y) per
    x grid point. Rows where the conditioning marginal was too thin are
    flagged unsupported and hold zeros."""

    grid_x: Grid
    grid_y: Grid
    rows: np.ndarray
    supported: np.ndarray = field(default=None)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape != (self.grid_x.count, self.grid_y.count):
            raise ValueError("rows do not match the grid pair")
        supported = self.supported
        if supported is None:
            supported = np.ones(self.grid_x.count, dtype=bool)
        supported = np.asarray(supported, dtype=bool)
        if supported.shape != (self.grid_x.count,):
            raise ValueError("support flags do not match grid_x")
        masses = np.sum(rows[supported] * _quad.weights(self.grid_y), axis=1)
        if np.any(np.abs(masses - 1.0) > 1e-9):
            raise ValueError("supported rows must integrate to 1; use from_rows")
        object.__setattr__(self, "rows", _readonly(rows))
        sup = np.ascontiguousarray(supported)
        sup.flags.writeable = False
        object.__setattr__(self, "supported", sup)

    @classmethod
    def from_rows(cls, grid_x: Grid, grid_y: Grid, rows, supported=None) -> "StochasticKernel":
        """Row-normalize raw conditional values; zero-mass rows become unsupported."""
        rows = np.array(rows, dtype=float)
        if rows.shape != (grid_x.count, grid_y.count):
            raise ValueError("rows do not match the grid pair")
        if supported is None:
            supported = np.ones(grid_x.count, dtype=bool)
        supported = np.array(supported, dtype=bool)
        # one trapezoid reduction per row, the same sum as _quad.integrate
        mass = np.zeros(grid_x.count)
        mass[supported] = np.sum(rows[supported] * _quad.weights(grid_y), axis=1)
        supported &= (mass > 0) & np.isfinite(mass)
        out = np.zeros_like(rows)
        out[supported] = rows[supported] / mass[supported, None]
        return cls(grid_x=grid_x, grid_y=grid_y, rows=out, supported=supported)

    @property
    def n_supported(self) -> int:
        return int(np.count_nonzero(self.supported))


def silverman_bandwidth(samples, dimensions: int = 1) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/(4+d)).

    Sample standard deviation uses the n-1 denominator; quartiles use linear
    interpolation between order statistics. ``dimensions`` selects the
    exponent: -1/5 for a univariate estimate, -1/6 per axis of a bivariate
    product kernel.
    """
    x = np.asarray(samples, dtype=float)
    if dimensions not in (1, 2):
        raise ValueError(f"dimensions must be 1 or 2, got {dimensions}")
    n = x.size
    if n < 2:
        raise InsufficientData(f"bandwidth needs at least 2 samples, got {n}")
    sd = float(np.std(x, ddof=1))
    q25, q75 = np.percentile(x, [25.0, 75.0])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0:
        raise ZeroSpread("sample has no spread; cannot pick a bandwidth")
    return 0.9 * spread * n ** (-1.0 / (4 + dimensions))


def density_1d_raw(samples, h: float, grid: Grid) -> np.ndarray:
    """Gaussian KDE point values on the grid, before any renormalization.

    Value at g is (1/(n*h)) * sum_i K((g - x_i)/h) with K the standard
    normal density. Samples accumulate in input order.
    """
    x = np.ascontiguousarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySamples("cannot estimate a density from zero samples")
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    out = np.zeros(grid.count)
    pts = grid.points[:, None]
    for start in range(0, x.size, _BLOCK):
        z = (pts - x[None, start:start + _BLOCK]) / h
        out += np.sum(np.exp(-0.5 * z * z), axis=1)
    return out * (_INV_SQRT_2PI / (x.size * h))


def density_1d(samples, h: float, grid: Grid) -> DensityCurve:
    """Gaussian KDE renormalized to unit mass on the grid.

    Raises InsufficientData when the estimate has no positive finite mass
    on the grid, as with a bandwidth far below the grid spacing.
    """
    raw = density_1d_raw(samples, h, grid)
    mass = _quad.integrate(grid, raw)
    if not (np.isfinite(mass) and mass > 0):
        raise InsufficientData(
            f"KDE at bandwidth {h} puts no mass on the grid of spacing {grid.spacing}"
        )
    return DensityCurve.from_values(grid, raw)


def density_2d_raw(pairs, bandwidths: Bandwidths, grid_x: Grid, grid_y: Grid) -> np.ndarray:
    """Product-kernel joint KDE point values, before renormalization.

    Value at (gx, gy) is (1/(n*h_x*h_y)) * sum_i K((gx-x_i)/h_x)*K((gy-y_i)/h_y).
    """
    x = np.ascontiguousarray(pairs.x, dtype=float)
    y = np.ascontiguousarray(pairs.y, dtype=float)
    if x.size == 0:
        raise EmptySamples("cannot estimate a joint density from zero pairs")
    out = np.zeros((grid_x.count, grid_y.count))
    gx = grid_x.points[:, None]
    gy = grid_y.points[:, None]
    for start in range(0, x.size, _BLOCK):
        zx = (gx - x[None, start:start + _BLOCK]) / bandwidths.h_x
        zy = (gy - y[None, start:start + _BLOCK]) / bandwidths.h_y
        kx = np.exp(-0.5 * zx * zx)
        ky = np.exp(-0.5 * zy * zy)
        # default einsum: fixed-order C contraction, no BLAS
        out += np.einsum("xi,yi->xy", kx, ky)
    norm = _INV_SQRT_2PI * _INV_SQRT_2PI / (x.size * bandwidths.h_x * bandwidths.h_y)
    return out * norm


def density_2d(pairs, bandwidths: Bandwidths, grid_x: Grid, grid_y: Grid) -> DensitySurface:
    """Product-kernel joint KDE renormalized to unit 2-D mass.

    Raises InsufficientData for fewer than 2 pairs, or when the estimate has
    no positive finite mass on the grid pair.
    """
    if np.asarray(pairs.x).size < 2:
        raise InsufficientData("joint estimate needs at least 2 pairs")
    raw = density_2d_raw(pairs, bandwidths, grid_x, grid_y)
    mass = _quad.integrate_2d(grid_x, grid_y, raw)
    if not (np.isfinite(mass) and mass > 0):
        raise InsufficientData(
            f"joint KDE at bandwidths ({bandwidths.h_x}, {bandwidths.h_y}) puts no mass "
            f"on the grid of spacings ({grid_x.spacing}, {grid_y.spacing})"
        )
    return DensitySurface.from_values(grid_x, grid_y, raw)


def conditional_density(
    joint: DensitySurface, marginal: DensityCurve, floor: float = 1e-4
) -> StochasticKernel:
    """Divide a joint density by its x-marginal to get conditional rows.

    The division is unstable where the marginal is thin, so rows at x points
    with marginal value below ``floor`` times the marginal's peak are flagged
    unsupported and excluded from downstream summaries. Retained rows are
    renormalized to unit mass.
    """
    if joint.grid_x != marginal.grid:
        raise GridMismatch("joint x-grid differs from the marginal's grid")
    if not (0 < floor < 1):
        raise ValueError(f"floor must be a small fraction in (0, 1), got {floor}")
    threshold = floor * float(np.max(marginal.values))
    supported = marginal.values >= threshold
    rows = np.zeros_like(joint.values)
    rows[supported] = joint.values[supported] / marginal.values[supported, None]
    return StochasticKernel.from_rows(joint.grid_x, joint.grid_y, rows, supported)
