"""Gaussian kernel density estimation on uniform grids.

One- and two-dimensional product-kernel estimators with Silverman
rule-of-thumb bandwidths, plus the conditional-density construction that
turns a joint estimate and its x-marginal into a row-normalized stochastic
kernel.

Incomes are positive, so grids are clipped at zero and every density is
renormalized on its grid after evaluation (truncation correction). Raw,
pre-normalization evaluations are available separately where point values
matter.

Sample sums are accumulated in sorted order, by x and then y, in blocks of
a fixed size, so results are bitwise reproducible, independent of caller
threading and of the order of the samples: an estimate is a function of the
multiset of samples (or pairs). The 2-D accumulation uses ``np.einsum``
with its default non-optimized (fixed-order, BLAS-free) contraction for the
same reason.

Two rules keep the weight loops off numpy's slow floating-point paths:

- Exact zeros. ``exp`` of any argument below -746 rounds to 0.0, but numpy
  reaches that 0.0 on a slow path. A Gaussian weight exp(-0.5*z*z) is
  evaluated only where its argument is at least -746 and is written as 0.0
  elsewhere, the value ``exp`` would return, so 1-D estimates keep every
  bit.
- A floor on joint weights. Before the 2-D contraction, each weight whose
  argument is below -354 (a weight below e^-354) is set to zero. Each
  product of two kept weights is then at least e^-708, a normal number, so
  the contraction never forms a slow subnormal product. A dropped product
  is below e^-354, so a raw joint value moves by at most
  e^-354 / (2*pi*h_x*h_y), about 2.9e-155 / (h_x*h_y), up to rounding in
  the sums. Grid rows left without any weight in a block add only zeros
  and are skipped in that block's contraction.

So a weight has two reach radii: it is exactly 0.0 more than
sqrt(2*746) = 38.6 bandwidths from its sample, and a joint weight is
dropped more than sqrt(2*354) = 26.6 bandwidths away. A block of sorted
samples spans a narrow x range, so it computes x weights only on the rows
within 38.6*h_x plus one grid step of its x range, and y weights only on
the rows within 26.6*h_y plus one grid step of its y range. Every row left
out would add an exact zero.

The x-marginal of a joint estimate comes from the same pass: it is the
row sum of the exact x weights, taken before the floor, so
:func:`joint_and_marginal` returns the joint surface together with a
marginal bitwise equal to :func:`density_1d` at the x bandwidth.
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
    NonFiniteSample,
    ZeroSpread,
)

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_BLOCK = 2048  # samples per accumulation block; fixed so sums are reproducible
MIN_GRID_POINTS = 16  # fewest points a Grid may have
_EXP_UNDERFLOW = -746.0  # exp of any smaller argument rounds to 0.0
_JOINT_FLOOR = -354.0  # joint weights with a smaller argument are dropped
_JOINT_MIN_WEIGHT = float(np.exp(_JOINT_FLOOR))
_REACH = float(np.sqrt(-2.0 * _EXP_UNDERFLOW))  # 38.6: beyond, a weight is 0.0
_JOINT_REACH = float(np.sqrt(-2.0 * _JOINT_FLOOR))  # 26.6: beyond, a joint weight is dropped


def _readonly(a, dtype=float) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``, so a caller's own buffer is
    never frozen or shared.

    An array that is already read-only and owns its memory is taken as it
    is: nobody else can write to it. Constructors that just made a buffer
    hand it over that way, by freezing it first (see :func:`_frozen`).
    """
    if not (
        isinstance(a, np.ndarray) and a.dtype == dtype and a.base is None
        and not a.flags.writeable and a.flags.c_contiguous
    ):
        a = np.array(a, dtype=dtype, order="C")
        a.flags.writeable = False
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """Clear the write flag on a buffer the caller just made, and return it."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """``count`` evenly spaced points from ``lower`` to ``upper``, both included.

    ``points`` is the read-only ``np.linspace(lower, upper, count)``. Grids
    compare and hash by (lower, upper, count). Raises DegenerateGrid for
    fewer than ``MIN_GRID_POINTS`` points, or unless upper > lower, a finite span apart.
    """

    lower: float
    upper: float
    count: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.count < MIN_GRID_POINTS:
            raise DegenerateGrid(f"grid needs at least {MIN_GRID_POINTS} points, got {self.count}")
        if not (np.isfinite(self.upper - self.lower) and self.upper > self.lower):
            raise DegenerateGrid(f"grid bounds must be finite with upper > lower, "
                                 f"got [{self.lower}, {self.upper}]")
        object.__setattr__(self, "points", _frozen(np.linspace(self.lower, self.upper, self.count)))

    @classmethod
    def uniform(cls, lower: float, upper: float, count: int) -> "Grid":
        return cls(float(lower), float(upper), int(count))

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.count - 1)


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
        v = _readonly(self.values)
        if v.shape != (self.grid.count,):
            raise ValueError("values do not match the grid")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite and nonnegative")
        if abs(_quad.integrate(self.grid, v) - 1.0) > 1e-6:
            raise ValueError("density does not integrate to 1; use from_values")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, grid: Grid, values) -> "DensityCurve":
        """Renormalize raw nonnegative point values to unit trapezoid mass."""
        v = np.asarray(values, dtype=float)
        mass = _quad.integrate(grid, v)
        if not np.isfinite(mass) or mass <= 0:
            raise ValueError("cannot normalize a curve with nonpositive mass")
        return cls(grid=grid, values=_frozen(v / mass))

    def integral(self) -> float:
        return _quad.integrate(self.grid, self.values)


@dataclass(frozen=True, eq=False)
class DensitySurface:
    """A joint density on a grid pair, unit 2-D trapezoid mass."""

    grid_x: Grid
    grid_y: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.shape != (self.grid_x.count, self.grid_y.count):
            raise ValueError("values do not match the grid pair")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("surface values must be finite and nonnegative")
        if abs(_quad.integrate_2d(self.grid_x, self.grid_y, v) - 1.0) > 1e-6:
            raise ValueError("surface does not integrate to 1; use from_values")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, grid_x: Grid, grid_y: Grid, values) -> "DensitySurface":
        v = np.asarray(values, dtype=float)
        mass = _quad.integrate_2d(grid_x, grid_y, v)
        if not np.isfinite(mass) or mass <= 0:
            raise ValueError("cannot normalize a surface with nonpositive mass")
        return cls(grid_x=grid_x, grid_y=grid_y, values=_frozen(v / mass))

    def integral(self) -> float:
        return _quad.integrate_2d(self.grid_x, self.grid_y, self.values)


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """Discretized conditional density: one row (a density over grid_y) per
    x grid point. Rows where the conditioning marginal was too thin are
    flagged unsupported and hold zeros. Every entry is finite and
    nonnegative."""

    grid_x: Grid
    grid_y: Grid
    rows: np.ndarray
    supported: np.ndarray = field(default=None)

    def __post_init__(self):
        rows = _readonly(self.rows)
        if rows.shape != (self.grid_x.count, self.grid_y.count):
            raise ValueError("rows do not match the grid pair")
        supported = self.supported
        if supported is None:
            supported = np.ones(self.grid_x.count, dtype=bool)
        supported = _readonly(supported, bool)
        if supported.shape != (self.grid_x.count,):
            raise ValueError("support flags do not match grid_x")
        if np.any(rows < 0) or not np.all(np.isfinite(rows)):
            raise ValueError("kernel entries must be finite and nonnegative")
        masses = np.sum(rows[supported] * _quad.weights(self.grid_y), axis=1)
        if np.any(np.abs(masses - 1.0) > 1e-9):
            raise ValueError("supported rows must integrate to 1; use from_rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "supported", supported)

    @classmethod
    def from_rows(cls, grid_x: Grid, grid_y: Grid, rows, supported=None) -> "StochasticKernel":
        """Row-normalize raw conditional values; zero-mass rows become unsupported."""
        rows = np.asarray(rows, dtype=float)
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
        return cls(grid_x=grid_x, grid_y=grid_y, rows=_frozen(out), supported=_frozen(supported))

    @property
    def n_supported(self) -> int:
        return int(np.count_nonzero(self.supported))


def _check_finite(what: str, **axes: np.ndarray) -> None:
    """Raise NonFiniteSample naming the first index with a NaN or infinity."""
    ok = np.logical_and.reduce([np.isfinite(a) for a in axes.values()])
    if not ok.all():
        i = int(np.argmin(ok))
        values = ", ".join(f"{name}={a[i]}" for name, a in axes.items())
        raise NonFiniteSample(f"KDE {what} {i} is not finite ({values})")


def silverman_bandwidth(samples, dimensions: int = 1) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/(4+d)).

    Sample standard deviation uses the n-1 denominator; quartiles use linear
    interpolation between order statistics. ``dimensions`` selects the
    exponent: -1/5 for a univariate estimate, -1/6 per axis of a bivariate
    product kernel. Raises NonFiniteSample for a NaN or infinite sample.
    """
    x = np.asarray(samples, dtype=float)
    if dimensions not in (1, 2):
        raise ValueError(f"dimensions must be 1 or 2, got {dimensions}")
    n = x.size
    if n < 2:
        raise InsufficientData(f"bandwidth needs at least 2 samples, got {n}")
    _check_finite("sample", x=x)
    sd = float(np.std(x, ddof=1))
    q25, q75 = np.percentile(x, [25.0, 75.0])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0:
        raise ZeroSpread("sample has no spread; cannot pick a bandwidth")
    return 0.9 * spread * n ** (-1.0 / (4 + dimensions))


def _gauss(z: np.ndarray, cutoff: float = _EXP_UNDERFLOW, mask=None) -> np.ndarray:
    """Overwrite z with the Gaussian weights exp(-0.5*z*z) and return it.

    ``exp`` runs only where its argument is at least ``cutoff``; elsewhere
    the weight is 0.0. At the default cutoff that is bitwise
    ``np.exp(-0.5*z*z)``. ``mask`` is boolean scratch of z's shape.
    """
    if mask is None:
        mask = np.empty(z.shape, dtype=bool)
    np.multiply(z, z, out=z)
    np.multiply(z, -0.5, out=z)
    np.greater_equal(z, cutoff, out=mask)
    np.exp(z, out=z, where=mask)
    # the arguments left in place are negative; a weight is never below 0.0
    return np.maximum(z, 0.0, out=z)


def _reached(k: np.ndarray) -> slice:
    """The rows from the first to the last that hold a nonzero weight."""
    rows = np.flatnonzero(np.any(k, axis=1))
    return slice(rows[0], rows[-1] + 1) if rows.size else slice(0, 0)


def _rows_near(grid: Grid, lo: float, hi: float, reach: float) -> slice:
    """The grid rows within ``reach`` plus one grid step of [lo, hi]."""
    pad = reach + grid.spacing
    return slice(
        int(np.searchsorted(grid.points, lo - pad, "left")),
        int(np.searchsorted(grid.points, hi + pad, "right")),
    )


def _scratch(buf: np.ndarray, rows: slice, width: int) -> np.ndarray:
    """A contiguous (rows, width) view at the start of the flat scratch buf."""
    n = rows.stop - rows.start
    return buf[:n * width].reshape(n, width)


def _raw_values(x, h_x: float, grid_x: Grid, y=None, h_y=None, grid_y: Grid | None = None):
    """Raw KDE values from sums of Gaussian weights, block by block in sorted order.

    Returns ``(fx, fxy)``: ``fx`` is the 1-D KDE of x on grid_x from the
    exact weights. With ``y`` given, ``fxy`` is the product-kernel joint
    KDE on the grid pair from the floored weights; otherwise it is None.

    A z = (g - x)/h, or z*z, that overflows at a tiny bandwidth weighs 0.0,
    as any z beyond the reach does. Raises InsufficientData, before any
    sum, when the scale 1/(n*h_x) or 1/(n*h_x*h_y) is zero or not finite.
    """
    with np.errstate(over="ignore", divide="ignore"):
        scale_x = _INV_SQRT_2PI / (x.size * h_x)
        scale_xy = None if y is None else _INV_SQRT_2PI * _INV_SQRT_2PI / (x.size * h_x * h_y)
    if not all(0 < s < np.inf for s in (scale_x, scale_xy) if s is not None):
        what = f"KDE at bandwidth {h_x}" if y is None else f"joint KDE at bandwidths ({h_x}, {h_y})"
        raise InsufficientData(f"{what} puts no mass on the grid: its scale, 1 over n = {x.size} "
                               "times the bandwidths, is out of floating-point range")
    order = np.argsort(x, kind="stable") if y is None else np.lexsort((y, x))
    sx = np.zeros(grid_x.count)
    sxy = None if y is None else np.zeros((grid_x.count, grid_y.count))
    width = min(_BLOCK, x.size)
    rows = grid_x.count if y is None else max(grid_x.count, grid_y.count)
    xb, kx_buf = np.empty(width), np.empty(grid_x.count * width)
    mask_buf = np.empty(rows * width, dtype=bool)
    if y is not None:
        yb, ky_buf = np.empty(width), np.empty(grid_y.count * width)
    with np.errstate(over="ignore"):  # an overflowing z, or z*z, weighs 0.0
        for start in range(0, x.size, _BLOCK):
            idx = order[start:start + _BLOCK]
            width = idx.size
            xs = np.take(x, idx, out=xb[:width])
            # xs is sorted; every x weight outside rx is exactly 0.0
            rx = _rows_near(grid_x, xs[0], xs[-1], _REACH * h_x)
            kx, mx = _scratch(kx_buf, rx, width), _scratch(mask_buf, rx, width)
            np.subtract(grid_x.points[rx, None], xs[None, :], out=kx)
            kx /= h_x
            sx[rx] += np.sum(_gauss(kx, mask=mx), axis=1)
            if y is None:
                continue
            np.less(kx, _JOINT_MIN_WEIGHT, out=mx)
            np.putmask(kx, mx, 0.0)
            ys = np.take(y, idx, out=yb[:width])
            # every y weight outside ry is below the joint floor
            ry = _rows_near(grid_y, np.min(ys), np.max(ys), _JOINT_REACH * h_y)
            ky = _scratch(ky_buf, ry, width)
            np.subtract(grid_y.points[ry, None], ys[None, :], out=ky)
            ky /= h_y
            _gauss(ky, _JOINT_FLOOR, _scratch(mask_buf, ry, width))
            # default einsum: fixed-order C contraction, no BLAS. Skipping rows
            # without weight leaves each kept entry the same dot product.
            ax, ay = _reached(kx), _reached(ky)
            sxy[rx, ry][ax, ay] += np.einsum("xi,yi->xy", kx[ax], ky[ay])
    fx = sx * scale_x
    if y is None:
        return fx, None
    return fx, sxy * scale_xy


def density_1d_raw(samples, h: float, grid: Grid) -> np.ndarray:
    """Gaussian KDE point values on the grid, before any renormalization.

    Value at g is (1/(n*h)) * sum_i K((g - x_i)/h) with K the standard
    normal density. Samples accumulate in sorted order, so the result does
    not depend on their order. Raises NonFiniteSample for a NaN or
    infinite sample.
    """
    x = np.ascontiguousarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySamples("cannot estimate a density from zero samples")
    _check_finite("sample", x=x)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    return _raw_values(x, h, grid)[0]


@np.errstate(over="ignore")  # an overflowing sum is refused below
def _normalized(cls, raw: np.ndarray, what: str, *grids: Grid):
    """``cls.from_values(*grids, raw)`` for a raw estimate on one grid or a
    grid pair. Every mass the value class refuses raises InsufficientData
    naming ``what`` and the grid spacings: a zero mass, an overflowing mass,
    and a mass that divides the values out of float range, so that they no
    longer integrate to 1."""
    one = len(grids) == 1
    spacing = (f"spacing {grids[0].spacing}" if one
               else f"spacings ({grids[0].spacing}, {grids[1].spacing})")
    mass = (_quad.integrate if one else _quad.integrate_2d)(*grids, raw)
    if mass == np.inf:
        raise InsufficientData(f"{what} has a mass beyond the floating-point range "
                               f"on the grid of {spacing}")
    if not mass > 0:
        raise InsufficientData(f"{what} puts no mass on the grid of {spacing}")
    try:
        return cls.from_values(*grids, raw)
    except ValueError:
        raise InsufficientData(f"{what} cannot be normalized on the grid of {spacing}: "
                               f"divided by its mass {mass}, its values leave the "
                               "floating-point range") from None


def _curve(raw: np.ndarray, h: float, grid: Grid) -> DensityCurve:
    return _normalized(DensityCurve, raw, f"KDE at bandwidth {h}", grid)


def density_1d(samples, h: float, grid: Grid) -> DensityCurve:
    """Gaussian KDE renormalized to unit mass on the grid.

    Raises InsufficientData when the estimate cannot be normalized on the
    grid: its mass there is zero, as with a bandwidth far below the grid
    spacing, or out of floating-point range. Raises NonFiniteSample for a
    NaN or infinite sample.
    """
    return _curve(density_1d_raw(samples, h, grid), h, grid)


def _joint_raw(pairs, bandwidths: Bandwidths, grid_x: Grid, grid_y: Grid):
    """Raw x-marginal and raw joint values from one pass over the pairs."""
    x = np.ascontiguousarray(pairs.x, dtype=float)
    y = np.ascontiguousarray(pairs.y, dtype=float)
    if x.size == 0:
        raise EmptySamples("cannot estimate a joint density from zero pairs")
    if x.shape != y.shape:
        raise ValueError(f"pairs need as many y as x values, got {x.size} and {y.size}")
    _check_finite("pair", x=x, y=y)
    return _raw_values(x, bandwidths.h_x, grid_x, y, bandwidths.h_y, grid_y)


def density_2d_raw(pairs, bandwidths: Bandwidths, grid_x: Grid, grid_y: Grid) -> np.ndarray:
    """Product-kernel joint KDE point values, before renormalization.

    Value at (gx, gy) is (1/(n*h_x*h_y)) * sum_i K((gx-x_i)/h_x)*K((gy-y_i)/h_y),
    with the joint floor of the module docstring applied to the weights.
    """
    return _joint_raw(pairs, bandwidths, grid_x, grid_y)[1]


def joint_and_marginal(
    pairs, bandwidths: Bandwidths, grid_x: Grid, grid_y: Grid
) -> tuple[DensitySurface, DensityCurve]:
    """Joint KDE renormalized to unit 2-D mass, and its x-marginal.

    The marginal is the KDE of the x samples at ``h_x``, bitwise equal to
    ``density_1d(pairs.x, bandwidths.h_x, grid_x)``, taken from the joint
    pass. Raises InsufficientData for fewer than 2 pairs, or when either
    estimate cannot be normalized on its grid (as in :func:`density_1d`),
    and NonFiniteSample for a pair with a NaN or infinite value.
    """
    if np.asarray(pairs.x).size < 2:
        raise InsufficientData("joint estimate needs at least 2 pairs")
    raw_x, raw = _joint_raw(pairs, bandwidths, grid_x, grid_y)
    what = f"joint KDE at bandwidths ({bandwidths.h_x}, {bandwidths.h_y})"
    joint = _normalized(DensitySurface, raw, what, grid_x, grid_y)
    return joint, _curve(raw_x, bandwidths.h_x, grid_x)


def density_2d(pairs, bandwidths: Bandwidths, grid_x: Grid, grid_y: Grid) -> DensitySurface:
    """Product-kernel joint KDE renormalized to unit 2-D mass.

    Raises InsufficientData for fewer than 2 pairs, or when the estimate
    cannot be normalized on the grid pair.
    """
    return joint_and_marginal(pairs, bandwidths, grid_x, grid_y)[0]


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
