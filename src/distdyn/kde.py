"""Gaussian kernel density estimation on uniform grids.

One- and two-dimensional product-kernel estimators with Silverman
rule-of-thumb bandwidths, plus the conditional-density construction that
turns a joint estimate and its x-marginal into a row-normalized stochastic
kernel. A joint estimate and a kernel put income at t and at t + tau on
one grid, which the ergodic solve and the NTP need.

Incomes are positive, so grids are clipped at zero and every density, curve
or surface, is renormalized on its grid after evaluation by one
``from_values`` (truncation correction). Raw, pre-normalization evaluations
are available separately where point values matter.

Sample sums are accumulated in sorted order, by x and then y, in blocks of
a fixed size, so results are bitwise reproducible, independent of caller
threading and of the order of the samples: an estimate is a function of the
multiset of samples (or pairs). In the 2-D accumulation each grid entry of
a block is one BLAS dot product (``np.vecdot``, ddot) over the block's
samples, a function of its two weight rows alone. OpenBLAS runs a dot
product of this length on one thread, so the bits do not depend on the BLAS
thread count either. A matrix product (``@``, ``np.dot``, ``np.matmul``)
is not used: gemm blocks its sums by thread count. Another CPU family or
BLAS build may sum a dot product in another order, changing the last bits.

One floor keeps the weight loops off numpy's slow floating-point paths:
every Gaussian weight exp(-0.5*z*z) whose argument is below -354 (a
weight below e^-354) is 0.0, in the 1-D estimate as in the joint. ``exp``
runs on arguments clamped at the floor, so it never forms a subnormal,
nor reaches 0.0 on its slow path, and each product of two kept weights
is at least e^-708, a normal number. A dropped weight moves a raw 1-D
value by at most e^-354 / (sqrt(2*pi)*h) and a raw joint value by at most
e^-354 / (2*pi*h_x*h_y), up to rounding in the sums.

So a weight has one reach: it is 0.0 more than sqrt(2*354) = 26.6
bandwidths from its sample. A block of sorted samples spans a narrow x
range, so it computes x weights only on the rows within 26.6*h_x plus
one grid step of its x range, and y weights only on the rows within
26.6*h_y plus one grid step of its y range. Every row left out would add
an exact zero, as does a row kept that holds only zeros.

The x-marginal of a joint estimate comes from the same pass: it is the
row sum of the x weights, so :func:`joint_and_marginal` returns the joint
surface together with a marginal bitwise equal to :func:`density_1d` at
the x bandwidth.
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
_CHUNK = 32  # y rows per joint contraction step: 32 x 2048 weights stay in L2
MIN_GRID_POINTS = 16  # fewest points a Grid may have
_FLOOR = -354.0  # a weight with a smaller argument is 0.0
_REACH = float(np.sqrt(-2.0 * _FLOOR))  # 26.6: beyond, a weight is 0.0


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
class _Density:
    """Values on a grid (``ndim = 1``) or on grid x grid (``ndim = 2``) with unit
    trapezoid mass: the one validator and normalizer of both density kinds."""

    grid: Grid
    values: np.ndarray

    ndim, _noun, _kind = 1, "density", "curve"  # _noun and _kind: the nouns of its messages

    def __post_init__(self):
        v = _readonly(self.values)
        if v.shape != (self.grid.count,) * self.ndim:
            raise ValueError("values do not match the grid")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError(f"{self._noun} values must be finite and nonnegative")
        if abs(_quad.integrate(self.grid, v) - 1.0) > 1e-6:
            raise ValueError(f"{self._noun} does not integrate to 1; use from_values")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, grid: Grid, values) -> "_Density":
        """Renormalize raw nonnegative point values to unit trapezoid mass."""
        v = np.asarray(values, dtype=float)
        mass = _quad.integrate(grid, v)
        if not np.isfinite(mass) or mass <= 0:
            raise ValueError(f"cannot normalize a {cls._kind} with nonpositive mass")
        return cls(grid=grid, values=_frozen(v / mass))


@dataclass(frozen=True, eq=False)
class DensityCurve(_Density):
    """A probability density evaluated on a grid, unit trapezoid mass."""


@dataclass(frozen=True, eq=False)
class DensitySurface(_Density):
    """A joint density on grid x grid, unit 2-D trapezoid mass: ``values[i, j]``
    is the density at ``(grid.points[i], grid.points[j])``."""

    ndim = 2
    _noun = _kind = "surface"


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """Discretized conditional density of a chain on one grid: row i is the
    density over ``grid`` of income at t + tau given income ``grid.points[i]``
    at t. Rows where the conditioning marginal was too thin are flagged
    unsupported and hold zeros. Every entry is finite and nonnegative."""

    grid: Grid
    rows: np.ndarray
    supported: np.ndarray = field(default=None)

    def __post_init__(self):
        rows = _readonly(self.rows)
        if rows.shape != (self.grid.count, self.grid.count):
            raise ValueError("rows do not match the grid")
        supported = self.supported
        if supported is None:
            supported = np.ones(self.grid.count, dtype=bool)
        supported = _readonly(supported, bool)
        if supported.shape != (self.grid.count,):
            raise ValueError("support flags do not match the grid")
        if np.any(rows < 0) or not np.all(np.isfinite(rows)):
            raise ValueError("kernel entries must be finite and nonnegative")
        if np.any(rows[~supported]):
            raise ValueError("unsupported rows must hold zeros")
        masses = np.sum(rows[supported] * _quad.weights(self.grid), axis=1)
        if np.any(np.abs(masses - 1.0) > 1e-9):
            raise ValueError("supported rows must integrate to 1; use from_rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "supported", supported)

    @classmethod
    def from_rows(cls, grid: Grid, rows, supported=None) -> "StochasticKernel":
        """Row-normalize raw conditional values; zero-mass rows become
        unsupported, and every unsupported row is set to zeros."""
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (grid.count, grid.count):
            raise ValueError("rows do not match the grid")
        if supported is None:
            supported = np.ones(grid.count, dtype=bool)
        supported = np.array(supported, dtype=bool)
        # one trapezoid reduction per row, the same sum as _quad.integrate
        mass = np.zeros(grid.count)
        mass[supported] = np.sum(rows[supported] * _quad.weights(grid), axis=1)
        supported &= (mass > 0) & np.isfinite(mass)
        out = np.zeros_like(rows)
        out[supported] = rows[supported] / mass[supported, None]
        return cls(grid=grid, rows=_frozen(out), supported=_frozen(supported))

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


def _gauss(z: np.ndarray, keep=None) -> np.ndarray:
    """Overwrite z with the Gaussian weights exp(-0.5*z*z) and return it.

    A weight whose argument is below ``_FLOOR`` is 0.0; every other is
    bitwise ``np.exp(-0.5*z*z)``. ``exp`` runs on the arguments clamped at
    the floor, so it forms no subnormal, and the weights below the floor
    are then multiplied by 0.0, the others by 1.0. ``keep`` is boolean
    scratch of z's shape.
    """
    if keep is None:
        keep = np.empty(z.shape, dtype=bool)
    np.multiply(z, z, out=z)
    np.multiply(z, -0.5, out=z)
    np.greater_equal(z, _FLOOR, out=keep)
    np.maximum(z, _FLOOR, out=z)
    np.exp(z, out=z)
    return np.multiply(z, keep, out=z)


def _rows_near(grid: Grid, lo: float, hi: float, reach: float) -> slice:
    """The grid rows within ``reach`` plus one grid step of [lo, hi]."""
    pad = reach + grid.spacing
    return slice(
        int(np.searchsorted(grid.points, lo - pad, "left")),
        int(np.searchsorted(grid.points, hi + pad, "right")),
    )


def _scratch(buf: np.ndarray, rows: slice, width: int) -> np.ndarray:
    """A contiguous (rows, width) view from the first 64-byte boundary of the
    flat scratch buf (64 spare slots), so no ddot load splits a cache line."""
    n = rows.stop - rows.start
    skip = -buf.ctypes.data % 64 // buf.itemsize
    return buf[skip:skip + n * width].reshape(n, width)


def _raw_values(x, h_x: float, grid: Grid, y=None, h_y=None):
    """Raw KDE values from sums of Gaussian weights, block by block in sorted order.

    Returns ``(fx, fxy)``: ``fx`` is the 1-D KDE of x on the grid. With
    ``y`` given, ``fxy`` is the product-kernel joint KDE on grid x grid;
    otherwise it is None. Both sum the floored weights of ``_gauss``.

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
    # Samples with tied x have equal x weights, so only y can tell their orders apart.
    order = np.argsort(x)
    if y is not None and np.any(x[order[1:]] == x[order[:-1]]):
        order = np.lexsort((y, x))
    sx = np.zeros(grid.count)
    sxy = None if y is None else np.zeros((grid.count, grid.count))
    width = min(_BLOCK, x.size)
    xb, kx_buf = np.empty(width), np.empty(grid.count * width + 64)
    mask_buf = np.empty(grid.count * width + 64, dtype=bool)
    if y is not None:
        yb, ky_buf = np.empty(width), np.empty(grid.count * width + 64)
    with np.errstate(over="ignore"):  # an overflowing z, or z*z, weighs 0.0
        for start in range(0, x.size, _BLOCK):
            idx = order[start:start + _BLOCK]
            width = idx.size
            xs = np.take(x, idx, out=xb[:width])
            # xs is sorted; every x weight outside rx is 0.0
            rx = _rows_near(grid, xs[0], xs[-1], _REACH * h_x)
            kx, mx = _scratch(kx_buf, rx, width), _scratch(mask_buf, rx, width)
            np.subtract(grid.points[rx, None], xs[None, :], out=kx)
            kx /= h_x
            sx[rx] += np.sum(_gauss(kx, mx), axis=1)
            if y is None:
                continue
            ys = np.take(y, idx, out=yb[:width])
            # every y weight outside ry is 0.0
            ry = _rows_near(grid, np.min(ys), np.max(ys), _REACH * h_y)
            ky = _scratch(ky_buf, ry, width)
            np.subtract(grid.points[ry, None], ys[None, :], out=ky)
            ky /= h_y
            _gauss(ky, _scratch(mask_buf, ry, width))
            # Each entry is one ddot over the block's samples: a function of
            # its two weight rows alone, whatever the rows skipped or the
            # chunking. No gemm, which may block by BLAS thread count.
            kxa, out = kx[:, None, :], sxy[rx, ry]
            for c in range(0, ky.shape[0], _CHUNK):
                out[:, c:c + _CHUNK] += np.vecdot(kxa, ky[None, c:c + _CHUNK])
    # the weight loops form no subnormal, but a sum of weights, or of their
    # products, near the floor may scale to one: it is the estimate's value
    with np.errstate(under="ignore"):
        return sx * scale_x, None if y is None else sxy * scale_xy


def density_1d_raw(samples, h: float, grid: Grid) -> np.ndarray:
    """Gaussian KDE point values on the grid, before any renormalization.

    Value at g is (1/(n*h)) * sum_i K((g - x_i)/h) with K the standard
    normal density, with the floor of the module docstring applied to the
    weights. Samples accumulate in sorted order, so the result does not
    depend on their order. Raises NonFiniteSample for a NaN or infinite
    sample.
    """
    x = np.ascontiguousarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySamples("cannot estimate a density from zero samples")
    _check_finite("sample", x=x)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    return _raw_values(x, h, grid)[0]


@np.errstate(over="ignore")  # an overflowing sum is refused below
def _normalized(cls, raw: np.ndarray, what: str, grid: Grid):
    """``cls.from_values(grid, raw)`` for a raw estimate on the grid (1-D
    ``raw``) or on grid x grid (2-D). Every mass the value class refuses
    raises InsufficientData naming ``what`` and the grid spacing: a zero
    mass, an overflowing mass, and a mass that divides the values out of
    float range, so that they no longer integrate to 1."""
    try:
        return cls.from_values(grid, raw)
    except ValueError:
        pass
    spacing = f"spacing {grid.spacing}"
    mass = _quad.integrate(grid, raw)
    if mass == np.inf:
        raise InsufficientData(f"{what} has a mass beyond the floating-point range "
                               f"on the grid of {spacing}")
    if not mass > 0:
        raise InsufficientData(f"{what} puts no mass on the grid of {spacing}")
    raise InsufficientData(f"{what} cannot be normalized on the grid of {spacing}: "
                           f"divided by its mass {mass}, its values leave the "
                           "floating-point range")


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


def _joint_raw(pairs, bandwidths: Bandwidths, grid: Grid):
    """Raw x-marginal and raw joint values from one pass over the pairs."""
    x = np.ascontiguousarray(pairs.x, dtype=float)
    y = np.ascontiguousarray(pairs.y, dtype=float)
    if x.size == 0:
        raise EmptySamples("cannot estimate a joint density from zero pairs")
    if x.shape != y.shape:
        raise ValueError(f"pairs need as many y as x values, got {x.size} and {y.size}")
    _check_finite("pair", x=x, y=y)
    return _raw_values(x, bandwidths.h_x, grid, y, bandwidths.h_y)


def density_2d_raw(pairs, bandwidths: Bandwidths, grid: Grid) -> np.ndarray:
    """Product-kernel joint KDE point values on grid x grid, before renormalization.

    Value at (gx, gy) is (1/(n*h_x*h_y)) * sum_i K((gx-x_i)/h_x)*K((gy-y_i)/h_y),
    with the floor of the module docstring applied to the weights.
    """
    return _joint_raw(pairs, bandwidths, grid)[1]


def joint_and_marginal(
    pairs, bandwidths: Bandwidths, grid: Grid
) -> tuple[DensitySurface, DensityCurve]:
    """Joint KDE on grid x grid renormalized to unit 2-D mass, and its x-marginal.

    The marginal is the KDE of the x samples at ``h_x``, bitwise equal to
    ``density_1d(pairs.x, bandwidths.h_x, grid)``, taken from the joint
    pass. Raises InsufficientData for fewer than 2 pairs, or when either
    estimate cannot be normalized on the grid (as in :func:`density_1d`),
    and NonFiniteSample for a pair with a NaN or infinite value.
    """
    if np.asarray(pairs.x).size < 2:
        raise InsufficientData("joint estimate needs at least 2 pairs")
    raw_x, raw = _joint_raw(pairs, bandwidths, grid)
    what = f"joint KDE at bandwidths ({bandwidths.h_x}, {bandwidths.h_y})"
    return _normalized(DensitySurface, raw, what, grid), _curve(raw_x, bandwidths.h_x, grid)


def density_2d(pairs, bandwidths: Bandwidths, grid_x: Grid, grid_y: Grid) -> DensitySurface:
    """Product-kernel joint KDE renormalized to unit 2-D mass.

    The grid is passed once per axis, the form the benchmark's replay
    calls; the two must be equal, or GridMismatch is raised. Raises
    InsufficientData as :func:`joint_and_marginal` does.
    """
    if grid_x != grid_y:
        raise GridMismatch("joint KDE needs one grid for both axes (grid_x == grid_y)")
    return joint_and_marginal(pairs, bandwidths, grid_x)[0]


def conditional_density(
    joint: DensitySurface, marginal: DensityCurve, floor: float = 1e-4
) -> StochasticKernel:
    """Divide a joint density by its x-marginal to get conditional rows.

    The division is unstable where the marginal is thin, so rows at x points
    with marginal value below ``floor`` times the marginal's peak are flagged
    unsupported and excluded from downstream summaries. Retained rows are
    renormalized to unit mass.
    """
    if joint.grid != marginal.grid:
        raise GridMismatch("joint grid differs from the marginal's grid")
    if not (0 < floor < 1):
        raise ValueError(f"floor must be a small fraction in (0, 1), got {floor}")
    threshold = floor * float(np.max(marginal.values))
    supported = marginal.values >= threshold
    rows = np.zeros_like(joint.values)
    rows[supported] = joint.values[supported] / marginal.values[supported, None]
    return StochasticKernel.from_rows(joint.grid, rows, supported)
