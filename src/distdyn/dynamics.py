"""Distribution dynamics on a stochastic kernel.

Three operations on a row-normalized kernel g(y|x): push a density one step
forward, iterate that push to the ergodic (long-run) density, and reduce
each row to its net transition probability

    p(x) = P(move above x) - P(stay at or below x) = 1 - 2*C(x|x),

where C(.|x) is the row's CDF. Positive p means net upward mobility at x.

A kernel maps one grid to itself, so a density evolves on its own grid and
row i's CDF is read at grid point i. Everything shares one trapezoid
discretization with the estimators, so the evolution, fixed point, and NTP
integrals are mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _quad
from .errors import GridMismatch, NoSupportedRows, NotConverged
from .kde import DensityCurve, Grid, StochasticKernel, _frozen, _readonly


@dataclass(frozen=True, eq=False)
class NTPCurve:
    """Net transition probability per grid point.

    ``values`` holds NaN at the grid points off the kernel's support (whose
    row was below the conditioning floor) and a value in [-1, 1] elsewhere.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.shape != (self.grid.count,):
            raise ValueError("values do not match the grid")
        if np.any(np.abs(v) > 1.0):  # NaN compares false, an infinity true
            raise ValueError("NTP values must be NaN or lie in [-1, 1]")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ErgodicSolution:
    """Converged long-run density with its fixed-point residual."""

    density: DensityCurve
    residual: float
    iterations: int


class _Step:
    """The forward step of one kernel, set up once and applied many times.

    Holds the trapezoid weights, the supported rows as one contiguous block
    with their weights, and one grid-length scratch buffer, so
    :meth:`apply` and :meth:`l1` allocate nothing.
    Unsupported rows are never read: they would add 0*row, and a kernel's
    entries are finite, so skipping them changes no bit.

    :meth:`apply` checks only for mass on the supported rows, which an
    input density can lack. The kernel's invariants (finite, nonnegative
    entries; unit mass on each supported row) make the image of a valid
    density finite, nonnegative and of unit integral, so callers validate
    the result once, as a ``DensityCurve``.
    """

    def __init__(self, kernel: StochasticKernel):
        if kernel.n_supported == 0:
            raise NoSupportedRows("kernel has no supported rows")
        self._sup = np.flatnonzero(kernel.supported)
        self._rows = np.ascontiguousarray(kernel.rows[self._sup])
        self._w = _quad.weights(kernel.grid)
        self._w_sup = self._w[self._sup]
        self._c = np.empty(self._sup.size)
        self._buf = np.empty(kernel.grid.count)

    def apply(self, f: np.ndarray, out: np.ndarray) -> None:
        """Write the unit-mass image of finite, nonnegative point values
        ``f`` into ``out``.

        Each sum is ``np.add.reduce``, the pairwise sum that ``np.sum``
        runs on a 1-D array, so it matches its ``_quad`` counterpart
        bitwise.
        """
        c = np.take(f, self._sup, out=self._c)
        np.multiply(self._w_sup, c, out=c)
        if np.add.reduce(c) <= 0.0:
            raise NoSupportedRows("density carries no mass on the kernel's supported rows")
        # default einsum: fixed-order C contraction, no BLAS
        np.einsum("i,iy->y", c, self._rows, out=out)
        np.divide(out, np.add.reduce(np.multiply(self._w, out, out=self._buf)), out=out)

    def l1(self, a: np.ndarray, b: np.ndarray) -> float:
        """Trapezoid L1 distance on the grid, bitwise ``_quad.l1_distance``."""
        d = np.abs(np.subtract(a, b, out=self._buf), out=self._buf)
        return float(np.add.reduce(np.multiply(self._w, d, out=d)))


def evolve(kernel: StochasticKernel, f: DensityCurve) -> DensityCurve:
    """One forward step: g(y) = integral of kernel(y|x) * f(x) dx.

    Unsupported kernel rows are excluded, and never read; the input mass is
    renormalized over the supported region (equivalently, the output is
    renormalized, which is what happens here). Output has unit trapezoid
    mass.
    """
    if f.grid != kernel.grid:
        raise GridMismatch("density grid differs from the kernel grid")
    out = np.empty(kernel.grid.count)
    _Step(kernel).apply(f.values, out)
    return DensityCurve(grid=kernel.grid, values=_frozen(out))


def ergodic_distribution(
    kernel: StochasticKernel,
    init: DensityCurve | None = None,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> ErgodicSolution:
    """Iterate `evolve` to its fixed point, the ergodic density.

    Starts from ``init`` (uniform over the grid when omitted) and stops when
    the L1 change between successive iterates is at most ``tol``. The
    iterates are `evolve` applied repeatedly, bit for bit: one step, set up
    once for the kernel, runs in place on two buffers and never reads an
    unsupported row. The returned residual is a fresh ||f - evolve(f)||_1
    at the solution. The Markov operator is L1 non-expansive, so on success
    the residual cannot exceed the final delta.

    Raises :class:`NotConverged` after ``max_iter`` steps, carrying the last
    two deltas so a stall is distinguishable from oscillation.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if init is None:
        init = DensityCurve.from_values(kernel.grid, np.ones(kernel.grid.count))
    elif init.grid != kernel.grid:
        raise GridMismatch("init grid differs from the kernel grid")
    step = _Step(kernel)
    f, nxt = np.array(init.values), np.empty(kernel.grid.count)
    deltas = (np.inf, np.inf)
    for iteration in range(1, max_iter + 1):
        step.apply(f, nxt)
        delta = step.l1(f, nxt)
        deltas = (deltas[1], delta)
        f, nxt = nxt, f
        if delta <= tol:
            step.apply(f, nxt)
            residual = step.l1(f, nxt)
            density = DensityCurve(grid=kernel.grid, values=_frozen(f))
            return ErgodicSolution(density=density, residual=residual, iterations=iteration)
    raise NotConverged(
        f"no fixed point after {max_iter} iterations; "
        f"last two L1 deltas {deltas[0]:.3e}, {deltas[1]:.3e}",
        last_deltas=deltas,
    )


def net_transition_probability(kernel: StochasticKernel) -> NTPCurve:
    """NTP at each supported x: 1 - 2*C(x) with C the row CDF at x itself.

    Equivalent to the difference of the two one-sided integrals (mass above
    x minus mass at or below x) because each row has unit mass. One
    cumulative trapezoid integral runs along every row at once; row i's CDF
    at its own x is the diagonal entry, as the kernel maps its grid to itself.
    Values are clipped to [-1, 1] against rounding; unsupported rows yield NaN.
    """
    cdf_at_x = np.diagonal(_quad.cumulative(kernel.grid, kernel.rows))
    values = np.clip(1.0 - 2.0 * cdf_at_x, -1.0, 1.0)
    values[~kernel.supported] = np.nan
    return NTPCurve(grid=kernel.grid, values=_frozen(values))


def ntp_crossings(ntp: NTPCurve) -> list[float]:
    """x locations where the NTP changes sign.

    Consecutive supported grid points bracketing a sign change contribute a
    linearly interpolated crossing; exact zeros are reported at their grid
    point. Gaps (NaN, unsupported points) break the sequence.
    """
    pts, v = ntp.grid.points, ntp.values
    out: list[float] = []
    for i in np.flatnonzero(~np.isnan(v)):
        j = i + 1
        if v[i] == 0.0:
            out.append(float(pts[i]))
        elif j < v.size and (v[i] < 0.0 < v[j] or v[j] < 0.0 < v[i]):  # false at NaN
            t = v[i] / (v[i] - v[j])
            out.append(float(pts[i] + t * (pts[j] - pts[i])))
    return out


def support_components(kernel: StochasticKernel) -> list[tuple[float, float]]:
    """Connected blocks of the supported region, as x intervals.

    Two supported grid points communicate when either row places positive
    mass at the other's location; the transitive closure partitions the
    supported set. More than one component means the kernel is effectively
    reducible and the ergodic density depends on the starting point, so the
    solver's result should be read per component. Blocks come in ascending
    order of their first point.
    """
    sup = np.flatnonzero(kernel.supported)
    if sup.size == 0:
        return []
    link = kernel.rows[np.ix_(sup, sup)] > 0.0
    link |= link.T
    # min-label propagation: each point takes the least label among itself
    # and its links, then jumps to its label's label, until nothing changes;
    # each block ends up labeled with its first point
    label = np.arange(sup.size)
    while True:
        nxt = np.minimum(label, np.where(link, label, sup.size).min(axis=1))
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    first, from_end = np.unique(label[::-1], return_index=True)
    last = sup.size - 1 - from_end
    pts = kernel.grid.points
    return list(zip(pts[sup[first]].tolist(), pts[sup[last]].tolist()))
