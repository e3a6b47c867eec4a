"""Distribution dynamics on a stochastic kernel.

Three operations on a row-normalized kernel g(y|x): push a density one step
forward, solve for the ergodic (long-run) density that repeated pushes reach,
and reduce each row to its net transition probability

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
    """Converged long-run density with its fixed-point residual, the error
    bound its solve stopped on (an estimate of the L1 distance to the exact
    fixed point) and the number of solves it took."""

    density: DensityCurve
    residual: float
    error_bound: float
    iterations: int


def _push(kernel: StochasticKernel, f: np.ndarray) -> np.ndarray:
    """The unit-mass forward step of finite, nonnegative point values ``f``.

    Unsupported rows weigh 0.0, and a kernel's entries are finite, so they
    add exact zeros. Only mass on the supported rows is checked: the
    kernel's invariants (finite, nonnegative entries; unit mass on each
    supported row) make the image of a valid density finite, nonnegative
    and of unit integral, so callers validate the result once, as a
    ``DensityCurve``.
    """
    if kernel.n_supported == 0:
        raise NoSupportedRows("kernel has no supported rows")
    c = _quad.weights(kernel.grid) * f * kernel.supported
    if np.sum(c) <= 0.0:
        raise NoSupportedRows("density carries no mass on the kernel's supported rows")
    out = np.einsum("i,iy->y", c, kernel.rows)  # default einsum: fixed-order C loop, no BLAS
    return out / _quad.integrate(kernel.grid, out)


def evolve(kernel: StochasticKernel, f: DensityCurve) -> DensityCurve:
    """One forward step: g(y) = integral of kernel(y|x) * f(x) dx.

    Unsupported kernel rows are excluded: they weigh 0.0 and add exact
    zeros. The input mass is renormalized over the supported region
    (equivalently, the output is renormalized, which is what happens here).
    Output has unit trapezoid mass.
    """
    if f.grid != kernel.grid:
        raise GridMismatch("density grid differs from the kernel grid")
    return DensityCurve(grid=kernel.grid, values=_frozen(_push(kernel, f.values)))


# sigma of the shifted inverse iteration: above every Perron root (a kernel
# row has unit mass, so no root exceeds 1), close enough to the demo's
# roots (1 - 5e-6) that each solve shrinks the other modes about 500-fold
_SHIFT = 1.0 + 1e-5
# the least error bound: the rounding of a unit-mass density's values, in L1
_EPS = float(np.finfo(float).eps)
# the rounding floor of a component of m points is m times this: an entry of
# a length-m substitution adds at most m nonnegative terms, so iterates that
# differ by rounding alone lie within a few m*eps of each other in L1 (the
# demo groups at G=16 to 512 settle at 1.4*eps or less)
_FLOOR = 8.0 * _EPS


def _factor(rows: np.ndarray, block: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Doolittle LU of sigma*I - M^T for one support component, M = diag(w) K,
    as one m x m array: L below the diagonal (its unit diagonal not stored)
    and U on and above it.

    sigma*I - M^T is a nonsingular M-matrix (sigma exceeds the Perron root
    of M), so elimination needs no pivoting. Every multiplier and every
    off-diagonal of U is nonpositive, and :func:`_substitute` of a
    nonnegative right-hand side adds nonnegative terms only. The factor is
    built row by row (Crout order), with U's transpose as the one other
    array while it runs. Every sum is an ``np.vecdot`` row, a dot product
    that OpenBLAS runs on one thread at these lengths: no LAPACK call or
    matrix product, whose sums could split by the BLAS thread count.
    """
    m = block.size
    lu = np.empty((m, m))  # -M^T: lu[y, i] = -w_i K(i, y), factored in place
    np.multiply(rows[np.ix_(block, block)].T, -w, out=lu)
    lu[np.diag_indices(m)] += _SHIFT
    ut = np.zeros((m, m))  # U transposed, so U's columns are rows here
    for k in range(m):
        ut[k:, k] = lu[k, k:] - np.vecdot(ut[k:, :k], lu[k, :k])
        lu[k, k:] = ut[k:, k]  # row k of A above the diagonal is read no more
        lu[k + 1:, k] -= np.vecdot(lu[k + 1:, :k], ut[k, :k])
        lu[k + 1:, k] /= ut[k, k]
    return lu


def _substitute(lu: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(sigma*I - M^T)^-1 b for the factor ``lu`` of :func:`_factor`: forward
    substitution through L, then back substitution through U, one row at a
    time, each sum one ``np.vecdot``."""
    x = np.array(b, dtype=float)
    for k in range(x.size):
        x[k] -= np.vecdot(lu[k, :k], x[:k])
    for k in range(x.size - 1, -1, -1):
        x[k] = (x[k] - np.vecdot(lu[k, k + 1:], x[k + 1:])) / lu[k, k]
    return x


def _solve_component(
    kernel: StochasticKernel, block: np.ndarray, start: np.ndarray, tol: float, max_iter: int,
) -> tuple[np.ndarray, float, int]:
    """Inverse iteration on one support component, from ``start``.

    Returns the unit-mass full-grid density, its error bound and the number
    of solves. Each iterate is mapped to the full grid by one forward step,
    so it carries the leak onto unsupported points the way ``evolve`` does.
    """
    lu = _factor(kernel.rows, block, _quad.weights(kernel.grid)[block])
    floor = _FLOOR * block.size
    x = start[block]
    v = np.zeros(kernel.grid.count)
    f = start
    deltas = (np.inf, np.inf)
    for solves in range(1, max_iter + 1):
        x = _substitute(lu, x)
        x /= np.sum(x)  # the scale only; keeps x finite
        v[block] = x
        nxt = _push(kernel, v)
        delta = _quad.l1_distance(kernel.grid, f, nxt)
        deltas = (deltas[1], delta)
        f = nxt
        if solves < 3:  # the first delta starts from `start`, not an iterate
            continue
        if delta < deltas[0]:  # steps shrinking by r from here on sum to delta/(1 - r)
            bound = max(delta / (1.0 - delta / deltas[0]), _EPS)
        elif delta <= floor:  # the iterates move by rounding alone, about delta
            bound = max(delta, _EPS)
            if bound > tol:
                raise NotConverged(
                    f"L1 delta stopped shrinking after {solves} solves, at the rounding "
                    f"floor: last two {deltas[0]:.3e}, {deltas[1]:.3e}",
                    last_deltas=deltas,
                )
        else:  # a rise above rounding: mass still moving between regions
            continue
        if bound <= tol:
            return f, bound, solves
    raise NotConverged(
        f"no fixed point after {max_iter} solves; "
        f"last two L1 deltas {deltas[0]:.3e}, {deltas[1]:.3e}",
        last_deltas=deltas,
    )


def ergodic_distribution(
    kernel: StochasticKernel,
    init: DensityCurve | None = None,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> ErgodicSolution:
    """The long-run density: the fixed point that repeated `evolve` reaches.

    That is the quasi-stationary law of the leaking chain on the supported
    points (`evolve` drops the mass a row puts off them): the Perron vector
    of M^T, M = diag(w) K on those points, carried one step onto the grid.
    Each support component (:func:`component_blocks`) is solved by shifted
    inverse iteration from ``init`` (uniform when omitted): one LU of
    sigma*I - M^T, sigma = 1 + 1e-5, then solves, each iterate carried onto
    the grid by one forward step.

    With delta the last solve's L1 change and r the ratio of the last two
    deltas (never the first, from ``init``), a component stops once
    delta/(1 - r) <= ``tol``: the previous iterate's distance to the limit
    if the steps keep shrinking by r, so a bound on the returned iterate's
    with a margin of about 1/r. It is the solution's ``error_bound``, never
    below machine epsilon. A delta that does not shrink gives no bound: at
    the rounding floor (within 8*m*eps, m the component's points) the bound
    is delta itself; above it, mass is still moving, and solves go on.

    With several components, the answer is the law of the one with the
    largest Perron root among those ``init`` puts mass on, as power
    iteration converges to it; a tie goes to the first in grid order. A
    component's root is the share of its law that lies on it.

    ``iterations`` counts the solves over all components; ``residual`` is a
    fresh ||f - evolve(f)||_1 at the solution. Raises :class:`NotConverged`,
    carrying the last two deltas, when a component reaches ``max_iter``
    solves (so a ``max_iter`` below 3 always fails) or its delta stops
    shrinking at a rounding floor above ``tol``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if init is None:
        init = DensityCurve.from_values(kernel.grid, np.ones(kernel.grid.count))
    elif init.grid != kernel.grid:
        raise GridMismatch("init grid differs from the kernel grid")
    w, start = _quad.weights(kernel.grid), init.values
    _push(kernel, start)  # refuses a kernel without supported rows, or a start off them
    best, solves = None, 0
    for block in component_blocks(kernel):
        if not np.sum(w[block] * start[block]) > 0.0:
            continue  # power iteration never reaches a component it starts off
        f, bound, n = _solve_component(kernel, block, start, tol, max_iter)
        solves += n
        root = np.sum(w[block] * f[block])
        if best is None or root > best[0]:
            best = (root, f, bound)
    _, f, bound = best
    return ErgodicSolution(
        density=DensityCurve(grid=kernel.grid, values=_frozen(f)),
        residual=_quad.l1_distance(kernel.grid, f, _push(kernel, f)),
        error_bound=bound,
        iterations=solves,
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


def component_blocks(kernel: StochasticKernel) -> list[np.ndarray]:
    """Connected blocks of the supported region, as ascending grid indices.

    Two supported grid points communicate when either row places positive
    mass at the other's location; the transitive closure partitions the
    supported set. No mass ever moves between blocks, so each has its own
    quasi-stationary law (see :func:`ergodic_distribution`). Blocks come in
    ascending order of their first point.
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
    return [sup[label == first] for first in np.unique(label)]


def support_components(kernel: StochasticKernel) -> list[tuple[float, float]]:
    """The x interval from the first to the last point of each block of
    :func:`component_blocks`.

    More than one component means the kernel is reducible: the ergodic
    solve then returns the law of one of them.
    """
    pts = kernel.grid.points
    return [(float(pts[b[0]]), float(pts[b[-1]])) for b in component_blocks(kernel)]
