"""Shared fixtures and small construction helpers for the test suite."""

import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from distdyn import Grid, _quad, viz
from distdyn.dynamics import ErgodicSolution, NTPCurve
from distdyn.kde import DensityCurve, StochasticKernel
from distdyn.errors import (
    DegenerateSurface,
    DuplicateKey,
    MalformedRow,
    NonPositiveIncome,
    NoSupportedRows,
    NotConverged,
)
from distdyn.panel import _HEADER, REGIONS, SECTORS, Panel
from distdyn.synthesis import (
    START_YEAR,
    ProcessSpec,
    club_assignments,
    club_log_sd,
    stationary_log_sd,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

# `python -m distdyn` in a subprocess imports the package from this checkout,
# as the tests themselves do through pyproject's pytest `pythonpath`.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def demo_panel_path(repo_root) -> Path:
    path = repo_root / "demo" / "panel.csv"
    assert path.is_file(), "bundled demo panel is missing"
    return path


@pytest.fixture(scope="session")
def demo_config_path(repo_root) -> Path:
    path = repo_root / "demo" / "config.json"
    assert path.is_file(), "bundled demo config is missing"
    return path


def strict_json(path):
    """Parse a file as strict JSON: NaN, Infinity and -Infinity raise."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def gaussian(points: np.ndarray, mu: float, sd: float) -> np.ndarray:
    z = (points - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def lognormal_pdf(points: np.ndarray, mu: float, sd: float) -> np.ndarray:
    out = np.zeros_like(points, dtype=float)
    pos = points > 0.0
    z = (np.log(points[pos]) - mu) / sd
    out[pos] = np.exp(-0.5 * z * z) / (points[pos] * sd * math.sqrt(2.0 * math.pi))
    return out


def mixture_row(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One smooth random density row: a two-Gaussian mixture on the grid span."""
    lo, hi = float(points[0]), float(points[-1])
    span = hi - lo
    row = np.zeros_like(points)
    weights = rng.dirichlet(np.ones(2))
    for w in weights:
        mu = rng.uniform(lo + 0.15 * span, hi - 0.15 * span)
        sd = rng.uniform(0.04 * span, 0.25 * span)
        row = row + w * gaussian(points, mu, sd)
    return row


def random_kernel(grid: Grid, rng: np.random.Generator) -> StochasticKernel:
    """A fully supported random smooth kernel on one grid."""
    rows = np.stack([mixture_row(grid.points, rng) for _ in range(len(grid.points))])
    return StochasticKernel.from_rows(grid, rows)


def curve_from(grid: Grid, values: np.ndarray) -> DensityCurve:
    return DensityCurve.from_values(grid, values)


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Independent trapezoid quadrature weights (test-side reimplementation)."""
    w = np.zeros_like(points)
    w[1:] += 0.5 * np.diff(points)
    w[:-1] += 0.5 * np.diff(points)
    return w


def net_transition_probability_two_sided(kernel: StochasticKernel) -> NTPCurve:
    """NTP by the two one-sided integrals, accumulated independently.

    Upward mass integrates the row from x to the top of the grid, downward
    mass from the bottom up to x; their difference is the NTP. An oracle
    for ``net_transition_probability``, which reads one CDF on the diagonal.
    """
    grid = kernel.grid
    values = np.full(grid.count, np.nan)
    for i in range(grid.count):
        if not kernel.supported[i]:
            continue
        row = kernel.rows[i]
        x = float(grid.points[i])
        down = float(np.interp(x, grid.points, _quad.cumulative(grid, row)))
        # accumulate the upper tail from the top down so it is an
        # independent sum, not 1 - down
        rev = _quad.cumulative(grid, row[::-1])
        up_from_top = rev[::-1]
        up = float(np.interp(x, grid.points, up_from_top))
        values[i] = min(1.0, max(-1.0, up - down))
    return NTPCurve(grid=grid, values=values)


def evolve_before(kernel: StochasticKernel, f: DensityCurve) -> DensityCurve:
    """One forward step as `evolve` took it before its shared step: all
    rows, fresh arrays."""
    contrib = _quad.weights(kernel.grid) * f.values * kernel.supported
    if float(np.sum(contrib)) <= 0.0:
        raise NoSupportedRows("density carries no mass on the kernel's supported rows")
    out = np.einsum("i,iy->y", contrib, kernel.rows)
    return DensityCurve.from_values(kernel.grid, out)


def ergodic_before(kernel: StochasticKernel, f: DensityCurve, tol=1e-10, max_iter=10000):
    """The power iteration the ergodic solve ran before its direct solve.

    Steps `evolve_before` until one step moves the density by at most
    ``tol``. Its ``error_bound`` is delta*r/(1 - r), with r the mean rate
    of the deltas over the run's second half (infinite if they grew).
    """
    deltas = []
    for iteration in range(1, max_iter + 1):
        nxt = evolve_before(kernel, f)
        deltas.append(_quad.l1_distance(kernel.grid, f.values, nxt.values))
        f = nxt
        if deltas[-1] <= tol:
            span = len(deltas) - 1 - (len(deltas) - 1) // 2
            r = (deltas[-1] / deltas[-1 - span]) ** (1.0 / span) if span else 0.0
            residual = _quad.l1_distance(kernel.grid, f.values, evolve_before(kernel, f).values)
            bound = deltas[-1] * r / (1.0 - r) if r < 1.0 else math.inf
            return ErgodicSolution(density=f, residual=residual, error_bound=bound,
                                   iterations=iteration)
    raise NotConverged("", last_deltas=([math.inf] + deltas)[-2:])


def perron_density(kernel: StochasticKernel) -> np.ndarray:
    """The dense fixed point of `evolve`: the Perron vector of (w K)^T by
    ``numpy.linalg.eig``, scaled to unit trapezoid mass.

    One step maps f to g(y) = sum_i w_i f_i K(i, y), renormalized, so its
    fixed points are eigenvectors of that matrix; the Perron root is 1 less
    the mass a step leaks onto unsupported points.
    """
    w = trapezoid_weights(kernel.grid.points)
    values, vectors = np.linalg.eig((w[:, None] * kernel.rows).T)
    fixed = vectors[:, int(np.argmax(values.real))].real
    return fixed / np.sum(w * fixed)


def load_panel_rows(stream) -> Panel:
    """Parse a panel CSV from a text stream, one ``csv.reader`` row at a time.

    The row loop ``load_panel`` ran before it read whole columns, kept as
    the oracle of both of its paths: the typed pass must give the same
    columns for every file it accepts, and the row loop the same columns,
    or for a bad input the same error and message. Two faults it misses
    are fixed in ``load_panel``'s row loop and modeled by the tests: a year
    beyond 64 bits reaches ``np.array`` as an ``OverflowError``, and input
    that is not UTF-8 is the caller's decode error. Open the stream with
    ``newline=""``.
    """
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow("row 1: empty input, expected a header row")
        header = [h.strip() for h in header]
        if header == _HEADER:
            has_cpi = False
        elif header == _HEADER + ["cpi"]:
            has_cpi = True
        else:
            raise MalformedRow(
                f"row 1: bad header {header!r}, expected {','.join(_HEADER)}[,cpi]"
            )

        ncols = len(header)
        units, sectors, regions, years, incomes, cpis = [], [], [], [], [], []
        seen: dict[tuple[str, str], tuple[str, set[int]]] = {}  # each unit's region, years
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncols:
                raise MalformedRow(f"row {lineno}: expected {ncols} fields, got {len(row)}")
            unit, sector, region = row[0].strip(), row[1].strip(), row[2].strip()
            if not unit:
                raise MalformedRow(f"row {lineno}: empty unit_id")
            if sector not in SECTORS:
                raise MalformedRow(f"row {lineno}: unknown sector {sector!r}")
            if region not in REGIONS:
                raise MalformedRow(f"row {lineno}: unknown region {region!r}")
            try:
                year = int(row[3])
            except ValueError:
                raise MalformedRow(f"row {lineno}: year {row[3]!r} is not an integer")
            try:
                income = float(row[4])
            except ValueError:
                raise MalformedRow(f"row {lineno}: income {row[4]!r} is not a number")
            if not math.isfinite(income) or income <= 0:
                raise NonPositiveIncome(f"row {lineno}: income must be > 0, got {row[4]}")
            cpi = math.nan
            if has_cpi and row[5].strip() != "":
                try:
                    cpi = float(row[5])
                except ValueError:
                    raise MalformedRow(f"row {lineno}: cpi {row[5]!r} is not a number")
                if not math.isfinite(cpi) or cpi <= 0:
                    raise MalformedRow(f"row {lineno}: cpi must be > 0, got {row[5]}")
            region0, unit_years = seen.setdefault((unit, sector), (region, set()))
            if year in unit_years:
                key = (unit, sector, year)
                raise DuplicateKey(f"row {lineno}: repeated (unit_id, sector, year) {key}")
            if region != region0:
                raise MalformedRow(f"row {lineno}: unit ({unit!r}, {sector!r}) in region "
                                   f"{region!r}, but in {region0!r} on its earlier rows")
            unit_years.add(year)
            units.append(unit)
            sectors.append(sector)
            regions.append(region)
            years.append(year)
            incomes.append(income)
            if has_cpi:
                cpis.append(cpi)
    finally:
        stream.close()
    cpi_col = np.array(cpis, dtype=float)  # empty, hence dropped, without a cpi column
    return Panel(
        unit_id=np.array(units, dtype=object),
        sector=np.array(sectors, dtype=object),
        region=np.array(regions, dtype=object),
        year=np.array(years, dtype=int),
        income=np.array(incomes, dtype=float),
        cpi=None if np.all(np.isnan(cpi_col)) else cpi_col,
    )


def simulate_unit_loop(spec: ProcessSpec) -> Panel:
    """Simulate the process one unit and one year at a time.

    The per-unit recursion ``synthesis.simulate`` ran before it stepped
    all units a year at a time, kept as its oracle: unit u draws one
    standard normal for its initial level, then its innovations, from its
    own ``(seed, u)`` stream, and its log-income path is filled year by
    year in Python floats.
    """
    if spec.kind == "two_club":
        clubs = club_assignments(spec)
        means = np.log(np.asarray(spec.club_centers))
        a = 1.0 - spec.club_pull
        init_sd = club_log_sd(spec)
    else:
        clubs = np.zeros(spec.units, dtype=int)
        means = np.zeros(1)
        a = spec.rho
        init_sd = stationary_log_sd(spec)

    width = max(4, len(str(spec.units - 1)))
    incomes = np.empty(spec.units * spec.years)
    ids = np.empty(spec.units * spec.years, dtype=object)
    for u in range(spec.units):
        mean = float(means[clubs[u]])
        rng = np.random.Generator(np.random.Philox(key=np.array([spec.seed, u], dtype=np.uint64)))
        z = np.empty(spec.years)
        z[0] = mean + init_sd * rng.standard_normal()
        if spec.years > 1:
            eps = rng.standard_normal(spec.years - 1)
            for t in range(1, spec.years):
                z[t] = mean + a * (z[t - 1] - mean) + spec.sigma * eps[t - 1]
        incomes[u * spec.years:(u + 1) * spec.years] = np.exp(z)
        ids[u * spec.years:(u + 1) * spec.years] = f"u{u:0{width}d}"
    n = spec.units * spec.years
    return Panel(
        unit_id=ids,
        sector=np.array(["urban"] * n, dtype=object),
        region=np.array(["other"] * n, dtype=object),
        year=np.tile(np.arange(START_YEAR, START_YEAR + spec.years), spec.units),
        income=incomes,
        cpi=None,
        is_relative=False,
    )


def ramp_colors_each(t) -> list[str]:
    """Ramp colours at the heights ``t``, one ``%`` per colour.

    The per-colour form of ``viz._ramp_colors``, kept as its oracle.
    """
    lo, hi = (np.array(c) for c in viz.PlotStyle.ramp)
    t = np.minimum(1.0, np.fmax(0.0, np.asarray(t, dtype=float)))[:, None]
    rgb = np.rint(255 * (lo + t * (hi - lo))).astype(int)
    return ["#%02x%02x%02x" % tuple(c) for c in rgb.tolist()]


def render_curves_points(curves, y_label: str = "") -> str:
    """A line chart written one point at a time.

    The per-point loop ``viz.render_curves`` ran before it wrote each path
    as byte rows, kept as its oracle: a point that is not finite lifts the
    pen, and the next finite one starts a run with "M".
    """
    style, px = viz.PlotStyle, viz._px
    curves = list(curves)
    grid = curves[0][1].grid
    vals = np.concatenate([np.asarray(c.values, dtype=float) for _, c in curves])
    finite = vals[np.isfinite(vals)]
    want_zero = bool(np.any(finite < 0)) or any(isinstance(c, NTPCurve) for _, c in curves)
    vlo = min(0.0, float(finite.min()))
    vhi = max(0.0, float(finite.max()))
    span = vhi - vlo or 1.0
    yhi = vhi + 0.06 * span
    ylo = vlo - 0.06 * span if vlo < 0 else 0.0
    xlo, xhi = grid.lower, grid.upper

    m = style.margin
    w = style.width - 2 * m
    sx, sy = viz._scales(style, xlo, xhi, ylo, yhi)
    out = viz._svg_open(style)
    out += viz._axes(style, xlo, xhi, ylo, yhi, viz._CURVE_X_LABEL, y_label)
    if want_zero:
        out.append(viz._line(m, sy(0.0), m + w, sy(0.0),
                             'stroke="#999999" stroke-dasharray="4 4"', "zero-line"))
    fs = style.font_size
    lw = max(len(lbl) for lbl, _ in curves) * fs * 0.62 + 46
    lx = m + w - lw - 8
    ly = m + 8
    legend = [
        '<rect x="%s" y="%s" width="%s" height="%s" fill="#ffffff" '
        'fill-opacity="0.85" stroke="#cccccc"/>'
        % (px(lx), px(ly), px(lw), px(len(curves) * (fs + 8) + 8))
    ]
    for k, (label, curve) in enumerate(curves):
        dash = viz._DASHES[k % len(viz._DASHES)]
        stroke = 'stroke="%s" stroke-width="1.6"%s' % (
            viz._COLORS[k % len(viz._COLORS)], ' stroke-dasharray="%s"' % dash if dash else "")
        v = np.asarray(curve.values, dtype=float)
        parts = []
        pen_up = True
        for i in range(grid.count):
            if not np.isfinite(v[i]):
                pen_up = True
                continue
            cmd = "M" if pen_up else "L"
            parts.append("%s%s %s" % (cmd, px(sx(grid.points[i])), px(sy(v[i]))))
            pen_up = False
        if parts:
            out.append(
                '<path class="series" fill="none" %s d="%s"/>' % (stroke, " ".join(parts))
            )
        row_y = ly + 8 + k * (fs + 8) + fs / 2
        legend.append(viz._line(lx + 6, row_y, lx + 34, row_y, stroke))
        legend.append(viz._text(lx + 40, row_y + 0.35 * fs, label, None))
    out += legend
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _crossing(x, y, v, level, i, j, edge):
    """Where ``level`` crosses ``edge`` of cell (i, j), by linear interpolation."""
    ai, aj, bi, bj = viz._EDGES[edge]
    a, b = v[i + ai, j + aj], v[i + bi, j + bj]
    t = (level - a) / (b - a)
    if ai == bi:
        return x[i + ai], y[j] + t * (y[j + 1] - y[j])
    return x[i] + t * (x[i + 1] - x[i]), y[j + aj]


def render_contour_cells(x, y, v) -> str:
    """A contour map traced one cell and one crossing at a time.

    The per-cell loop ``viz.render_contour`` ran before it traced each
    level over whole arrays, kept as its oracle: the crossing cells
    row-major, each cell's segments in ``_SEGMENTS`` order, each end point
    interpolated in Python scalars.
    """
    style, px = viz.PlotStyle, viz._px
    vmax = float(np.max(v))
    vmin = float(np.min(v))
    if vmax == vmin:
        raise DegenerateSurface("surface is constant; contours are undefined")
    levels = [(0.05 + 0.90 * i / (style.levels - 1)) * vmax for i in range(style.levels)]

    xlo, xhi = float(x[0]), float(x[-1])
    ylo, yhi = float(y[0]), float(y[-1])
    sx, sy = viz._scales(style, xlo, xhi, ylo, yhi)
    out = viz._svg_open(style)
    out += viz._axes(style, xlo, xhi, ylo, yhi, viz._KERNEL_X_LABEL, viz._KERNEL_Y_LABEL)

    dlo, dhi = max(xlo, ylo), min(xhi, yhi)
    if dlo < dhi:
        out.append(viz._line(sx(dlo), sy(dlo), sx(dhi), sy(dhi),
                             'stroke="#666666" stroke-dasharray="6 4"', "diagonal"))

    centre = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[1:, 1:] + v[:-1, 1:])
    colors = ramp_colors_each(0.25 + 0.75 * (np.arange(1, len(levels) + 1) / len(levels)))
    for level, color in zip(levels, colors):
        up = (v >= level).astype(np.uint8)
        case = up[:-1, :-1] | up[1:, :-1] << 1 | up[1:, 1:] << 2 | up[:-1, 1:] << 3
        case[((case == 5) | (case == 10)) & ~(centre >= level)] ^= 15
        segs = []
        for i, j in zip(*np.nonzero((case != 0) & (case != 15))):
            for edges in viz._SEGMENTS[case[i, j]]:
                (x1, y1), (x2, y2) = (_crossing(x, y, v, level, i, j, e) for e in edges)
                segs.append("M%s %s L%s %s" % (px(sx(x1)), px(sy(y1)), px(sx(x2)), px(sy(y2))))
        if segs:
            out.append(
                '<path class="level" fill="none" stroke="%s" stroke-width="1.1" d="%s"/>'
                % (color, " ".join(segs))
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_surface_cells(x, y, v) -> str:
    """An isometric mesh written one vertex and one cell polygon at a time.

    The per-cell loop ``viz.render_surface`` ran before it formatted whole
    arrays, kept as its oracle.
    """
    style, px = viz.PlotStyle, viz._px
    vmax = float(np.max(v))
    vmin = float(np.min(v))
    if vmax == vmin:
        raise DegenerateSurface("surface is constant; a mesh says nothing")
    xi = viz._mesh_indices(x.size, style.mesh_limit)
    yi = viz._mesh_indices(y.size, style.mesh_limit)
    xn = (x[xi] - x[0]) / (x[-1] - x[0])
    yn = (y[yi] - y[0]) / (y[-1] - y[0])
    zn = (v[np.ix_(xi, yi)] - vmin) / (vmax - vmin)

    c30, s30, zh = math.cos(math.pi / 6), 0.5, 0.55
    m = style.margin
    area_w = style.width - 2 * m
    area_h = style.height - 2 * m
    scale = min(area_w / (2 * c30), area_h / (1.0 + zh))
    x_center = style.width / 2.0
    top_pad = (area_h - (1.0 + zh) * scale) / 2.0

    def project(xv, yv, zv):
        u = (xv - yv) * c30
        elev = (xv + yv) * s30 + zv * zh
        return (x_center + u * scale, m + top_pad + (1.0 + zh - elev) * scale)

    pxs, pys = project(xn[:, None], yn[None, :], zn)
    vertex = [["%s,%s" % (px(a), px(b)) for a, b in zip(rx, ry)]
              for rx, ry in zip(pxs.tolist(), pys.tolist())]
    mean_z = 0.25 * (zn[:-1, :-1] + zn[1:, :-1] + zn[1:, 1:] + zn[:-1, 1:])
    colors = ramp_colors_each(mean_z.ravel())
    ci, cj = np.indices(mean_z.shape).reshape(2, -1)

    out = viz._svg_open(style)
    base = [project(0, 0, 0), project(1, 0, 0), project(1, 1, 0), project(0, 1, 0)]
    out.append(
        '<polygon class="base" points="%s" fill="#f4f4f4" stroke="#bbbbbb"/>'
        % " ".join("%s,%s" % (px(X), px(Y)) for X, Y in base)
    )
    for c in np.lexsort((ci, -(ci + cj))):
        i, j = ci[c], cj[c]
        out.append(
            '<polygon class="cell" points="%s %s %s %s" fill="%s" stroke="#333333" '
            'stroke-width="0.25"/>'
            % (vertex[i][j], vertex[i + 1][j], vertex[i + 1][j + 1], vertex[i][j + 1], colors[c])
        )
    fs = style.font_size
    xL = project(0.55, -0.08, 0)
    yL = project(-0.08, 0.55, 0)
    out.append(viz._text(xL[0], xL[1] + fs, viz._KERNEL_X_LABEL))
    out.append(viz._text(yL[0], yL[1] + fs, viz._KERNEL_Y_LABEL))
    out.append("</svg>")
    return "\n".join(out) + "\n"
