"""Deterministic SVG figures and CSV exports of plotted arrays.

Three figure forms: overlaid curves (densities, NTP), contour map of a
kernel or joint surface with the 45-degree diagonal for reference, and an
isometric 3-D mesh of the same surfaces. Everything is emitted as plain
SVG 1.1 text with no external references, and identical inputs produce
byte-identical documents, so figures can be golden-tested.

Coordinates are formatted with two decimals; that is far below visual
resolution and keeps files small and diffs stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator
from xml.sax.saxutils import escape

import numpy as np

from .dynamics import NTPCurve
from .errors import DegenerateSurface, EmptyPlot, GridMismatch
from .kde import DensityCurve, DensitySurface, StochasticKernel

RAMPS = {
    "blues": ((0.93, 0.96, 1.00), (0.03, 0.19, 0.42)),
    "grays": ((0.94, 0.94, 0.94), (0.15, 0.15, 0.15)),
}

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#7f3fbf", "#8c564b", "#e377c2")
_DASHES = (None, "8 5", "2 3", "9 3 2 3", "14 4", "5 2 1 2")

# Marching squares. A cell's case sets bit 1, 2, 4, 8 for its bl, br, tr, tl
# corner at or above the level; _SEGMENTS[case] lists the crossed edges each
# segment joins. _EDGES gives an edge's two corners as (di, dj) offsets.
_B, _R, _T, _L = range(4)
_EDGES = ((0, 0, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1))
_SEGMENTS = (
    (), ((_L, _B),), ((_B, _R),), ((_L, _R),),
    ((_R, _T),), ((_L, _T), (_B, _R)), ((_B, _T),), ((_L, _T),),
    ((_L, _T),), ((_B, _T),), ((_L, _B), (_R, _T)), ((_R, _T),),
    ((_L, _R),), ((_B, _R),), ((_L, _B),), (),
)


@dataclass(frozen=True)
class PlotStyle:
    """Figure geometry and palette knobs shared by all renderers."""

    width: int = 640
    height: int = 480
    margin: float = 54.0
    font_size: float = 12.0
    ramp: str = "blues"
    levels: object = 9
    mesh_limit: int = 64

    def __post_init__(self):
        if self.width < 64 or self.height < 64:
            raise ValueError("figure must be at least 64x64 pixels")
        if not (0 <= 2 * self.margin < min(self.width, self.height)):
            raise ValueError("margins leave no plot area")
        if self.font_size <= 0:
            raise ValueError("font size must be positive")
        if self.ramp not in RAMPS:
            raise ValueError(f"unknown ramp {self.ramp!r}, have {sorted(RAMPS)}")
        if isinstance(self.levels, int):
            if self.levels < 1:
                raise ValueError("need at least one contour level")
        else:
            lv = tuple(float(x) for x in self.levels)
            if not lv or not all(math.isfinite(x) for x in lv):
                raise ValueError("explicit levels must be nonempty finite values")
            object.__setattr__(self, "levels", lv)
        if self.mesh_limit < 1:
            raise ValueError("mesh_limit must be positive")


def _px(x: float) -> str:
    return "%.2f" % x


def _ramp_colors(name: str, t) -> list[str]:
    """Ramp colours at the heights ``t``, each clipped to [0, 1] (NaN to 0)."""
    lo, hi = (np.array(c) for c in RAMPS[name])
    t = np.minimum(1.0, np.fmax(0.0, np.asarray(t, dtype=float)))[:, None]
    rgb = np.rint(255 * (lo + t * (hi - lo))).astype(int)
    return ["#%02x%02x%02x" % tuple(c) for c in rgb.tolist()]


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / max(1, target - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag * (1 + 1e-12):
            step = mult * mag
            break
    k0 = math.ceil(lo / step - 1e-9)
    k1 = math.floor(hi / step + 1e-9)
    return [k * step for k in range(k0, k1 + 1)]


def _svg_open(style: PlotStyle) -> list[str]:
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (style.width, style.height, style.width, style.height),
        '<rect width="%d" height="%d" fill="#ffffff"/>' % (style.width, style.height),
    ]


def _scales(style: PlotStyle, xlo, xhi, ylo, yhi):
    """The data-to-pixel maps ``(sx, sy)`` of the plot area."""
    m = style.margin
    w = style.width - 2 * m
    h = style.height - 2 * m

    def sx(x):
        return m + (x - xlo) / (xhi - xlo) * w

    def sy(y):
        return style.height - m - (y - ylo) / (yhi - ylo) * h

    return sx, sy


def _axes(style: PlotStyle, xlo, xhi, ylo, yhi, x_label, y_label) -> list[str]:
    """Frame, ticks and labels for a rectangular data area."""
    m = style.margin
    w = style.width - 2 * m
    h = style.height - 2 * m
    fs = style.font_size
    sx, sy = _scales(style, xlo, xhi, ylo, yhi)
    out = [
        '<rect x="%s" y="%s" width="%s" height="%s" fill="none" stroke="#333333"/>'
        % (_px(m), _px(m), _px(w), _px(h))
    ]
    for t in _ticks(xlo, xhi):
        X = sx(t)
        out.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#333333"/>'
            % (_px(X), _px(style.height - m), _px(X), _px(style.height - m + 4))
        )
        out.append(
            '<text x="%s" y="%s" font-size="%s" text-anchor="middle" '
            'font-family="sans-serif">%s</text>'
            % (_px(X), _px(style.height - m + 6 + fs), _px(fs), "%g" % t)
        )
    for t in _ticks(ylo, yhi):
        Y = sy(t)
        out.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#333333"/>'
            % (_px(m - 4), _px(Y), _px(m), _px(Y))
        )
        out.append(
            '<text x="%s" y="%s" font-size="%s" text-anchor="end" '
            'font-family="sans-serif">%s</text>'
            % (_px(m - 7), _px(Y + 0.35 * fs), _px(fs), "%g" % t)
        )
    if x_label:
        out.append(
            '<text x="%s" y="%s" font-size="%s" text-anchor="middle" '
            'font-family="sans-serif">%s</text>'
            % (_px(m + w / 2), _px(style.height - 6), _px(fs), escape(x_label))
        )
    if y_label:
        cx, cy = 14 + fs * 0.3, m + h / 2
        out.append(
            '<text x="%s" y="%s" font-size="%s" text-anchor="middle" '
            'font-family="sans-serif" transform="rotate(-90 %s %s)">%s</text>'
            % (_px(cx), _px(cy), _px(fs), _px(cx), _px(cy), escape(y_label))
        )
    return out


def render_curves(curves, style: PlotStyle = PlotStyle(), x_label: str = "relative income",
                  y_label: str = "") -> str:
    """Overlay labeled curves on a shared grid as an SVG line chart.

    ``curves`` is a sequence of (label, curve) pairs, each curve a
    DensityCurve or NTPCurve; a single bare curve is also accepted. Series
    are distinguished by color and dash pattern (first solid, second
    dashed, then cycling) with a legend entry per series. A horizontal zero
    reference line appears whenever any value is negative or any curve is
    an NTP curve. NaN stretches (unsupported NTP points) leave gaps.
    """
    if isinstance(curves, (DensityCurve, NTPCurve)):
        curves = [("", curves)]
    curves = list(curves)
    if not curves:
        raise EmptyPlot("no curves to draw")
    grid = curves[0][1].grid
    for _, c in curves[1:]:
        if c.grid != grid:
            raise GridMismatch("all curves must share one grid")
    vals = np.concatenate([np.asarray(c.values, dtype=float) for _, c in curves])
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        raise EmptyPlot("curves contain no finite values")
    want_zero = bool(np.any(finite < 0)) or any(isinstance(c, NTPCurve) for _, c in curves)
    vlo = min(0.0, float(finite.min()))
    vhi = max(0.0, float(finite.max()))
    span = vhi - vlo or 1.0
    yhi = vhi + 0.06 * span
    ylo = vlo - 0.06 * span if vlo < 0 else 0.0
    xlo, xhi = grid.lower, grid.upper

    m = style.margin
    w = style.width - 2 * m
    sx, sy = _scales(style, xlo, xhi, ylo, yhi)
    out = _svg_open(style)
    out += _axes(style, xlo, xhi, ylo, yhi, x_label, y_label)
    if want_zero:
        out.append(
            '<line class="zero-line" x1="%s" y1="%s" x2="%s" y2="%s" '
            'stroke="#999999" stroke-dasharray="4 4"/>'
            % (_px(m), _px(sy(0.0)), _px(m + w), _px(sy(0.0)))
        )
    # legend, top right of the data area, drawn over the series
    fs = style.font_size
    lw = max(len(lbl) for lbl, _ in curves) * fs * 0.62 + 46
    lx = m + w - lw - 8
    ly = m + 8
    legend = [
        '<rect x="%s" y="%s" width="%s" height="%s" fill="#ffffff" '
        'fill-opacity="0.85" stroke="#cccccc"/>'
        % (_px(lx), _px(ly), _px(lw), _px(len(curves) * (fs + 8) + 8))
    ]
    for k, (label, curve) in enumerate(curves):
        dash = _DASHES[k % len(_DASHES)]
        stroke = 'stroke="%s" stroke-width="1.6"%s' % (
            _COLORS[k % len(_COLORS)], ' stroke-dasharray="%s"' % dash if dash else "")
        v = np.asarray(curve.values, dtype=float)
        parts = []
        pen_up = True
        for i in range(grid.count):
            if not np.isfinite(v[i]):
                pen_up = True
                continue
            cmd = "M" if pen_up else "L"
            parts.append("%s%s %s" % (cmd, _px(sx(grid.points[i])), _px(sy(v[i]))))
            pen_up = False
        if parts:
            out.append(
                '<path class="series" fill="none" %s d="%s"/>' % (stroke, " ".join(parts))
            )
        row_y = ly + 8 + k * (fs + 8) + fs / 2
        legend.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" %s/>'
            % (_px(lx + 6), _px(row_y), _px(lx + 34), _px(row_y), stroke)
        )
        legend.append(
            '<text x="%s" y="%s" font-size="%s" font-family="sans-serif">%s</text>'
            % (_px(lx + 40), _px(row_y + 0.35 * fs), _px(fs), escape(label))
        )
    out += legend
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _surface_arrays(obj):
    """Accept a StochasticKernel, DensitySurface, or (x, y, values) triple."""
    if isinstance(obj, StochasticKernel):
        return obj.grid_x.points, obj.grid_y.points, obj.rows
    if isinstance(obj, DensitySurface):
        return obj.grid_x.points, obj.grid_y.points, obj.values
    x, y, v = obj
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size < 2 or y.size < 2:
        raise ValueError("surface axes need at least 2 points each")
    if v.shape != (x.size, y.size):
        raise ValueError("surface values must be shaped (len(x), len(y))")
    return x, y, v


def _resolve_levels(style: PlotStyle, vmax: float) -> list[float]:
    if not isinstance(style.levels, int):
        return list(style.levels)
    k = style.levels
    if k == 1:
        return [0.5 * vmax]
    return [(0.05 + 0.90 * i / (k - 1)) * vmax for i in range(k)]


def _crossing(x, y, v, level: float, i: int, j: int, edge: int):
    """Where ``level`` crosses ``edge`` of cell (i, j), by linear interpolation."""
    ai, aj, bi, bj = _EDGES[edge]
    a, b = v[i + ai, j + aj], v[i + bi, j + bj]
    t = (level - a) / (b - a)
    if ai == bi:
        return x[i + ai], y[j] + t * (y[j + 1] - y[j])
    return x[i] + t * (x[i + 1] - x[i]), y[j + aj]


def render_contour(obj, style: PlotStyle = PlotStyle(),
                   x_label: str = "relative income at t",
                   y_label: str = "relative income at t+τ") -> str:
    """Contour map of a kernel or joint surface, diagonal included.

    Level curves are traced by marching squares over the cells a level
    crosses: a cell's 4-bit corner case indexes the ``_SEGMENTS`` table, and
    a saddle (case 5 or 10) whose cell-centre average is below the level is
    drawn as the opposite saddle. The y = x diagonal is drawn dashed
    wherever the two axis ranges overlap, making deviation from pure
    persistence visible at a glance.
    """
    x, y, v = _surface_arrays(obj)
    vmax = float(np.max(v))
    vmin = float(np.min(v))
    if vmax == vmin:
        raise DegenerateSurface("surface is constant; contours are undefined")
    levels = _resolve_levels(style, vmax)

    xlo, xhi = float(x[0]), float(x[-1])
    ylo, yhi = float(y[0]), float(y[-1])
    sx, sy = _scales(style, xlo, xhi, ylo, yhi)
    out = _svg_open(style)
    out += _axes(style, xlo, xhi, ylo, yhi, x_label, y_label)

    dlo, dhi = max(xlo, ylo), min(xhi, yhi)
    if dlo < dhi:
        out.append(
            '<line class="diagonal" x1="%s" y1="%s" x2="%s" y2="%s" '
            'stroke="#666666" stroke-dasharray="6 4"/>'
            % (_px(sx(dlo)), _px(sy(dlo)), _px(sx(dhi)), _px(sy(dhi)))
        )

    centre = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[1:, 1:] + v[:-1, 1:])
    colors = _ramp_colors(style.ramp, 0.25 + 0.75 * (np.arange(1, len(levels) + 1) / len(levels)))
    for level, color in zip(levels, colors):
        up = (v >= level).astype(np.uint8)
        case = up[:-1, :-1] | up[1:, :-1] << 1 | up[1:, 1:] << 2 | up[:-1, 1:] << 3
        # A saddle whose centre is not at or above the level (NaN included) flips.
        case[((case == 5) | (case == 10)) & ~(centre >= level)] ^= 15
        segs: list[str] = []
        for i, j in zip(*np.nonzero((case != 0) & (case != 15))):
            for edges in _SEGMENTS[case[i, j]]:
                (x1, y1), (x2, y2) = (_crossing(x, y, v, level, i, j, e) for e in edges)
                segs.append("M%s %s L%s %s"
                            % (_px(sx(x1)), _px(sy(y1)), _px(sx(x2)), _px(sy(y2))))
        if segs:
            out.append(
                '<path class="level" fill="none" stroke="%s" stroke-width="1.1" d="%s"/>'
                % (color, " ".join(segs))
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _mesh_indices(n: int, limit: int) -> np.ndarray:
    if n <= limit + 1:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, limit + 1)).astype(int))


def render_surface(obj, style: PlotStyle = PlotStyle(),
                   x_label: str = "relative income at t",
                   y_label: str = "relative income at t+τ") -> str:
    """Isometric 3-D mesh of a kernel or joint surface.

    Each mesh vertex is projected and formatted once. Cells are painted
    back to front (painter's algorithm: far diagonals i + j first, each in
    ascending i), filled by the style ramp according to their mean height.
    Dense grids are thinned to ``style.mesh_limit`` cells per axis; a 2x2
    input renders as a single cell.
    """
    x, y, v = _surface_arrays(obj)
    vmax = float(np.max(v))
    vmin = float(np.min(v))
    if vmax == vmin:
        raise DegenerateSurface("surface is constant; a mesh says nothing")
    xi = _mesh_indices(x.size, style.mesh_limit)
    yi = _mesh_indices(y.size, style.mesh_limit)
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
        """Screen position of a point (or of numpy arrays of points) of the unit cube."""
        u = (xv - yv) * c30
        elev = (xv + yv) * s30 + zv * zh
        return (x_center + u * scale, m + top_pad + (1.0 + zh - elev) * scale)

    px, py = project(xn[:, None], yn[None, :], zn)
    vertex = [["%s,%s" % (_px(a), _px(b)) for a, b in zip(rx, ry)]
              for rx, ry in zip(px.tolist(), py.tolist())]
    mean_z = 0.25 * (zn[:-1, :-1] + zn[1:, :-1] + zn[1:, 1:] + zn[:-1, 1:])
    colors = _ramp_colors(style.ramp, mean_z.ravel())
    ci, cj = np.indices(mean_z.shape).reshape(2, -1)

    out = _svg_open(style)
    base = [project(0, 0, 0), project(1, 0, 0), project(1, 1, 0), project(0, 1, 0)]
    out.append(
        '<polygon class="base" points="%s" fill="#f4f4f4" stroke="#bbbbbb"/>'
        % " ".join("%s,%s" % (_px(X), _px(Y)) for X, Y in base)
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
    out.append(
        '<text x="%s" y="%s" font-size="%s" text-anchor="middle" '
        'font-family="sans-serif">%s</text>'
        % (_px(xL[0]), _px(xL[1] + fs), _px(fs), escape(x_label))
    )
    out.append(
        '<text x="%s" y="%s" font-size="%s" text-anchor="middle" '
        'font-family="sans-serif">%s</text>'
        % (_px(yL[0]), _px(yL[1] + fs), _px(fs), escape(y_label))
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _g(xv: float) -> str:
    return "%.17g" % float(xv)


_CSV_VALUES = 8192  # values per CSV chunk: 4,096 rows of two columns


def _csv_chunks(obj) -> Iterator[bytes]:
    """The bytes of ``export_csv(obj)`` as a stream of chunks.

    The input is checked before the first chunk is asked for. The header
    comes first; then each chunk holds as many whole rows as fit in 8,192
    values (4,096 rows of a two-column table, one row at the least),
    formatted by one ``%`` over the chunk's values, so neither a long nor
    a wide table is ever held whole as text.
    """
    if isinstance(obj, (DensityCurve, NTPCurve)):
        header = "x,density" if isinstance(obj, DensityCurve) else "x,ntp"
        table = np.column_stack((obj.grid.points, obj.values))
    elif isinstance(obj, (StochasticKernel, DensitySurface)):
        x, y, v = _surface_arrays(obj)
        header = "x\\y," + ",".join(_g(yv) for yv in y)
        table = np.column_stack((x, v))
    elif hasattr(obj, "x") and hasattr(obj, "y"):  # TransitionPairs
        header = "x,y"
        table = np.column_stack((obj.x, obj.y))
    else:
        items = list(obj)
        if not items:
            raise EmptyPlot("nothing to export")
        labels = [lbl for lbl, _ in items]
        curves = [c for _, c in items]
        grid = curves[0].grid
        for crv in curves[1:]:
            if crv.grid != grid:
                raise GridMismatch("all exported curves must share one grid")
        header = "x," + ",".join(labels)
        table = np.column_stack([grid.points] + [c.values for c in curves])
    return _csv_rows(header, table.astype(float, copy=False))


def _csv_rows(header: str, table: np.ndarray) -> Iterator[bytes]:
    yield (header + "\n").encode("utf-8")
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    step = max(1, _CSV_VALUES // table.shape[1])
    for start in range(0, len(table), step):
        block = table[start:start + step]
        yield ((row * len(block)) % tuple(block.ravel().tolist())).encode("ascii")


def export_csv(obj) -> bytes:
    """Serialize a plotted array losslessly as CSV (LF endings).

    Handles DensityCurve (``x,density``), NTPCurve (``x,ntp``, NaN at
    unsupported points), TransitionPairs (``x,y``), a labeled curve
    collection (``x,<label>,...``), and StochasticKernel / DensitySurface
    as a wide matrix with x down the rows, y across the columns, and the
    corner cell labeled ``x\\y``. Floats carry 17 significant digits, so a
    round-trip parse reproduces every value bit for bit.
    """
    return b"".join(_csv_chunks(obj))
