"""Deterministic SVG figures and CSV exports of plotted arrays.

Three figure forms: overlaid curves (densities, NTP), and, of a
StochasticKernel only, a contour map with the 45-degree diagonal for
reference and an isometric 3-D mesh. Every figure is drawn in one fixed
style, :class:`PlotStyle`: a 640x480 canvas, a blue ramp, nine contour
levels and at most 64 mesh cells a side. Everything is emitted as plain
SVG 1.1 text with no external references, and identical inputs produce
byte-identical documents, so figures can be golden-tested.

Coordinates are formatted with two decimals; that is far below visual
resolution and keeps files small and diffs stable. Each contour level and
each mesh is computed over whole arrays, in a per-cell loop's operation
order, and its numbers are written as byte rows by one two-decimal writer,
``_fixed2``, each exactly as ``"%.2f"`` writes it: the bytes are that
loop's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import ClassVar, Iterator
from xml.sax.saxutils import escape

import numpy as np

from .dynamics import NTPCurve
from .errors import DegenerateSurface, EmptyPlot, GridMismatch
from .kde import DensityCurve, StochasticKernel
from ._format17 import _PAD, _format17, _unpadded

_CURVE_X_LABEL = "relative income"
_KERNEL_X_LABEL, _KERNEL_Y_LABEL = "relative income at t", "relative income at t+τ"

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#7f3fbf", "#8c564b", "#e377c2")
_DASHES = (None, "8 5", "2 3", "9 3 2 3", "14 4", "5 2 1 2")

# Marching squares. A cell's case sets bit 1, 2, 4, 8 for its bl, br, tr, tl
# corner at or above the level; _SEGMENTS[case] lists the crossed edges each
# segment joins. _EDGES gives an edge's two corners as (di, dj) offsets.
_B, _R, _T, _L = range(4)
_EDGES = np.array(((0, 0, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1)))
_SEGMENTS = (
    (), ((_L, _B),), ((_B, _R),), ((_L, _R),),
    ((_R, _T),), ((_L, _T), (_B, _R)), ((_B, _T),), ((_L, _T),),
    ((_L, _T),), ((_B, _T),), ((_L, _B), (_R, _T)), ((_R, _T),),
    ((_L, _R),), ((_B, _R),), ((_L, _B),), (),
)
# _SEGMENTS as an array: _CASE_EDGES[case, k] holds the two edges of the
# case's k-th segment, or -1s past its last.
_CASE_EDGES = np.array([list(s) + [(-1, -1)] * (2 - len(s)) for s in _SEGMENTS])


@dataclass(frozen=True)
class PlotStyle:
    """The one figure style of every renderer. It has no settings: each
    value is a constant of the class."""

    width: ClassVar[int] = 640
    height: ClassVar[int] = 480
    margin: ClassVar[float] = 54.0
    font_size: ClassVar[float] = 12.0
    ramp: ClassVar[tuple] = ((0.93, 0.96, 1.00), (0.03, 0.19, 0.42))  # light to dark blue
    levels: ClassVar[int] = 9  # contour levels
    mesh_limit: ClassVar[int] = 64  # most mesh cells a side


def _px(x: float) -> str:
    return "%.2f" % x


# The two-decimal writer. A value's hundredths N = round(|v| * 100) are the
# rounded product's nearest integer. Below 10**5 every tie k + 1/2 is a
# double, so the rounded product lies on the exact product's side of each
# tie, or on the tie: a value whose product lies within 2**-30 of a tie,
# exact ties among them, is written by _px, as is one beyond the tables or
# not finite. A row is the sign byte, N // 100 right-aligned in three bytes,
# "." and two digits of N % 100, and one byte left for a separator; every
# byte no text uses is _PAD.
_FIXED2_WIDTH = 8


@cache
def _fixed2_tables() -> tuple[np.ndarray, np.ndarray]:
    """Four-byte words of ``_fixed2``'s rows: ``ints[i]`` is ``_PAD`` (the
    sign's byte) and i < 1000 right-aligned in three bytes, its leading
    zeros ``_PAD``; ``decs[d]`` is "." and the two digits of d < 100, then
    ``_PAD``."""
    i, d = np.arange(1000), np.arange(100)
    ints = np.full((1000, 4), ord(_PAD), np.uint8)
    for col, p in ((1, 100), (2, 10), (3, 1)):
        ints[:, col] = np.where((i >= p) | (p == 1), i // p % 10 + ord("0"), ord(_PAD))
    decs = np.full((100, 4), ord(_PAD), np.uint8)
    decs[:, 0], decs[:, 1], decs[:, 2] = ord("."), d // 10 + ord("0"), d % 10 + ord("0")
    return ints.view(np.uint32).ravel(), decs.view(np.uint32).ravel()


def _fixed2(values) -> np.ndarray:
    """``_px`` of each value as padded byte rows (see ``_format17._unpadded``):
    one row per value, ``_FIXED2_WIDTH`` bytes, or as wide as the longest
    text written by ``_px`` needs, with its last byte ``_PAD``."""
    v = np.asarray(values, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # such values are slow
        scaled = np.abs(v) * 100.0
        n = np.rint(scaled)
        slow = ~((np.abs(scaled - n) < 0.5 - 2.0**-30) & (n < 100000))
    n = np.where(slow, 0.0, n).astype(np.intp)  # a slow value's row is written below
    ints, decs = _fixed2_tables()
    words = np.empty((v.size, 2), np.uint32)
    whole = n // 100
    words[:, 0], words[:, 1] = ints[whole], decs[n - 100 * whole]
    text = words.view(np.uint8)
    text[np.signbit(v), 0] = ord("-")
    if slow.any():
        slow_text = [_px(x).encode("ascii") for x in v[slow].tolist()]
        width = max(_FIXED2_WIDTH, 1 + max(map(len, slow_text)))
        text = np.pad(text, ((0, 0), (0, width - _FIXED2_WIDTH)), constant_values=ord(_PAD))
        text[slow] = np.frombuffer(b"".join(t.ljust(width, _PAD) for t in slow_text),
                                   np.uint8).reshape(-1, width)
    return text


def _joined(*columns) -> np.ndarray:
    """Byte rows side by side: each column an (n, w) ``uint8`` array, or bytes
    written on every row."""
    widths = [len(c) if isinstance(c, bytes) else c.shape[1] for c in columns]
    n = next(len(c) for c in columns if not isinstance(c, bytes))
    rows = np.empty((n, sum(widths)), np.uint8)
    # each column one field of a row: a field's copy is one block of bytes
    fields = np.dtype({"names": [f"c{k}" for k in range(len(columns))],
                       "formats": [f"V{w}" for w in widths],
                       "offsets": np.cumsum([0] + widths[:-1]).tolist(), "itemsize": sum(widths)})
    view = rows.view(fields)[:, 0]
    for name, c, w in zip(fields.names, columns, widths):
        view[name] = c if isinstance(c, bytes) else np.ascontiguousarray(c).view(f"V{w}")[:, 0]
    return rows


def _ascii(rows: np.ndarray) -> str:
    """The text of padded byte rows of ASCII."""
    return _unpadded(rows).decode("ascii")


def _text(x: float, y: float, text: str, anchor: str | None = "middle", extra: str = "") -> str:
    """A ``<text>`` element at (x, y), its text escaped; ``anchor=None`` omits text-anchor."""
    return '<text x="%s" y="%s" font-size="%s"%s font-family="sans-serif"%s>%s</text>' % (
        _px(x), _px(y), _px(PlotStyle.font_size),
        ' text-anchor="%s"' % anchor if anchor else "", extra, escape(text))


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, cls: str = "") -> str:
    """A ``<line>`` element; ``stroke`` holds its stroke attributes."""
    return '<line%s x1="%s" y1="%s" x2="%s" y2="%s" %s/>' % (
        ' class="%s"' % cls if cls else "", _px(x1), _px(y1), _px(x2), _px(y2), stroke)


# the two hex digits of each byte value, as the two bytes of one uint16
_HEX = (np.frombuffer(b"0123456789abcdef", np.uint8)[np.arange(256)[:, None] >> [4, 0] & 15]
        .view(np.uint16).ravel())


def _ramp_colors(t) -> np.ndarray:
    """Ramp colours at the heights ``t``, each clipped to [0, 1] (NaN to 0),
    as byte rows "#rrggbb"."""
    lo, hi = (np.array(c) for c in PlotStyle.ramp)
    t = np.minimum(1.0, np.fmax(0.0, np.asarray(t, dtype=float)))[:, None]
    rgb = np.rint(255 * (lo + t * (hi - lo))).astype(np.intp)  # each channel in 0..255
    return _joined(b"#", _HEX.take(rgb).view(np.uint8))


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
        out.append(_line(X, style.height - m, X, style.height - m + 4, 'stroke="#333333"'))
        out.append(_text(X, style.height - m + 6 + fs, "%g" % t))
    for t in _ticks(ylo, yhi):
        Y = sy(t)
        out.append(_line(m - 4, Y, m, Y, 'stroke="#333333"'))
        out.append(_text(m - 7, Y + 0.35 * fs, "%g" % t, "end"))
    out.append(_text(m + w / 2, style.height - 6, x_label))
    if y_label:
        cx, cy = 14 + fs * 0.3, m + h / 2
        rotate = ' transform="rotate(-90 %s %s)"' % (_px(cx), _px(cy))
        out.append(_text(cx, cy, y_label, extra=rotate))
    return out


def render_curves(curves, style: PlotStyle = PlotStyle(), y_label: str = "") -> str:
    """Overlay labeled curves on a shared grid as an SVG line chart.

    ``curves`` is a sequence of (label, curve) pairs, each curve a
    DensityCurve or NTPCurve, drawn over relative income with ``y_label``
    on the y axis (none when empty). Series are distinguished by color and
    dash pattern (first solid, second dashed, then cycling) with a legend
    entry per series. A horizontal zero reference line appears whenever any
    value is negative or any curve is an NTP curve. NaN stretches
    (unsupported NTP points) leave gaps.
    """
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
    out += _axes(style, xlo, xhi, ylo, yhi, _CURVE_X_LABEL, y_label)
    if want_zero:
        out.append(_line(m, sy(0.0), m + w, sy(0.0), 'stroke="#999999" stroke-dasharray="4 4"',
                         "zero-line"))
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
        drawn = np.isfinite(v)
        if drawn.any():
            # a run of drawn points starts (M) after a point that is not drawn
            starts = ~np.concatenate(([False], drawn[:-1]))[drawn]
            xs, ys = _fixed2(sx(grid.points[drawn])), _fixed2(sy(v[drawn]))
            xs[:, -1] = ys[:, -1] = ord(" ")
            ys[-1, -1] = ord(_PAD)
            cmd = np.where(starts, ord("M"), ord("L")).astype(np.uint8)[:, None]
            path = _ascii(_joined(cmd, xs, ys))
            out.append('<path class="series" fill="none" %s d="%s"/>' % (stroke, path))
        row_y = ly + 8 + k * (fs + 8) + fs / 2
        legend.append(_line(lx + 6, row_y, lx + 34, row_y, stroke))
        legend.append(_text(lx + 40, row_y + 0.35 * fs, label, None))
    out += legend
    out.append("</svg>")
    return "\n".join(out + [""])


def render_contour(kernel: StochasticKernel, style: PlotStyle = PlotStyle()) -> str:
    """Contour map of a stochastic kernel, its 45-degree diagonal included.

    Level curves are traced by marching squares over the cells a level
    crosses: a cell's 4-bit corner case indexes the ``_SEGMENTS`` table, and
    a saddle (case 5 or 10) whose cell-centre average is below the level is
    drawn as the opposite saddle. All levels are traced at once, each over
    its crossing cells (row-major, then table order), and their paths
    written as byte rows, with the bytes of a cell-by-cell loop. The y = x
    diagonal is drawn dashed wherever the two axis ranges overlap, making
    deviation from pure persistence visible at a glance.
    """
    return _contour(kernel.grid.points, kernel.grid.points, kernel.rows, style)


def _contour(x, y, v, style: PlotStyle) -> str:
    """The contour map of values ``v[i, j]`` at increasing axis points ``x[i]``, ``y[j]``."""
    vmax = float(np.max(v))
    vmin = float(np.min(v))
    if vmax == vmin:
        raise DegenerateSurface("surface is constant; contours are undefined")
    levels = [(0.05 + 0.90 * i / (style.levels - 1)) * vmax for i in range(style.levels)]

    xlo, xhi = float(x[0]), float(x[-1])
    ylo, yhi = float(y[0]), float(y[-1])
    sx, sy = _scales(style, xlo, xhi, ylo, yhi)
    out = _svg_open(style)
    out += _axes(style, xlo, xhi, ylo, yhi, _KERNEL_X_LABEL, _KERNEL_Y_LABEL)

    dlo, dhi = max(xlo, ylo), min(xhi, yhi)
    if dlo < dhi:
        out.append(_line(sx(dlo), sy(dlo), sx(dhi), sy(dhi),
                         'stroke="#666666" stroke-dasharray="6 4"', "diagonal"))

    # A level crosses a cell when it lies above the cell's lowest corner and
    # at or below its highest, so each level visits its crossing cells only.
    corners = (v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:])
    low = np.minimum(np.minimum(corners[0], corners[1]), np.minimum(corners[2], corners[3]))
    high = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))
    colors = _ramp_colors(0.25 + 0.75 * (np.arange(1, len(levels) + 1) / len(levels)))
    # the crossing cells, level by level, each level's row-major
    crossing = [np.flatnonzero((low < level) & (level <= high)) for level in levels]
    ci, cj = np.divmod(np.concatenate(crossing), v.shape[1] - 1)
    k = np.repeat(np.arange(len(levels)), [len(c) for c in crossing])  # each cell's level
    level = np.take(levels, k)
    c = [v[ci + di, cj + dj] for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))]
    case = ((c[0] >= level) | (c[1] >= level) << 1 | (c[2] >= level) << 2
            | (c[3] >= level) << 3).astype(np.uint8)
    # A saddle whose centre is not at or above the level flips.
    centre = 0.25 * (c[0] + c[1] + c[2] + c[3])
    case[((case == 5) | (case == 10)) & ~(centre >= level)] ^= 15
    # One row per segment: the crossing cells in order, then table order.
    edges = _CASE_EDGES[case]
    drawn = edges[:, :, 0] >= 0
    per_cell = np.count_nonzero(drawn, axis=1)
    i, j, k, level = (np.repeat(a, per_cell)[:, None] for a in (ci, cj, k, level))
    ai, aj, bi, bj = np.moveaxis(_EDGES[edges[drawn]], -1, 0)
    # Each end where the level crosses its edge, by linear interpolation.
    a, b = v[i + ai, j + aj], v[i + bi, j + bj]
    t = (level - a) / (b - a)
    along_y = ai == bi
    ex = np.where(along_y, x[i + ai], x[i] + t * (x[i + 1] - x[i]))
    ey = np.where(along_y, y[j] + t * (y[j + 1] - y[j]), y[j + aj])
    ends = _fixed2(np.stack((sx(ex), sy(ey)), axis=-1))  # x1 y1 x2 y2, a row each
    ends[:, -1] = ord(" ")
    ends = ends.reshape(len(i), 2, 2 * ends.shape[1])
    segments = _joined(b"M", ends[:, 0], b"L", ends[:, 1])
    stops = np.cumsum(np.bincount(k.ravel(), minlength=len(levels)))
    for start, stop, color in zip([0, *stops[:-1]], stops, colors):
        if start == stop:
            continue
        segments[stop - 1, -1] = ord(_PAD)  # no space after a level's last segment
        out.append('<path class="level" fill="none" stroke="%s" stroke-width="1.1" d="%s"/>'
                   % (_ascii(color), _ascii(segments[start:stop])))
    out.append("</svg>")
    return "\n".join(out + [""])


def _mesh_indices(n: int, limit: int) -> np.ndarray:
    if n <= limit + 1:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, limit + 1)).astype(int))


def render_surface(kernel: StochasticKernel, style: PlotStyle = PlotStyle()) -> str:
    """Isometric 3-D mesh of a stochastic kernel.

    Each mesh vertex is projected and written once; the cell polygons are
    byte rows of their vertices' text, with the bytes of a cell-by-cell loop.
    Cells are painted back to front (painter's algorithm: far diagonals
    i + j first, each in ascending i), filled by the style ramp according
    to their mean height.
    Dense grids are thinned to ``style.mesh_limit`` cells per axis.
    """
    return _surface(kernel.grid.points, kernel.grid.points, kernel.rows, style)


def _surface(x, y, v, style: PlotStyle) -> str:
    """The mesh of values ``v[i, j]`` at increasing axis points ``x[i]``, ``y[j]``;
    a 2x2 input is a single cell."""
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
    vertex = _fixed2(np.stack((px, py), axis=-1))  # each vertex's x, then y
    vertex[0::2, -1], vertex[1::2, -1] = ord(","), ord(" ")
    vertex = vertex.reshape(px.size, -1)  # "x,y " with pads
    last = vertex.copy()  # a polygon's last vertex: "x,y\""
    last[:, -1] = ord('"')
    mean_z = 0.25 * (zn[:-1, :-1] + zn[1:, :-1] + zn[1:, 1:] + zn[:-1, 1:])
    ci, cj = np.indices(mean_z.shape).reshape(2, -1)
    order = np.lexsort((ci, -(ci + cj)))
    k = ci[order] * yi.size + cj[order]  # each cell's (i, j) vertex, in painter's order

    out = _svg_open(style)
    base = [project(0, 0, 0), project(1, 0, 0), project(1, 1, 0), project(0, 1, 0)]
    out.append(
        '<polygon class="base" points="%s" fill="#f4f4f4" stroke="#bbbbbb"/>'
        % " ".join("%s,%s" % (_px(X), _px(Y)) for X, Y in base)
    )
    cells = _joined(b'<polygon class="cell" points="', vertex.take(k, 0),
                    vertex.take(k + yi.size, 0), vertex.take(k + yi.size + 1, 0),
                    last.take(k + 1, 0), b' fill="', _ramp_colors(mean_z.ravel()[order]),
                    b'" stroke="#333333" stroke-width="0.25"/>\n')
    cells[-1, -1] = ord(_PAD)  # the figure's join puts the last LF
    out.append(_ascii(cells))
    fs = style.font_size
    xL = project(0.55, -0.08, 0)
    yL = project(-0.08, 0.55, 0)
    out.append(_text(xL[0], xL[1] + fs, _KERNEL_X_LABEL))
    out.append(_text(yL[0], yL[1] + fs, _KERNEL_Y_LABEL))
    out.append("</svg>")
    return "\n".join(out + [""])


_CSV_VALUES = 8192  # values per CSV chunk: 4,096 rows of two columns


def _csv_chunks(obj) -> Iterator[bytes]:
    """The bytes of ``export_csv(obj)`` as a stream of chunks.

    The input is checked before the first chunk is asked for. The header
    comes first; then each chunk holds as many whole rows as fit in 8,192
    values (4,096 rows of a two-column table, one row at the least),
    written by ``_format17`` as ``"%.17g"`` writes each value, so
    neither a long nor a wide table is ever held whole as text, nor its
    columns stacked whole.
    """
    if isinstance(obj, (DensityCurve, NTPCurve)):
        header = "x,density" if isinstance(obj, DensityCurve) else "x,ntp"
        columns = [obj.grid.points, obj.values]
    elif isinstance(obj, StochasticKernel):
        header = "x\\y," + _format17(obj.grid.points[None, :]).decode("ascii")[:-1]
        columns = [obj.grid.points, obj.rows]
    elif hasattr(obj, "x") and hasattr(obj, "y"):  # TransitionPairs
        header = "x,y"
        columns = [obj.x, obj.y]
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
        columns = [grid.points] + [c.values for c in curves]
    return _csv_rows(header, [np.asarray(c, dtype=float) for c in columns])


def _csv_rows(header: str, columns: list[np.ndarray]) -> Iterator[bytes]:
    """The header line, then the rows of the columns (1-D, or 2-D for several),
    stacked a chunk at a time."""
    yield (header + "\n").encode("utf-8")
    step = max(1, _CSV_VALUES // sum(1 if c.ndim == 1 else c.shape[1] for c in columns))
    for start in range(0, len(columns[0]), step):
        yield _format17(np.column_stack([c[start:start + step] for c in columns]))


def export_csv(obj) -> bytes:
    """Serialize a plotted array losslessly as CSV (LF endings).

    Handles DensityCurve (``x,density``), NTPCurve (``x,ntp``, NaN at
    unsupported points), TransitionPairs (``x,y``), a labeled curve
    collection (``x,<label>,...``), and a StochasticKernel
    as a wide matrix with x down the rows, y across the columns, and the
    corner cell labeled ``x\\y``. Floats carry 17 significant digits, so a
    round-trip parse reproduces every value bit for bit.
    """
    return b"".join(_csv_chunks(obj))
