"""SVG rendering and lossless CSV export of analysis artifacts."""

import dataclasses
import hashlib
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from distdyn import Grid
from distdyn.dynamics import NTPCurve
from distdyn.errors import DegenerateSurface, EmptyPlot, GridMismatch
from distdyn.kde import DensityCurve, StochasticKernel
from distdyn._format17 import _PAD, _format17, _unpadded
from distdyn.panel import TransitionPairs
from distdyn.viz import (
    PlotStyle,
    _ascii,
    _contour,
    _csv_chunks,
    _escape,
    _fixed2,
    _ramp_colors,
    _surface,
    export_csv,
    render_contour,
    render_curves,
    render_surface,
)

from conftest import (
    gaussian,
    ramp_colors_each,
    render_contour_cells,
    render_curves_points,
    render_surface_cells,
)


def density(grid, mu=1.0, sd=0.3):
    return DensityCurve.from_values(grid, gaussian(grid.points, mu, sd))


def small_kernel(grid, sd=0.15):
    rows = np.stack([gaussian(grid.points, 0.3 + 0.7 * x, sd) for x in grid.points])
    return StochasticKernel.from_rows(grid, rows)


def parse_svg(text: str) -> ET.Element:
    return ET.fromstring(text)


STYLE = PlotStyle()


@pytest.mark.parametrize("label", ["a & b", "<x>", "\"quoted\" 'single'", "&amp;", "&<>\"'", "",
                                   "é &lt; ü"])
def test_escape_is_saxutils_escape(label):
    from xml.sax.saxutils import escape

    assert _escape(label) == escape(label)
    svg = render_curves([(label, density(Grid.uniform(0.0, 3.0, 16)))], STYLE)
    assert f">{escape(label)}</text>" in svg


class TestRenderCurves:
    def test_deterministic(self):
        g = Grid.uniform(0.0, 2.0, 64)
        curves = [("a", density(g, 0.8)), ("b", density(g, 1.2))]
        assert render_curves(curves) == render_curves(curves)

    def test_well_formed_xml(self):
        g = Grid.uniform(0.0, 2.0, 64)
        root = parse_svg(render_curves([("f", density(g))]))
        assert root.tag.endswith("svg")

    def test_legend_lists_every_label(self):
        g = Grid.uniform(0.0, 2.0, 64)
        text = render_curves([("first", density(g, 0.8)), ("second", density(g, 1.2))])
        assert ">first<" in text
        assert ">second<" in text

    def test_series_alternate_solid_and_dashed(self):
        g = Grid.uniform(0.0, 2.0, 64)
        text = render_curves([("a", density(g, 0.8)), ("b", density(g, 1.2))])
        paths = [ln for ln in text.splitlines() if "<path" in ln and "stroke-dasharray" not in ln]
        dashed = [ln for ln in text.splitlines() if "<path" in ln and "stroke-dasharray" in ln]
        assert len(paths) >= 1
        assert len(dashed) >= 1

    def test_ntp_curve_draws_zero_line(self):
        g = Grid.uniform(0.0, 2.0, 64)
        values = np.clip(1.0 - g.points, -1.0, 1.0)
        ntp = NTPCurve(grid=g, values=values)
        text = render_curves([("ntp", ntp)])
        assert 'class="zero-line"' in text or "zero" in text

    def test_density_only_plot_has_no_zero_line(self):
        g = Grid.uniform(0.0, 2.0, 64)
        with_zero = render_curves(
            [("n", NTPCurve(grid=g, values=np.zeros(64)))]
        )
        without = render_curves([("d", density(g))])
        def zero_lines(t):
            return t.count("zero")
        assert zero_lines(with_zero) > zero_lines(without)

    def test_nan_gap_splits_path(self):
        g = Grid.uniform(0.0, 2.0, 64)
        values = np.full(64, 0.25)
        values[30:34] = np.nan
        ntp = NTPCurve(grid=g, values=values)
        text = render_curves([("gap", ntp)])
        data = [
            ln for ln in text.splitlines()
            if "<path" in ln and "stroke-dasharray" not in ln and 'd="' in ln
        ]
        series = max(data, key=len)
        assert series.count("M") == 2

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyPlot):
            render_curves([])

    def test_mixed_grids_rejected(self):
        a = Grid.uniform(0.0, 2.0, 64)
        b = Grid.uniform(0.0, 2.0, 65)
        with pytest.raises(GridMismatch):
            render_curves([("a", density(a)), ("b", density(b))])

    def test_axis_labels_present(self):
        g = Grid.uniform(0.0, 2.0, 64)
        text = render_curves([("d", density(g))], y_label="net transition probability")
        assert ">relative income</text>" in text
        assert 'rotate(-90 17.60 240.00)">net transition probability</text>' in text
        assert "rotate(-90" not in render_curves([("d", density(g))])
        for kernel_figure in (render_contour, render_surface):
            text = kernel_figure(small_kernel(g))
            assert ">relative income at t</text>" in text
            assert ">relative income at t+τ</text>" in text


LABELS = ["a", "<b & c>", "\"q\" 's'", "α 1999", "x" * 30]
GAPS = ["none", "head", "tail", "both", "single", "runs", "all"]


def gapped(values, gap, rng):
    """``values`` with the NaN pattern ``gap``: a run at the head, the tail or
    both, one finite point between NaNs, random runs, or no finite point."""
    n = len(values)
    values = values.copy()
    cut = int(rng.integers(1, n // 2))
    if gap in ("head", "both"):
        values[:cut] = np.nan
    if gap in ("tail", "both"):
        values[n - cut:] = np.nan
    if gap == "single":
        values[np.arange(n) != cut] = np.nan
    if gap == "runs":
        values[np.repeat(rng.random(n // 4 + 1) < 0.4, 4)[:n]] = np.nan
    if gap == "all":
        values[:] = np.nan
    return values


@given(
    count=st.integers(16, 160),
    kinds=st.lists(st.sampled_from(["density", "ntp"]), min_size=1, max_size=3),
    gaps=st.lists(st.sampled_from(GAPS), min_size=3, max_size=3),
    labels=st.lists(st.sampled_from(LABELS), min_size=3, max_size=3),
    y_label=st.sampled_from(["", "density", "net <τ> & 'p'"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(count=64, kinds=["ntp"], gaps=["single", "none", "none"], labels=["a"] * 3,
         y_label="", seed=1)
@example(count=17, kinds=["ntp", "density", "ntp"], gaps=["all", "none", "both"],
         labels=LABELS[:3], y_label="density", seed=2)
@example(count=128, kinds=["ntp", "ntp"], gaps=["head", "tail", "none"], labels=LABELS[1:4],
         y_label="net <τ> & 'p'", seed=3)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_render_curves_matches_the_point_loop(count, kinds, gaps, labels, y_label, seed):
    # NTP values lie in [-1, 1], so they hold negative values and NaN gaps;
    # a density is finite. The grid starts below zero or above it.
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-2.0, 1.0)
    g = Grid.uniform(lower, lower + rng.uniform(0.5, 40.0), count)
    curves = []
    for kind, gap, label in zip(kinds, gaps, labels):
        if kind == "density":
            curve = DensityCurve.from_values(g, rng.random(count) + 1e-3)
        else:
            curve = NTPCurve(grid=g, values=gapped(rng.uniform(-1.0, 1.0, count), gap, rng))
        curves.append((label, curve))
    if not any(np.isfinite(c.values).any() for _, c in curves):
        with pytest.raises(EmptyPlot):
            render_curves(curves, y_label=y_label)
        return
    assert render_curves(curves, y_label=y_label) == render_curves_points(curves, y_label)


class TestRenderContour:
    def test_deterministic(self):
        g = Grid.uniform(0.0, 2.0, 48)
        kern = small_kernel(g)
        assert render_contour(kern) == render_contour(kern)

    def test_well_formed_xml(self):
        g = Grid.uniform(0.0, 2.0, 48)
        parse_svg(render_contour(small_kernel(g)))

    def test_constant_surface_rejected(self):
        g = Grid.uniform(0.0, 2.0, 32)
        with pytest.raises(DegenerateSurface):
            _contour(g.points, g.points, np.ones((32, 32)), STYLE)

    def test_default_level_count(self):
        g = Grid.uniform(0.0, 2.0, 48)
        text = render_contour(small_kernel(g))
        level_paths = [ln for ln in text.splitlines() if 'class="level"' in ln]
        assert 1 <= len(level_paths) <= 9

    def test_diagonal_reference_line(self):
        g = Grid.uniform(0.0, 2.0, 48)
        text = render_contour(small_kernel(g))
        assert "diagonal" in text

    def test_accepts_raw_triple(self):
        x = np.linspace(0.0, 1.0, 12)
        y = np.linspace(0.0, 1.0, 10)
        v = np.add.outer(np.sin(3 * x), np.cos(3 * y)) + 2.0
        text = _contour(x, y, v, STYLE)
        assert "<svg" in text

    def test_symmetric_input_symmetric_output(self):
        # a surface symmetric under (x, y) swap has a symmetric contour set:
        # rendering the transpose with swapped labels gives identical paths
        g = Grid.uniform(0.0, 2.0, 40)
        v = np.add.outer(gaussian(g.points, 1.0, 0.4), gaussian(g.points, 1.0, 0.4))
        a = _contour(g.points, g.points, v, STYLE)
        b = _contour(g.points, g.points, v.T, STYLE)
        assert a == b

    # 2x2 saddle cells, v[i, j] with bl=v[0,0], br=v[1,0], tr=v[1,1], tl=v[0,1].
    # The cell centre averages to 0.5. Of the nine levels at vmax = 1, level 3
    # (0.3875) lies below it, level 4 (0.5) at it and level 5 (0.6125) above.
    @pytest.mark.parametrize(
        "v, level, path",
        [
            # case 5 (bl, tr high), centre above: cut off tl, then br
            pytest.param([[1.0, 0.0], [0.2, 0.8]], 3,
                         "M54.00 198.15 L311.69 54.00 M461.31 426.00 L586.00 309.75",
                         id="case5-centre-above"),
            # case 5, centre at the level, which counts as above
            pytest.param([[1.0, 0.0], [0.2, 0.8]], 4,
                         "M54.00 240.00 L386.50 54.00 M386.50 426.00 L586.00 240.00",
                         id="case5-centre-at"),
            # case 5, centre below: cut off bl, then tr
            pytest.param([[1.0, 0.0], [0.2, 0.8]], 5,
                         "M54.00 281.85 L311.69 426.00 M586.00 170.25 L461.31 54.00",
                         id="case5-centre-below"),
            # case 10 (br, tl high), centre above: cut off bl, then tr
            pytest.param([[0.2, 0.8], [1.0, 0.0]], 3,
                         "M54.00 309.75 L178.69 426.00 M586.00 198.15 L328.31 54.00",
                         id="case10-centre-above"),
            # case 10, centre at the level, which counts as above
            pytest.param([[0.2, 0.8], [1.0, 0.0]], 4,
                         "M54.00 240.00 L253.50 426.00 M586.00 240.00 L253.50 54.00",
                         id="case10-centre-at"),
            # case 10, centre below: cut off tl, then br
            pytest.param([[0.2, 0.8], [1.0, 0.0]], 5,
                         "M54.00 170.25 L178.69 54.00 M328.31 426.00 L586.00 281.85",
                         id="case10-centre-below"),
        ],
    )
    def test_saddle_cell_paths(self, v, level, path):
        unit = np.array([0.0, 1.0])
        text = _contour(unit, unit, np.array(v), STYLE)
        paths = re.findall(r'class="level"[^>]* d="([^"]*)"', text)
        assert len(paths) == 9
        assert paths[level] == path

    def test_random_surface_bytes_pinned(self):
        # 82 saddle cells over the nine levels; the digest pins segment order,
        # saddle pairing and interpolation rounding of every crossing
        v = np.random.default_rng(7).random((12, 10))
        x, y = np.linspace(0.0, 2.0, 12), np.linspace(0.0, 3.0, 10)
        text = _contour(x, y, v, STYLE)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d0066c04dafa2e36b9d33d037e6308280dcda27c6655d24338b3d40c36cf786e"
        )


class TestRenderSurface:
    def test_random_surface_bytes_pinned(self):
        # unthinned meshes and one thinned to 64 rows; the digest pins the
        # painter's order, every projected vertex and every fill
        rng = np.random.default_rng(13)
        digest = hashlib.sha256()
        for shape in [(23, 17), (5, 40), (70, 3)]:
            v = rng.random(shape)
            x, y = np.linspace(-1.0, 2.0, shape[0]), np.linspace(0.5, 3.0, shape[1])
            digest.update(_surface(x, y, v, STYLE).encode())
        assert digest.hexdigest() == (
            "1f3de79f2607527a630904c7d1c404206640b4a0058ec561bbe21184eac9b573"
        )

    def test_deterministic(self):
        g = Grid.uniform(0.0, 2.0, 40)
        kern = small_kernel(g)
        assert render_surface(kern) == render_surface(kern)

    def test_well_formed_xml(self):
        g = Grid.uniform(0.0, 2.0, 40)
        parse_svg(render_surface(small_kernel(g)))

    def test_two_by_two_renders_single_cell(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        v = np.array([[0.0, 0.5], [0.5, 1.0]])
        text = _surface(x, y, v, STYLE)
        cells = [ln for ln in text.splitlines() if 'class="cell"' in ln]
        assert len(cells) == 1

    def test_mesh_thinning_caps_cell_count(self):
        g = Grid.uniform(0.0, 2.0, 200)
        kern = small_kernel(g)
        text = render_surface(kern)
        cells = [ln for ln in text.splitlines() if 'class="cell"' in ln]
        assert len(cells) <= 64 * 64

    def test_peak_cell_darkest(self):
        # one sharp central bump: the unique darkest fill must be used by
        # exactly one cell (the one under the peak)
        g = Grid.uniform(0.0, 2.0, 24)
        v = np.outer(gaussian(g.points, 1.0, 0.18), gaussian(g.points, 1.0, 0.18))
        text = _surface(g.points, g.points, v, STYLE)
        fills = [
            ln.split('fill="')[1].split('"')[0]
            for ln in text.splitlines()
            if 'class="cell"' in ln
        ]
        import collections
        darkest = min(fills, key=lambda c: int(c[1:3], 16) + int(c[3:5], 16) + int(c[5:7], 16))
        assert collections.Counter(fills)[darkest] == 1

    def test_constant_surface_rejected(self):
        g = Grid.uniform(0.0, 2.0, 24)
        with pytest.raises(DegenerateSurface):
            _surface(g.points, g.points, np.full((24, 24), 2.0), STYLE)


def outcome(render, *args):
    """The figure's text, or the name and message of what it raised."""
    try:
        return render(*args)
    except DegenerateSurface as exc:
        return f"{type(exc).__name__}: {exc}"


@given(
    nx=st.integers(2, 90),
    ny=st.integers(2, 90),
    values=st.sampled_from(["noise", "bumps", "integers"]),
    at_levels=st.booleans(),
    shift=st.sampled_from([0.0, -0.4]),
    offset=st.sampled_from([0.0, 1e13]),
    seed=st.integers(0, 2**32 - 1),
)
@example(nx=65, ny=66, values="noise", at_levels=True, shift=0.0, offset=1e13, seed=1)
@example(nx=129, ny=3, values="integers", at_levels=False, shift=0.0, offset=0.0, seed=2)
@example(nx=2, ny=129, values="bumps", at_levels=True, shift=-0.4, offset=0.0, seed=3)
# No shrink phase: each shrink step reruns the per-cell oracles, so a failure
# would take minutes to report instead of seconds.
@settings(max_examples=20, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_renderers_match_cell_loops(nx, ny, values, at_levels, shift, offset, seed):
    # The whole-array cores write the bytes of the per-cell loops: noise
    # has saddle cells at every level, integers 0..4 put corners and saddle
    # centres exactly on level 4 (half of vmax), and at_levels sets a fifth
    # of the values exactly to a level. 65 points a side is the largest
    # unthinned mesh; 66 and 129 are thinned to 64 cells. Axes offset by
    # 1e13 keep a spacing of 25 to 500 ulps, so an end point summed in
    # another order moves by a hundredth of a pixel and shows in the text.
    rng = np.random.default_rng(seed)
    x = offset + rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.05, 1.0, nx))
    y = offset + np.linspace(rng.uniform(0.0, 1.0), rng.uniform(1.5, 4.0), ny)
    if values == "noise":
        v = rng.random((nx, ny))
    elif values == "bumps":
        u, w = np.linspace(0.0, 1.0, nx)[:, None], np.linspace(0.0, 1.0, ny)[None, :]
        v = sum(rng.uniform(0.2, 1.0) * np.exp(-((u - rng.random()) ** 2 + (w - rng.random()) ** 2)
                                               / rng.uniform(0.01, 0.1)) for _ in range(3))
    else:
        v = rng.integers(0, 5, (nx, ny)).astype(float)
    vmax = float(np.max(v))
    if at_levels:
        levels = [(0.05 + 0.90 * i / (PlotStyle.levels - 1)) * vmax for i in range(PlotStyle.levels)]
        on = (rng.random(v.shape) < 0.2) & (v < vmax)
        v[on] = np.array(levels)[rng.integers(0, len(levels), int(on.sum()))]
    v = v + shift
    # Compared line by line, pytest names the first differing line at once;
    # its diff of two whole SVG texts runs for many seconds.
    for core, oracle in ((_contour, render_contour_cells), (_surface, render_surface_cells)):
        got, want = outcome(core, x, y, v, STYLE), outcome(oracle, x, y, v)
        assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


class TestPlotStyle:
    def test_has_no_settings(self):
        assert dataclasses.fields(PlotStyle) == ()
        with pytest.raises(TypeError):
            PlotStyle(width=300)


class TestExportCsv:
    def test_density_curve_round_trip(self):
        g = Grid.uniform(0.0, 2.0, 64)
        curve = density(g, 0.9, 0.21)
        raw = export_csv(curve).decode()
        lines = raw.strip().split("\n")
        assert lines[0] == "x,density"
        assert len(lines) == 65
        xs, vs = zip(*(map(float, ln.split(",")) for ln in lines[1:]))
        assert np.array_equal(np.array(xs), g.points)
        assert np.array_equal(np.array(vs), curve.values)

    def test_ntp_curve_with_nan(self):
        g = Grid.uniform(0.0, 2.0, 64)
        values = np.full(64, 0.5)
        values[:5] = np.nan
        ntp = NTPCurve(grid=g, values=values)
        raw = export_csv(ntp).decode()
        lines = raw.strip().split("\n")
        assert lines[0] == "x,ntp"
        assert lines[1].endswith("nan")
        back = float(lines[1].split(",")[1])
        assert math.isnan(back)

    def test_kernel_matrix_layout(self):
        g = Grid.uniform(0.0, 2.0, 32)
        kern = small_kernel(g)
        raw = export_csv(kern).decode()
        lines = raw.strip().split("\n")
        assert lines[0].startswith("x\\y,")
        assert len(lines) == 33
        assert len(lines[0].split(",")) == 33
        row3 = np.array([float(c) for c in lines[3].split(",")[1:]])
        assert np.array_equal(row3, kern.rows[2])

    def test_pairs_export(self):
        pairs = TransitionPairs(
            x=np.array([0.5, 1.5, 2.5]), y=np.array([0.6, 1.4, 2.7])
        )
        raw = export_csv(pairs).decode()
        lines = raw.strip().split("\n")
        assert lines[0] == "x,y"
        assert lines[2] == "1.5,1.3999999999999999"

    def test_labeled_curve_collection(self):
        g = Grid.uniform(0.0, 2.0, 64)
        raw = export_csv([("urban 1999", density(g, 0.8)), ("urban 2013", density(g, 1.2))])
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "x,urban 1999,urban 2013"
        assert len(lines[1].split(",")) == 3

    def test_lf_endings(self):
        g = Grid.uniform(0.0, 2.0, 64)
        raw = export_csv(density(g))
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_empty_collection_rejected(self):
        with pytest.raises(EmptyPlot):
            export_csv([])

    def test_mismatched_collection_rejected(self):
        a = Grid.uniform(0.0, 2.0, 64)
        b = Grid.uniform(0.0, 2.0, 65)
        with pytest.raises(GridMismatch):
            export_csv([("a", density(a)), ("b", density(b))])


def csv_by_value(header, columns):
    """CSV as written one "%.17g" per value, one line per row."""
    lines = [header] + [",".join("%.17g" % float(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsvChunks:
    def test_pairs_are_bytewise_the_per_value_text(self):
        rng = np.random.default_rng(59)
        x = rng.lognormal(0.0, 1.0, 10000)
        y = rng.lognormal(0.0, 1.0, 10000)
        x[:6] = [0.0, -0.0, 5e-324, 1e300, 1.0 / 3.0, 2.0**53 + 2]
        pairs = TransitionPairs(x=x, y=y)
        chunks = list(_csv_chunks(pairs))
        assert len(chunks) == 1 + 3  # header, then 4096-row chunks of two columns
        assert b"".join(chunks) == export_csv(pairs) == csv_by_value("x,y", (x, y))

    def test_every_kind_is_bytewise_the_per_value_text(self):
        g = Grid.uniform(0.0, 2.0, 32)
        kern = small_kernel(g)
        assert export_csv(kern) == csv_by_value(
            "x\\y," + ",".join("%.17g" % v for v in g.points), (g.points, *kern.rows.T)
        )
        values = np.full(32, 0.25)
        values[:5] = np.nan
        ntp = NTPCurve(grid=g, values=values)
        assert export_csv(ntp) == csv_by_value("x,ntp", (g.points, values))
        a, b = density(g, 0.8), density(g, 1.2)
        assert export_csv([("α 1999", a), ("b", b)]) == csv_by_value(
            "x,α 1999,b", (g.points, a.values, b.values)
        )

    def test_wide_table_is_chunked_by_values(self):
        g = Grid.uniform(0.0, 2.0, 300)
        rows = np.outer(gaussian(g.points, 1.0, 0.3), gaussian(g.points, 1.1, 0.4))
        kern = StochasticKernel.from_rows(g, rows)
        chunks = list(_csv_chunks(kern))
        assert len(chunks) == 1 + 12  # header, then 8192 // 301 = 27 rows a chunk
        assert b"".join(chunks) == csv_by_value(
            "x\\y," + ",".join("%.17g" % v for v in g.points), (g.points, *kern.rows.T)
        )

    def test_bad_input_fails_before_the_first_chunk(self):
        with pytest.raises(EmptyPlot):
            _csv_chunks([])


def per_value_text(values, columns):
    """The CSV text of ``values`` as one "%.17g" per value, ``columns`` to a row."""
    return csv_by_value("", [values[k::columns] for k in range(columns)])[1:]


def formatter_edges():
    """Zeros, NaNs and infinities, subnormals, every power of 10 and of 2 with
    its neighbours, and values whose 18-digit decimal ends in a 5: exact ties."""
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.225073858507201e-308,
              2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, 2.0**53 + 2]
    for power in [float(f"1e{k}") for k in range(-323, 309)] + [2.0**e for e in range(-1074, 1024)]:
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
    for e in range(2, 60):  # q / 2**e, q odd, just above 10**(17 - e): 18 digits
        q = -(-(2**e * 10 ** max(17 - e, 0)) // 10 ** max(e - 17, 0)) | 1
        values += [q / 2**e, (q + 2) / 2**e, (q + 4) / 2**e]
    values = np.array(values)
    return np.concatenate((values, -values))


class TestFormat17:
    @pytest.mark.parametrize("columns", [1, 2, 7])
    def test_edges_are_the_per_value_text(self, columns):
        values = formatter_edges()
        values = values[:len(values) // columns * columns]
        assert _format17(values.reshape(-1, columns)) == per_value_text(values, columns)

    def test_random_bit_patterns_are_the_per_value_text(self):
        bits = np.random.default_rng(24).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert _format17(values.reshape(-1, 4)) == per_value_text(values, 4)

    def test_tables_are_built_on_first_use(self):
        probe = ("import sys, distdyn.cli; from distdyn import _format17 as f; "
                 "print(f._pow10.cache_info().currsize, f._text_tables.cache_info().currsize, "
                 "'fractions' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0", "False"]


def fixed2_texts(values) -> list[str]:
    """Each row of ``_fixed2(values)`` as text; every row ends in ``_PAD``."""
    rows = _fixed2(values)
    assert (rows[:, -1] == ord(_PAD)).all()
    rows[:, -1] = ord("\n")
    return _unpadded(rows).decode("ascii").split("\n")[:-1]


def per_value_2f(values) -> list[str]:
    return ["%.2f" % v for v in np.asarray(values, dtype=float).tolist()]


def fixed2_edges() -> np.ndarray:
    """Binary ties (k/8, k/64), decimal near-ties x.xx5 and one ulp either
    side, values that print "-0.00", carries into a new digit, and each edge
    of the tables (integer parts 0 and 999, 100,000 hundredths)."""
    h = np.concatenate((np.arange(300), np.arange(300, 99700, 37), np.arange(99700, 100100)))
    near = (h + 0.5) / 100  # the double nearest to each x.xx5
    carries = np.array([0.995, 9.995, 99.995, 999.995, 9999.995, 0.9951, 9.9951, 99.9951,
                        999.9951, 99999.995])
    values = np.concatenate((
        np.arange(-8200, 8200) / 8, np.arange(-4000, 4000) / 64,
        near, np.nextafter(near, 0.0), np.nextafter(near, np.inf), carries,
        np.nextafter(carries, 0.0), np.nextafter(carries, np.inf),
        [0.0, 0.004, 0.0049999999, 0.005, 1e-300, 5e-324, 999.99, 999.994, 999.9949999999,
         1000.0, 1000.004, 0.1 + 0.2, 2.675, 1.005, 1e15, 1e16 + 2, 1.7976931348623157e308],
        [np.nan, -np.nan, np.inf],
    ))
    return np.concatenate((values, -values))


class TestFixed2:
    def test_edges_are_the_per_value_text(self):
        values = fixed2_edges()
        assert fixed2_texts(values) == per_value_2f(values)

    def test_random_bit_patterns_are_the_per_value_text(self):
        rng = np.random.default_rng(30)
        values = np.concatenate((rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
                                 rng.uniform(-50.0, 700.0, 100_000),
                                 np.round(rng.uniform(-1200.0, 1200.0, 100_000), 3)))
        assert fixed2_texts(values) == per_value_2f(values)

    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64))),
        st.floats(-1000.0, 1000.0),
        st.integers(-100_000, 100_000).map(lambda n: (n + 0.5) / 100),
        st.floats(1e15, 1e300),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -0.004, 999.995, 9999.995]),
    ), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_value_is_the_per_value_text(self, values):
        assert fixed2_texts(values) == per_value_2f(values)

    def test_rows_are_eight_bytes_unless_a_text_needs_more(self):
        assert _fixed2([0.0, -123.456, 999.99]).shape == (3, 8)
        assert _fixed2([1.0, -1000.0]).shape == (2, 9)  # "-1000.00" and a pad
        assert _fixed2([1e300]).shape[1] == len("%.2f" % 1e300) + 1
        assert _fixed2([]).shape == (0, 8)

    def test_tables_are_built_on_first_use(self):
        probe = ("import distdyn.cli; from distdyn import viz; "
                 "print(viz._fixed2_tables.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0"]


def test_ramp_colors_are_the_per_colour_text():
    t = np.concatenate((np.linspace(-0.5, 1.5, 2001), [np.nan, np.inf, -np.inf, 0.5 / 255]))
    colors = _ramp_colors(t)
    assert colors.shape == (len(t), 7)
    assert _ascii(colors).split("#")[1:] == [c[1:] for c in ramp_colors_each(t)]


def test_compare_years_figure_keeps_its_bytes(demo_panel_path, tmp_path):
    # sha256 of compare.svg as the per-point loop wrote it
    from distdyn.cli import main
    assert main(["compare-years", "--input", str(demo_panel_path), "--out-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "compare.svg").read_bytes()).hexdigest() == (
        "3dd5c04f0f069a1a55eb3df8c2a63200369da00a4c6368bc82b17b753af15cb7")
