"""SVG rendering and lossless CSV export of analysis artifacts."""

import dataclasses
import hashlib
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from distdyn import Grid
from distdyn.dynamics import NTPCurve
from distdyn.errors import DegenerateSurface, EmptyPlot, GridMismatch
from distdyn.kde import DensityCurve, StochasticKernel
from distdyn.panel import TransitionPairs
from distdyn.viz import (
    PlotStyle,
    _csv_chunks,
    export_csv,
    render_contour,
    render_curves,
    render_surface,
)

from conftest import gaussian


def density(grid, mu=1.0, sd=0.3):
    return DensityCurve.from_values(grid, gaussian(grid.points, mu, sd))


def small_kernel(grid, sd=0.15):
    rows = np.stack([gaussian(grid.points, 0.3 + 0.7 * x, sd) for x in grid.points])
    return StochasticKernel.from_rows(grid, grid, rows)


def parse_svg(text: str) -> ET.Element:
    return ET.fromstring(text)


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
        ntp = NTPCurve(grid=g, values=values, supported=np.ones(64, dtype=bool))
        text = render_curves([("ntp", ntp)])
        assert 'class="zero-line"' in text or "zero" in text

    def test_density_only_plot_has_no_zero_line(self):
        g = Grid.uniform(0.0, 2.0, 64)
        with_zero = render_curves(
            [("n", NTPCurve(grid=g, values=np.zeros(64), supported=np.ones(64, dtype=bool)))]
        )
        without = render_curves([("d", density(g))])
        def zero_lines(t):
            return t.count("zero")
        assert zero_lines(with_zero) > zero_lines(without)

    def test_nan_gap_splits_path(self):
        g = Grid.uniform(0.0, 2.0, 64)
        values = np.full(64, 0.25)
        values[30:34] = np.nan
        ntp = NTPCurve(grid=g, values=values, supported=np.isfinite(values))
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
            render_contour((g.points, g.points, np.ones((32, 32))))

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
        text = render_contour((x, y, v))
        assert "<svg" in text

    def test_rejects_tiny_axes(self):
        with pytest.raises(ValueError):
            render_contour((np.array([0.0]), np.array([0.0, 1.0]), np.ones((1, 2))))

    def test_symmetric_input_symmetric_output(self):
        # a surface symmetric under (x, y) swap has a symmetric contour set:
        # rendering the transpose with swapped labels gives identical paths
        g = Grid.uniform(0.0, 2.0, 40)
        v = np.add.outer(gaussian(g.points, 1.0, 0.4), gaussian(g.points, 1.0, 0.4))
        a = render_contour((g.points, g.points, v))
        b = render_contour((g.points, g.points, v.T))
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
        text = render_contour((unit, unit, np.array(v)))
        paths = re.findall(r'class="level"[^>]* d="([^"]*)"', text)
        assert len(paths) == 9
        assert paths[level] == path

    def test_random_surface_bytes_pinned(self):
        # 82 saddle cells over the nine levels; the digest pins segment order,
        # saddle pairing and interpolation rounding of every crossing
        v = np.random.default_rng(7).random((12, 10))
        x, y = np.linspace(0.0, 2.0, 12), np.linspace(0.0, 3.0, 10)
        text = render_contour((x, y, v))
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
            digest.update(render_surface((x, y, v)).encode())
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
        text = render_surface((x, y, v))
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
        text = render_surface((g.points, g.points, v))
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
            render_surface((g.points, g.points, np.full((24, 24), 2.0)))


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
        ntp = NTPCurve(grid=g, values=values, supported=np.isfinite(values))
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
            x=np.array([0.5, 1.5, 2.5]), y=np.array([0.6, 1.4, 2.7]), tau=1
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
        pairs = TransitionPairs(x=x, y=y, tau=1)
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
        ntp = NTPCurve(grid=g, values=values, supported=np.isfinite(values))
        assert export_csv(ntp) == csv_by_value("x,ntp", (g.points, values))
        a, b = density(g, 0.8), density(g, 1.2)
        assert export_csv([("α 1999", a), ("b", b)]) == csv_by_value(
            "x,α 1999,b", (g.points, a.values, b.values)
        )

    def test_wide_table_is_chunked_by_values(self):
        gx = Grid.uniform(0.0, 2.0, 40)
        gy = Grid.uniform(0.0, 2.0, 300)
        rows = np.outer(gaussian(gx.points, 1.0, 0.3), gaussian(gy.points, 1.1, 0.4))
        kern = StochasticKernel.from_rows(gx, gy, rows)
        chunks = list(_csv_chunks(kern))
        assert len(chunks) == 1 + 2  # header, then 8192 // 301 = 27 rows a chunk
        assert b"".join(chunks) == csv_by_value(
            "x\\y," + ",".join("%.17g" % v for v in gy.points), (gx.points, *kern.rows.T)
        )

    def test_bad_input_fails_before_the_first_chunk(self):
        with pytest.raises(EmptyPlot):
            _csv_chunks([])
