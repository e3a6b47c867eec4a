"""Mode extraction, year comparisons and the per-group JSON report."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from distdyn import Grid, ProcessSpec, _quad, load_panel, simulate
from distdyn.dynamics import ErgodicSolution, NTPCurve
from distdyn.errors import EmptySelection, GridMismatch, MissingYear
from distdyn.kde import DensityCurve, density_1d, silverman_bandwidth
from distdyn.panel import build_transition_pairs, to_relative
from distdyn.report import (
    AnalysisReport,
    Mode,
    build_report,
    compare_years,
    find_modes,
    report_to_json,
)

from conftest import gaussian, trapezoid_weights


def curve_of(points, weights_mus_sds):
    vals = np.zeros_like(points)
    for w, mu, sd in weights_mus_sds:
        vals = vals + w * gaussian(points, mu, sd)
    return vals


class TestFindModes:
    def test_single_gaussian_single_mode(self):
        g = Grid.uniform(0.0, 3.0, 256)
        curve = DensityCurve.from_values(g, gaussian(g.points, 1.31, 0.25))
        modes = find_modes(curve)
        assert len(modes) == 1
        assert modes[0].location == pytest.approx(1.31, abs=g.spacing)

    def test_tied_plateau_is_not_a_strict_maximum(self):
        # a mean exactly halfway between grid points yields two equal
        # neighbors; strict-maximum detection deliberately reports nothing
        g = Grid.uniform(0.0, 3.0, 256)
        curve = DensityCurve.from_values(g, gaussian(g.points, 1.3, 0.25))
        assert find_modes(curve) == []

    def test_two_well_separated_modes(self):
        g = Grid.uniform(0.0, 3.0, 512)
        vals = curve_of(g.points, [(0.5, 0.5, 0.12), (0.5, 1.4, 0.12)])
        modes = find_modes(DensityCurve.from_values(g, vals))
        assert len(modes) == 2
        assert modes[0].location == pytest.approx(0.5, abs=0.01)
        assert modes[1].location == pytest.approx(1.4, abs=0.01)
        assert modes[0].location < modes[1].location

    def test_small_bump_filtered_by_prominence(self):
        g = Grid.uniform(0.0, 3.0, 512)
        vals = curve_of(g.points, [(0.97, 1.0, 0.15), (0.02, 2.2, 0.1)])
        curve = DensityCurve.from_values(g, vals)
        assert len(find_modes(curve, min_prominence=0.05)) == 1
        assert len(find_modes(curve, min_prominence=0.005)) == 2

    def test_prominence_matches_reference_implementation(self):
        rng = np.random.default_rng(61)
        g = Grid.uniform(0.0, 4.0, 256)
        for _ in range(10):
            vals = np.zeros_like(g.points)
            for _ in range(rng.integers(2, 5)):
                vals += rng.uniform(0.2, 1.0) * gaussian(
                    g.points, rng.uniform(0.4, 3.6), rng.uniform(0.05, 0.4)
                )
            curve = DensityCurve.from_values(g, vals)
            modes = find_modes(curve, min_prominence=0.0)
            peaks, _ = scipy.signal.find_peaks(curve.values)
            ref_proms = scipy.signal.peak_prominences(curve.values, peaks)[0]
            assert len(modes) == len(peaks)
            got = sorted(m.prominence for m in modes)
            want = sorted(ref_proms)
            assert np.allclose(got, want, atol=1e-12)

    def test_parabolic_refinement_recovers_exact_vertex(self):
        # quadratic values around an off-grid vertex: the three-point fit is
        # exact, so the reported location must hit the vertex to fp accuracy
        g = Grid.uniform(0.0, 10.0, 101)
        vertex = 5.03
        vals = 2.0 - (g.points - vertex) ** 2
        vals[vals < 0] = 0.0
        curve = DensityCurve.from_values(g, vals)
        modes = find_modes(curve, min_prominence=0.0)
        assert len(modes) == 1
        assert modes[0].location == pytest.approx(vertex, abs=1e-12)
        assert modes[0].value == pytest.approx(2.0 / _quad.integrate(g, vals), abs=1e-12)

    def test_uniform_density_has_no_modes(self):
        g = Grid.uniform(0.0, 1.0, 64)
        assert find_modes(DensityCurve.from_values(g, np.ones(64))) == []

    def test_boundary_maxima_are_not_modes(self):
        # strictly decreasing values: the peak sits on the boundary, which
        # is not a strict interior local maximum
        g = Grid.uniform(0.0, 1.0, 64)
        assert find_modes(DensityCurve.from_values(g, np.linspace(2.0, 1.0, 64))) == []

    def test_modes_sorted_by_location(self):
        g = Grid.uniform(0.0, 5.0, 512)
        vals = curve_of(
            g.points, [(0.4, 4.0, 0.15), (0.3, 1.0, 0.15), (0.3, 2.5, 0.15)]
        )
        modes = find_modes(DensityCurve.from_values(g, vals))
        locs = [m.location for m in modes]
        assert locs == sorted(locs)
        assert len(modes) == 3

    def test_bad_prominence(self):
        g = Grid.uniform(0.0, 1.0, 64)
        with pytest.raises(ValueError):
            find_modes(DensityCurve.from_values(g, np.ones(64)), min_prominence=-0.1)


class TestCompareYears:
    def _panel(self, rows):
        return load_panel(
            ("unit_id,sector,region,year,income\n" + "".join(r + "\n" for r in rows)).encode()
        )

    def test_same_year_twice_gives_identical_curves(self):
        rows = [f"h{u},urban,east,1999,{float(u + 1)!r}" for u in range(8)]
        panel = self._panel(rows)
        g = Grid.uniform(0.0, 10.0, 64)
        out = compare_years(panel, 1999, 1999, g)
        first, last = out["urban"]
        assert np.array_equal(first.values, last.values)

    def test_sectors_with_thin_years_skipped(self):
        rows = [f"h{u},urban,east,1999,{float(u + 1)!r}" for u in range(6)]
        rows += [f"h{u},urban,east,2005,{float(u + 2)!r}" for u in range(6)]
        rows += ["r0,rural,east,1999,1.0", "r0,rural,east,2005,1.5"]
        panel = self._panel(rows)
        out = compare_years(panel, 1999, 2005, Grid.uniform(0.0, 10.0, 64))
        assert "urban" in out
        assert "rural" not in out

    def test_missing_year(self):
        rows = [f"h{u},urban,east,1999,{float(u + 1)!r}" for u in range(6)]
        panel = self._panel(rows)
        with pytest.raises(MissingYear):
            compare_years(panel, 1999, 2005, Grid.uniform(0.0, 10.0, 64))

    def test_no_sector_thick_enough(self):
        rows = ["a,urban,east,1999,1.0", "b,rural,east,1999,2.0",
                "a,urban,east,2000,1.0", "b,rural,east,2000,2.0"]
        panel = self._panel(rows)
        with pytest.raises(EmptySelection):
            compare_years(panel, 1999, 2000, Grid.uniform(0.0, 10.0, 64))

    def test_stationary_process_changes_little(self):
        spec = ProcessSpec(kind="iid_lognormal", sigma=0.3, units=500, years=10, seed=19)
        panel = simulate(spec)
        years = panel.years()
        g = Grid.uniform(0.0, 3.5, 128)
        out = compare_years(panel, int(years.min()), int(years.max()), g)
        first, last = out["urban"]
        w = trapezoid_weights(g.points)
        assert np.sum(w * np.abs(first.values - last.values)) < 0.2


def make_report(grid=None, modes=(), crossings=(), shares=None):
    grid = grid or Grid.uniform(0.0, 2.0, 64)
    return AnalysisReport(
        group_label="pooled",
        sample_counts={"observations": 10, "units": 5, "pairs": 5},
        modes=tuple(modes),
        ntp_crossings=tuple(crossings),
        ergodic_residual=3.25e-11,
        ergodic_error_bound=4.5e-12,
        region_shares=shares if shares is not None else {"east": 0.5, "west": 0.5},
    )


class TestReportJson:
    def test_round_trips_through_json(self):
        report = make_report(
            modes=(
                Mode(location=0.48123456789012345, value=1.25, prominence=0.5),
                Mode(location=1.1, value=0.875, prominence=0.25),
            ),
            crossings=(0.7512345678901234,),
        )
        text = report_to_json(report)
        back = json.loads(text)
        assert back["group_label"] == "pooled"
        assert back["sample_counts"] == {"observations": 10, "units": 5, "pairs": 5}
        assert back["modes"][0]["location"] == 0.48123456789012345
        assert back["modes"][1]["value"] == 0.875
        assert back["ntp_crossings"] == [0.7512345678901234]
        assert back["ergodic_residual"] == 3.25e-11
        assert back["ergodic_error_bound"] == 4.5e-12
        assert back["region_shares"] == {"east": 0.5, "west": 0.5}

    def test_field_order_is_stable(self):
        text = report_to_json(make_report())
        order = [
            text.find('"group_label"'),
            text.find('"sample_counts"'),
            text.find('"modes"'),
            text.find('"ntp_crossings"'),
            text.find('"ergodic_residual"'),
            text.find('"ergodic_error_bound"'),
            text.find('"region_shares"'),
        ]
        assert all(i >= 0 for i in order)
        assert order == sorted(order)

    def test_empty_collections_serialize_as_empty_arrays(self):
        text = report_to_json(make_report(modes=(), crossings=()))
        assert '"modes": []' in text
        assert '"ntp_crossings": []' in text

    def test_region_shares_in_canonical_order(self):
        text = report_to_json(
            make_report(shares={"west": 0.25, "east": 0.25, "central": 0.5})
        )
        body = text[text.find('"region_shares"'):]
        assert body.find('"east"') < body.find('"central"') < body.find('"west"')

    def test_ends_with_newline(self):
        assert report_to_json(make_report()).endswith("}\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_raises(self, bad):
        report = make_report()
        with pytest.raises(ValueError):
            report_to_json(dataclasses.replace(report, ergodic_residual=bad))
        with pytest.raises(ValueError):
            report_to_json(dataclasses.replace(report, ergodic_error_bound=bad))
        with pytest.raises(ValueError):
            report_to_json(make_report(crossings=(bad,)))

    def test_floats_are_written_by_repr(self):
        x = 0.1 + 0.2  # repr 0.30000000000000004, "%.17g" 0.30000000000000004
        y = 1e-5       # repr 1e-05, "%.17g" 1.0000000000000001e-05
        text = report_to_json(make_report(crossings=(x, y, 2.0)))
        assert json.loads(text)["ntp_crossings"] == [x, y, 2.0]
        assert "[\n    0.30000000000000004,\n    1e-05,\n    2.0\n  ]" in text

    def test_unsorted_modes_rejected(self):
        with pytest.raises(ValueError):
            make_report(
                modes=(
                    Mode(location=1.1, value=1.0, prominence=0.5),
                    Mode(location=0.48, value=1.0, prominence=0.5),
                )
            )

    def test_bad_region_shares_rejected(self):
        with pytest.raises(ValueError):
            make_report(shares={"east": 0.5, "west": 0.25})


class TestBuildReport:
    def test_assembles_from_pipeline_pieces(self):
        rows = []
        rng = np.random.default_rng(67)
        for u in range(12):
            income = rng.uniform(1.0, 5.0)
            for year in (1999, 2000, 2001):
                region = ("east", "central", "west")[u % 3]
                rows.append(
                    f"h{u},urban,{region},{year},{income * rng.uniform(0.9, 1.1)!r}"
                )
        panel = to_relative(
            load_panel(
                ("unit_id,sector,region,year,income\n" + "".join(r + "\n" for r in rows)).encode()
            )
        )
        pairs = build_transition_pairs(panel, tau=1)
        g = Grid.uniform(0.0, 3.0, 64)
        h = silverman_bandwidth(pairs.x, 1)
        density = density_1d(pairs.x, h, g)
        ergodic = ErgodicSolution(density=density, residual=1e-12, error_bound=2e-13, iterations=3)
        values = np.full(64, np.nan)
        values[10:50] = 0.1
        ntp = NTPCurve(grid=g, values=values)
        report = build_report("pooled", panel, pairs, ergodic, ntp)
        assert report.group_label == "pooled"
        assert report.sample_counts["observations"] == 36
        assert report.sample_counts["units"] == 12
        assert report.sample_counts["pairs"] == 24
        assert report.ntp_crossings == ()
        assert report.ergodic_error_bound == 2e-13
        assert sum(report.region_shares.values()) == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        g = Grid.uniform(0.0, 3.0, 64)
        other = Grid.uniform(0.0, 3.0, 65)
        density = DensityCurve.from_values(g, gaussian(g.points, 1.0, 0.3))
        ergodic = ErgodicSolution(density=density, residual=1e-12, error_bound=2e-13, iterations=1)
        ntp = NTPCurve(grid=other, values=np.zeros(65))
        panel = to_relative(
            load_panel(
                b"unit_id,sector,region,year,income\n"
                b"a,urban,east,1999,1\nb,urban,east,1999,2\n"
                b"a,urban,east,2000,1\nb,urban,east,2000,2\n"
            )
        )
        pairs = build_transition_pairs(panel, tau=1)
        with pytest.raises(GridMismatch):
            build_report("pooled", panel, pairs, ergodic, ntp)


@given(
    mus=st.lists(st.floats(0.5, 3.5), min_size=1, max_size=4),
    seed=st.integers(0, 1000),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_mode_count_never_exceeds_component_count(mus, seed):
    # a mixture of k unimodal bumps has at most k strict local maxima
    rng = np.random.default_rng(seed)
    g = Grid.uniform(0.0, 4.0, 256)
    vals = np.zeros_like(g.points)
    for mu in mus:
        vals += rng.uniform(0.3, 1.0) * gaussian(g.points, mu, rng.uniform(0.08, 0.5))
    modes = find_modes(DensityCurve.from_values(g, vals), min_prominence=0.0)
    assert len(modes) <= len(mus)
