"""End-to-end pipeline wiring: preparation, grouping and kernel estimation."""

import numpy as np
import pytest

from distdyn import (
    Grid,
    ProcessSpec,
    _quad,
    analyze_group,
    default_grid,
    load_panel,
    prepare_panel,
    simulate,
)
from distdyn.errors import NotConverged
from distdyn.panel import build_transition_pairs
from distdyn.pipeline import GroupResult, KernelEstimate, estimate_kernel, expand_groups
from distdyn.report import report_to_json

HEADER = "unit_id,sector,region,year,income\n"


def mixed_panel():
    rows = []
    rng = np.random.default_rng(71)
    for u in range(24):
        sector = "urban" if u < 16 else "rural"
        region = ("east", "central", "west")[u % 3]
        base = rng.uniform(0.5, 3.0)
        for year in (1999, 2000, 2001, 2002):
            income = base * float(rng.uniform(0.85, 1.15))
            rows.append(f"h{u:02d},{sector},{region},{year},{income!r}")
    return load_panel((HEADER + "".join(r + "\n" for r in rows)).encode())


class TestPreparePanel:
    def test_normalizes_to_relative(self):
        prepared = prepare_panel(mixed_panel())
        assert prepared.is_relative
        for year in prepared.years():
            assert prepared.income[prepared.year == year].mean() == pytest.approx(
                1.0, abs=1e-12
            )

    def test_deflates_when_cpi_present(self):
        text = (
            "unit_id,sector,region,year,income,cpi\n"
            "a,urban,east,1999,100,100\n"
            "b,urban,east,1999,300,100\n"
            "a,urban,east,2000,220,110\n"
            "b,urban,east,2000,660,110\n"
        )
        prepared = prepare_panel(load_panel(text.encode()))
        # real incomes are (100, 300, 200, 600); relative within year the same
        assert np.allclose(prepared.income, [0.5, 1.5, 0.5, 1.5], atol=1e-12)

    def test_scope_forwarded(self):
        prepared = prepare_panel(mixed_panel(), scope="per_sector")
        for sector in ("urban", "rural"):
            sel = prepared.income[(prepared.sector == sector) & (prepared.year == 1999)]
            assert sel.mean() == pytest.approx(1.0, abs=1e-12)


class TestDefaultGrid:
    def test_spans_zero_to_factor_times_max(self):
        panel = prepare_panel(mixed_panel())
        g = default_grid(panel)
        assert g.count == 256
        assert g.points[0] == 0.0
        assert g.points[-1] == pytest.approx(1.1 * panel.income.max(), rel=1e-15)

    def test_custom_count_and_factor(self):
        panel = prepare_panel(mixed_panel())
        g = default_grid(panel, count=64, upper_factor=2.0)
        assert g.count == 64
        assert g.points[-1] == pytest.approx(2.0 * panel.income.max(), rel=1e-15)

    def test_bad_factor(self):
        panel = prepare_panel(mixed_panel())
        with pytest.raises(ValueError):
            default_grid(panel, upper_factor=0.0)


class TestExpandGroups:
    def test_pooled(self):
        panel = prepare_panel(mixed_panel())
        groups = expand_groups(panel, "pooled")
        assert [label for label, _ in groups] == ["pooled"]
        assert len(groups[0][1]) == len(panel)

    def test_per_sector(self):
        panel = prepare_panel(mixed_panel())
        labels = [label for label, _ in expand_groups(panel, "per-sector")]
        assert labels == ["urban", "rural"]

    def test_per_region_only_present(self):
        panel = prepare_panel(mixed_panel())
        labels = [label for label, _ in expand_groups(panel, "per-region")]
        assert labels == ["east", "central", "west"]  # no units in "other"

    def test_poorest_fraction(self):
        panel = prepare_panel(mixed_panel())
        groups = dict(expand_groups(panel, "poorest-fraction", fraction=0.25))
        assert "poorest" in groups
        sub = groups["poorest"]
        # ceil(0.25 * 16) + ceil(0.25 * 8) = 4 + 2 units
        assert len(set(zip(sub.unit_id, sub.sector))) == 6

    def test_combined_tokens_preserve_order(self):
        panel = prepare_panel(mixed_panel())
        labels = [label for label, _ in expand_groups(panel, "pooled,per-sector")]
        assert labels == ["pooled", "urban", "rural"]

    def test_unknown_token(self):
        panel = prepare_panel(mixed_panel())
        with pytest.raises(ValueError):
            expand_groups(panel, "pooled,per-village")

    def test_repeated_tokens_count_once(self):
        panel = prepare_panel(mixed_panel())
        labels = [label for label, _ in expand_groups(panel, "pooled,per-sector,pooled")]
        assert labels == ["pooled", "urban", "rural"]

    def test_no_tokens(self):
        panel = prepare_panel(mixed_panel())
        with pytest.raises(ValueError):
            expand_groups(panel, " , ")

    def test_underscore_aliases_accepted(self):
        panel = prepare_panel(mixed_panel())
        labels = [label for label, _ in expand_groups(panel, "per_sector")]
        assert labels == ["urban", "rural"]


class TestEstimateKernel:
    def test_estimate_pieces_consistent(self):
        panel = prepare_panel(mixed_panel())
        grid = default_grid(panel, count=64)
        est = estimate_kernel(panel, grid, tau=1)
        assert isinstance(est, KernelEstimate)
        assert len(est.pairs) == 72  # 24 units x 3 consecutive-year pairs
        assert est.joint.grid == grid
        assert est.kernel.grid == grid
        assert abs(_quad.integrate(grid, est.marginal.values) - 1.0) < 1e-6
        assert est.kernel.n_supported > 0

    def test_bandwidth_overrides(self):
        panel = prepare_panel(mixed_panel())
        grid = default_grid(panel, count=64)
        est = estimate_kernel(panel, grid, bandwidth_x=0.33, bandwidth_y=0.21)
        assert est.bandwidths.h_x == 0.33
        assert est.bandwidths.h_y == 0.21

    def test_larger_tau_reduces_pairs(self):
        panel = prepare_panel(mixed_panel())
        grid = default_grid(panel, count=64)
        est1 = estimate_kernel(panel, grid, tau=1)
        est3 = estimate_kernel(panel, grid, tau=3)
        assert len(est3.pairs) == 24
        assert len(est1.pairs) > len(est3.pairs)


class TestAnalyzeGroup:
    def test_full_group_result(self):
        spec = ProcessSpec(kind="ar1_log", rho=0.6, sigma=0.25, units=150, years=8, seed=13)
        panel = prepare_panel(simulate(spec))
        grid = default_grid(panel, count=96)
        result = analyze_group("pooled", panel, grid)
        assert isinstance(result, GroupResult)
        assert result.label == "pooled"
        assert result.ergodic.residual <= 1e-9
        assert abs(_quad.integrate(grid, result.ergodic.density.values) - 1.0) < 1e-6
        assert result.report.sample_counts["pairs"] == 150 * 7
        assert result.report.group_label == "pooled"
        assert len(result.components) >= 1
        values = result.ntp.values
        assert np.all(np.abs(values[~np.isnan(values)]) <= 1.0)

    def test_on_estimate_sees_kernel_and_ntp_before_solve(self):
        spec = ProcessSpec(kind="ar1_log", rho=0.6, sigma=0.25, units=60, years=6, seed=13)
        panel = prepare_panel(simulate(spec))
        grid = default_grid(panel, count=64)
        seen = []
        with pytest.raises(NotConverged):
            analyze_group(
                "pooled", panel, grid, max_iter=1,
                on_estimate=lambda est, ntp: seen.append((est, ntp)),
            )
        assert len(seen) == 1
        result = analyze_group("pooled", panel, grid)
        est, ntp = seen[0]
        assert np.array_equal(est.kernel.rows, result.estimate.kernel.rows)
        assert np.array_equal(ntp.values, result.ntp.values, equal_nan=True)

    def test_report_serializes(self):
        spec = ProcessSpec(kind="iid_lognormal", sigma=0.3, units=80, years=5, seed=3)
        panel = prepare_panel(simulate(spec))
        grid = default_grid(panel, count=64)
        result = analyze_group("pooled", panel, grid)
        text = report_to_json(result.report)
        assert text.startswith("{")
        assert '"group_label": "pooled"' in text
