"""Synthetic income process generators used as verification oracles."""

import importlib.util
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from conftest import simulate_unit_loop
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distdyn import (
    DEMO_SPEC,
    Grid,
    ProcessSpec,
    _quad,
    club_assignments,
    dump_panel,
    simulate,
    stationary_density,
)
from distdyn.errors import InvalidSpec, NoClosedForm
from distdyn.synthesis import club_share, stationary_log_sd


class TestProcessSpec:
    def test_defaults(self):
        spec = ProcessSpec(kind="ar1_log")
        assert spec.units == 400
        assert spec.years == 15
        assert spec.seed == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="random_walk")

    def test_rejects_rho_one(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="ar1_log", rho=1.0)

    def test_rejects_negative_rho(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="ar1_log", rho=-0.2)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="ar1_log", sigma=0.0)

    def test_iid_forces_zero_rho(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="iid_lognormal", rho=0.5)
        assert ProcessSpec(kind="iid_lognormal").rho == 0.0

    def test_club_centers_must_increase(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="two_club", club_centers=(1.1, 0.48))

    def test_club_centers_must_be_positive(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="two_club", club_centers=(0.0, 1.1))

    def test_club_pull_range(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="two_club", club_pull=0.0)
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="two_club", club_pull=1.5)

    @pytest.mark.parametrize("sigma, pull", [(0.2, 1e-17), (0.2, 5e-324), (50.0, 0.3), (1e170, 0.3)])
    def test_rejects_club_spread_out_of_float_range(self, sigma, pull):
        # 1 - (1 - pull)^2 rounds to 0, or exp(sd^2 / 2) overflows
        with pytest.raises(InvalidSpec, match="out of floating-point range"):
            ProcessSpec(kind="two_club", sigma=sigma, club_pull=pull)

    def test_rejects_zero_units(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="ar1_log", units=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidSpec):
            ProcessSpec(kind="ar1_log", seed=-1)


class TestSimulate:
    def test_shape_and_labels(self):
        panel = simulate(ProcessSpec(kind="ar1_log", units=7, years=3, seed=5))
        assert len(panel) == 21
        assert set(panel.sector) == {"urban"}
        assert set(panel.region) == {"other"}
        assert sorted(set(panel.year)) == [1999, 2000, 2001]
        assert np.all(panel.income > 0)
        assert not panel.is_relative

    @pytest.mark.parametrize("spec", [
        ProcessSpec(kind="ar1_log", sigma=1e10, units=3, years=3),
        ProcessSpec(kind="ar1_log", rho=0.9, sigma=1e308, units=3, years=3),  # sd overflows
        ProcessSpec(kind="iid_lognormal", sigma=1000.0, units=3, years=3),
    ])
    def test_refuses_incomes_out_of_float_range(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpec, match="outside the positive floating-point range"):
                simulate(spec)

    @pytest.mark.parametrize("kind", ["ar1_log", "two_club"])
    def test_each_label_column_holds_one_shared_str(self, kind):
        panel = simulate(ProcessSpec(kind=kind, units=6, years=4, seed=5))
        for column, label in ((panel.sector, "urban"), (panel.region, "other")):
            assert type(column[0]) is str and column[0] == label
            assert all(value is column[0] for value in column)

    def test_unit_major_row_order(self):
        panel = simulate(ProcessSpec(kind="ar1_log", units=3, years=2, seed=5))
        assert list(panel.unit_id) == ["u0000", "u0000", "u0001", "u0001", "u0002", "u0002"]
        assert list(panel.year) == [1999, 2000] * 3

    def test_id_width_grows_with_units(self):
        wide = simulate(ProcessSpec(kind="ar1_log", units=11000, years=1, seed=0))
        assert wide.unit_id[0] == "u00000"

    def test_same_seed_reproduces_bytes(self):
        spec = ProcessSpec(kind="two_club", units=40, years=6, seed=123)
        assert dump_panel(simulate(spec)) == dump_panel(simulate(spec))

    def test_different_seeds_differ(self):
        a = simulate(ProcessSpec(kind="ar1_log", units=10, years=3, seed=1))
        b = simulate(ProcessSpec(kind="ar1_log", units=10, years=3, seed=2))
        assert not np.array_equal(a.income, b.income)

    def test_unit_paths_depend_only_on_seed_and_unit(self):
        # adding units must not disturb the paths of existing units
        small = simulate(ProcessSpec(kind="ar1_log", units=5, years=4, seed=9))
        large = simulate(ProcessSpec(kind="ar1_log", units=9, years=4, seed=9))
        assert np.allclose(small.income, large.income[: len(small)], atol=0)

    def test_iid_has_no_autocorrelation(self):
        panel = simulate(ProcessSpec(kind="iid_lognormal", sigma=0.4, units=400, years=15, seed=7))
        z = np.log(panel.income).reshape(400, 15)
        x = z[:, :-1].ravel()
        y = z[:, 1:].ravel()
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 0.05

    def test_ar1_matches_stationary_spread(self):
        spec = ProcessSpec(kind="ar1_log", rho=0.9, sigma=0.2, units=400, years=15, seed=3)
        panel = simulate(spec)
        z = np.log(panel.income)
        target = stationary_log_sd(spec)
        assert target == pytest.approx(0.45883146774112366, abs=1e-15)
        assert np.std(z) == pytest.approx(target, rel=0.1)

    def test_ar1_autocorrelation_near_rho(self):
        spec = ProcessSpec(kind="ar1_log", rho=0.9, sigma=0.2, units=400, years=15, seed=3)
        z = np.log(simulate(spec).income).reshape(400, 15)
        r = np.corrcoef(z[:, :-1].ravel(), z[:, 1:].ravel())[0, 1]
        assert r == pytest.approx(0.9, abs=0.05)

    def test_two_club_mean_is_calibrated_to_one(self):
        # the low-club share is chosen so the stationary cross-section mean
        # equals 1, making relative incomes line up with the club centers
        spec = ProcessSpec(
            kind="two_club", sigma=0.1, club_centers=(0.48, 1.1),
            club_pull=0.3, units=4000, years=10, seed=2,
        )
        panel = simulate(spec)
        last = panel.income[panel.year == panel.year.max()]
        assert last.mean() == pytest.approx(1.0, abs=0.02)

    def test_two_club_incomes_cluster_at_centers(self):
        spec = ProcessSpec(
            kind="two_club", sigma=0.1, club_centers=(0.5, 1.4),
            club_pull=0.3, units=1000, years=8, seed=4,
        )
        panel = simulate(spec)
        clubs = club_assignments(spec)
        last = panel.income[panel.year == panel.year.max()].reshape(-1)
        z = np.log(last)
        low = z[clubs == 0]
        high = z[clubs == 1]
        assert math.exp(low.mean()) == pytest.approx(0.5, rel=0.05)
        assert math.exp(high.mean()) == pytest.approx(1.4, rel=0.05)


@st.composite
def process_specs(draw):
    """A small spec of any kind, with seeds at both ends of the 64-bit range."""
    kind = draw(st.sampled_from(["iid_lognormal", "ar1_log", "two_club"]))
    spec = dict(
        kind=kind,
        sigma=draw(st.floats(0.01, 1.0)),
        units=draw(st.integers(1, 60)),
        years=draw(st.integers(1, 20)),
        seed=draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))),
    )
    if kind == "ar1_log":
        spec["rho"] = draw(st.floats(0.0, 0.99))
    if kind == "two_club":
        spec["club_pull"] = draw(st.floats(0.01, 1.0))
        low = draw(st.floats(0.1, 0.95))
        spec["club_centers"] = (low, low + draw(st.floats(0.05, 2.0)))
    return ProcessSpec(**spec)


class TestSimulateMatchesUnitLoop:
    # the per-unit recursion simulate ran before it stepped all units a year
    # at a time (conftest.simulate_unit_loop) writes the same bytes
    @given(spec=process_specs())
    @example(spec=ProcessSpec(kind="iid_lognormal", units=1, years=1, seed=2**64 - 1))
    @example(spec=ProcessSpec(kind="ar1_log", rho=0.9, units=1, years=20, seed=0))
    @example(spec=ProcessSpec(kind="two_club", units=60, years=1, seed=2**64 - 1))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_panel_bytes(self, spec):
        assert dump_panel(simulate(spec)) == dump_panel(simulate_unit_loop(spec))

    @given(spec=process_specs())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_unit_code_is_the_first_appearance_number(self, spec):
        # simulate sets the unit code that a panel built in code computes on first use
        want = simulate_unit_loop(spec)._unit_code
        assert np.array_equal(simulate(spec).__dict__["_unit_code"], want)


def test_demo_generator_writes_the_committed_panel(repo_root, demo_panel_path):
    # README: demo/make_demo.py regenerates demo/panel.csv
    found = importlib.util.spec_from_file_location("make_demo", repo_root / "demo" / "make_demo.py")
    make_demo = importlib.util.module_from_spec(found)
    found.loader.exec_module(make_demo)
    assert dump_panel(make_demo.build_demo_panel()) == demo_panel_path.read_bytes()


class TestClubCalibration:
    def test_share_formula(self):
        spec = ProcessSpec(
            kind="two_club", sigma=0.1, club_centers=(0.5, 1.4), club_pull=0.3
        )
        # stationary log sd within a club, then the lognormal mean factor
        club_sd = 0.1 / math.sqrt(1.0 - 0.49)
        k = math.exp(club_sd**2 / 2.0)
        expected = (1.4 * k - 1.0) / (k * (1.4 - 0.5))
        assert club_share(spec) == pytest.approx(expected, abs=1e-15)
        assert club_share(spec) == pytest.approx(0.455284466443451, abs=1e-12)

    def test_share_clipped_to_unit_interval(self):
        # centers both above 1 cannot average to 1 even if every unit is in
        # the low club; centers both below 1 would need a negative share
        assert club_share(ProcessSpec(kind="two_club", club_centers=(2.0, 3.0))) == 1.0
        assert club_share(ProcessSpec(kind="two_club", club_centers=(0.2, 0.4))) == 0.0

    def test_assignments_put_low_club_first(self):
        spec = ProcessSpec(
            kind="two_club", sigma=0.1, club_centers=(0.5, 1.4),
            club_pull=0.3, units=10,
        )
        clubs = club_assignments(spec)
        n_low = round(club_share(spec) * 10)
        assert list(clubs[:n_low]) == [0] * n_low
        assert list(clubs[n_low:]) == [1] * (10 - n_low)


class TestStationaryDensity:
    def test_iid_matches_lognormal(self):
        spec = ProcessSpec(kind="iid_lognormal", sigma=0.5)
        g = Grid.uniform(0.0, 5.0, 200)
        curve = stationary_density(spec, g)
        ref = scipy.stats.lognorm.pdf(g.points, s=0.5, scale=1.0)
        ref_mass = np.trapezoid(ref, g.points)
        assert np.max(np.abs(curve.values - ref / ref_mass)) < 1e-12

    def test_ar1_widens_with_rho(self):
        g = Grid.uniform(0.0, 5.0, 200)
        narrow = stationary_density(ProcessSpec(kind="ar1_log", rho=0.0, sigma=0.3), g)
        wide = stationary_density(ProcessSpec(kind="ar1_log", rho=0.9, sigma=0.3), g)
        # higher persistence spreads the stationary law
        assert wide.values.max() < narrow.values.max()

    def test_two_club_has_no_closed_form(self):
        g = Grid.uniform(0.0, 5.0, 64)
        with pytest.raises(NoClosedForm):
            stationary_density(ProcessSpec(kind="two_club"), g)

    def test_relative_law_has_unit_mean(self):
        # prepare_panel divides by the mean exp(s^2/2): log-location -s^2/2
        spec = ProcessSpec(kind="ar1_log", rho=0.9, sigma=0.2)
        g = Grid.uniform(0.0, 12.0, 4000)
        rel = stationary_density(spec, g, relative=True)
        absolute = stationary_density(spec, g)
        assert _quad.integrate(g, g.points * rel.values) == pytest.approx(1.0, abs=1e-6)
        mean = math.exp(0.5 * stationary_log_sd(spec) ** 2)
        assert _quad.integrate(g, g.points * absolute.values) == pytest.approx(mean, abs=1e-6)
        assert np.array_equal(stationary_density(spec, g, relative=False).values, absolute.values)

    def test_zero_below_origin_handling(self):
        spec = ProcessSpec(kind="iid_lognormal", sigma=0.4)
        g = Grid.uniform(0.0, 4.0, 64)
        curve = stationary_density(spec, g)
        assert curve.values[0] == 0.0
        assert abs(_quad.integrate(g, curve.values) - 1.0) < 1e-12


def test_demo_spec_is_a_two_club_process():
    assert DEMO_SPEC.kind == "two_club"
    assert DEMO_SPEC.units == 400
    assert DEMO_SPEC.years == 15
