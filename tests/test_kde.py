"""Kernel density estimation: bandwidths, grids, raw and normalized densities."""

import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdyn import Grid, _quad
from distdyn.errors import (
    DegenerateGrid,
    EmptySamples,
    GridMismatch,
    InsufficientData,
    NonFiniteSample,
    ZeroSpread,
)
from distdyn.kde import (
    _BLOCK,
    _CHUNK,
    _REACH,
    MIN_GRID_POINTS,
    Bandwidths,
    DensityCurve,
    DensitySurface,
    StochasticKernel,
    _gauss,
    _joint_raw,
    _rows_near,
    conditional_density,
    density_1d,
    density_1d_raw,
    density_2d,
    density_2d_raw,
    joint_and_marginal,
    silverman_bandwidth,
)
from distdyn.panel import build_transition_pairs, load_panel
from distdyn.pipeline import default_grid, expand_groups, prepare_panel

from conftest import gaussian, trapezoid_weights

ONE_TO_FIVE = np.array([1.0, 2.0, 3.0, 4.0, 5.0])


class TestGrid:
    def test_uniform_grid_basics(self):
        g = Grid.uniform(0.0, 2.0, 17)
        assert len(g.points) == 17
        assert g.points[0] == 0.0
        assert g.points[-1] == 2.0
        assert g.points[8] == 1.0
        assert g.spacing == pytest.approx(0.125, abs=1e-15)

    def test_rejects_too_few_points(self):
        for count in (-1, 0, 1, MIN_GRID_POINTS - 1):
            with pytest.raises(DegenerateGrid, match=f"at least {MIN_GRID_POINTS}"):
                Grid.uniform(0.0, 1.0, count)

    def test_rejects_descending(self):
        with pytest.raises(DegenerateGrid):
            Grid.uniform(1.0, 0.0, 20)

    def test_equality_and_hash(self):
        a = Grid.uniform(0.0, 3.0, 64)
        b = Grid.uniform(0.0, 3.0, 64)
        c = Grid.uniform(0.0, 3.0, 65)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_points_are_readonly(self):
        g = Grid.uniform(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            g.points[0] = 5.0


class TestSilverman:
    def test_known_value_1d(self):
        # sd(1..5, ddof=1) = sqrt(2.5), IQR = 2, IQR/1.34 wins; factor n^(-1/5)
        h = silverman_bandwidth(ONE_TO_FIVE, 1)
        assert h == pytest.approx(0.9735846228506357, abs=1e-15)

    def test_known_value_2d(self):
        # same spread statistic, but the per-axis factor is n^(-1/6)
        h = silverman_bandwidth(ONE_TO_FIVE, 2)
        assert h == pytest.approx(1.027241854027697, abs=1e-15)

    def test_sd_branch_wins_when_smaller(self):
        # heavy tails make IQR/1.34 exceed sd: construct the opposite, a sample
        # where sd < IQR/1.34, via a broad symmetric pair structure
        x = np.array([0.0, 0.0, 1.0, 1.0])
        sd = float(np.std(x, ddof=1))
        q25, q75 = np.percentile(x, [25, 75])
        expected = 0.9 * min(sd, (q75 - q25) / 1.34) * len(x) ** (-0.2)
        assert silverman_bandwidth(x, 1) == pytest.approx(expected, rel=1e-15)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            silverman_bandwidth(np.array([1.0]), 1)

    def test_zero_spread_all_equal(self):
        with pytest.raises(ZeroSpread):
            silverman_bandwidth(np.full(10, 3.7), 1)

    def test_zero_spread_when_iqr_zero(self):
        # sd is positive but the IQR collapses; the rule cannot produce h > 0
        x = np.array([1.0] * 7 + [9.0])
        assert np.std(x, ddof=1) > 0
        with pytest.raises(ZeroSpread):
            silverman_bandwidth(x, 1)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            silverman_bandwidth(ONE_TO_FIVE, 3)


class TestDensity1D:
    def test_single_sample_peak_value(self):
        # with one sample the peak of the raw KDE is phi(0)/h
        g = Grid.uniform(0.0, 2.0, 17)
        raw = density_1d_raw(np.array([1.0]), 1.0, g)
        assert raw[8] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)

    def test_two_sample_midpoint_value(self):
        # samples at 0 and 2 with h=1: value at 1 is phi(1)
        g = Grid.uniform(-3.0, 5.0, 33)
        raw = density_1d_raw(np.array([0.0, 2.0]), 1.0, g)
        mid = np.searchsorted(g.points, 1.0)
        assert g.points[mid] == 1.0
        assert raw[mid] == pytest.approx(0.24197072451914337, abs=1e-12)

    def test_no_mass_on_grid(self):
        g = Grid.uniform(0.0, 1.0, 16)
        with pytest.raises(InsufficientData, match="bandwidth 1e-09 .* spacing 0.0666"):
            density_1d(np.array([0.03, 0.51]), 1e-9, g)

    @pytest.mark.parametrize("h, message", [
        (1e-300, "bandwidth 1e-300 puts no mass on the grid of spacing"),  # z*z overflows
        (1e-320, "bandwidth 1e-320 puts no mass on the grid: its scale, 1 over n = 2 times "
                 "the bandwidths, is out of floating-point range"),  # so do z and the scale
        (1e308, "bandwidth 1e+308 puts no mass on the grid: its scale"),  # a zero scale
    ])
    def test_extreme_bandwidth_fails_without_warnings(self, h, message):
        g = Grid.uniform(0.0, 1.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData, match=re.escape(message)):
                density_1d(np.array([0.03, 0.51]), h, g)

    def test_mass_beyond_float_range_fails_without_warnings(self):
        g = Grid.uniform(0.0, 1e308, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData, match=re.escape(
                    "KDE at bandwidth 0.001 has a mass beyond the floating-point range "
                    f"on the grid of spacing {g.spacing}")):
                density_1d(np.array([0.0, 0.0]), 1e-3, g)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(1.0, 0.4, size=200)
        g = Grid.uniform(-1.0, 3.0, 101)
        raw = density_1d_raw(samples, 0.3, g)
        direct = gaussian(g.points[:, None], samples[None, :], 0.3).mean(axis=1)
        assert np.max(np.abs(raw - direct)) < 1e-12

    def test_normalized_curve_integrates_to_one(self):
        rng = np.random.default_rng(3)
        samples = np.abs(rng.normal(1.0, 0.5, size=50)) + 0.01
        g = Grid.uniform(0.0, 4.0, 128)
        curve = density_1d(samples, silverman_bandwidth(samples, 1), g)
        assert abs(_quad.integrate(g, curve.values) - 1.0) < 1e-6

    def test_truncation_deficit_small_on_wide_grid(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(5.0, 0.5, size=80)
        h = 0.3
        lo = samples.min() - 6 * h
        hi = samples.max() + 6 * h
        g = Grid.uniform(lo, hi, 400)
        raw = density_1d_raw(samples, h, g)
        mass = np.sum(trapezoid_weights(g.points) * raw)
        assert abs(mass - 1.0) < 1e-6

    def test_blocked_equals_unblocked(self):
        # more samples than the internal block size must not change results
        rng = np.random.default_rng(5)
        samples = rng.normal(0.0, 1.0, size=9000)
        g = Grid.uniform(-4.0, 4.0, 64)
        raw = density_1d_raw(samples, 0.5, g)
        direct = gaussian(g.points[:, None], samples[None, :], 0.5).mean(axis=1)
        assert np.max(np.abs(raw - direct)) < 1e-10

    def test_zero_samples(self):
        g = Grid.uniform(0.0, 1.0, 16)
        with pytest.raises(EmptySamples):
            density_1d_raw(np.array([]), 0.1, g)

    def test_bad_bandwidth(self):
        g = Grid.uniform(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            density_1d_raw(np.array([0.3, 0.6]), 0.0, g)

    @given(
        loc=st.floats(-2.0, 2.0),
        scale=st.floats(0.1, 1.5),
        n=st.integers(5, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_normalized_integral_property(self, loc, scale, n, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(loc, scale, size=n)
        if np.std(samples, ddof=1) < 1e-9:
            return
        g = Grid.uniform(loc - 5 * scale, loc + 5 * scale, 64)
        try:
            h = silverman_bandwidth(samples, 1)
        except ZeroSpread:
            return
        curve = density_1d(samples, h, g)
        assert abs(_quad.integrate(g, curve.values) - 1.0) < 1e-6
        assert np.all(curve.values >= 0.0)

    def test_mean_of_two_halves(self):
        # the raw estimate over a concatenation of two equal-size sample sets
        # is the average of the raw estimates over each half
        rng = np.random.default_rng(21)
        a = rng.normal(0.5, 0.3, size=64)
        b = rng.normal(1.5, 0.4, size=64)
        g = Grid.uniform(-1.0, 3.0, 80)
        raw_all = density_1d_raw(np.concatenate([a, b]), 0.25, g)
        half = 0.5 * (density_1d_raw(a, 0.25, g) + density_1d_raw(b, 0.25, g))
        assert np.max(np.abs(raw_all - half)) < 1e-12


class TestDensity2D:
    def test_single_pair_peak(self):
        g = Grid.uniform(0.0, 2.0, 17)
        pair = SimpleNamespace(x=np.array([1.0]), y=np.array([1.0]))
        raw = density_2d_raw(pair, Bandwidths(1.0, 1.0), g)
        assert raw[8, 8] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)

    def test_product_structure(self):
        # a single pair factorizes into the product of two 1-d kernels
        g = Grid.uniform(-2.0, 3.0, 51)
        x0, y0 = 0.3, 1.2
        pair = SimpleNamespace(x=np.array([x0]), y=np.array([y0]))
        raw = density_2d_raw(pair, Bandwidths(0.5, 0.7), g)
        expected = np.outer(
            gaussian(g.points, x0, 0.5), gaussian(g.points, y0, 0.7)
        )
        assert np.max(np.abs(raw - expected)) < 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(13)
        x = rng.normal(1.0, 0.3, size=120)
        y = rng.normal(1.0, 0.3, size=120)
        g = Grid.uniform(0.0, 2.0, 48)
        bw = Bandwidths(0.2, 0.2)
        fwd = density_2d_raw(SimpleNamespace(x=x, y=y), bw, g)
        rev = density_2d_raw(SimpleNamespace(x=y, y=x), bw, g)
        assert np.max(np.abs(fwd - rev.T)) < 1e-12

    def test_surface_integrates_to_one(self):
        rng = np.random.default_rng(17)
        x = np.abs(rng.normal(1.0, 0.4, size=90)) + 0.05
        y = x * np.exp(rng.normal(0.0, 0.2, size=90))
        g = Grid.uniform(0.0, 4.0, 96)
        hx = silverman_bandwidth(x, 2)
        hy = silverman_bandwidth(y, 2)
        surf = density_2d(SimpleNamespace(x=x, y=y), Bandwidths(hx, hy), g, g)
        assert isinstance(surf, DensitySurface)
        assert abs(_quad.integrate(g, surf.values) - 1.0) < 1e-6

    def test_insufficient_pairs(self):
        g = Grid.uniform(0.0, 1.0, 16)
        one = SimpleNamespace(x=np.array([0.5]), y=np.array([0.5]))
        with pytest.raises(InsufficientData):
            density_2d(one, Bandwidths(0.1, 0.1), g, g)

    @pytest.mark.parametrize("bw", [Bandwidths(1e-9, 0.1), Bandwidths(0.1, 1e-9)])
    def test_no_mass_on_grid(self, bw):
        # samples between grid points at a bandwidth far below the spacing
        g = Grid.uniform(0.0, 1.0, 16)
        pairs = SimpleNamespace(x=np.array([0.03, 0.51]), y=np.array([0.37, 0.97]))
        with pytest.raises(InsufficientData, match=r"bandwidths .* spacing "):
            density_2d(pairs, bw, g, g)

    @pytest.mark.parametrize("bw, message", [
        (Bandwidths(1e-300, 0.1), "bandwidths (1e-300, 0.1) puts no mass on the grid of spacing "),
        (Bandwidths(0.1, 1e-300), "bandwidths (0.1, 1e-300) puts no mass on the grid of spacing "),
        (Bandwidths(1e-300, 1e-300), "joint KDE at bandwidths (1e-300, 1e-300) puts no mass on "
         "the grid: its scale, 1 over n = 2 times the bandwidths, is out of floating-point range"),
    ])
    def test_extreme_bandwidths_fail_without_warnings(self, bw, message):
        g = Grid.uniform(0.0, 1.0, 16)
        pairs = SimpleNamespace(x=np.array([0.03, 0.51]), y=np.array([0.37, 0.97]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData, match=re.escape(message)):
                joint_and_marginal(pairs, bw, g)

    @pytest.mark.parametrize("upper, at, message", [
        # the origin's value 15.9 times its cell of 3.3e+198 by 3.3e+198 overflows
        (1e200, 0.0, "has a mass beyond the floating-point range on the grid of spacing "),
        # a mass of 6.5e+294, by which the origin's value 5.9e-43 divides to a subnormal
        (1e170, 1.0, "cannot be normalized on the grid of spacing 6.666666666666667e+168: "
                     "divided by its mass"),
    ], ids=["overflow", "underflow"])
    def test_huge_grid_fails_without_warnings(self, upper, at, message):
        g = Grid.uniform(0.0, upper, 16)
        pairs = SimpleNamespace(x=np.array([at, at]), y=np.array([at, at]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData, match=re.escape(message)):
                joint_and_marginal(pairs, Bandwidths(0.1, 0.1), g)

    def test_density_2d_needs_one_grid(self):
        g = Grid.uniform(0.0, 1.0, 16)
        pairs = SimpleNamespace(x=np.array([0.3, 0.6]), y=np.array([0.4, 0.5]))
        with pytest.raises(GridMismatch, match="one grid for both axes"):
            density_2d(pairs, Bandwidths(0.1, 0.1), g, Grid.uniform(0.0, 1.0, 17))

    def test_mismatched_xy_lengths(self):
        g = Grid.uniform(0.0, 1.0, 16)
        bad = SimpleNamespace(x=np.array([0.2, 0.4]), y=np.array([0.2, 0.4, 0.6]))
        with pytest.raises(ValueError):
            density_2d_raw(bad, Bandwidths(0.1, 0.1), g)


_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
FLOOR = -354.0  # the documented floor on weight arguments


def floored(z, floor):
    """exp(-0.5*z*z), with ``floor`` each weight whose argument is below the floor zeroed."""
    arg = -0.5 * z * z
    return np.where(arg < FLOOR, 0.0, np.exp(arg)) if floor else np.exp(arg)


def plain_density_1d_raw(x, h, grid, block, floor=False):
    """The 1-D loop before the floor: exp over every argument, ``block``
    samples at a time in the given order. With ``floor``, weights whose
    argument is below the floor are zeroed."""
    out = np.zeros(grid.count)
    pts = grid.points[:, None]
    for start in range(0, x.size, block):
        z = (pts - x[None, start:start + block]) / h
        out += np.sum(floored(z, floor), axis=1)
    return out * (_INV_SQRT_2PI / (x.size * h))


def vecdot_rows(kx, ky):
    """Every (x row, y row) dot product of one block's weights, each one
    BLAS ddot over the block, as the estimator contracts them."""
    return np.vecdot(kx[:, None, :], ky[None, :, :])


def einsum_rows(kx, ky):
    """The same products by the fixed-order einsum the estimator used to
    contract with; it sums each entry's terms in another order."""
    return np.einsum("xi,yi->xy", kx, ky)


def plain_density_2d_raw(x, y, bw, gx, gy, block, floor=False, contract=vecdot_rows):
    """The 2-D loop before the joint floor: every product enters the sum,
    ``block`` pairs at a time in the given order, over every grid row. With
    ``floor``, weights whose argument is below the floor are zeroed."""
    out = np.zeros((gx.count, gy.count))
    for start in range(0, x.size, block):
        zx = (gx.points[:, None] - x[None, start:start + block]) / bw.h_x
        zy = (gy.points[:, None] - y[None, start:start + block]) / bw.h_y
        out += contract(floored(zx, floor), floored(zy, floor))
    return out * (_INV_SQRT_2PI * _INV_SQRT_2PI / (x.size * bw.h_x * bw.h_y))


def by_pair(x, y):
    """The pairs in (x, y) order, the order the weight loops sum them in."""
    order = np.lexsort((y, x))
    return x[order], y[order]


def ar1_sample(n, rho=0.8, sigma=0.2, seed=19):
    rng = np.random.default_rng(seed)
    logs = np.empty(n + 1)
    logs[0] = 0.0
    shocks = rng.normal(0.0, sigma, size=n)
    for i in range(n):
        logs[i + 1] = rho * logs[i] + shocks[i]
    return np.exp(logs[:-1]), np.exp(logs[1:])


@pytest.fixture(scope="module")
def demo_pairs(demo_panel_path):
    return build_transition_pairs(prepare_panel(load_panel(demo_panel_path)), tau=1)


def silverman_2d(x, y):
    return Bandwidths(silverman_bandwidth(x, 2), silverman_bandwidth(y, 2))


class TestWeightLoops:
    @pytest.mark.parametrize("lo, hi", [(0.0, 26.6), (37.6, 38.7), (38.7, 1e4)],
                             ids=["normal", "subnormal-band", "far-underflow"])
    def test_gauss_is_bitwise_exp(self, lo, hi):
        # above the floor a weight is exp's own; below it, where exp would
        # give a subnormal or round to 0.0 on its slow path, it is 0.0
        rng = np.random.default_rng(23)
        z = rng.uniform(lo, hi, size=(64, 257)) * rng.choice([-1.0, 1.0], size=(64, 257))
        want = np.exp(-0.5 * z * z) if lo == 0.0 else np.zeros(z.shape)
        assert np.array_equal(_gauss(z.copy()), want)

    def test_gauss_cutoff_zeroes_below(self):
        z = np.linspace(-40.0, 40.0, 2001)
        arg = -0.5 * z * z
        kept = arg >= FLOOR
        w = _gauss(z.copy())
        assert np.array_equal(w[kept], np.exp(arg[kept]))
        assert np.all(w[~kept] == 0.0)

    def test_density_1d_raw_is_bitwise_plain_loop(self, demo_pairs):
        x_ar, _ = ar1_sample(9000)
        for x in (np.asarray(demo_pairs.x), x_ar):
            grid = Grid.uniform(0.0, 1.1 * float(x.max()), 128)
            h = silverman_bandwidth(x, 2)
            assert np.array_equal(density_1d_raw(x, h, grid),
                                  plain_density_1d_raw(np.sort(x), h, grid, _BLOCK))

    def test_fused_marginal_is_bitwise_density_1d(self, demo_pairs):
        x_ar, y_ar = ar1_sample(9000)
        for pairs in (demo_pairs, SimpleNamespace(x=x_ar, y=y_ar)):
            grid = Grid.uniform(0.0, 1.1 * float(max(pairs.x.max(), pairs.y.max())), 96)
            bw = silverman_2d(pairs.x, pairs.y)
            _, marginal = joint_and_marginal(pairs, bw, grid)
            assert np.array_equal(marginal.values, density_1d(pairs.x, bw.h_x, grid).values)

    def test_floored_joint_within_bound(self, demo_panel_path):
        panel = prepare_panel(load_panel(demo_panel_path))
        grid = default_grid(panel, count=128)
        changed = 0
        for label, gpanel in expand_groups(panel, "pooled,per-sector"):
            pairs = build_transition_pairs(gpanel, tau=1)
            x, y = np.asarray(pairs.x), np.asarray(pairs.y)
            bw = silverman_2d(x, y)
            new = density_2d_raw(pairs, bw, grid)
            old = plain_density_2d_raw(*by_pair(x, y), bw, grid, grid, _BLOCK)
            bound = math.exp(FLOOR) / (2.0 * math.pi * bw.h_x * bw.h_y)
            assert np.max(np.abs(new - old)) <= bound, label
            changed += int(not np.array_equal(new, old))
        assert changed  # the floor drops some weight in at least one group

    def test_joint_within_rounding_of_einsum_loop(self, demo_panel_path):
        # Each entry sums nonnegative terms, so any summation order lands
        # within about n*2^-53 of the exact sum, relative to it: the ddot and
        # einsum loops are within twice that of each other, plus the floor.
        panel = prepare_panel(load_panel(demo_panel_path))
        grid = default_grid(panel, count=128)
        for label, gpanel in expand_groups(panel, "pooled,per-sector"):
            pairs = build_transition_pairs(gpanel, tau=1)
            x, y = np.asarray(pairs.x), np.asarray(pairs.y)
            bw = silverman_2d(x, y)
            new = density_2d_raw(pairs, bw, grid)
            old = plain_density_2d_raw(*by_pair(x, y), bw, grid, grid, _BLOCK,
                                       contract=einsum_rows)
            floor = math.exp(FLOOR) / (2.0 * math.pi * bw.h_x * bw.h_y)
            bound = floor + 2 * (x.size + 1) * 2.0**-53 * old
            assert np.all(np.abs(new - old) <= bound), label

    def test_joint_is_bitwise_plain_loop_above_the_floor(self):
        # every |z| stays below sqrt(708) = 26.6, so no weight is dropped
        x, y = ar1_sample(9000)
        grid = Grid.uniform(0.0, 1.1 * float(max(x.max(), y.max())), 64)
        bw = Bandwidths(grid.upper / 20.0, grid.upper / 25.0)
        pairs = SimpleNamespace(x=x, y=y)
        assert np.array_equal(density_2d_raw(pairs, bw, grid),
                              plain_density_2d_raw(*by_pair(x, y), bw, grid, grid, _BLOCK))

    def test_joint_is_bitwise_floored_plain_loop(self):
        # on a grid reaching far past the data, rows that no sample of a block
        # reaches are left out of the contraction; no kept entry may change
        x, y = ar1_sample(9000)
        grid = Grid.uniform(0.0, 3.0 * float(max(x.max(), y.max())), 128)
        bw = silverman_2d(x, y)
        assert np.array_equal(density_2d_raw(SimpleNamespace(x=x, y=y), bw, grid),
                              plain_density_2d_raw(*by_pair(x, y), bw, grid, grid, _BLOCK,
                                                   floor=True))

    @pytest.mark.parametrize("upper", [1.1, 3.0], ids=["data", "three-times-past"])
    def test_no_weight_loop_forms_a_subnormal(self, demo_pairs, upper):
        # exp of an argument below -708 forms a subnormal, and raises here;
        # so does a product of two weights whose arguments sum below it
        x = np.asarray(demo_pairs.x)
        grid = Grid.uniform(0.0, upper * float(max(x.max(), demo_pairs.y.max())), 128)
        bw = silverman_2d(x, demo_pairs.y)
        with np.errstate(under="raise"):
            density_1d(x, silverman_bandwidth(x), grid)
            if upper == 1.1:
                joint_and_marginal(demo_pairs, bw, grid)
            else:  # joint values of two weights near the floor normalize to subnormals
                density_2d_raw(demo_pairs, bw, grid)


class TestSortedBlocks:
    """The weight loops sum sorted blocks and weigh only the grid rows a block
    can reach; every value equals the plain loop over the sorted pairs."""

    @staticmethod
    def assert_plain(x, y, bw, grid):
        xs, ys = by_pair(x, y)
        pairs = SimpleNamespace(x=x, y=y)
        marginal, joint = _joint_raw(pairs, bw, grid)
        one_d = plain_density_1d_raw(xs, bw.h_x, grid, _BLOCK, floor=True)
        assert np.array_equal(density_1d_raw(x, bw.h_x, grid), one_d)
        assert np.array_equal(marginal, one_d)
        assert np.array_equal(joint, plain_density_2d_raw(xs, ys, bw, grid, grid, _BLOCK,
                                                          floor=True))

    @pytest.mark.parametrize("h_per_dx", [0.05, 1.0, 3.0, 20.0])
    def test_bitwise_plain_loop_at_bandwidth(self, h_per_dx):
        # the grid reaches far past the data, so some rows hold only the
        # floored weights of samples more than 26.6 bandwidths away
        x, y = ar1_sample(3 * _BLOCK + 7)
        grid = Grid.uniform(0.0, 3.0 * float(max(x.max(), y.max())), 96)
        h = h_per_dx * grid.spacing
        self.assert_plain(x, y, Bandwidths(h, 0.9 * h), grid)

    @pytest.mark.parametrize("h_per_dx", [0.5, 3.0, 5.0])
    def test_bitwise_plain_loop_at_g512(self, h_per_dx):
        # at G=512 a block's y rows span several chunks of _CHUNK rows, and
        # the last chunk of some block is partial
        x, y = ar1_sample(2 * _BLOCK + 5)
        grid = Grid.uniform(0.0, 1.1 * float(max(x.max(), y.max())), 512)
        bw = Bandwidths(h_per_dx * grid.spacing, 1.3 * h_per_dx * grid.spacing)
        xs, ys = by_pair(x, y)
        spans = [_rows_near(grid, ys[i:i + _BLOCK].min(), ys[i:i + _BLOCK].max(), _REACH * bw.h_y)
                 for i in range(0, x.size, _BLOCK)]
        rows = [r.stop - r.start for r in spans]
        assert all(n > 2 * _CHUNK for n in rows) and any(n % _CHUNK for n in rows)
        self.assert_plain(x, y, bw, grid)

    def test_samples_off_both_ends_of_the_grid(self):
        x, y = ar1_sample(2 * _BLOCK + 100)
        grid = Grid.uniform(0.8, 1.3, 64)
        far = np.array([-40.0, 0.1, 30.0, 1e6])
        x, y = np.concatenate([x, far]), np.concatenate([y, far[::-1]])
        assert x.min() < grid.lower and x.max() > grid.upper
        self.assert_plain(x, y, Bandwidths(2 * grid.spacing, 2 * grid.spacing), grid)

    def test_many_tied_x_values(self):
        # x rounded to 2 decimals: about 200 distinct values over 3 blocks, so
        # runs of equal x straddle block edges and y alone orders each run
        x, y = ar1_sample(3 * _BLOCK + 7)
        x = np.round(x, 2)
        assert np.unique(x).size < x.size // 20
        grid = Grid.uniform(0.0, 1.1 * float(max(x.max(), y.max())), 48)
        self.assert_plain(x, y, silverman_2d(x, y), grid)

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_block_edges(self, n):
        x, y = ar1_sample(n, seed=n)
        grid = Grid.uniform(0.0, 1.1 * float(max(x.max(), y.max())), 48)
        self.assert_plain(x, y, silverman_2d(x, y), grid)

    @given(
        n=st.integers(2, 3 * _BLOCK),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_independent_of_pair_order(self, n, ties, seed):
        rng = np.random.default_rng(seed)
        x = np.exp(rng.normal(0.0, 0.4, size=n))
        y = x * np.exp(rng.normal(0.0, 0.2, size=n))
        if ties:  # equal x with unequal y, and whole duplicate pairs
            x = np.round(x, 1)
            k = n // 3
            x[:k], y[:k] = x[k:2 * k], y[k:2 * k]
        grid = Grid.uniform(0.0, 1.1 * float(max(x.max(), y.max())), 32)
        bw = Bandwidths(0.1, 0.12)
        perm = rng.permutation(n)
        joint, marginal = joint_and_marginal(SimpleNamespace(x=x, y=y), bw, grid)
        joint_p, marginal_p = joint_and_marginal(SimpleNamespace(x=x[perm], y=y[perm]),
                                                 bw, grid)
        assert np.array_equal(joint.values, joint_p.values)
        assert np.array_equal(marginal.values, marginal_p.values)
        assert np.array_equal(density_1d_raw(x, 0.1, grid), density_1d_raw(x[perm], 0.1, grid))


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_density_1d_names_the_sample(self, bad):
        g = Grid.uniform(0.0, 2.0, 16)
        x = np.array([0.5, 1.0, bad, 1.5, bad])
        for estimate in (density_1d_raw, density_1d):
            with pytest.raises(NonFiniteSample, match=r"sample 2 is not finite \(x=-?(nan|inf)\)"):
                estimate(x, 0.3, g)
        with pytest.raises(NonFiniteSample, match="sample 2 is not finite"):
            silverman_bandwidth(x, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_joint_names_the_pair(self, bad, axis):
        g = Grid.uniform(0.0, 2.0, 16)
        pairs = {"x": np.array([0.5, 1.0, 1.2, 1.5]), "y": np.array([0.6, 0.9, 1.1, 1.4])}
        pairs[axis][1] = bad
        pairs[axis][3] = bad
        for estimate in (joint_and_marginal, density_2d_raw):
            with pytest.raises(NonFiniteSample, match=rf"pair 1 is not finite .*{axis}=-?(nan|inf)"):
                estimate(SimpleNamespace(**pairs), Bandwidths(0.3, 0.3), g)


class TestConditionalDensity:
    def _estimate(self, x, y, grid, floor=1e-4):
        hx = silverman_bandwidth(x, 2)
        hy = silverman_bandwidth(y, 2)
        bw = Bandwidths(hx, hy)
        joint = density_2d(SimpleNamespace(x=x, y=y), bw, grid, grid)
        marginal = density_1d(x, hx, grid)
        return conditional_density(joint, marginal, floor=floor)

    def test_rows_integrate_to_one(self):
        rng = np.random.default_rng(29)
        x = np.exp(rng.normal(0.0, 0.3, size=300))
        y = x * np.exp(rng.normal(0.0, 0.15, size=300))
        g = Grid.uniform(0.0, 3.5, 72)
        kern = self._estimate(x, y, g)
        w = trapezoid_weights(g.points)
        for i in np.flatnonzero(kern.supported):
            assert abs(np.sum(w * kern.rows[i]) - 1.0) < 1e-9

    def test_independent_pairs_give_flat_conditional(self):
        # when y is independent of x the conditional rows approximate the
        # marginal density of y; individual rows are noisy where the x data
        # is thin, so judge the x-mass-weighted average deviation
        rng = np.random.default_rng(31)
        x = np.exp(rng.normal(0.0, 0.25, size=800))
        y = np.exp(rng.normal(0.0, 0.25, size=800))
        g = Grid.uniform(0.0, 3.0, 64)
        hx = silverman_bandwidth(x, 2)
        hy = silverman_bandwidth(y, 2)
        joint = density_2d(SimpleNamespace(x=x, y=y), Bandwidths(hx, hy), g, g)
        marginal = density_1d(x, hx, g)
        kern = conditional_density(joint, marginal)
        ref = density_1d(y, hy, g)
        w = trapezoid_weights(g.points)
        row_l1 = np.array(
            [
                np.sum(w * np.abs(kern.rows[i] - ref.values)) if kern.supported[i] else 0.0
                for i in range(len(g.points))
            ]
        )
        weight = w * marginal.values * kern.supported
        assert np.sum(weight * row_l1) / np.sum(weight) < 0.2
        strong = marginal.values >= 0.25 * marginal.values.max()
        assert np.all(kern.supported[strong])
        assert np.max(row_l1[strong]) < 0.35

    def test_low_marginal_rows_marked_unsupported(self):
        rng = np.random.default_rng(37)
        x = rng.normal(1.5, 0.1, size=200)
        y = rng.normal(1.5, 0.1, size=200)
        g = Grid.uniform(0.0, 3.0, 64)
        kern = self._estimate(x, y, g)
        assert not kern.supported[0]
        assert not kern.supported[-1]
        assert kern.supported.any()
        assert np.all(kern.rows[~kern.supported] == 0.0)

    def test_floor_is_relative_to_peak(self):
        rng = np.random.default_rng(41)
        x = rng.normal(1.0, 0.2, size=150)
        y = rng.normal(1.0, 0.2, size=150)
        g = Grid.uniform(0.0, 2.0, 64)
        loose = self._estimate(x, y, g, floor=1e-4)
        tight = self._estimate(x, y, g, floor=0.5)
        assert tight.n_supported < loose.n_supported

    def test_grid_mismatch(self):
        rng = np.random.default_rng(43)
        x = rng.normal(1.0, 0.2, size=60)
        y = rng.normal(1.0, 0.2, size=60)
        g = Grid.uniform(0.0, 2.0, 64)
        other = Grid.uniform(0.0, 2.0, 65)
        bw = Bandwidths(0.2, 0.2)
        joint = density_2d(SimpleNamespace(x=x, y=y), bw, g, g)
        marginal = density_1d(x, 0.2, other)
        with pytest.raises(GridMismatch):
            conditional_density(joint, marginal)


class TestCurveAndKernelTypes:
    def test_curve_requires_unit_mass(self):
        g = Grid.uniform(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            DensityCurve(g, np.full(16, 2.0))

    def test_curve_rejects_negative_values(self):
        g = Grid.uniform(0.0, 1.0, 16)
        v = np.full(16, 1.0)
        v[3] = -0.5
        with pytest.raises(ValueError):
            DensityCurve.from_values(g, v)

    def test_from_values_renormalizes(self):
        g = Grid.uniform(0.0, 1.0, 32)
        curve = DensityCurve.from_values(g, np.full(32, 5.0))
        assert abs(_quad.integrate(g, curve.values) - 1.0) < 1e-12

    def test_from_values_rejects_zero_mass(self):
        g = Grid.uniform(0.0, 1.0, 32)
        with pytest.raises(ValueError):
            DensityCurve.from_values(g, np.zeros(32))

    def test_kernel_from_rows_normalizes_and_masks(self):
        g = Grid.uniform(0.0, 1.0, 16)
        rows = np.zeros((16, 16))
        rows[2] = 3.0
        rows[5] = np.linspace(0.0, 1.0, 16)
        kern = StochasticKernel.from_rows(g, rows)
        assert kern.supported[2] and kern.supported[5]
        assert kern.n_supported == 2
        w = trapezoid_weights(g.points)
        assert abs(np.sum(w * kern.rows[2]) - 1.0) < 1e-12
        assert np.all(kern.rows[0] == 0.0)

    def test_kernel_rejects_nan_in_supported_row(self):
        # |nan - 1| > tol is False, so the row-mass check alone let it pass
        g = Grid.uniform(0.0, 1.0, 16)
        rows = np.ones((16, 16))
        rows[4, 7] = np.nan
        with pytest.raises(ValueError, match="finite and nonnegative"):
            StochasticKernel(g, rows)

    def test_kernel_rejects_negative_entry(self):
        # the row still integrates to 1: -5 and +5 on two interior points
        g = Grid.uniform(0.0, 1.0, 16)
        rows = np.ones((16, 16))
        rows[3, 5], rows[3, 6] = -4.0, 6.0
        assert abs(np.sum(trapezoid_weights(g.points) * rows[3]) - 1.0) < 1e-12
        with pytest.raises(ValueError, match="finite and nonnegative"):
            StochasticKernel(g, rows)

    def test_kernel_rejects_non_finite_unsupported_row(self):
        g = Grid.uniform(0.0, 1.0, 16)
        rows = np.ones((16, 16))
        rows[0] = np.inf
        supported = np.ones(16, dtype=bool)
        supported[0] = False
        with pytest.raises(ValueError, match="finite and nonnegative"):
            StochasticKernel(g, rows, supported=supported)

    def test_callers_arrays_stay_theirs(self):
        g = Grid.uniform(0.0, 1.0, 16)
        v = np.ones(16)
        surface = np.ones((16, 16))
        sup = np.ones(16, dtype=bool)
        built = [
            (DensityCurve(g, v).values, v),
            (DensitySurface(g, surface).values, surface),
            (StochasticKernel(g, surface, supported=sup).rows, surface),
            (StochasticKernel(g, surface, supported=sup).supported, sup),
        ]
        for held, mine in built:
            assert mine.flags.writeable
            assert held is not mine and not held.flags.writeable
        v[0] = 2.0  # the caller's buffer is free to change; the curve's is not
        assert built[0][0][0] == 1.0

    def test_constructors_hand_over_fresh_buffers(self):
        g = Grid.uniform(0.0, 1.0, 16)
        curve = DensityCurve.from_values(g, np.full(16, 3.0))
        kern = StochasticKernel.from_rows(g, np.ones((16, 16)))
        # a frozen buffer that owns its memory is taken without a copy
        assert DensityCurve(g, curve.values).values is curve.values
        assert StochasticKernel(g, kern.rows, kern.supported).rows is kern.rows

    @pytest.mark.parametrize("count", [16, 128, 512])
    def test_surface_integral_bits(self, count):
        # each row first, then across the rows; a joint's mass sets every bit of kernel.csv
        g = Grid.uniform(0.0, 2.7, count)
        s = np.random.default_rng(count).random((count, count))
        w = np.full(count, g.spacing)
        w[0] = w[-1] = 0.5 * g.spacing
        assert _quad.integrate(g, s) == float(np.sum(np.sum(s * w[None, :], axis=1) * w))

    def test_surface_is_not_a_curve(self):
        # the CSV and curve renderers dispatch on DensityCurve
        surface = DensitySurface.from_values(_G, np.ones((16, 16)))
        assert not isinstance(surface, DensityCurve)
        with pytest.raises(dataclasses.FrozenInstanceError):
            surface.extra = 1

    def test_bandwidths_positive(self):
        with pytest.raises(ValueError):
            Bandwidths(0.0, 0.1)
        with pytest.raises(ValueError):
            Bandwidths(0.1, -1.0)


_G = Grid.uniform(0.0, 1.0, 16)
_ROWS = np.tile(np.ones(16), (16, 1))  # unit-mass rows on [0, 1]


@pytest.mark.parametrize("make, error, message", [
    (lambda: DensityCurve(_G, np.ones(15)), ValueError, "values do not match the grid"),
    (lambda: DensityCurve(_G, -np.ones(16)), ValueError,
     "density values must be finite and nonnegative"),
    (lambda: DensityCurve(_G, np.full(16, np.nan)), ValueError,
     "density values must be finite and nonnegative"),
    (lambda: DensityCurve(_G, 2 * np.ones(16)), ValueError,
     "density does not integrate to 1; use from_values"),
    (lambda: DensityCurve.from_values(_G, np.zeros(16)), ValueError,
     "cannot normalize a curve with nonpositive mass"),
    (lambda: DensitySurface(_G, _ROWS[:-1]), ValueError, "values do not match the grid"),
    (lambda: DensitySurface(_G, np.full((16, 16), np.inf)), ValueError,
     "surface values must be finite and nonnegative"),
    (lambda: DensitySurface(_G, 2 * _ROWS), ValueError,
     "surface does not integrate to 1; use from_values"),
    (lambda: DensitySurface.from_values(_G, np.zeros((16, 16))), ValueError,
     "cannot normalize a surface with nonpositive mass"),
    (lambda: StochasticKernel(_G, _ROWS[:, :-1]), ValueError, "rows do not match the grid"),
    (lambda: StochasticKernel(_G, _ROWS, np.ones(15, dtype=bool)), ValueError,
     "support flags do not match the grid"),
    (lambda: StochasticKernel(_G, -_ROWS), ValueError,
     "kernel entries must be finite and nonnegative"),
    (lambda: StochasticKernel(_G, 2 * _ROWS), ValueError,
     "supported rows must integrate to 1; use from_rows"),
    # an unsupported row is never solved on and reads NaN in the NTP, so
    # mass there would show only in kernel.csv
    (lambda: StochasticKernel(_G, _ROWS, np.arange(16) != 3), ValueError,
     "unsupported rows must hold zeros"),
    (lambda: StochasticKernel.from_rows(_G, _ROWS[:-1]), ValueError,
     "rows do not match the grid"),
    (lambda: _joint_raw(SimpleNamespace(x=np.empty(0), y=np.empty(0)), Bandwidths(0.1, 0.1), _G),
     EmptySamples, "cannot estimate a joint density from zero pairs"),
    (lambda: conditional_density(DensitySurface(_G, _ROWS), DensityCurve(_G, np.ones(16)), 1.0),
     ValueError, "floor must be a small fraction in (0, 1), got 1.0"),
], ids=["curve-shape", "curve-negative", "curve-nan", "curve-mass", "curve-no-mass",
        "surface-shape", "surface-inf", "surface-mass", "surface-no-mass", "kernel-shape",
        "kernel-support-shape", "kernel-negative", "kernel-row-mass", "kernel-unsupported-mass",
        "from-rows-shape",
        "zero-pairs", "floor"])
def test_rejections(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message
