"""Distribution evolution, ergodic solutions and net transition probabilities."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdyn import Grid, _quad, evolve
from distdyn.dynamics import (
    ErgodicSolution,
    NTPCurve,
    ergodic_distribution,
    net_transition_probability,
    ntp_crossings,
    support_components,
)
from distdyn.errors import GridMismatch, NoSupportedRows, NotConverged
from distdyn.kde import (
    Bandwidths,
    DensityCurve,
    StochasticKernel,
    conditional_density,
    density_1d,
    joint_and_marginal,
    silverman_bandwidth,
)
from distdyn.panel import load_panel
from distdyn.pipeline import default_grid, estimate_kernel, expand_groups, prepare_panel

from conftest import (
    gaussian,
    lognormal_pdf,
    mixture_row,
    net_transition_probability_two_sided,
    random_kernel,
    trapezoid_weights,
)


def identical_rows_kernel(grid, mu=1.0, sd=0.25):
    row = gaussian(grid.points, mu, sd)
    rows = np.tile(row, (len(grid.points), 1))
    return StochasticKernel.from_rows(grid, rows)


def diagonal_kernel(grid, sd=0.08):
    rows = np.stack([gaussian(grid.points, x, sd) for x in grid.points])
    return StochasticKernel.from_rows(grid, rows)


def ar1_log_kernel(grid, rho, sigma):
    """Analytic transition rows of a log-AR(1) process in relative units."""
    rows = np.zeros((len(grid.points), len(grid.points)))
    for i, x in enumerate(grid.points):
        if x <= 0:
            continue
        mu = rho * math.log(x)
        rows[i] = lognormal_pdf(grid.points, mu, sigma)
    return StochasticKernel.from_rows(grid, rows)


class TestEvolve:
    def test_identical_rows_map_anything_to_the_row(self):
        g = Grid.uniform(0.0, 2.5, 96)
        kern = identical_rows_kernel(g)
        f = DensityCurve.from_values(g, gaussian(g.points, 0.5, 0.1))
        out = evolve(kern, f)
        w = trapezoid_weights(g.points)
        assert np.sum(w * np.abs(out.values - kern.rows[0])) < 1e-9

    def test_near_identity_kernel_roughly_preserves_input(self):
        g = Grid.uniform(0.0, 3.0, 256)
        kern = diagonal_kernel(g, sd=0.05)
        f = DensityCurve.from_values(g, lognormal_pdf(g.points, 0.0, 0.4))
        out = evolve(kern, f)
        w = trapezoid_weights(g.points)
        assert np.sum(w * np.abs(out.values - f.values)) < 0.05

    def test_output_integrates_to_one(self):
        rng = np.random.default_rng(23)
        g = Grid.uniform(0.0, 2.0, 64)
        for _ in range(5):
            kern = random_kernel(g, rng)
            f = DensityCurve.from_values(g, mixture_row(g.points, rng))
            assert abs(_quad.integrate(g, evolve(kern, f).values) - 1.0) < 1e-6

    def test_linearity_in_input(self):
        rng = np.random.default_rng(27)
        g = Grid.uniform(0.0, 2.0, 64)
        kern = random_kernel(g, rng)
        a = mixture_row(g.points, rng)
        b = mixture_row(g.points, rng)
        fa = DensityCurve.from_values(g, a)
        fb = DensityCurve.from_values(g, b)
        mix = DensityCurve.from_values(g, 0.5 * fa.values + 0.5 * fb.values)
        direct = evolve(kern, mix)
        combined = 0.5 * evolve(kern, fa).values + 0.5 * evolve(kern, fb).values
        assert np.max(np.abs(direct.values - combined)) < 1e-9

    def test_grid_mismatch(self):
        g = Grid.uniform(0.0, 2.0, 64)
        other = Grid.uniform(0.0, 2.0, 65)
        kern = identical_rows_kernel(g)
        f = DensityCurve.from_values(other, np.ones(65))
        with pytest.raises(GridMismatch):
            evolve(kern, f)

    def test_no_supported_rows(self):
        # zero-mass rows become unsupported at construction; a kernel with
        # no supported rows at all cannot evolve anything
        g = Grid.uniform(0.0, 2.0, 64)
        kern = StochasticKernel.from_rows(g, np.zeros((64, 64)))
        assert kern.n_supported == 0
        f = DensityCurve.from_values(g, np.ones(64))
        with pytest.raises(NoSupportedRows):
            evolve(kern, f)

    def test_input_mass_outside_support(self):
        # density concentrated entirely on unsupported rows cannot evolve
        g = Grid.uniform(0.0, 2.0, 64)
        supported = np.zeros(64, dtype=bool)
        supported[40:] = True
        rows = np.tile(gaussian(g.points, 1.0, 0.2), (64, 1))
        kern = StochasticKernel.from_rows(g, rows, supported=supported)
        low = np.zeros(64)
        low[:10] = 1.0
        f = DensityCurve.from_values(g, low)
        with pytest.raises(NoSupportedRows):
            evolve(kern, f)


class TestErgodic:
    def test_identical_rows_fixed_point_is_the_row(self):
        g = Grid.uniform(0.0, 2.5, 96)
        kern = identical_rows_kernel(g)
        sol = ergodic_distribution(kern)
        w = trapezoid_weights(g.points)
        assert np.sum(w * np.abs(sol.density.values - kern.rows[0])) < 1e-12
        assert sol.iterations <= 3

    def test_residual_is_reported_fresh(self):
        rng = np.random.default_rng(31)
        g = Grid.uniform(0.0, 2.0, 64)
        kern = random_kernel(g, rng)
        sol = ergodic_distribution(kern, tol=1e-10)
        stepped = evolve(kern, sol.density)
        w = trapezoid_weights(g.points)
        l1 = np.sum(w * np.abs(stepped.values - sol.density.values))
        assert sol.residual == pytest.approx(l1, abs=1e-15)
        assert sol.residual <= 1e-9

    def test_fixed_point_independent_of_init(self):
        rng = np.random.default_rng(37)
        g = Grid.uniform(0.0, 2.0, 64)
        kern = random_kernel(g, rng)
        a = ergodic_distribution(kern)
        init = DensityCurve.from_values(g, mixture_row(g.points, rng))
        b = ergodic_distribution(kern, init=init)
        w = trapezoid_weights(g.points)
        assert np.sum(w * np.abs(a.density.values - b.density.values)) < 1e-8

    def test_not_converged(self):
        rng = np.random.default_rng(41)
        g = Grid.uniform(0.0, 2.0, 64)
        kern = random_kernel(g, rng)
        with pytest.raises(NotConverged) as err:
            ergodic_distribution(kern, tol=1e-300, max_iter=5)
        assert len(err.value.last_deltas) == 2
        assert all(d >= 0 for d in err.value.last_deltas)

    def test_init_grid_mismatch(self):
        g = Grid.uniform(0.0, 2.0, 64)
        other = Grid.uniform(0.0, 2.0, 65)
        kern = identical_rows_kernel(g)
        init = DensityCurve.from_values(other, np.ones(65))
        with pytest.raises(GridMismatch):
            ergodic_distribution(kern, init=init)

    def test_returns_solution_type(self):
        g = Grid.uniform(0.0, 2.5, 64)
        sol = ergodic_distribution(identical_rows_kernel(g))
        assert isinstance(sol, ErgodicSolution)
        assert isinstance(sol.density, DensityCurve)


def evolve_before(kernel, f):
    """One step as `evolve` took it before the shared step: all rows, fresh arrays."""
    contrib = _quad.weights(kernel.grid) * f.values * kernel.supported
    if float(np.sum(contrib)) <= 0.0:
        raise NoSupportedRows("density carries no mass on the kernel's supported rows")
    out = np.einsum("i,iy->y", contrib, kernel.rows)
    return DensityCurve.from_values(kernel.grid, out)


def ergodic_before(kernel, f, tol=1e-10, max_iter=10000):
    """The power iteration as it ran on `evolve_before`."""
    deltas = (np.inf, np.inf)
    for iteration in range(1, max_iter + 1):
        nxt = evolve_before(kernel, f)
        delta = _quad.l1_distance(kernel.grid, f.values, nxt.values)
        deltas = (deltas[1], delta)
        f = nxt
        if delta <= tol:
            residual = _quad.l1_distance(kernel.grid, f.values, evolve_before(kernel, f).values)
            return ErgodicSolution(density=f, residual=residual, iterations=iteration)
    raise NotConverged("", last_deltas=deltas)


def demo_kernels(demo_panel_path, count, groups):
    """Each demo group's kernel on the shared grid, with the solve's start density."""
    panel = prepare_panel(load_panel(demo_panel_path))
    grid = default_grid(panel, count=count)
    out = {}
    for label, gpanel in expand_groups(panel, groups):
        est = estimate_kernel(gpanel, grid)
        init = density_1d(est.pairs.x, silverman_bandwidth(est.pairs.x, 1), grid)
        out[f"{label}-{count}"] = (est.kernel, init)
    return out


def ar1_sample_kernel():
    rng = np.random.default_rng(43)
    logs = np.empty(3001)
    logs[0] = 0.0
    for i, e in enumerate(rng.normal(0.0, 0.25, size=3000)):
        logs[i + 1] = 0.9 * logs[i] + e
    pairs = SimpleNamespace(x=np.exp(logs[:-1]), y=np.exp(logs[1:]))
    g = Grid.uniform(0.0, 8.0, 96)
    bw = Bandwidths(silverman_bandwidth(pairs.x, 2), silverman_bandwidth(pairs.y, 2))
    joint, marginal = joint_and_marginal(pairs, bw, g)
    kern = conditional_density(joint, marginal)
    assert 0 < kern.n_supported < g.count
    return kern, marginal


def interleaved_kernel():
    rng = np.random.default_rng(47)
    g = Grid.uniform(0.0, 2.0, 80)
    supported = rng.random(g.count) > 0.35
    kern = StochasticKernel.from_rows(g, random_kernel(g, rng).rows, supported=supported)
    f = DensityCurve.from_values(g, mixture_row(g.points, rng))
    return kern, f


@pytest.fixture(scope="module")
def solve_cases(demo_panel_path):
    every_group = "pooled,per-sector,per-region,poorest-fraction"
    return {
        **demo_kernels(demo_panel_path, 16, every_group),
        **demo_kernels(demo_panel_path, 128, every_group),
        **demo_kernels(demo_panel_path, 512, "pooled"),
        "ar1-sample": ar1_sample_kernel(),
        "interleaved": interleaved_kernel(),
    }


SOLVE_IDS = (
    [f"{label}-{count}" for count in (16, 128)
     for label in ("pooled", "urban", "rural", "east", "central", "west", "poorest")]
    + ["pooled-512", "ar1-sample", "interleaved"]
)


class TestSharedStep:
    """The in-place solve against a copy of the loop it replaced."""

    @pytest.mark.parametrize("case", SOLVE_IDS)
    def test_solve_is_bitwise_the_evolve_loop(self, solve_cases, case):
        kern, init = solve_cases[case]
        want = ergodic_before(kern, init)
        got = ergodic_distribution(kern, init)
        assert np.array_equal(got.density.values, want.density.values)
        assert got.iterations == want.iterations
        assert got.residual == want.residual
        assert np.array_equal(evolve(kern, init).values, evolve_before(kern, init).values)

    @pytest.mark.parametrize("case", ["pooled-128", "ar1-sample", "interleaved"])
    @pytest.mark.parametrize("max_iter", [1, 2, 7])
    def test_not_converged_carries_the_same_deltas(self, solve_cases, case, max_iter):
        kern, init = solve_cases[case]
        with pytest.raises(NotConverged) as want:
            ergodic_before(kern, init, tol=1e-300, max_iter=max_iter)
        with pytest.raises(NotConverged) as got:
            ergodic_distribution(kern, init, tol=1e-300, max_iter=max_iter)
        assert got.value.last_deltas == want.value.last_deltas

    def test_start_on_unsupported_rows_only(self, solve_cases):
        kern, _ = solve_cases["interleaved"]
        values = np.where(kern.supported, 0.0, 1.0)
        f = DensityCurve.from_values(kern.grid, values)
        with pytest.raises(NoSupportedRows, match="no mass on the kernel's supported rows"):
            ergodic_before(kern, f)
        with pytest.raises(NoSupportedRows, match="no mass on the kernel's supported rows"):
            ergodic_distribution(kern, f)
        with pytest.raises(NoSupportedRows, match="no mass on the kernel's supported rows"):
            evolve(kern, f)

    def test_rectangular_evolve_is_bitwise(self):
        rng = np.random.default_rng(53)
        g = Grid.uniform(0.0, 2.0, 48)
        rows = np.stack([mixture_row(g.points, rng) for _ in range(g.count)])
        kern = StochasticKernel.from_rows(g, rows, supported=rng.random(g.count) > 0.3)
        f = DensityCurve.from_values(g, mixture_row(g.points, rng))
        got = evolve(kern, f)
        assert got.grid == g
        assert np.array_equal(got.values, evolve_before(kern, f).values)


class TestNTP:
    def test_symmetric_row_gives_zero_at_center(self):
        g = Grid.uniform(0.0, 2.0, 65)
        center = g.points[32]
        row = gaussian(g.points, center, 0.2)  # symmetric about the midpoint
        rows = np.tile(row, (65, 1))
        kern = StochasticKernel.from_rows(g, rows)
        ntp = net_transition_probability(kern)
        assert abs(ntp.values[32]) < 1e-9

    def test_mass_above_gives_plus_one(self):
        g = Grid.uniform(0.0, 3.0, 96)
        rows = np.tile(gaussian(g.points, 2.5, 0.05), (96, 1))
        kern = StochasticKernel.from_rows(g, rows)
        ntp = net_transition_probability(kern)
        low = np.searchsorted(g.points, 0.5)
        assert ntp.values[low] == pytest.approx(1.0, abs=1e-6)

    def test_mass_below_gives_minus_one(self):
        g = Grid.uniform(0.0, 3.0, 96)
        rows = np.tile(gaussian(g.points, 0.5, 0.05), (96, 1))
        kern = StochasticKernel.from_rows(g, rows)
        ntp = net_transition_probability(kern)
        high = np.searchsorted(g.points, 2.5)
        assert ntp.values[high] == pytest.approx(-1.0, abs=1e-6)

    def test_values_bounded(self):
        rng = np.random.default_rng(43)
        g = Grid.uniform(0.0, 2.0, 64)
        for _ in range(10):
            kern = random_kernel(g, rng)
            ntp = net_transition_probability(kern)
            sup = kern.supported
            assert np.all(ntp.values[sup] <= 1.0)
            assert np.all(ntp.values[sup] >= -1.0)
            assert np.all(np.isnan(ntp.values[~sup]))

    def test_two_forms_agree(self):
        rng = np.random.default_rng(47)
        g = Grid.uniform(0.0, 2.0, 64)
        for _ in range(5):
            kern = random_kernel(g, rng)
            a = net_transition_probability(kern)
            b = net_transition_probability_two_sided(kern)
            assert np.nanmax(np.abs(a.values - b.values)) < 1e-9

    def test_upward_shift_raises_ntp(self):
        g = Grid.uniform(0.0, 4.0, 128)
        base = gaussian(g.points, 1.2, 0.2)
        shifted = gaussian(g.points, 1.5, 0.2)
        kern_a = StochasticKernel.from_rows(g, np.tile(base, (128, 1)))
        kern_b = StochasticKernel.from_rows(g, np.tile(shifted, (128, 1)))
        a = net_transition_probability(kern_a)
        b = net_transition_probability(kern_b)
        inner = slice(8, 120)  # both rows have all their mass well inside
        assert np.all(b.values[inner] >= a.values[inner] - 1e-12)
        mid = np.searchsorted(g.points, 1.35)
        assert b.values[mid] > a.values[mid] + 0.1

    def test_analytic_mean_reverting_kernel_crossing(self):
        # a log-AR(1) kernel written down analytically: the NTP crosses zero
        # once, at the point where the conditional median equals x, which is
        # x = exp(-sigma^2 / (2 * (1 - rho))) ... solved from rho*log x = log x
        # only at x = 1; the crossing of median(y|x) = x happens where
        # exp(rho log x) = x, i.e. x = 1. (The conditional median of the
        # analytic kernel at x is exp(rho log x).)
        g = Grid.uniform(0.0, 3.0, 256)
        kern = ar1_log_kernel(g, rho=0.6, sigma=0.25)
        ntp = net_transition_probability(kern)
        crossings = ntp_crossings(ntp)
        assert len(crossings) == 1
        assert abs(crossings[0] - 1.0) < 2.5 * g.spacing

    def test_unsupported_rows_propagate(self):
        g = Grid.uniform(0.0, 2.0, 64)
        supported = np.ones(64, dtype=bool)
        supported[:5] = False
        rows = np.tile(gaussian(g.points, 1.0, 0.2), (64, 1))
        kern = StochasticKernel.from_rows(g, rows, supported=supported)
        ntp = net_transition_probability(kern)
        assert np.all(np.isnan(ntp.values[:5]))
        assert np.all(np.isfinite(ntp.values[5:]))


def looped_ntp(kernel):
    """NTP row by row, each row's own cumulative read at x by np.interp."""
    grid = kernel.grid
    values = np.full(grid.count, np.nan)
    for i in np.flatnonzero(kernel.supported):
        row = kernel.rows[i]
        cum = np.empty(grid.count)
        cum[0] = 0.0
        np.cumsum(0.5 * grid.spacing * (row[:-1] + row[1:]), out=cum[1:])
        c = float(np.interp(float(grid.points[i]), grid.points, cum))
        values[i] = min(1.0, max(-1.0, 1.0 - 2.0 * c))
    return values


class TestNTPDiagonal:
    @pytest.mark.parametrize("count", [16, 128, 512])
    def test_bitwise_equal_to_row_loop(self, count):
        rng = np.random.default_rng(count)
        g = Grid.uniform(0.0, 2.0, count)
        kern = random_kernel(g, rng)
        supported = rng.random(count) > 0.2
        kern = StochasticKernel.from_rows(g, kern.rows, supported=supported)
        ntp = net_transition_probability(kern)
        assert np.array_equal(ntp.values, looped_ntp(kern), equal_nan=True)
        assert np.array_equal(np.isnan(ntp.values), ~supported)


class TestCrossings:
    def _curve(self, grid, values):
        return NTPCurve(grid=grid, values=np.asarray(values, dtype=float))

    def test_no_crossing(self):
        g = Grid.uniform(0.0, 15.0, 16)
        assert ntp_crossings(self._curve(g, np.full(16, 0.5))) == []

    def test_single_interpolated_crossing(self):
        g = Grid.uniform(0.0, 15.0, 16)
        v = np.full(16, 0.5)
        v[2:] = -0.5
        # sign change between points 1 and 2 (x = 1 and x = 2), symmetric
        assert ntp_crossings(self._curve(g, v)) == [pytest.approx(1.5)]

    def test_asymmetric_interpolation(self):
        g = Grid.uniform(0.0, 15.0, 16)
        v = np.zeros(16) + 1.0
        v[3] = 0.75
        v[4:] = -0.25
        # between x=3 (0.75) and x=4 (-0.25): crossing at 3 + 0.75/1.0
        got = ntp_crossings(self._curve(g, v))
        assert got == [pytest.approx(3.75)]

    def test_exact_zero_at_grid_point(self):
        g = Grid.uniform(0.0, 15.0, 16)
        v = np.linspace(1.0, -1.0, 16)
        v[7] = 0.0
        v[: 7] = 0.5
        v[8:] = -0.5
        got = ntp_crossings(self._curve(g, v))
        assert got == [pytest.approx(7.0)]

    def test_gap_breaks_bracketing(self):
        g = Grid.uniform(0.0, 15.0, 16)
        v = np.full(16, 0.5)
        v[8:] = -0.5
        v[7] = np.nan
        v[8 - 1] = np.nan  # make the sign change span an unsupported gap
        assert ntp_crossings(self._curve(g, v)) == []

    def test_multiple_crossings_ordered(self):
        g = Grid.uniform(0.0, 15.0, 16)
        v = np.full(16, -0.5)
        v[4:8] = 0.5
        got = ntp_crossings(self._curve(g, v))
        assert len(got) == 2
        assert got[0] < got[1]


class TestSupportComponents:
    def test_fully_connected(self):
        rng = np.random.default_rng(53)
        g = Grid.uniform(0.0, 2.0, 64)
        kern = random_kernel(g, rng)
        comps = support_components(kern)
        assert len(comps) == 1
        lo, hi = comps[0]
        assert lo == g.points[0]
        assert hi == g.points[-1]

    def test_two_blocks(self):
        g = Grid.uniform(0.0, 2.0, 64)
        rows = np.zeros((64, 64))
        # lower block: rows 0..31 put mass only on points 0..31
        rows[:32, :32] = 1.0
        rows[32:, 32:] = 1.0
        kern = StochasticKernel.from_rows(g, rows)
        comps = support_components(kern)
        assert len(comps) == 2
        assert comps[0][1] < comps[1][0]

    def test_unsupported_rows_excluded(self):
        g = Grid.uniform(0.0, 2.0, 64)
        rows = np.zeros((64, 64))
        rows[:20, :20] = 1.0
        rows[30:, 30:] = 1.0
        supported = np.zeros(64, dtype=bool)
        supported[:20] = True
        supported[30:] = True
        kern = StochasticKernel.from_rows(g, rows, supported=supported)
        comps = support_components(kern)
        assert len(comps) == 2
        assert comps[0] == (pytest.approx(g.points[0]), pytest.approx(g.points[19]))

    @pytest.mark.parametrize("count", [16, 40, 128])
    def test_matches_csgraph_on_sparse_kernels(self, count):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(count)
        g = Grid.uniform(0.0, 2.0, count)
        for density in (0.002, 0.01, 0.05, 0.2) * 5:
            rows = (rng.random((count, count)) < density) * rng.random((count, count))
            rows[np.diag_indices(count)] += rng.random(count) < 0.5
            kern = StochasticKernel.from_rows(
                g, rows, supported=rng.random(count) < rng.uniform(0.3, 1.0)
            )
            sup = np.flatnonzero(kern.supported)
            n, label = csgraph.connected_components(
                kern.rows[np.ix_(sup, sup)] > 0, directed=True, connection="weak"
            )
            want = sorted(
                (g.points[sup[label == c].min()], g.points[sup[label == c].max()])
                for c in range(n)
            )
            assert support_components(kern) == want


class TestNTPCurveType:
    def test_rejects_out_of_range_values(self):
        g = Grid.uniform(0.0, 1.0, 16)
        v = np.zeros(16)
        v[3] = 1.5
        with pytest.raises(ValueError):
            NTPCurve(grid=g, values=v)

    def test_requires_nan_at_unsupported(self):
        # NaN alone marks a point off the support; an infinity is rejected
        g = Grid.uniform(0.0, 1.0, 16)
        v = np.zeros(16)
        v[0] = np.nan
        assert np.isnan(NTPCurve(grid=g, values=v).values[0])
        for mark in (np.inf, -np.inf):
            v[0] = mark
            with pytest.raises(ValueError, match=r"NTP values must be NaN or lie in \[-1, 1\]"):
                NTPCurve(grid=g, values=v)

    def test_callers_arrays_stay_theirs(self):
        g = Grid.uniform(0.0, 1.0, 16)
        v = np.zeros(16)
        curve = NTPCurve(grid=g, values=v)
        assert v.flags.writeable
        assert curve.values is not v


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_ergodic_is_stationary_property(seed):
    rng = np.random.default_rng(seed)
    g = Grid.uniform(0.0, 2.0, 64)
    kern = random_kernel(g, rng)
    sol = ergodic_distribution(kern, tol=1e-10)
    assert sol.residual <= 1e-9
    assert abs(_quad.integrate(g, sol.density.values) - 1.0) < 1e-6


_G = Grid.uniform(0.0, 1.0, 16)
_KERNEL = StochasticKernel(_G, np.ones((16, 16)))


@pytest.mark.parametrize("make, message", [
    (lambda: NTPCurve(_G, np.zeros(15)), "values do not match the grid"),
    (lambda: NTPCurve(_G, np.full(16, 2.0)), "NTP values must be NaN or lie in [-1, 1]"),
    (lambda: ergodic_distribution(_KERNEL, tol=0.0), "tol must be positive, got 0.0"),
    (lambda: ergodic_distribution(_KERNEL, tol=math.nan), "tol must be positive, got nan"),
    (lambda: ergodic_distribution(_KERNEL, max_iter=0), "max_iter must be at least 1, got 0"),
], ids=["ntp-values-shape", "ntp-range", "tol-zero", "tol-nan", "max-iter"])
def test_rejections(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError
    assert str(info.value) == message
