"""Distribution evolution, ergodic solutions and net transition probabilities."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdyn import Grid, _quad, dynamics, evolve
from distdyn.cli import main
from distdyn.dynamics import (
    ErgodicSolution,
    NTPCurve,
    component_blocks,
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
    ergodic_before,
    evolve_before,
    gaussian,
    lognormal_pdf,
    mixture_row,
    net_transition_probability_two_sided,
    perron_density,
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
        with pytest.raises(NoSupportedRows, match="kernel has no supported rows"):
            evolve(kern, f)
        with pytest.raises(NoSupportedRows, match="kernel has no supported rows"):
            ergodic_distribution(kern, f)

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
        **demo_kernels(demo_panel_path, 512, "pooled,per-sector"),
        "ar1-sample": ar1_sample_kernel(),
        "interleaved": interleaved_kernel(),
    }


SOLVE_IDS = (
    [f"{label}-{count}" for count in (16, 128)
     for label in ("pooled", "urban", "rural", "east", "central", "west", "poorest")]
    + ["pooled-512", "ar1-sample", "interleaved"]
)


def feeder_kernel():
    """Points 0-3 leak 1e-5 of their mass a step onto point 15 (unsupported)
    and pass 1e-9 to a closed block on points 8-14, whose rows spread their
    mass evenly over it. The law is the closed block's: even mass on 8-14."""
    g = Grid.uniform(0.0, 1.0, 16)
    moves = np.zeros((16, 16))  # row i: the share of i's mass that lands on each point
    moves[:4, :4] = (1.0 - 1e-5 - 1e-9) / 4
    moves[:4, 15] = 1e-5
    moves[:4, 8] = 1e-9
    moves[8:15, 8:15] = 1.0 / 7
    supported = np.zeros(16, dtype=bool)
    supported[:4] = supported[8:15] = True
    return StochasticKernel.from_rows(g, moves / _quad.weights(g), supported=supported)


class TestSharedStep:
    """The direct solve against the power iteration it replaced (the oracle
    `ergodic_before` in conftest) and against a dense eigen-solve."""

    @pytest.mark.parametrize("case", SOLVE_IDS)
    def test_solve_is_bitwise_the_evolve_loop(self, solve_cases, case):
        # the solve's one `evolve` step (its residual) and `evolve` itself are
        # the power iteration's step, bit for bit
        kern, init = solve_cases[case]
        got = ergodic_distribution(kern, init)
        step = evolve_before(kern, got.density)
        assert got.residual == _quad.l1_distance(kern.grid, got.density.values, step.values)
        assert np.array_equal(evolve(kern, init).values, evolve_before(kern, init).values)

    @pytest.mark.parametrize("case", SOLVE_IDS)
    def test_solve_matches_power_iteration_within_bounds(self, solve_cases, case):
        # within the two stated errors, each an estimate that may fall short a little
        kern, init = solve_cases[case]
        want = ergodic_before(kern, init)
        got = ergodic_distribution(kern, init)
        gap = _quad.l1_distance(kern.grid, got.density.values, want.density.values)
        assert gap <= 2.0 * (got.error_bound + want.error_bound)
        assert got.error_bound <= 1e-10

    @pytest.mark.parametrize("case", SOLVE_IDS)
    def test_meets_tol_against_a_dense_eigen_solve(self, solve_cases, case):
        kern, init = solve_cases[case]
        got = ergodic_distribution(kern, init, tol=1e-10)
        err = _quad.l1_distance(kern.grid, got.density.values, perron_density(kern))
        assert err <= 1e-10

    @pytest.mark.parametrize("case", ["pooled-128", "ar1-sample", "interleaved"])
    @pytest.mark.parametrize("max_iter", [1, 2, 7])
    def test_not_converged_carries_the_same_deltas(self, solve_cases, case, max_iter):
        # the deltas a failed solve carries depend on the solve alone: one
        # more allowed solve extends the sequence by one delta, unless the
        # solve stopped at the rounding floor, where a larger cap changes nothing
        kern, init = solve_cases[case]
        with pytest.raises(NotConverged) as capped:
            ergodic_distribution(kern, init, tol=1e-300, max_iter=max_iter)
        with pytest.raises(NotConverged) as longer:
            ergodic_distribution(kern, init, tol=1e-300, max_iter=max_iter + 1)
        if "stopped shrinking" in str(capped.value):
            assert longer.value.last_deltas == capped.value.last_deltas
        else:
            assert longer.value.last_deltas[0] == capped.value.last_deltas[1]
        assert (max_iter == 1) == math.isinf(capped.value.last_deltas[0])

    def test_unreachable_tol_ends_at_the_rounding_floor(self, solve_cases):
        kern, init = solve_cases["pooled-128"]
        with pytest.raises(NotConverged, match="stopped shrinking") as within_ten:
            ergodic_distribution(kern, init, tol=1e-300, max_iter=10)
        with pytest.raises(NotConverged) as uncapped:
            ergodic_distribution(kern, init, tol=1e-300, max_iter=10000)
        assert uncapped.value.last_deltas == within_ten.value.last_deltas
        assert max(within_ten.value.last_deltas) < 1e-12

    def test_a_rise_above_rounding_is_not_a_stall(self):
        # started on the leaking block, the deltas grow for about a dozen
        # solves, while the closed block's share goes from 1e-4 to most of
        # the mass, and only then shrink
        kern = feeder_kernel()
        start = DensityCurve.from_values(kern.grid, np.where(np.arange(16) < 4, 1.0, 0.0))
        with pytest.raises(NotConverged, match="no fixed point after 8 solves") as capped:
            ergodic_distribution(kern, start, max_iter=8)
        early, late = capped.value.last_deltas
        assert 1e-3 < early < late
        sol = ergodic_distribution(kern, start)
        closed = (np.arange(16) >= 8) & (np.arange(16) < 15)
        want = np.where(closed, 1.0 / (7.0 * _quad.weights(kern.grid)), 0.0)
        assert _quad.l1_distance(kern.grid, sol.density.values, want) <= 1e-10
        assert sol.error_bound <= 1e-10

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

    @pytest.mark.parametrize("case", [f"{label}-{count}" for count in (128, 512)
                                      for label in ("pooled", "urban", "rural")])
    def test_substitution_solves_the_shifted_system(self, solve_cases, case):
        # each component's factor and substitutions against a LAPACK solve of
        # sigma*I - M^T (here only): a nonnegative b gives a nonnegative x
        kern, _ = solve_cases[case]
        w = _quad.weights(kern.grid)
        rng = np.random.default_rng(67)
        for block in component_blocks(kern):
            b = rng.random(block.size)
            x = dynamics._substitute(dynamics._factor(kern.rows, block, w[block]), b)
            m_t = (w[block, None] * kern.rows[np.ix_(block, block)]).T
            want = np.linalg.solve(dynamics._SHIFT * np.eye(block.size) - m_t, b)
            assert np.all(x >= 0.0)
            assert np.max(np.abs(x - want)) <= 1e-10 * np.max(want)


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


@pytest.mark.parametrize("seed", range(300, 312))
def test_no_leak_kernel_meets_tol_against_a_dense_eigen_solve(seed):
    # acceptance test 02's kernels: every row supported, Perron root 1
    g = Grid.uniform(0.0, 3.0, 64)
    kern = random_kernel(g, np.random.default_rng(seed))
    sol = ergodic_distribution(kern, tol=1e-10)
    assert _quad.l1_distance(g, sol.density.values, perron_density(kern)) <= 1e-10


def test_identical_rows_meet_tol_against_a_dense_eigen_solve():
    g = Grid.uniform(0.0, 3.0, 64)
    row = gaussian(g.points, 1.2, 0.3) + 0.4 * gaussian(g.points, 2.1, 0.2)
    kern = StochasticKernel.from_rows(g, np.tile(row, (g.count, 1)))
    sol = ergodic_distribution(kern, tol=1e-10)
    assert _quad.l1_distance(g, sol.density.values, perron_density(kern)) <= 1e-10


def two_block_kernel():
    """Blocks on points 0-27 and 36-63; the lower one leaks onto 28-31."""
    g = Grid.uniform(0.0, 2.0, 64)
    rows = np.zeros((64, 64))
    supported = np.zeros(64, dtype=bool)
    for lo, hi, top in ((0, 28, 32), (36, 64, 64)):
        supported[lo:hi] = True
        for i in range(lo, hi):
            rows[i, lo:top] = gaussian(g.points[lo:top], g.points[i], 0.1)
    return StochasticKernel.from_rows(g, rows, supported=supported)


class TestReducible:
    def test_largest_perron_root_wins(self):
        kern = two_block_kernel()
        blocks = component_blocks(kern)
        assert [(b[0], b[-1]) for b in blocks] == [(0, 27), (36, 63)]
        sol = ergodic_distribution(kern)
        assert not np.any(sol.density.values[:32])  # the leaking block loses
        assert _quad.l1_distance(kern.grid, sol.density.values, perron_density(kern)) <= 1e-10

    def test_a_block_the_start_misses_is_never_reached(self):
        kern = two_block_kernel()
        low = np.where(np.arange(64) < 32, 1.0, 0.0)
        sol = ergodic_distribution(kern, DensityCurve.from_values(kern.grid, low))
        assert not np.any(sol.density.values[32:])
        only_low = StochasticKernel(kern.grid, np.where(low[:, None] > 0, kern.rows, 0.0),
                                    supported=kern.supported & (low > 0))
        assert _quad.l1_distance(kern.grid, sol.density.values, perron_density(only_low)) <= 1e-10
        want = ergodic_before(kern, DensityCurve.from_values(kern.grid, low))
        gap = _quad.l1_distance(kern.grid, sol.density.values, want.density.values)
        assert gap <= 2.0 * (sol.error_bound + want.error_bound)


def outlier_panel_text(demo_panel_path, k):
    """The demo panel plus one urban east unit at k times each year's mean."""
    text = demo_panel_path.read_text(encoding="utf-8")
    rows = [line.split(",") for line in text.splitlines()[1:]]
    years = sorted({int(r[3]) for r in rows})
    mean = {y: np.mean([float(r[4]) for r in rows if int(r[3]) == y]) for y in years}
    return text + "".join(f"outlier,urban,east,{y},{float(k * mean[y])!r}\n" for y in years)


@pytest.fixture(scope="module")
def outlier_runs(tmp_path_factory, demo_panel_path, demo_config_path):
    """``analyze`` with the demo config on each outlier panel: k -> (code, out, panel)."""
    runs = {}
    for k in (3, 5, 10, 20):
        base = tmp_path_factory.mktemp(f"outlier{k}")
        panel = base / "panel.csv"
        panel.write_text(outlier_panel_text(demo_panel_path, k), encoding="utf-8")
        code = main(["analyze", "--config", str(demo_config_path), "--input", str(panel),
                     "--out-dir", str(base / "out")])
        runs[k] = code, base / "out", panel
    return runs


class TestOutlierUnit:
    """One unit far above the mean forms a second support component, which
    made power iteration crawl (k = 5 and 10 exited 4 at 10,000 steps).
    The start covers every component, so the answer is the dense Perron
    vector of the whole kernel."""

    @pytest.mark.parametrize("k", [3, 5, 10, 20])
    def test_analyze_exits_zero(self, outlier_runs, k):
        code, out, _ = outlier_runs[k]
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        for g in manifest["groups"]:
            assert g["status"] == "ok"
            assert g["ergodic_error_bound"] <= 1e-10
        if k >= 5:
            assert len(manifest["groups"][0]["support_components"]) == 2

    @pytest.mark.parametrize("k", [3, 5, 10, 20])
    def test_meets_tol_against_a_dense_eigen_solve(self, outlier_runs, k):
        _, out, panel = outlier_runs[k]
        every_group = "pooled,per-sector,per-region,poorest-fraction"
        for name, (kern, init) in demo_kernels(panel, 128, every_group).items():
            if len(component_blocks(kern)) < 2:
                continue
            got = ergodic_distribution(kern, init)
            label = name.rsplit("-", 1)[0]
            written = np.loadtxt(out / label / "ergodic.csv", delimiter=",", skiprows=1)
            assert np.array_equal(written[:, 1], got.density.values)
            err = _quad.l1_distance(kern.grid, got.density.values, perron_density(kern))
            assert err <= 1e-10, name


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
