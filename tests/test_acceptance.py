"""Top-level acceptance checks, one test per contract.

Each test pins one externally checkable property of the library:
conservation of probability mass through every estimation stage,
fixed-point quality of the ergodic solver, agreement with an independent
matrix-powering oracle, recovery of synthetic processes whose stationary
behavior is known in closed form, agreement of the two net transition
probability formulations, exact kernel-density point values, and bitwise
reproducibility of the bundled demo. Run

    pytest -v tests/test_acceptance.py

to get one pass/fail line per contract. Tests print their measured
values so a failure shows how far off the run was.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from distdyn import (
    DEMO_SPEC,
    Grid,
    ProcessSpec,
    analyze_group,
    default_grid,
    evolve,
    prepare_panel,
    simulate,
    stationary_density,
)
from distdyn.dynamics import ergodic_distribution, net_transition_probability, ntp_crossings
from distdyn.kde import (
    Bandwidths,
    DensityCurve,
    StochasticKernel,
    density_1d,
    density_1d_raw,
    density_2d_raw,
    silverman_bandwidth,
)
from distdyn.pipeline import estimate_kernel
from distdyn.cli import main

from conftest import (
    gaussian,
    net_transition_probability_two_sided,
    random_kernel,
    trapezoid_weights,
)


def l1(points, a, b):
    return float(np.sum(trapezoid_weights(points) * np.abs(a - b)))


def mass(points, values):
    return float(np.sum(trapezoid_weights(points) * values))


def _random_spec(i: int) -> ProcessSpec:
    """A deterministic mix of process kinds and parameters for panel i."""
    rng = np.random.default_rng(900 + i)
    kind = ("iid_lognormal", "ar1_log", "two_club")[i % 3]
    units = int(rng.integers(30, 61))
    years = int(rng.integers(4, 7))
    if kind == "iid_lognormal":
        return ProcessSpec(kind=kind, sigma=float(rng.uniform(0.2, 0.6)),
                           units=units, years=years, seed=800 + i)
    if kind == "ar1_log":
        return ProcessSpec(kind=kind, rho=float(rng.uniform(0.3, 0.85)),
                           sigma=float(rng.uniform(0.15, 0.4)),
                           units=units, years=years, seed=800 + i)
    lo = float(rng.uniform(0.35, 0.6))
    hi = float(rng.uniform(1.0, 1.5))
    return ProcessSpec(kind=kind, sigma=float(rng.uniform(0.05, 0.15)),
                       club_centers=(lo, hi),
                       club_pull=float(rng.uniform(0.2, 0.5)),
                       units=units, years=years, seed=800 + i)


def test_01_normalization_suite():
    """100 random synthetic panels: every density object has unit mass.

    Checks the pooled marginal, the joint surface, every supported kernel
    row, the solver's starting density and one evolve step, all within
    1e-6 of unit trapezoid mass, in under 60 seconds.
    """
    t0 = time.monotonic()
    worst = 0.0
    for i in range(100):
        panel = prepare_panel(simulate(_random_spec(i)), scope="pooled")
        grid = default_grid(panel, count=64)
        pts = grid.points
        est = estimate_kernel(panel, grid, tau=1)

        errs = [abs(mass(pts, est.marginal.values) - 1.0)]
        joint_mass = float(
            np.sum(trapezoid_weights(pts)[:, None]
                   * trapezoid_weights(pts)[None, :] * est.joint.values)
        )
        errs.append(abs(joint_mass - 1.0))
        for idx in np.flatnonzero(est.kernel.supported):
            errs.append(abs(mass(pts, est.kernel.rows[idx]) - 1.0))

        init = density_1d(est.pairs.x, silverman_bandwidth(est.pairs.x, 1), grid)
        errs.append(abs(mass(pts, init.values) - 1.0))
        stepped = evolve(est.kernel, init)
        errs.append(abs(mass(pts, stepped.values) - 1.0))
        worst = max(worst, max(errs))
    elapsed = time.monotonic() - t0
    print(f"normalization: worst |mass - 1| = {worst:.3e} over 100 panels "
          f"in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_02_ergodic_fixed_point():
    """Converged solves satisfy ||f - evolve(f)||_1 <= 10 * tol.

    Also: a kernel whose rows are all the same density must return that
    row as its ergodic distribution within 1e-12 L1 (the fixed point is
    exact there, independent of the starting density).
    """
    grid = Grid.uniform(0.0, 3.0, 64)
    tol = 1e-10
    worst_residual = 0.0
    for k in range(12):
        ker = random_kernel(grid, np.random.default_rng(300 + k))
        sol = ergodic_distribution(ker, tol=tol, max_iter=10000)
        fresh = l1(grid.points, sol.density.values,
                   evolve(ker, sol.density).values)
        worst_residual = max(worst_residual, sol.residual, fresh)
    assert worst_residual <= 10 * tol

    row = gaussian(grid.points, 1.2, 0.3) + 0.4 * gaussian(grid.points, 2.1, 0.2)
    row /= mass(grid.points, row)
    ker = StochasticKernel.from_rows(grid, np.tile(row, (grid.count, 1)))
    sol = ergodic_distribution(ker, tol=tol, max_iter=100)
    row_err = l1(grid.points, sol.density.values, row)
    print(f"ergodic: worst residual = {worst_residual:.3e}, "
          f"identical-rows recovery L1 = {row_err:.3e}")
    assert row_err <= 1e-12


def test_03_operator_powering_oracle():
    """The iterative solver matches repeated squaring of the discretized operator.

    The oracle turns each kernel into a row-stochastic matrix with
    trapezoid weights folded in, squares it 60 times (re-normalizing rows
    to put down float drift), and reads the stationary density off any
    row. 20 random 64-point kernels must agree within 1e-6 L1 in under
    30 seconds. The oracle shares no code with the solver.
    """
    t0 = time.monotonic()
    grid = Grid.uniform(0.0, 3.0, 64)
    w = trapezoid_weights(grid.points)
    worst = 0.0
    for trial in range(20):
        ker = random_kernel(grid, np.random.default_rng(5000 + trial))
        P = ker.rows * w[None, :]
        P /= P.sum(axis=1, keepdims=True)
        for _ in range(60):
            P = P @ P
            P /= P.sum(axis=1, keepdims=True)
        pi = P[0] / w
        pi /= mass(grid.points, pi)
        sol = ergodic_distribution(ker, tol=1e-10, max_iter=10000)
        worst = max(worst, l1(grid.points, sol.density.values, pi))
    elapsed = time.monotonic() - t0
    print(f"powering oracle: worst L1 = {worst:.3e} over 20 kernels "
          f"in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_04_ar1_recovery():
    """A simulated AR(1)-in-logs panel recovers its analytic stationary law.

    rho = 0.9, sigma = 0.2, 400 units x 15 years, fixed seed. In relative
    terms the stationary density is lognormal with log-scale
    s = sigma / sqrt(1 - rho^2) and log-location -s^2/2 (unit mean). The
    estimated ergodic density must be within 0.15 L1 of that law
    (truncated and renormalized on the grid), and the net transition
    probability must cross zero exactly once, within 0.1 of the
    stationary median exp(-s^2/2).
    """
    t0 = time.monotonic()
    spec = ProcessSpec(kind="ar1_log", rho=0.9, sigma=0.2,
                       units=400, years=15, seed=13)
    panel = prepare_panel(simulate(spec), scope="pooled")
    grid = default_grid(panel, count=256)
    result = analyze_group("pooled", panel, grid)

    s = 0.2 / np.sqrt(1.0 - 0.9**2)
    pts = grid.points
    analytic = stationary_density(spec, grid, relative=True).values

    err = l1(pts, result.ergodic.density.values, analytic)
    crossings = ntp_crossings(result.ntp)
    median = float(np.exp(-s * s / 2.0))
    elapsed = time.monotonic() - t0
    print(f"ar1 recovery: L1 = {err:.4f}, crossings = "
          f"{[round(c, 4) for c in crossings]}, stationary median = {median:.4f}, "
          f"in {elapsed:.1f}s")
    assert err <= 0.15
    assert len(crossings) == 1
    assert abs(crossings[0] - median) <= 0.1
    assert elapsed < 60.0


def test_05_two_club_recovery():
    """The bundled two-club process separates into its two calibrated clubs.

    Clubs at relative incomes 0.48 and 1.1, pull 0.3, sigma 0.1 (the
    bundled demo spec). The pooled report must list exactly two ergodic
    modes, sorted, each within 0.1 of its club center, and at least one
    net-transition-probability crossing.
    """
    t0 = time.monotonic()
    panel = prepare_panel(simulate(DEMO_SPEC), scope="pooled")
    grid = default_grid(panel, count=256)
    result = analyze_group("pooled", panel, grid)
    locations = [m.location for m in result.report.modes]
    elapsed = time.monotonic() - t0
    print(f"two-club recovery: modes = {[round(x, 4) for x in locations]}, "
          f"crossings = {len(result.report.ntp_crossings)}, in {elapsed:.1f}s")
    assert result.report.group_label == "pooled"
    assert len(locations) == 2
    assert locations == sorted(locations)
    assert abs(locations[0] - DEMO_SPEC.club_centers[0]) <= 0.1
    assert abs(locations[1] - DEMO_SPEC.club_centers[1]) <= 0.1
    assert len(result.report.ntp_crossings) >= 1
    assert elapsed < 60.0


def test_06_ntp_forms_agree():
    """The two net-transition-probability formulations agree pointwise.

    p(x) = P(up) - P(down) computed as a two-sided integral split at x,
    and as 1 - 2 * CDF_row(x), must match within 1e-9 at every supported
    grid point across 20 random kernels, with identical NaN patterns at
    unsupported rows.
    """
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(7000 + trial)
        grid = Grid.uniform(0.0, float(rng.uniform(1.5, 4.0)), 64)
        ker = random_kernel(grid, rng)
        if trial % 3 == 0:
            # knock out a row so the NaN-propagation path is exercised too
            rows = ker.rows.copy()
            rows[int(rng.integers(0, grid.count))] = 0.0
            ker = StochasticKernel.from_rows(grid, rows)
        a = net_transition_probability(ker)
        b = net_transition_probability_two_sided(ker)
        assert np.array_equal(np.isnan(a.values), np.isnan(b.values))
        finite = ~np.isnan(a.values)
        worst = max(worst, float(np.max(np.abs(a.values[finite] - b.values[finite]))))
    print(f"ntp forms: max |difference| = {worst:.3e} over 20 kernels")
    assert worst <= 1e-9


def test_07_kde_point_values():
    """Kernel density point values match their closed forms.

    A single 1-D sample with unit bandwidth peaks at 1/sqrt(2*pi); a
    single 2-D pair peaks at 1/(2*pi); the Silverman bandwidth of
    {1,2,3,4,5} is 0.9736 to three decimals under the stated quartile
    convention.
    """
    grid = Grid.uniform(-4.0, 4.0, 17)  # point 8 sits exactly on 0.0
    raw1 = density_1d_raw(np.array([0.0]), 1.0, grid)
    err1 = abs(raw1[8] - 1.0 / np.sqrt(2.0 * np.pi))

    pair = SimpleNamespace(x=np.array([0.0]), y=np.array([0.0]))
    raw2 = density_2d_raw(pair, Bandwidths(h_x=1.0, h_y=1.0), grid)
    err2 = abs(raw2[8, 8] - 1.0 / (2.0 * np.pi))

    h = silverman_bandwidth(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 1)
    err3 = abs(h - 0.9736)
    print(f"kde points: 1-D peak err = {err1:.2e}, 2-D peak err = {err2:.2e}, "
          f"silverman = {h:.6f}")
    assert err1 <= 1e-12
    assert err2 <= 1e-12
    assert err3 <= 1e-3


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory, repo_root):
    """One demo analysis per thread count, shared by the last two tests."""
    base = tmp_path_factory.mktemp("demo-runs")
    outs = {}
    for threads in (1, 8):
        out = base / f"threads-{threads}"
        code = main([
            "analyze",
            "--config", str(repo_root / "demo" / "config.json"),
            "--input", str(repo_root / "demo" / "panel.csv"),
            "--out-dir", str(out),
            "--threads", str(threads),
        ])
        assert code == 0
        outs[threads] = out
    return outs


def test_08_determinism_across_threads(demo_runs):
    """Analyzing the demo with 1 and 8 threads gives byte-identical manifests.

    The manifest holds a sha256 for every output file, so equal manifests
    mean every artifact of the run is identical, not just the index.
    """
    m1 = (demo_runs[1] / "manifest.json").read_bytes()
    m8 = (demo_runs[8] / "manifest.json").read_bytes()
    print(f"determinism: manifests equal = {m1 == m8} ({len(m1)} bytes)")
    assert m1 == m8


def test_09_golden_figures(demo_runs, repo_root):
    """Demo SVG output matches the committed golden files byte-for-byte."""
    golden_dir = repo_root / "tests" / "golden" / "pooled"
    for name in ("contour", "ergodic", "ntp", "surface"):
        fresh = (demo_runs[1] / "pooled" / f"{name}.svg").read_bytes()
        golden = (golden_dir / f"{name}.svg").read_bytes()
        assert fresh == golden, f"pooled/{name}.svg differs from its golden copy"
    print("golden figures: 4 of 4 SVGs byte-identical")
