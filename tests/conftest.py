"""Shared fixtures and small construction helpers for the test suite."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from distdyn import DensityCurve, Grid, NTPCurve, StochasticKernel
from distdyn import _quad

REPO_ROOT = Path(__file__).resolve().parents[1]

# `python -m distdyn` in a subprocess imports the package from this checkout,
# as the tests themselves do through pyproject's pytest `pythonpath`.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def demo_panel_path(repo_root) -> Path:
    path = repo_root / "demo" / "panel.csv"
    assert path.is_file(), "bundled demo panel is missing"
    return path


@pytest.fixture(scope="session")
def demo_config_path(repo_root) -> Path:
    path = repo_root / "demo" / "config.json"
    assert path.is_file(), "bundled demo config is missing"
    return path


def gaussian(points: np.ndarray, mu: float, sd: float) -> np.ndarray:
    z = (points - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def lognormal_pdf(points: np.ndarray, mu: float, sd: float) -> np.ndarray:
    out = np.zeros_like(points, dtype=float)
    pos = points > 0.0
    z = (np.log(points[pos]) - mu) / sd
    out[pos] = np.exp(-0.5 * z * z) / (points[pos] * sd * math.sqrt(2.0 * math.pi))
    return out


def mixture_row(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One smooth random density row: a two-Gaussian mixture on the grid span."""
    lo, hi = float(points[0]), float(points[-1])
    span = hi - lo
    row = np.zeros_like(points)
    weights = rng.dirichlet(np.ones(2))
    for w in weights:
        mu = rng.uniform(lo + 0.15 * span, hi - 0.15 * span)
        sd = rng.uniform(0.04 * span, 0.25 * span)
        row = row + w * gaussian(points, mu, sd)
    return row


def random_kernel(grid: Grid, rng: np.random.Generator) -> StochasticKernel:
    """A fully supported random smooth kernel on a square grid."""
    rows = np.stack([mixture_row(grid.points, rng) for _ in range(len(grid.points))])
    return StochasticKernel.from_rows(grid, grid, rows)


def curve_from(grid: Grid, values: np.ndarray) -> DensityCurve:
    return DensityCurve.from_values(grid, values)


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Independent trapezoid quadrature weights (test-side reimplementation)."""
    w = np.zeros_like(points)
    w[1:] += 0.5 * np.diff(points)
    w[:-1] += 0.5 * np.diff(points)
    return w


def net_transition_probability_two_sided(kernel: StochasticKernel) -> NTPCurve:
    """NTP by the two one-sided integrals, accumulated independently.

    Upward mass integrates the row from x to the top of the grid, downward
    mass from the bottom up to x; their difference is the NTP. An oracle
    for ``net_transition_probability``, which reads one CDF on the diagonal.
    """
    grid_y = kernel.grid_y
    values = np.full(kernel.grid_x.count, np.nan)
    for i in range(kernel.grid_x.count):
        if not kernel.supported[i]:
            continue
        row = kernel.rows[i]
        x = float(kernel.grid_x.points[i])
        down = float(np.interp(x, grid_y.points, _quad.cumulative(grid_y, row)))
        # accumulate the upper tail from the top down so it is an
        # independent sum, not 1 - down
        rev = _quad.cumulative(grid_y, row[::-1])
        up_from_top = rev[::-1]
        up = float(np.interp(x, grid_y.points, up_from_top))
        values[i] = min(1.0, max(-1.0, up - down))
    return NTPCurve(grid=kernel.grid_x, values=values, supported=kernel.supported.copy())
