"""Shared fixtures and small construction helpers for the test suite."""

import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from distdyn import Grid, _quad
from distdyn.dynamics import NTPCurve
from distdyn.kde import DensityCurve, StochasticKernel
from distdyn.errors import DuplicateKey, MalformedRow, NonPositiveIncome
from distdyn.panel import _HEADER, REGIONS, SECTORS, Panel
from distdyn.synthesis import (
    START_YEAR,
    ProcessSpec,
    club_assignments,
    club_log_sd,
    stationary_log_sd,
)

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


def strict_json(path):
    """Parse a file as strict JSON: NaN, Infinity and -Infinity raise."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


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


def load_panel_rows(stream) -> Panel:
    """Parse a panel CSV from a text stream, one ``csv.reader`` row at a time.

    The row loop ``load_panel`` ran before it read whole columns, kept as
    its oracle: the same columns, and for a bad input the same error and
    message. Two faults it misses are fixed in ``load_panel`` and modeled
    by the tests: a year beyond 64 bits reaches ``np.array`` as an
    ``OverflowError``, and input that is not UTF-8 is the caller's decode
    error. Open the stream with ``newline=""``.
    """
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow("row 1: empty input, expected a header row")
        header = [h.strip() for h in header]
        if header == _HEADER:
            has_cpi = False
        elif header == _HEADER + ["cpi"]:
            has_cpi = True
        else:
            raise MalformedRow(
                f"row 1: bad header {header!r}, expected {','.join(_HEADER)}[,cpi]"
            )

        ncols = len(header)
        units, sectors, regions, years, incomes, cpis = [], [], [], [], [], []
        seen: dict[tuple[str, str], tuple[str, set[int]]] = {}  # each unit's region, years
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncols:
                raise MalformedRow(f"row {lineno}: expected {ncols} fields, got {len(row)}")
            unit, sector, region = row[0].strip(), row[1].strip(), row[2].strip()
            if not unit:
                raise MalformedRow(f"row {lineno}: empty unit_id")
            if sector not in SECTORS:
                raise MalformedRow(f"row {lineno}: unknown sector {sector!r}")
            if region not in REGIONS:
                raise MalformedRow(f"row {lineno}: unknown region {region!r}")
            try:
                year = int(row[3])
            except ValueError:
                raise MalformedRow(f"row {lineno}: year {row[3]!r} is not an integer")
            try:
                income = float(row[4])
            except ValueError:
                raise MalformedRow(f"row {lineno}: income {row[4]!r} is not a number")
            if not math.isfinite(income) or income <= 0:
                raise NonPositiveIncome(f"row {lineno}: income must be > 0, got {row[4]}")
            cpi = math.nan
            if has_cpi and row[5].strip() != "":
                try:
                    cpi = float(row[5])
                except ValueError:
                    raise MalformedRow(f"row {lineno}: cpi {row[5]!r} is not a number")
                if not math.isfinite(cpi) or cpi <= 0:
                    raise MalformedRow(f"row {lineno}: cpi must be > 0, got {row[5]}")
            region0, unit_years = seen.setdefault((unit, sector), (region, set()))
            if year in unit_years:
                key = (unit, sector, year)
                raise DuplicateKey(f"row {lineno}: repeated (unit_id, sector, year) {key}")
            if region != region0:
                raise MalformedRow(f"row {lineno}: unit ({unit!r}, {sector!r}) in region "
                                   f"{region!r}, but in {region0!r} on its earlier rows")
            unit_years.add(year)
            units.append(unit)
            sectors.append(sector)
            regions.append(region)
            years.append(year)
            incomes.append(income)
            if has_cpi:
                cpis.append(cpi)
    finally:
        stream.close()
    cpi_col = np.array(cpis, dtype=float)  # empty, hence dropped, without a cpi column
    return Panel(
        unit_id=np.array(units, dtype=object),
        sector=np.array(sectors, dtype=object),
        region=np.array(regions, dtype=object),
        year=np.array(years, dtype=int),
        income=np.array(incomes, dtype=float),
        cpi=None if np.all(np.isnan(cpi_col)) else cpi_col,
    )


def simulate_unit_loop(spec: ProcessSpec) -> Panel:
    """Simulate the process one unit and one year at a time.

    The per-unit recursion ``synthesis.simulate`` ran before it stepped
    all units a year at a time, kept as its oracle: unit u draws one
    standard normal for its initial level, then its innovations, from its
    own ``(seed, u)`` stream, and its log-income path is filled year by
    year in Python floats.
    """
    if spec.kind == "two_club":
        clubs = club_assignments(spec)
        means = np.log(np.asarray(spec.club_centers))
        a = 1.0 - spec.club_pull
        init_sd = club_log_sd(spec)
    else:
        clubs = np.zeros(spec.units, dtype=int)
        means = np.zeros(1)
        a = spec.rho
        init_sd = stationary_log_sd(spec)

    width = max(4, len(str(spec.units - 1)))
    incomes = np.empty(spec.units * spec.years)
    ids = np.empty(spec.units * spec.years, dtype=object)
    for u in range(spec.units):
        mean = float(means[clubs[u]])
        rng = np.random.Generator(np.random.Philox(key=np.array([spec.seed, u], dtype=np.uint64)))
        z = np.empty(spec.years)
        z[0] = mean + init_sd * rng.standard_normal()
        if spec.years > 1:
            eps = rng.standard_normal(spec.years - 1)
            for t in range(1, spec.years):
                z[t] = mean + a * (z[t - 1] - mean) + spec.sigma * eps[t - 1]
        incomes[u * spec.years:(u + 1) * spec.years] = np.exp(z)
        ids[u * spec.years:(u + 1) * spec.years] = f"u{u:0{width}d}"
    n = spec.units * spec.years
    return Panel(
        unit_id=ids,
        sector=np.array(["urban"] * n, dtype=object),
        region=np.array(["other"] * n, dtype=object),
        year=np.tile(np.arange(START_YEAR, START_YEAR + spec.years), spec.units),
        income=incomes,
        cpi=None,
        is_relative=False,
    )
