"""Summary extraction: density modes, NTP crossings, per-group reports.

The quantities of interest from a distribution-dynamics run are a handful
of scalars: where the long-run density peaks, where the net transition
probability changes sign, how a group is composed by region, and how the
first and last cross-sections compare. This module extracts them and
serializes a stable JSON report with :func:`json_text`, the one JSON
writer of the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import ErgodicSolution, NTPCurve, ntp_crossings
from .errors import EmptySelection, GridMismatch, MissingYear
from .kde import DensityCurve, Grid, density_1d, silverman_bandwidth
from .panel import Panel, REGIONS, SECTORS, TransitionPairs, group_shares


class Mode(NamedTuple):
    """A density peak: sub-grid location, height there, and prominence."""

    location: float
    value: float
    prominence: float


def _prominence(values: np.ndarray, peak: int) -> float:
    """Peak height minus the higher of the two flanking minima.

    Each flank extends from the peak to the first strictly higher value (or
    the boundary); the flanking minimum is the lowest value on that stretch.
    """
    v = values
    left_min = v[peak]
    j = peak - 1
    while j >= 0 and v[j] <= v[peak]:
        if v[j] < left_min:
            left_min = v[j]
        j -= 1
    right_min = v[peak]
    j = peak + 1
    while j < len(v) and v[j] <= v[peak]:
        if v[j] < right_min:
            right_min = v[j]
        j += 1
    return float(v[peak] - max(left_min, right_min))


def find_modes(density: DensityCurve, min_prominence: float = 0.05) -> list[Mode]:
    """Strict local maxima of a density curve's grid values, prominence-filtered.

    Maxima whose prominence falls below ``min_prominence`` times the global
    maximum are suppressed. Locations (and heights) are refined by a
    parabola through the peak and its two neighbors, which keeps reported
    positions stable under grid refinement. A flat curve has no strict
    maxima, hence no modes.
    """
    if min_prominence < 0:
        raise ValueError(f"min_prominence must be nonnegative, got {min_prominence}")
    pts, v = density.grid.points, density.values
    n = v.size
    vmax = float(np.max(v))
    out: list[Mode] = []
    for i in range(1, n - 1):
        if not (v[i - 1] < v[i] and v[i] > v[i + 1]):
            continue
        prom = _prominence(v, i)
        if prom < min_prominence * vmax:
            continue
        lo, mid, hi = float(v[i - 1]), float(v[i]), float(v[i + 1])
        denom = 2.0 * mid - lo - hi  # > 0 for a strict maximum
        offset = (hi - lo) / (2.0 * denom)
        location = float(pts[i]) + offset * float(pts[i + 1] - pts[i])
        value = mid + (hi - lo) ** 2 / (8.0 * denom)
        out.append(Mode(location=location, value=value, prominence=prom))
    return out


def compare_years(
    panel: Panel, first_year: int, last_year: int, grid: Grid
) -> dict[str, tuple[DensityCurve, DensityCurve]]:
    """Per-sector income KDEs in two years, on a common grid.

    Returns {sector: (first-year curve, last-year curve)} for every sector
    with at least two observations in each of the two years. Bandwidths are
    the univariate Silverman rule per (sector, year) sample.
    """
    years = set(int(y) for y in panel.years())
    for y in (first_year, last_year):
        if y not in years:
            raise MissingYear(f"year {y} is not present in the panel")
    out: dict[str, tuple[DensityCurve, DensityCurve]] = {}
    for sector in SECTORS:
        curves = []
        for y in (first_year, last_year):
            mask = (panel.sector == sector) & (panel.year == y)
            sample = panel.income[mask]
            if sample.size < 2:
                curves = []
                break
            h = silverman_bandwidth(sample, dimensions=1)
            curves.append(density_1d(sample, h, grid))
        if curves:
            out[sector] = (curves[0], curves[1])
    if not out:
        raise EmptySelection(
            f"no sector has at least 2 observations in both {first_year} and {last_year}"
        )
    return out


@dataclass(frozen=True)
class AnalysisReport:
    """Per-group summary: modes, crossings, the solve's residual and error
    bound, composition."""

    group_label: str
    sample_counts: dict[str, int]
    modes: tuple[Mode, ...]
    ntp_crossings: tuple[float, ...]
    ergodic_residual: float
    ergodic_error_bound: float
    region_shares: dict[str, float]

    def __post_init__(self):
        locs = [m.location for m in self.modes]
        if locs != sorted(locs):
            raise ValueError("modes must be sorted by location")
        if self.region_shares:
            total = sum(self.region_shares.values())
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"region shares sum to {total}, expected 1")


def build_report(
    group_label: str,
    panel: Panel,
    pairs: TransitionPairs,
    ergodic: ErgodicSolution,
    ntp: NTPCurve,
    min_prominence: float = 0.05,
) -> AnalysisReport:
    """Assemble the per-group report from the pipeline's artifacts."""
    if ergodic.density.grid != ntp.grid:
        raise GridMismatch("ergodic density and NTP curve are on different grids")
    modes = find_modes(ergodic.density, min_prominence)
    return AnalysisReport(
        group_label=group_label,
        sample_counts={
            "observations": len(panel),
            "units": len(panel._first_rows),
            "pairs": len(pairs),
        },
        modes=tuple(modes),
        ntp_crossings=tuple(ntp_crossings(ntp)),
        ergodic_residual=float(ergodic.residual),
        ergodic_error_bound=float(ergodic.error_bound),
        region_shares=group_shares(panel),
    )


def json_text(obj) -> str:
    """Strict JSON, indented by two: floats by ``repr`` (the shortest text
    that reads back to the same bits); NaN or infinity raises ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def report_to_json(report: AnalysisReport) -> str:
    """Serialize with a stable field order; region shares in ``REGIONS`` order."""
    return json_text({
        "group_label": report.group_label,
        "sample_counts": report.sample_counts,
        "modes": [m._asdict() for m in report.modes],
        "ntp_crossings": list(report.ntp_crossings),
        "ergodic_residual": report.ergodic_residual,
        "ergodic_error_bound": report.ergodic_error_bound,
        "region_shares": {r: report.region_shares[r] for r in REGIONS if r in report.region_shares},
    })
