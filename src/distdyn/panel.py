"""Long-format income panel: ingestion, deflation, relative incomes, subgroups.

A panel holds one row per (unit, sector, year) with a positive income and an
optional CPI index. Storage is columnar (numpy arrays): ingestion parses
each row straight into the columns. All operations are pure: each returns a
new panel.

Input CSV contract: UTF-8, header exactly ``unit_id,sector,region,year,income``
with an optional trailing ``cpi`` column; sector in {urban, rural}; region in
{east, central, west, other}; plain decimal numbers.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateKey,
    EmptySelection,
    EmptyYear,
    MalformedRow,
    MissingBaseYear,
    MissingCpi,
    NoPairs,
    NonPositiveIncome,
)

SECTORS = ("urban", "rural")
REGIONS = ("east", "central", "west", "other")

_HEADER = ["unit_id", "sector", "region", "year", "income"]


@dataclass(frozen=True, eq=False)
class Panel:
    """Columnar long-format panel. ``cpi`` is None once dropped (or never given)."""

    unit_id: np.ndarray
    sector: np.ndarray
    region: np.ndarray
    year: np.ndarray
    income: np.ndarray
    cpi: np.ndarray | None = None
    is_relative: bool = False

    def __post_init__(self):
        n = len(self.unit_id)
        for name in ("sector", "region", "year", "income"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        if self.cpi is not None and len(self.cpi) != n:
            raise ValueError("column cpi has wrong length")

    def __len__(self) -> int:
        return len(self.unit_id)

    def years(self) -> np.ndarray:
        return np.unique(self.year)

    def units(self) -> list[tuple[str, str]]:
        """Distinct (unit_id, sector) keys in first-appearance order."""
        seen: dict[tuple[str, str], None] = {}
        for u, s in zip(self.unit_id, self.sector):
            seen.setdefault((u, s), None)
        return list(seen)

    def _take(self, mask_or_idx, **overrides) -> "Panel":
        kw = dict(
            unit_id=self.unit_id[mask_or_idx],
            sector=self.sector[mask_or_idx],
            region=self.region[mask_or_idx],
            year=self.year[mask_or_idx],
            income=self.income[mask_or_idx],
            cpi=None if self.cpi is None else self.cpi[mask_or_idx],
            is_relative=self.is_relative,
        )
        kw.update(overrides)
        return Panel(**kw)


@dataclass(frozen=True)
class TransitionPairs:
    """Pooled (income at t, income at t + tau) pairs for one analysis group."""

    x: np.ndarray
    y: np.ndarray
    tau: int

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        if self.tau < 1:
            raise ValueError(f"tau must be a positive integer, got {self.tau}")

    def __len__(self) -> int:
        return len(self.x)


def _open_source(source):
    """A text stream over ``source``: a path, CSV bytes, or a readable object."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if hasattr(source, "read"):
        data = source.read()
        return io.StringIO(data.decode("utf-8") if isinstance(data, bytes) else data)
    raise TypeError(f"cannot read a panel from {type(source).__name__}")


def load_panel(source) -> Panel:
    """Parse a long-format CSV into a panel.

    ``source`` is a path (``str`` or ``os.PathLike``), the CSV content as
    ``bytes``, or an object with ``.read()`` returning text or bytes.
    Raises :class:`MalformedRow`, :class:`NonPositiveIncome` or
    :class:`DuplicateKey` with the 1-based row number of the offender.
    """
    stream = _open_source(source)
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
        seen: set[tuple[str, str, int]] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncols:
                raise MalformedRow(f"row {lineno}: expected {ncols} fields, got {len(row)}")
            unit, sector, region = row[0].strip(), row[1].strip(), row[2].strip()
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
            key = (unit, sector, year)
            if key in seen:
                raise DuplicateKey(f"row {lineno}: repeated (unit_id, sector, year) {key}")
            seen.add(key)
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


def dump_panel(panel: Panel) -> bytes:
    """Serialize a panel back to the input CSV format (17 significant digits)."""
    buf = io.StringIO()
    has_cpi = panel.cpi is not None
    buf.write(",".join(_HEADER + (["cpi"] if has_cpi else [])) + "\n")
    for i in range(len(panel)):
        fields = [
            str(panel.unit_id[i]),
            str(panel.sector[i]),
            str(panel.region[i]),
            str(int(panel.year[i])),
            "%.17g" % panel.income[i],
        ]
        if has_cpi:
            c = panel.cpi[i]
            fields.append("" if math.isnan(c) else "%.17g" % c)
        buf.write(",".join(fields) + "\n")
    return buf.getvalue().encode("utf-8")


def deflate(panel: Panel) -> Panel:
    """Convert nominal incomes to real terms: income * 100 / cpi. Drops cpi."""
    if panel.is_relative:
        raise ValueError("panel is already in relative terms")
    if panel.cpi is None or np.any(np.isnan(panel.cpi)):
        missing = "all" if panel.cpi is None else str(int(np.argmax(np.isnan(panel.cpi)) + 1))
        raise MissingCpi(f"deflation needs a cpi on every observation (missing: {missing})")
    return Panel(
        unit_id=panel.unit_id,
        sector=panel.sector,
        region=panel.region,
        year=panel.year,
        income=panel.income * 100.0 / panel.cpi,
        cpi=None,
        is_relative=False,
    )


def to_relative(panel: Panel, scope: str = "pooled") -> Panel:
    """Divide each income by its yearly mean.

    ``pooled`` averages urban and rural observations of a year together;
    ``per_sector`` averages within (year, sector). The output has mean
    relative income 1 in every normalization cell.
    """
    if panel.is_relative:
        raise ValueError("panel is already in relative terms")
    if scope not in ("pooled", "per_sector"):
        raise ValueError(f"scope must be 'pooled' or 'per_sector', got {scope!r}")
    if len(panel) == 0:
        raise EmptyYear("cannot normalize an empty panel")
    income = panel.income.copy()
    if scope == "pooled":
        keys = [(int(y),) for y in panel.year]
    else:
        keys = [(int(y), s) for y, s in zip(panel.year, panel.sector)]
    groups: dict[tuple, list[int]] = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    for k, idx in groups.items():
        mean = float(np.mean(panel.income[idx]))
        if mean <= 0:
            raise EmptyYear(f"no usable observations in scope {k}")
        income[idx] = panel.income[idx] / mean
    return Panel(
        unit_id=panel.unit_id,
        sector=panel.sector,
        region=panel.region,
        year=panel.year,
        income=income,
        cpi=panel.cpi,
        is_relative=True,
    )


def filter_group(panel: Panel, sector: str | None = None, region: str | None = None) -> Panel:
    """Rows matching every supplied predicate, original order preserved."""
    mask = np.ones(len(panel), dtype=bool)
    if sector is not None:
        if sector not in SECTORS:
            raise ValueError(f"unknown sector {sector!r}")
        mask &= panel.sector == sector
    if region is not None:
        if region not in REGIONS:
            raise ValueError(f"unknown region {region!r}")
        mask &= panel.region == region
    if not mask.any():
        raise EmptySelection(f"no observations match sector={sector!r}, region={region!r}")
    return panel._take(mask)


def poorest_fraction(panel: Panel, base_year: int, fraction: float) -> Panel:
    """Keep the poorest share of units, ranked by base-year income.

    Selection runs per sector independently: within each sector,
    ceil(fraction * U) units with the lowest base-year income are retained
    (ties broken by ascending unit_id), with all their years. Units not
    observed in the base year cannot be ranked and are dropped.
    """
    if not (0 < fraction <= 1):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if base_year not in panel.year:
        raise MissingBaseYear(f"base year {base_year} not present in panel")
    keep: set[tuple[str, str]] = set()
    for sec in SECTORS:
        mask = (panel.sector == sec) & (panel.year == base_year)
        if not mask.any():
            continue
        ranked = sorted(
            zip(panel.income[mask], panel.unit_id[mask]),
            key=lambda t: (t[0], t[1]),
        )
        n_keep = math.ceil(fraction * len(ranked))
        keep.update((uid, sec) for _, uid in ranked[:n_keep])
    mask = np.array(
        [(u, s) in keep for u, s in zip(panel.unit_id, panel.sector)], dtype=bool
    )
    if not mask.any():
        raise EmptySelection("poorest-fraction selection retained no observations")
    return panel._take(mask)


def build_transition_pairs(panel: Panel, tau: int = 1) -> TransitionPairs:
    """Pool (income_t, income_{t+tau}) over every unit and every year pair.

    Assumes the transition law is the same for all start years, so pairs
    from different years are pooled into one sample.
    """
    if not panel.is_relative:
        raise ValueError("transition pairs are built from relative incomes; run to_relative first")
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau}")
    by_unit: dict[tuple[str, str], dict[int, float]] = {}
    for i in range(len(panel)):
        key = (panel.unit_id[i], panel.sector[i])
        by_unit.setdefault(key, {})[int(panel.year[i])] = float(panel.income[i])
    xs: list[float] = []
    ys: list[float] = []
    for key, series in by_unit.items():
        for t in sorted(series):
            if t + tau in series:
                xs.append(series[t])
                ys.append(series[t + tau])
    if not xs:
        years = panel.years()
        span = int(years.max() - years.min()) if len(years) else 0
        raise NoPairs(
            f"no unit is observed {tau} years apart (panel spans {span + 1} year(s))"
        )
    return TransitionPairs(x=np.array(xs), y=np.array(ys), tau=tau)


def group_shares(panel: Panel) -> dict[str, float]:
    """Share of distinct (unit_id, sector) units in each region present."""
    if len(panel) == 0:
        raise EmptySelection("cannot compute region shares of an empty panel")
    region_of: dict[tuple[str, str], str] = {}
    for i in range(len(panel)):
        region_of.setdefault((panel.unit_id[i], panel.sector[i]), str(panel.region[i]))
    total = len(region_of)
    counts: dict[str, int] = {}
    for r in region_of.values():
        counts[r] = counts.get(r, 0) + 1
    return {r: counts[r] / total for r in REGIONS if r in counts}
