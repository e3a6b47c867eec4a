"""Long-format income panel: ingestion, deflation, relative incomes, subgroups.

A panel holds one row per (unit, sector, year) with a positive income and an
optional CPI index. Storage is columnar (numpy arrays): ingestion parses
each row straight into the columns. All operations are pure: each returns a
new panel.

Input CSV contract: UTF-8, header exactly ``unit_id,sector,region,year,income``
with an optional trailing ``cpi`` column; sector in {urban, rural}; region in
{east, central, west, other}, one per (unit_id, sector); plain decimal
numbers.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from functools import cached_property

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
    """Columnar long-format panel. ``cpi`` is None once dropped (or never given).

    A unit is one (unit_id, sector) pair. Its rows share a unit code, the
    unit's number in first-appearance order, built once per panel on first
    use; units, transition pairs, the poorest selection and region shares
    all read it.
    """

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
        first = self._first_rows()
        return list(zip(self.unit_id[first], self.sector[first]))

    @cached_property
    def _unit_code(self) -> np.ndarray:
        """Per-row unit code: first-appearance number of the row's (unit_id, sector)."""
        index: dict[tuple[str, str], int] = {}
        keys = zip(self.unit_id, self.sector)
        return np.fromiter(
            (index.setdefault(k, len(index)) for k in keys), dtype=np.intp, count=len(self)
        )

    def _first_rows(self) -> np.ndarray:
        """Row of each unit's first appearance, indexed by unit code."""
        return np.unique(self._unit_code, return_index=True)[1]

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
    Raises :class:`MalformedRow` (also for an empty ``unit_id`` and for a
    unit whose region changes),
    :class:`NonPositiveIncome` or :class:`DuplicateKey` with the 1-based row
    number of the offender.
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
    columns = (panel.year,) if scope == "pooled" else (panel.year, panel.sector)
    key = 0
    for column in columns:
        values, code = np.unique(column, return_inverse=True)
        key = key * len(values) + code
    _, first, cell = np.unique(key, return_index=True, return_inverse=True)
    income = np.empty_like(panel.income)
    for c in np.argsort(first):
        rows = cell == c  # a mask keeps row order, so the mean sums in row order
        mean = float(np.mean(panel.income[rows]))
        if mean <= 0:
            k = (int(panel.year[first[c]]), panel.sector[first[c]])[: len(columns)]
            raise EmptyYear(f"no usable observations in scope {k}")
        income[rows] = panel.income[rows] / mean
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
    kept: list[int] = []
    for sec in SECTORS:
        rows = np.flatnonzero((panel.sector == sec) & (panel.year == base_year))
        ranked = sorted(rows, key=lambda i: (panel.income[i], panel.unit_id[i]))
        kept += ranked[: math.ceil(fraction * len(rows))]
    code = panel._unit_code
    mask = np.isin(code, code[kept])
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
    years = panel.years()
    span = int(years[-1] - years[0]) + 1 if len(years) else 1
    start = end = np.empty(0, dtype=np.intp)
    if tau < span:
        # rows sorted by unit code, then year; the key steps span + tau per
        # unit, so year + tau never reaches the next unit's keys
        order = np.lexsort((panel.year, panel._unit_code))
        key = panel._unit_code[order] * (span + tau) + (panel.year[order] - years[0])
        target = key + tau
        at = np.minimum(np.searchsorted(key, target), len(key) - 1)
        hit = key[at] == target
        start, end = order[hit], order[at[hit]]
    if not len(start):
        raise NoPairs(f"no unit is observed {tau} years apart (panel spans {span} year(s))")
    return TransitionPairs(x=panel.income[start], y=panel.income[end], tau=tau)


def group_shares(panel: Panel) -> dict[str, float]:
    """Share of distinct (unit_id, sector) units in each region present."""
    if len(panel) == 0:
        raise EmptySelection("cannot compute region shares of an empty panel")
    regions = panel.region[panel._first_rows()]
    counts = {r: int(np.count_nonzero(regions == r)) for r in REGIONS}
    return {r: c / len(regions) for r, c in counts.items() if c}
