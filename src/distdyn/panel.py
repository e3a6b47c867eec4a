"""Long-format income panel: ingestion, deflation, relative incomes, subgroups.

A panel holds one row per (unit, sector, year) with a positive income and an
optional CPI index. Storage is columnar (numpy arrays). Ingestion reads the
CSV in a typed pass, a block of rows at a time into the columns, with its
checks as masks over whole columns; a file that pass refuses is read again
by a plain row loop, which names the first faulty row. All operations are
pure: each returns a new panel.

Input CSV contract: UTF-8, where a leading byte-order mark is skipped; header
exactly ``unit_id,sector,region,year,income`` with an optional trailing
``cpi`` column; sector in {urban, rural}; region in {east, central, west,
other}, one per (unit_id, sector); a year that Python's ``int()`` reads and
64 bits hold; numbers that ``float()`` reads.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from ._format17 import _PAD, _WIDTH, _format_rows, _unpadded
from .errors import (
    DistDynError,
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
    """Columnar long-format panel. ``cpi`` is None once dropped, never given,
    or without a value: all NaN, as ``load_panel`` reads blank cpi cells.

    A unit is one (unit_id, sector) pair. Its rows share a unit code, a
    number that grows with the unit's first appearance; units, transition
    pairs, the poorest selection and region shares all read it.
    ``load_panel`` builds it, and panels derived from one carry it; a panel
    built in code numbers its units on first use.
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
        if self.cpi is not None and np.all(np.isnan(self.cpi)):
            object.__setattr__(self, "cpi", None)

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

    def _with_unit_code(self, code: np.ndarray) -> "Panel":
        self.__dict__["_unit_code"] = code  # fills the cached property
        return self

    def _first_rows(self) -> np.ndarray:
        """Row of each unit's first appearance, in unit-code order."""
        return np.unique(self._unit_code, return_index=True)[1]

    def _take(self, mask_or_idx, **overrides) -> "Panel":
        """The rows a mask, an index array or a slice picks, with the unit code if built."""
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
        taken = Panel(**kw)
        if "_unit_code" in self.__dict__:
            taken._with_unit_code(self._unit_code[mask_or_idx])
        return taken


@dataclass(frozen=True)
class TransitionPairs:
    """Pooled (income at t, income at t + tau) pairs for one analysis group."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")

    def __len__(self) -> int:
        return len(self.x)


# Rows per block, in reading and in writing a panel CSV. A block's array of
# text fields stays under 100 KiB; at 8,192 rows the freed blocks left the
# heap of a later, larger stage higher than the row loop had.
_BLOCK = 2048
_SECTOR_CODE = {s: i for i, s in enumerate(SECTORS)}
_REGION_CODE = {r: i for i, r in enumerate(REGIONS)}


def _content(source):
    """``source`` as the ``Path`` of a regular file, or its CSV content as bytes or str."""
    if isinstance(source, (str, os.PathLike)):
        path = Path(source)
        return path if path.is_file() else path.read_bytes()  # a pipe is read once
    if isinstance(source, bytes):
        return source
    if hasattr(source, "read"):
        return source.read()
    raise TypeError(f"cannot read a panel from {type(source).__name__}")


def _text(content):
    """A UTF-8 text stream over ``content`` that leaves line endings to the CSV reader."""
    if isinstance(content, Path):
        return open(content, "r", encoding="utf-8", newline="")
    if isinstance(content, bytes):
        return io.TextIOWrapper(io.BytesIO(content), encoding="utf-8", newline="")
    return io.StringIO(content, newline="")


def load_panel(source) -> Panel:
    """Parse a long-format CSV into a panel.

    ``source`` is a path (``str`` or ``os.PathLike``), the CSV content as
    ``bytes``, or an object with ``.read()`` returning text or bytes. Fields
    follow CSV rules: a quoted field may hold commas, line breaks and
    doubled quotes, and any of LF, CRLF and CR ends a row. Blank rows are
    skipped, but counted in row numbers.

    Raises :class:`MalformedRow` (also for an empty ``unit_id``, a year
    beyond 64-bit integers and a unit whose region changes),
    :class:`NonPositiveIncome` or :class:`DuplicateKey` with the 1-based row
    number of the offender. Of several faulty rows the lowest is named, and
    of its faults the first in the order: field count, ``unit_id``, sector,
    region, year, income, cpi, repeated key, region change. Input that is
    not UTF-8 raises :class:`MalformedRow` naming its first bad byte,
    whatever else is wrong with it.

    A typed pass reads ``_BLOCK`` rows at a time with ``np.loadtxt``, with
    numpy's own number parse if the text is plain (:func:`_plain`), and
    its checks run as masks over whole columns; a file it refuses is read
    again by a row loop, one ``csv.reader`` row at a time, which names the
    first fault. The rows share one ``str`` per distinct ``unit_id``,
    sector and region, and the panel carries its unit code.
    """
    content = _content(source)
    try:
        with _text(content) as stream:
            panel = _read_typed(_lines(stream), _plain(content))
        if panel is None:
            with _text(content) as stream:
                try:
                    panel = _read_rows(_lines(stream))
                except DistDynError:
                    while stream.read(1 << 16):  # an undecodable byte further on comes first
                        pass
                    raise
        return panel
    except UnicodeDecodeError:
        raise _not_utf8(content) from None


# Plain text is ASCII with none of U+001C-U+001F and no "_": on it numpy's
# int64 and float64 parse read what int() and float() read. On other text
# numpy misreads some non-ASCII digits, skips U+001C-U+001F as spaces, and
# refuses a "_" inside a number, which int() and float() read.
_NOT_PLAIN = "_\x1c\x1d\x1e\x1f"  # the ASCII characters plain text lacks
_LINE_BREAK = {str: re.compile("[\r\n]"), bytes: re.compile(b"[\r\n]")}
# Content is checked this many bytes or characters at a time. A chunk stays
# below glibc's 128 KiB mmap threshold: freeing a larger one raises that
# threshold, and later stages then peak 2-5 MiB higher on panel-300k.
_SCAN = 1 << 16


def _plain(content) -> bool:
    """Whether ``content`` (a ``Path``, bytes or str) is plain after its first line break.

    The first line holds the header, or its start, which the header check
    reads; a leading byte-order mark is part of it. Content is checked a
    chunk at a time, and no chunk is kept.
    """
    if isinstance(content, Path):
        with open(content, "rb") as f:
            return _plain_chunks(iter(partial(f.read, _SCAN), b""))
    return _plain_chunks(content[i:i + _SCAN] for i in range(0, len(content), _SCAN))


def _plain_chunks(chunks) -> bool:
    for i, chunk in enumerate(chunks):
        if i == 0:
            line_break = _LINE_BREAK[type(chunk)].search(chunk)
            if line_break is None:  # a first line this long is not worth checking
                return False
            chunk = chunk[line_break.end():]
        marks = _NOT_PLAIN if isinstance(chunk, str) else _NOT_PLAIN.encode()
        if not chunk.isascii() or any(mark in chunk for mark in marks):
            return False
    return True


def _lines(stream):
    """The stream's lines by readline, after one leading byte-order mark, as spreadsheets write."""
    if stream.read(1) != "\ufeff":
        stream.seek(0)
    return iter(stream.readline, "")


def _read_typed(lines, plain: bool = False) -> Panel | None:
    """The typed pass: the panel of a valid file, or None if it refuses the file.

    Each block is one ``np.loadtxt`` call, made codes and numbers before the
    next block is read. On ``plain`` text (see :func:`_plain`) numpy parses
    year and income itself; otherwise every field is read as text, and
    ``astype`` converts by Python's ``int()`` and ``float()``, as numpy's
    own parse reads text they refuse. ``unit_id``, sector and region are
    coded by their text as read, each distinct spelling stripped once.
    """
    units = defaultdict()
    units.default_factory = units.__len__  # numbers each new unit_id as it is looked up
    unit_code = _Codes(units.__getitem__)
    sector_code = _Codes(lambda text: _SECTOR_CODE.get(text, -1))
    region_code = _Codes(lambda text: _REGION_CODE.get(text, -1))
    blocks = []
    try:
        header = [h.strip() for h in next(csv.reader(lines), [])]
        if header not in (_HEADER, _HEADER + ["cpi"]):
            return None
        typed = {"year": np.int64, "income": np.float64} if plain else {}
        dtype = np.dtype([(name, typed.get(name, object)) for name in header])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt's, on an empty read
            while not blocks or len(rows) == _BLOCK:
                rows = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                                  comments=None, ndmin=1, max_rows=_BLOCK)
                n = len(rows)
                uid = np.fromiter(map(unit_code.__getitem__, rows["unit_id"]), np.intp, n)
                sector = np.fromiter(map(sector_code.__getitem__, rows["sector"]), np.int8, n)
                region = np.fromiter(map(region_code.__getitem__, rows["region"]), np.int8, n)
                year, income = rows["year"].astype(np.int64), rows["income"].astype(np.float64)
                cpi, given = np.full(n, np.nan), np.zeros(n, dtype=bool)
                if "cpi" in header:
                    given = np.fromiter(map(bool, map(str.strip, rows["cpi"])), bool, n)
                    cpi[given] = rows["cpi"][given].astype(np.float64)
                valid = ((uid != units.get("", -1)) & (sector >= 0) & (region >= 0) & (income > 0)
                         & (income < np.inf) & (~given | ((cpi > 0) & (cpi < np.inf))))
                if not valid.all():
                    return None
                blocks.append((uid, sector, region, year, income, cpi))
    except (ValueError, OverflowError, csv.Error):  # ragged rows, numbers int()/float() refuse
        return None
    columns = [np.concatenate(c) for c in zip(*blocks)]
    return None if _unit_repeats_or_moves(*columns[:4]) else _coded_panel(units, columns)


class _Codes(dict):
    """The code of each field text as read, ``code(text.strip())``: a
    distinct spelling is stripped and looked up once, on its first read."""

    def __init__(self, code):
        super().__init__()
        self._code = code

    def __missing__(self, text):
        self[text] = code = self._code(text.strip())
        return code


def _unit_repeats_or_moves(uid, sector, region, year) -> bool:
    """Whether a unit, (unit_id number, sector code), repeats a year or changes region."""
    unit = uid * len(SECTORS) + sector
    by_unit = np.lexsort((year, unit))  # the rows in unit, then year order
    same_unit = np.diff(unit[by_unit]) == 0
    return bool((same_unit & ((np.diff(year[by_unit]) == 0)
                              | (np.diff(region[by_unit]) != 0))).any())


def _read_rows(lines) -> Panel:
    """The row loop: the panel, or the error of the first faulty row, named by its number.

    Rows come one at a time from ``csv.reader``, the header as row 1 and blank
    rows counted, checked in the order ``load_panel`` states. A field over
    ``csv.field_size_limit()`` is a MalformedRow at its row.
    """
    number, units, seen, kept = 0, {}, {}, []

    def fault(message, error=MalformedRow):
        return error(f"row {number}: {message}")

    try:
        rows = enumerate(csv.reader(lines), start=1)
        number, header = next(rows, (1, None))
        if header is None:
            raise fault("empty input, expected a header row")
        header = [h.strip() for h in header]
        if header not in (_HEADER, _HEADER + ["cpi"]):
            raise fault(f"bad header {header!r}, expected {','.join(_HEADER)}[,cpi]")
        for number, row in rows:
            if not row:
                continue
            if len(row) != len(header):
                raise fault(f"expected {len(header)} fields, got {len(row)}")
            unit, sector, region = (field.strip() for field in row[:3])
            year, income = _parse(int, row[3]), _parse(float, row[4])
            if not unit:
                raise fault("empty unit_id")
            if sector not in _SECTOR_CODE:
                raise fault(f"unknown sector {sector!r}")
            if region not in _REGION_CODE:
                raise fault(f"unknown region {region!r}")
            if year is None or not -(2**63) <= year < 2**63:
                raise fault(f"year {row[3]!r} is not an integer")
            if income is None:
                raise fault(f"income {row[4]!r} is not a number")
            if not 0 < income < math.inf:
                raise fault(f"income must be > 0, got {row[4]}", NonPositiveIncome)
            cpi = math.nan
            if len(row) > len(_HEADER) and row[5].strip():
                cpi = _parse(float, row[5])
                if cpi is None:
                    raise fault(f"cpi {row[5]!r} is not a number")
                if not 0 < cpi < math.inf:
                    raise fault(f"cpi must be > 0, got {row[5]}")
            region0, years = seen.setdefault((unit, sector), (region, set()))
            if year in years:
                raise fault(f"repeated (unit_id, sector, year) {(unit, sector, year)}",
                            DuplicateKey)
            if region != region0:
                raise fault(f"unit ({unit!r}, {sector!r}) in region {region!r}, "
                            f"but in {region0!r} on its earlier rows")
            years.add(year)
            kept.append((units.setdefault(unit, len(units)), _SECTOR_CODE[sector],
                         _REGION_CODE[region], year, income, cpi))
    except csv.Error as e:  # raised while the reader reads the next row
        number += 1
        raise fault(str(e)) from None
    types = (np.intp, np.int8, np.int8, np.int64, np.float64, np.float64)
    columns = zip(*kept) if kept else [()] * len(types)
    return _coded_panel(units, [np.array(c, t) for c, t in zip(columns, types)])


def _parse(kind: type, text: str):
    """``kind(text)`` for ``int`` or ``float``, or None if it refuses the text."""
    try:
        return kind(text)
    except ValueError:
        return None


def _coded_panel(units, columns) -> Panel:
    """The panel of coded columns (unit_id number, sector and region codes,
    year, income, cpi). Its rows share one ``str`` per distinct value, and it
    carries its unit code: (unit_id, sector) numbered in first-appearance order.
    """
    uid, sector, region, year, income, cpi = columns
    _, first, unit = np.unique(uid * len(SECTORS) + sector, return_index=True, return_inverse=True)
    code = np.argsort(np.argsort(first))[unit]
    unit_id, sector, region = (np.array(list(strings), dtype=object)[c] for strings, c in
                               ((units, uid), (SECTORS, sector), (REGIONS, region)))
    return Panel(unit_id, sector, region, year, income, cpi)._with_unit_code(code)


def _not_utf8(content) -> MalformedRow:
    """The error for content that is not UTF-8, naming the offset of its first bad byte."""
    raw = content.read_bytes() if isinstance(content, Path) else content
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        return MalformedRow(f"byte {e.start}: input is not UTF-8 ({e.reason})")
    return MalformedRow("input is not UTF-8")  # the file changed while it was read


def dump_panel(panel: Panel) -> bytes:
    """Serialize a panel back to the input CSV format (17 significant digits).

    ``load_panel`` reads the bytes back: a ``unit_id`` that needs quotes
    is quoted by CSV rules, and an empty id or one with leading or trailing
    whitespace raises ValueError. The text is assembled as padded byte rows
    (see ``_format17._unpadded``): each unit's ``unit_id,sector,region,``
    text and each distinct year's ``%d,`` text is built once, as a row of
    a padded table, and every ``_BLOCK`` rows are one concatenation of the
    rows' unit text, year text and ``_format17._format_rows`` number text,
    a blank cpi cell cleared. A unit text over ``_WIDE`` bytes is written
    apart, before its row's other text.
    """
    numbers = (panel.income,) if panel.cpi is None else (panel.income, panel.cpi)
    out = [",".join(_HEADER + ["cpi"] * (len(numbers) - 1)).encode() + b"\n"]
    texts, prefix_of = _row_prefixes(panel)
    # a text longer than _WIDE bytes is written apart, so that it does not
    # widen every row of the table; its own row of the table is empty
    apart = np.fromiter(map(len, texts), np.intp, len(texts)) > _WIDE
    prefixes = _padded([b"" if a else t for t, a in zip(texts, apart.tolist())])
    distinct, year_of = np.unique(panel.year, return_inverse=True)
    years = _padded([b"%d," % year for year in distinct.tolist()])
    for start in range(0, len(panel), _BLOCK):
        rows = slice(start, start + _BLOCK)
        text = _format_rows(np.column_stack([c[rows] for c in numbers]))
        if panel.cpi is not None:  # a blank cell keeps its row's LF alone
            text[np.isnan(panel.cpi[rows]), _WIDTH:2 * _WIDTH - 3] = ord(_PAD)
        entries = prefix_of[rows]
        block = np.concatenate((prefixes.take(entries, axis=0),
                                years.take(year_of[rows], axis=0), text), axis=1)
        at = 0
        for i in np.flatnonzero(apart.take(entries)):
            out += [_unpadded(block[at:i]), texts[entries[i]]]
            at = i
        out.append(_unpadded(block[at:]))
    return b"".join(out)


def _padded(texts: list[bytes]) -> np.ndarray:
    """The texts as the rows of a byte table, each padded with ``_PAD`` to the longest."""
    width = max(map(len, texts), default=0)
    table = b"".join(text.ljust(width, _PAD) for text in texts)
    return np.frombuffer(table, np.uint8).reshape(len(texts), width)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
_WIDE = 256  # dump_panel writes a unit text longer than this, in bytes, apart from its table


def _row_prefixes(panel: Panel) -> tuple[list[bytes], np.ndarray]:
    """The ``unit_id,sector,region,`` texts, UTF-8, and each row's entry
    among them. A text is built once per unit, and once per row whose region
    is not its unit's first (a panel built in code may have them). An id
    that holds a comma, a double quote, CR or LF is quoted.

    Raises ValueError, naming the first such id, on an id that
    ``load_panel`` would read back as another: an empty one, or one with
    leading or trailing whitespace, as the loader strips every field.
    """
    # a subgroup keeps its parent's codes, so a row's unit is its code's rank
    _, first, rank = np.unique(panel._unit_code, return_index=True, return_inverse=True)
    moved = np.flatnonzero(panel.region != panel.region[first][rank])
    rows, texts = np.concatenate((first, moved)), []
    columns = (panel.unit_id, panel.sector, panel.region)
    for unit, sector, region in zip(*(c[rows].tolist() for c in columns)):
        unit = str(unit)
        if not unit or unit != unit.strip():
            raise ValueError(f"unit_id {unit!r} would not load back: load_panel "
                             "strips the whitespace around a field and refuses an empty one")
        if _NEEDS_QUOTES.search(unit):
            unit = '"' + unit.replace('"', '""') + '"'
        texts.append(f"{unit},{sector},{region},".encode())
    rank[moved] = len(first) + np.arange(len(moved))
    return texts, rank


def deflate(panel: Panel) -> Panel:
    """Convert nominal incomes to real terms: income * 100 / cpi. Drops cpi."""
    if panel.is_relative:
        raise ValueError("panel is already in relative terms")
    if panel.cpi is None or np.any(np.isnan(panel.cpi)):
        missing = "all" if panel.cpi is None else str(int(np.argmax(np.isnan(panel.cpi)) + 1))
        raise MissingCpi(f"deflation needs a cpi on every observation (missing: {missing})")
    return panel._take(slice(None), income=panel.income * 100.0 / panel.cpi, cpi=None)


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
    return panel._take(slice(None), income=income, is_relative=True)


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
    from different years are pooled into one sample. Raises NoPairs when
    units x (year span + tau) does not fit in 64 bits, as the pair keys must.
    """
    if not panel.is_relative:
        raise ValueError("transition pairs are built from relative incomes; run to_relative first")
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau}")
    years = panel.years()
    span = int(years[-1]) - int(years[0]) + 1 if len(years) else 1
    start = end = np.empty(0, dtype=np.intp)
    if tau < span:
        # rows sorted by unit code, then year; a unit's key is its rank
        # among the panel's units, stepped span + tau per unit, so year +
        # tau never reaches the next unit's keys. Each scratch array is made
        # in place where it can be, and freed as soon as it is used, so few
        # row-sized arrays are alive at once.
        order = np.lexsort((panel.year, panel._unit_code))
        key = panel._unit_code[order]
        np.cumsum(key[1:] != key[:-1], out=key[1:])
        key[0] = 0
        units = int(key[-1]) + 1  # keys stay below units * (span + tau)
        if units * (span + tau) >= 2**63:
            raise NoPairs(f"cannot pair years {tau} apart over a span of {span} years for "
                          f"{units} units: the keys, unit x (span + tau), exceed 64 bits")
        key *= span + tau
        key += panel.year[order]
        key -= years[0]
        at = np.searchsorted(key, key + tau)
        np.minimum(at, len(key) - 1, out=at)
        gap = key[at]
        gap -= key
        hit = gap == tau
        del key, gap
        at = at[hit]
        start, end = order[hit], order[at]
        del order, at, hit
    if not len(start):
        raise NoPairs(f"no unit is observed {tau} years apart (panel spans {span} year(s))")
    return TransitionPairs(x=panel.income[start], y=panel.income[end])


def group_shares(panel: Panel) -> dict[str, float]:
    """Share of distinct (unit_id, sector) units in each region present."""
    if len(panel) == 0:
        raise EmptySelection("cannot compute region shares of an empty panel")
    regions = panel.region[panel._first_rows()]
    counts = {r: int(np.count_nonzero(regions == r)) for r in REGIONS}
    return {r: c / len(regions) for r, c in counts.items() if c}
