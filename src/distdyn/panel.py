"""Long-format income panel: ingestion, deflation, relative incomes, subgroups.

A panel holds one row per (unit, sector, year) with a positive income and an
optional CPI index. Storage is columnar (numpy arrays): ingestion tokenizes
the CSV a block of rows at a time and parses each block into the columns.
All operations are pure: each returns a new panel.

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
from functools import cache, cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

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


# Rows per block, in reading and in writing a panel CSV. A block's token
# array stays under 100 KiB; at 8,192 rows the freed blocks left the
# heap of a later, larger stage higher than the row loop had.
_BLOCK = 2048
_SECTOR_CODE = {s: i for i, s in enumerate(SECTORS)}
_REGION_CODE = {r: i for i, r in enumerate(REGIONS)}
_RAGGED = re.compile(r"changed from (\d+) to (\d+) at row (\d+)")  # np.loadtxt's message


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

    Rows are tokenized ``_BLOCK`` at a time by ``np.loadtxt`` and parsed
    into the columns before the next block is read. The checks run over
    whole columns: those within a row over a block's, those that read a
    unit's earlier rows over the panel's. The panel's rows share one
    ``str`` per distinct ``unit_id``, sector and region, and its unit code
    is built here.
    """
    content = _content(source)
    try:
        with _text(content) as stream:
            try:
                return _read_panel(stream, content)
            except DistDynError:
                while stream.read(1 << 16):  # an undecodable byte further on comes first
                    pass
                raise
    except UnicodeDecodeError:
        raise _not_utf8(content) from None


def _read_panel(stream, content) -> Panel:
    if stream.read(1) != "\ufeff":  # skip one byte-order mark, as spreadsheets write
        stream.seek(0)
    try:
        header = next(csv.reader(_lines(stream)), None)
    except csv.Error as e:  # a field over csv.field_size_limit()
        raise MalformedRow(f"row 1: {e}") from None
    if header is None:
        raise MalformedRow("row 1: empty input, expected a header row")
    header = [h.strip() for h in header]
    if header not in (_HEADER, _HEADER + ["cpi"]):
        raise MalformedRow(f"row 1: bad header {header!r}, expected {','.join(_HEADER)}[,cpi]")
    ncols = len(header)

    unit_number = defaultdict()  # stripped unit_id -> number in first-appearance order
    unit_number.default_factory = unit_number.__len__
    blocks, rows, fault = [], 0, None
    while fault is None:
        tokens, width = _read_block(stream, ncols)
        columns, bad = _parse_block(tokens, unit_number)
        blocks.append(columns)
        if bad is None and width is not None:
            bad = (len(tokens), MalformedRow, f"expected {ncols} fields, got {width}")
        if bad is not None:
            fault = (rows + bad[0],) + bad[1:]
        rows += len(tokens)
        if len(tokens) < _BLOCK:
            break
    n = rows if fault is None else fault[0]  # the rows before the first with a fault of its own
    uid, sector, region, year, income, cpi = (np.concatenate(c)[:n] for c in zip(*blocks))
    unit_id = np.array(list(unit_number), dtype=object)[uid]
    code, first = _first_appearance(uid * len(SECTORS) + sector)
    fault = _unit_fault(unit_id, sector, region, year, code, first) or fault
    if fault is not None:
        index, error, message = fault
        raise error(f"row {_row_number(content, index)}: {message}")
    return Panel(
        unit_id=unit_id,
        sector=np.array(SECTORS, dtype=object)[sector],
        region=np.array(REGIONS, dtype=object)[region],
        year=year,
        income=income,
        cpi=cpi,
    )._with_unit_code(code)


def _lines(stream):
    """The stream's lines, read by readline, not next(), so stream.tell() keeps working."""
    return iter(stream.readline, "")


def _tokens(stream, rows: int) -> np.ndarray:
    """The next ``rows`` CSV records of ``stream``, as a 2-D array of str; blank lines skipped."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # on blank lines, and on an empty read
        return np.loadtxt(_lines(stream), delimiter=",", quotechar='"', comments=None,
                          dtype=object, ndmin=2, max_rows=rows)


def _read_block(stream, ncols: int) -> tuple[np.ndarray, int | None]:
    """The next block's records before its first without ``ncols`` fields, and that one's count.

    The count is None when every record of the block has ``ncols`` fields.
    """
    start = stream.tell()
    try:
        tokens = _tokens(stream, _BLOCK)
    except ValueError as e:
        ragged = _RAGGED.search(str(e))
        if ragged is None:
            raise
        width, then, at = map(int, ragged.groups())
        if width != ncols:  # the block's first record is the ragged one
            return np.empty((0, ncols), dtype=object), width
        stream.seek(start)
        return _tokens(stream, at - 1), then
    if len(tokens) and tokens.shape[1] != ncols:
        return np.empty((0, ncols), dtype=object), tokens.shape[1]
    return tokens.reshape(len(tokens), ncols), None


def _parse_block(tokens: np.ndarray, unit_number) -> tuple[tuple, tuple | None]:
    """A block's columns, and its first faulty record as (index, error, message) or None.

    The columns are the unit_id number, sector and region codes (-1 when
    unknown), year, income and cpi (NaN when blank or absent).
    """
    n, ncols = tokens.shape

    def stripped(k):
        return map(str.strip, tokens[:, k])

    uid = np.fromiter(map(unit_number.__getitem__, stripped(0)), np.intp, n)
    sector = np.fromiter(map(_SECTOR_CODE.get, stripped(1), repeat(-1)), np.int8, n)
    region = np.fromiter(map(_REGION_CODE.get, stripped(2), repeat(-1)), np.int8, n)
    year, bad_year = _convert(tokens[:, 3], int)
    income, bad_income = _convert(tokens[:, 4], float)
    cpi, bad_cpi = np.full(n, np.nan), np.zeros(n, dtype=bool)
    given = np.zeros(n, dtype=bool)
    if ncols > len(_HEADER):
        given = np.fromiter(map(bool, stripped(5)), bool, n)
        cpi[given], bad_cpi[given] = _convert(tokens[given, 5], float)
    checks = (  # in the order a row is checked
        (uid == unit_number.get("", -1), MalformedRow, "empty unit_id"),
        (sector < 0, MalformedRow, "unknown sector {sector!r}"),
        (region < 0, MalformedRow, "unknown region {region!r}"),
        (bad_year, MalformedRow, "year {year!r} is not an integer"),
        (bad_income, MalformedRow, "income {income!r} is not a number"),
        (~(np.isfinite(income) & (income > 0)), NonPositiveIncome,
         "income must be > 0, got {income}"),
        (bad_cpi, MalformedRow, "cpi {cpi!r} is not a number"),
        (given & ~(np.isfinite(cpi) & (cpi > 0)), MalformedRow, "cpi must be > 0, got {cpi}"),
    )
    failed = np.logical_or.reduce([mask for mask, _, _ in checks])
    fault = None
    if failed.any():
        i = int(np.argmax(failed))
        error, message = next((e, m) for mask, e, m in checks if mask[i])
        fields = dict(zip(_HEADER + ["cpi"], tokens[i]), sector=tokens[i, 1].strip(),
                      region=tokens[i, 2].strip())
        fault = (i, error, message.format(**fields))
    return (uid, sector, region, year, income, cpi), fault


def _convert(tokens: np.ndarray, kind: type) -> tuple[np.ndarray, np.ndarray]:
    """``tokens`` converted by ``kind`` (``int`` or ``float``), and the mask of those it rejects.

    ``astype`` calls ``int()`` or ``float()`` on each str, so the values and
    the accepted spellings are Python's; an int outside 64 bits is rejected.
    """
    try:
        return tokens.astype(kind), np.zeros(len(tokens), dtype=bool)
    except (ValueError, OverflowError):
        bad = np.zeros(len(tokens), dtype=bool)
        for i in range(len(tokens)):
            try:
                tokens[i:i + 1].astype(kind)
            except (ValueError, OverflowError):
                bad[i] = True
        values = np.zeros(len(tokens), dtype=kind)
        values[~bad] = tokens[~bad].astype(kind)
        return values, bad


def _first_appearance(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's key numbered in first-appearance order, and the first row of each number."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse], first[order]


def _unit_fault(unit_id, sector, region, year, code, first) -> tuple | None:
    """The first row that repeats its unit's year or changes its unit's region.

    Returned as (index, error, message); a repeated year is named before a
    region change on the same row.
    """
    by_unit = np.lexsort((year, code))  # stable: a repeat follows its first row
    again = (code[by_unit][1:] == code[by_unit][:-1]) & (year[by_unit][1:] == year[by_unit][:-1])
    repeated = by_unit[1:][again]
    moved = np.flatnonzero(region != region[first[code]])
    if len(repeated) and (not len(moved) or repeated.min() <= moved[0]):
        i = int(repeated.min())
        key = (unit_id[i], SECTORS[sector[i]], int(year[i]))
        return i, DuplicateKey, f"repeated (unit_id, sector, year) {key}"
    if len(moved):
        i = int(moved[0])
        unit, sec = unit_id[i], SECTORS[sector[i]]
        region0 = REGIONS[region[first[code[i]]]]
        return i, MalformedRow, (f"unit ({unit!r}, {sec!r}) in region {REGIONS[region[i]]!r}, "
                                 f"but in {region0!r} on its earlier rows")
    return None


def _row_number(content, index: int) -> int:
    """The CSV row number of data record ``index``: the header is row 1 and blank rows count.

    The rows are scanned by ``csv.reader``; a field over its
    ``csv.field_size_limit()`` on the way raises MalformedRow naming that
    field's row.
    """
    with _text(content) as stream:
        number = 0
        try:
            for number, row in enumerate(csv.reader(stream), start=1):
                if row and number > 1:
                    if not index:
                        return number
                    index -= 1
        except csv.Error as e:
            raise MalformedRow(f"row {number + 1}: {e}") from None


def _not_utf8(content) -> MalformedRow:
    """The error for content that is not UTF-8, naming the offset of its first bad byte."""
    raw = content.read_bytes() if isinstance(content, Path) else content
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        return MalformedRow(f"byte {e.start}: input is not UTF-8 ({e.reason})")
    return MalformedRow("input is not UTF-8")  # the file changed while it was read


# The 17-digit formatter. A value v != 0 with X = floor(log10|v|) has the
# 17 significant digits N = round(|v| * 10**(16 - X)), an integer in
# [1e16, 1e17). The product is taken as a double-double, hi + lo: hi is
# rounded, and Dekker's exact product (split at 2**27 + 1) gives the rest,
# so it is good to about 1e-14 and N = hi + round(lo). A value within
# 2**-30 of a rounding tie, exact ties among them, takes Python's own
# formatting. X is fixed up where the product leaves [1e16, 1e17), and an
# N rounded up to 1e17 is 1e16 at X + 1. The text is assembled in a row of
# _WIDTH bytes per value from word-sized tables; bytes a value does not
# use are zeroed and dropped.
_K = range(-294, 343)  # exponents k of the 10**k table: 16 - X, X in float64's range, +-1
_SPLIT = 134217729.0  # 2**27 + 1
_WIDTH = 48  # "-0.000", then 17 digits each followed by ".", "e+308", separator, 2 unused


@cache
def _pow10() -> tuple[np.ndarray, ...]:
    """10**k * 2**-s for k in ``_K`` as a double-double: hi, hi's high and low
    halves, lo; and the scale 2**s (s = 600 for k > 200, -600 for k < -200)
    that keeps a value times the scale, and every partial product, normal."""
    hi, lo, scale = [], [], []
    for k in _K:
        s = 600 if k > 200 else -600 if k < -200 else 0
        num, den = 10 ** max(k, 0) << max(-s, 0), 10 ** max(-k, 0) << max(s, 0)
        h = num / den  # int true division rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
        scale.append(2.0**s)
    hi = np.array(hi)
    c = hi * _SPLIT
    high = c - (c - hi)
    return hi, high, hi - high, np.array(lo), np.array(scale)


@cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """Word tables of the formatter's text row, and its keep mask by layout.

    ``lead[d]`` is "-0.000d."; ``quads[g]`` is the four digits of g, each
    followed by "."; ``exps[X + 400]`` is "eSHTU", S the sign of X and HTU
    its three digits. ``keep[key]`` marks the bytes a value's text uses,
    with key = (layout * 18 + digits) * 2 + negative, where layout is X + 4
    for fixed notation (X in -4..16), 21 for a two-digit and 22 for a
    three-digit exponent, and digits counts the significant digits without
    trailing zeros.
    """
    lead = np.tile(np.frombuffer(b"-0.000?.", np.uint8), (10, 1))
    lead[:, 6] = np.arange(ord("0"), ord("9") + 1)
    quads = np.full((10000, 8), ord("."), np.uint8)
    for k, p in enumerate((1000, 100, 10, 1)):
        quads[:, 2 * k] = np.arange(10000, dtype=np.uint16) // p % 10 + ord("0")
    e = np.arange(-400, 400)
    exps = np.zeros((800, 8), np.uint8)
    exps[:, :2] = np.where(e < 0, ord("-"), ord("+"))[:, None]
    exps[:, 0] = ord("e")
    exps[:, 2:5] = np.abs(e)[:, None] // [100, 10, 1] % 10 + ord("0")
    layout, sig, negative = (a.reshape(-1, 1) for a in np.indices((23, 18, 2)))
    col = np.arange(_WIDTH)
    x, fixed = layout - 4, layout < 21
    sig = np.where(fixed, np.maximum(sig, x + 1), sig)  # integer digits stay
    dot = np.where(fixed, x, 0)  # the point follows this digit, if any follows it
    i, after = divmod(col - 6, 2)  # digit i, or (after == 1) the point after it
    keep = ((col == 0) & (negative == 1)
            | (col >= 1) & (col < 6) & (col < np.where(fixed & (x < 0), 2 - x, 0))
            | (col >= 6) & (col < 40) & (after == 0) & (i < sig)
            | (col >= 6) & (col < 40) & (after == 1) & (i == dot) & (dot >= 0) & (sig > dot + 1)
            | (col >= 40) & (col < 45) & ~fixed & ((col != 42) | (layout == 22))
            | (col == 45))
    return (lead.view(np.uint64).ravel(), quads.view(np.uint64).ravel(),
            exps.view(np.uint64).ravel(), keep.astype(np.uint8))


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as hi + lo: hi the rounded product, lo the rest to about 2**-100 of it."""
    j = k - _K.start
    hi_t, high_t, low_t, lo_t, scale_t = (t[j] for t in _pow10())
    a = a * scale_t
    c = a * _SPLIT
    high = c - (c - a)
    low = a - high
    hi = a * hi_t
    lo = ((high * high_t - hi) + high * low_t + low * high_t) + low * low_t
    return hi, lo + a * lo_t


_NAN_INF = np.frombuffer(b"-0.000n.a.n.0.0.-0.000i.n.f.0.0.", np.uint64).reshape(2, 2)


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, N, slow) of each value: its decimal exponent, its 17 significant
    digits as an integer in [1e16, 1e17), and whether it lies within 2**-30
    of a tie, where N is not sure. A slow value, a zero, a NaN and an
    infinity get N = 1e16."""
    regular = np.isfinite(v) & (v != 0)
    a = np.where(regular, np.abs(v), 1.0)
    x = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _times_pow10(a, 16 - x)
    step = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.intp)
    step -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
    fix = np.flatnonzero(step)
    if fix.size:
        x[fix] += step[fix]
        hi[fix], lo[fix] = _times_pow10(a[fix], 16 - x[fix])
    rounded = np.rint(lo)
    n = hi.astype(np.int64) + rounded.astype(np.int64)
    slow = regular & ((np.abs(np.abs(lo - rounded) - 0.5) < 2.0**-30) | (n < 10**16) | (n > 10**17))
    n[slow | ~regular] = 10**16
    top = n == 10**17
    n[top] = 10**16
    x += top
    return x, n, slow


_FORMAT_VALUES = 2048  # values formatted at once, in whole rows: bounds the scratch arrays


def _format17(table: np.ndarray) -> bytes:
    """CSV text of a 2-D float table: each value exactly as ``"%.17g" % v``
    writes it, a "," after each and a LF after each row's last. Whole rows
    of up to ``_FORMAT_VALUES`` values (one row at the least) are formatted
    at once."""
    table = np.asarray(table, dtype=float)
    step = max(1, _FORMAT_VALUES // table.shape[1])
    return b"".join(_format_rows(table[i:i + step]) for i in range(0, len(table), step))


def _format_rows(table: np.ndarray) -> bytes:
    """``_format17`` of one block of rows."""
    v = table.ravel()
    x, n, slow = _decimal(v)
    lead, quads, exps, keep = _text_tables()
    high, low = np.divmod(n, 10**8)
    words = np.empty((v.size, _WIDTH // 8), np.uint64)
    words[:, 0] = lead[high // 10**8]
    for j, q in enumerate((high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4), 1):
        words[:, j] = quads[q]
    text = words.view(np.uint8)
    zeros = np.argmax(text[:, 38:5:-2] != ord("0"), axis=1)  # the first digit is not 0
    nan, inf = np.isnan(v), np.isinf(v)
    words[v == 0, 0] = lead[0]
    words[nan, :2], words[inf, :2] = _NAN_INF
    x[nan | inf] = 2
    words[:, 5] = exps[x + 400]
    fixed = (x >= -4) & (x <= 16)
    layout = np.where(fixed, x + 4, np.where(np.abs(x) < 100, 21, 22))
    text[:, 45] = ord(",")
    text[table.shape[1] - 1::table.shape[1], 45] = ord("\n")
    text *= keep.take((layout * 18 + 17 - zeros) * 2 + (np.signbit(v) & ~nan), axis=0)
    for i in np.flatnonzero(slow):
        text[i, :45] = np.frombuffer(("%.17g" % v[i]).encode("ascii").ljust(45, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0")


def dump_panel(panel: Panel) -> bytes:
    """Serialize a panel back to the input CSV format (17 significant digits).

    ``load_panel`` reads the bytes back: a ``unit_id`` that holds a comma,
    a double quote, CR or LF is quoted by CSV rules, decided once per
    distinct id, and an empty id or one with leading or trailing
    whitespace raises ValueError. Rows are formatted ``_BLOCK`` at a time:
    ``_format17`` writes the block's income and cpi text, a blank cpi cell
    as empty text, and one ``%`` joins it to the other columns.
    """
    numbers = (panel.income,) if panel.cpi is None else (panel.income, panel.cpi)
    out = [",".join(_HEADER + ["cpi"] * (len(numbers) - 1)) + "\n"]
    columns = (_csv_ids(panel.unit_id), panel.sector, panel.region, panel.year)
    for start in range(0, len(panel), _BLOCK):
        rows = slice(start, start + _BLOCK)
        table = np.empty((min(_BLOCK, len(panel) - start), 5), dtype=object)
        for k, column in enumerate(columns):
            table[:, k] = column[rows]
        text = _format17(np.column_stack([c[rows] for c in numbers])).decode("ascii")
        table[:, 4] = text.replace(",nan\n", ",\n").split("\n")[:-1]
        out.append("%s,%s,%s,%d,%s\n" * len(table) % tuple(table.ravel().tolist()))
    return "".join(out).encode("utf-8")


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_ids(unit_id: np.ndarray) -> np.ndarray:
    """The unit_id column as CSV fields; the column itself when no id needs quotes.

    Raises ValueError, naming the first such id, on an id that
    ``load_panel`` would read back as another: an empty one, or one with
    leading or trailing whitespace, as the loader strips every field.
    """
    distinct = set(unit_id.tolist())
    changed = {u for u in distinct if not (s := str(u)) or s != s.strip()}
    if changed:
        first = next(u for u in unit_id.tolist() if u in changed)
        raise ValueError(f"unit_id {str(first)!r} would not load back: load_panel "
                         "strips the whitespace around a field and refuses an empty one")
    if not _NEEDS_QUOTES.search("".join(map(str, distinct))):
        return unit_id
    quoted = {u: '"' + str(u).replace('"', '""') + '"'
              for u in distinct if _NEEDS_QUOTES.search(str(u))}
    return np.array([quoted.get(u, u) for u in unit_id.tolist()], dtype=object)


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
