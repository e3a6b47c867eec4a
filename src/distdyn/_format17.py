"""The 17-digit CSV number formatter shared by ``viz`` and ``panel.dump_panel``,
and the padded byte-row helpers that the three byte writers (CSV numbers,
panel rows, SVG numbers) share: ``_padded``, ``_joined`` and ``_unpadded``."""

from __future__ import annotations

from functools import cache

import numpy as np

# The 17-digit formatter. A value v != 0 with X = floor(log10|v|) has the
# 17 significant digits N = round(|v| * 10**(16 - X)), an integer in
# [1e16, 1e17). The product is taken as a double-double, hi + lo: hi is
# rounded, and Dekker's exact product (split at 2**27 + 1) gives the rest,
# so it is good to about 1e-14 and N = hi + round(lo). A value within
# 2**-30 of a rounding tie, exact ties among them, takes Python's own
# formatting. X is fixed up where the product leaves [1e16, 1e17), and an
# N rounded up to 1e17 is 1e16 at X + 1. The text is assembled in a row of
# _WIDTH bytes per value from word-sized tables; bytes a value does not
# use are set to _PAD and dropped by one translate.
_K = range(-294, 343)  # exponents k of the 10**k table: 16 - X, X in float64's range, +-1
_SPLIT = 134217729.0  # 2**27 + 1
_WIDTH = 48  # "-0.000", then 17 digits each followed by ".", "e+308", separator, 2 unused
_PAD = b"\xff"  # the byte of unused text: no UTF-8 text holds it


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
    """Word tables of the formatter's text row, and its pad mask by layout.

    ``lead[d]`` is "-0.000d."; ``quads[g]`` is the four digits of g, each
    followed by ".", and ``tails[g]`` counts their trailing zeros;
    ``exps[X + 400]`` is "eSHTU," (S the sign of X, HTU its three digits)
    and ``keys[X + 400]`` is 36 times X's layout: X + 4 for
    fixed notation (X in -4..16), 21 for a two-digit and 22 for a
    three-digit exponent. ``pad[key]`` is ``_PAD`` on the bytes a value's
    text does not use and 0 on the others, with key = keys[X + 400] +
    2 * digits + negative, where digits counts the significant digits
    without trailing zeros.
    """
    lead = np.tile(np.frombuffer(b"-0.000?.", np.uint8), (10, 1))
    lead[:, 6] = np.arange(ord("0"), ord("9") + 1)
    quads = np.full((10000, 8), ord("."), np.uint8)
    for k, p in enumerate((1000, 100, 10, 1)):
        quads[:, 2 * k] = np.arange(10000, dtype=np.uint16) // p % 10 + ord("0")
    tails = sum(np.arange(10000) % p == 0 for p in (10, 100, 1000, 10000))
    e = np.arange(-400, 400)
    exps = np.zeros((800, 8), np.uint8)
    exps[:, :2] = np.where(e < 0, ord("-"), ord("+"))[:, None]
    exps[:, 0], exps[:, 5] = ord("e"), ord(",")
    exps[:, 2:5] = np.abs(e)[:, None] // [100, 10, 1] % 10 + ord("0")
    keys = np.where((e >= -4) & (e <= 16), e + 4, np.where(np.abs(e) < 100, 21, 22)) * 36
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
    return (lead.view(np.uint64).ravel(), quads.view(np.uint64).ravel(), tails,
            exps.view(np.uint64).ravel(), keys, np.where(keep, 0, ord(_PAD)).astype(np.uint8))


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as hi + lo: hi the rounded product, lo the rest to about 2**-100 of it."""
    j = k - _K.start
    hi_t, high_t, low_t, lo_t, scale_t = (t.take(j) for t in _pow10())
    a = a * scale_t
    c = a * _SPLIT
    high = c - (c - a)
    low = a - high
    hi = a * hi_t
    lo = ((high * high_t - hi) + high * low_t + low * high_t) + low * low_t
    return hi, lo + a * lo_t


_NAN_INF = np.frombuffer(b"-0.000n.a.n.0.0.-0.000i.n.f.0.0.", np.uint64).reshape(2, 2)


def _decimal(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(X, N, slow, regular) of each value: its decimal exponent, its 17
    significant digits as an integer in [1e16, 1e17), whether it lies within
    2**-30 of a tie, where N is not sure, and whether it is finite and not
    0. A slow value, a zero, a NaN and an infinity get N = 1e16."""
    regular = np.isfinite(v) & (v != 0)
    a = np.abs(v) if regular.all() else np.where(regular, np.abs(v), 1.0)
    x = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _times_pow10(a, 16 - x)
    fix = np.flatnonzero((hi >= 1e17) | (hi <= 1e16))  # where N may leave [1e16, 1e17)
    if fix.size:
        h, l = hi[fix], lo[fix]
        step = ((h > 1e17) | (h == 1e17) & (l >= 0)).astype(np.intp)
        step -= (h < 1e16) | (h == 1e16) & (l < 0)
        x[fix] += step
        hi[fix], lo[fix] = _times_pow10(a[fix], 16 - x[fix])
    rounded = np.rint(lo)
    n = hi.astype(np.int64) + rounded.astype(np.int64)
    # |lo - rounded| <= 0.5, so this is: within 2**-30 of a tie
    slow = regular & ((np.abs(lo - rounded) > 0.5 - 2.0**-30) | (n < 10**16) | (n > 10**17))
    n[slow] = 10**16
    top = n == 10**17
    n[top] = 10**16
    x += top
    return x, n, slow, regular


_FORMAT_VALUES = 2048  # values formatted at once, in whole rows: bounds the scratch arrays


def _format17(table: np.ndarray) -> bytes:
    """CSV text of a 2-D float table: each value exactly as ``"%.17g" % v``
    writes it, a "," after each and a LF after each row's last. Whole rows
    of up to ``_FORMAT_VALUES`` values (one row at the least) are formatted
    at once."""
    table = np.asarray(table, dtype=float)
    step = max(1, _FORMAT_VALUES // table.shape[1])
    return b"".join(_unpadded(_format_rows(table[i:i + step]))
                    for i in range(0, len(table), step))


def _unpadded(rows: np.ndarray) -> bytes:
    """The text of padded byte rows: their bytes in order, each ``_PAD`` dropped."""
    return rows.tobytes().translate(None, _PAD)


def _format_rows(table: np.ndarray) -> np.ndarray:
    """``_format17`` of one block of rows as padded byte rows: row r holds
    ``_WIDTH`` bytes per value of the block's row r, with ``_PAD`` on every
    byte its text does not use (see :func:`_unpadded`)."""
    v = table.ravel()
    x, n, slow, regular = _decimal(v)
    lead, quads, tails, exps, keys, pad = _text_tables()
    words = np.empty((v.size, _WIDTH // 8), np.uint64)
    # N's first digit, then its other 16 in groups of 4, each group's
    # trailing zeros from ``tails``; zeros counts N's trailing zeros
    above = n // 10**16
    words[:, 0] = lead[above]
    zeros = np.zeros(v.size, np.intp)
    for j, p in enumerate((10**12, 10**8, 10**4, 1), 1):
        below = n // p
        group = below - above * 10**4
        words[:, j] = quads[group]
        tail = tails[group]
        zeros *= tail == 4  # a group of 4 zeros extends the zeros before it
        zeros += tail
        above = below
    text = words.view(np.uint8)
    negative = np.signbit(v)
    if not regular.all():
        nan, inf = np.isnan(v), np.isinf(v)
        words[v == 0, 0] = lead[0]
        words[nan, :2], words[inf, :2] = _NAN_INF
        x[nan | inf] = 2
        negative &= ~nan
    words[:, 5] = exps[x + 400]
    text[table.shape[1] - 1::table.shape[1], 45] = ord("\n")
    text |= pad.take(keys[x + 400] + (17 - zeros) * 2 + negative, axis=0)
    text[slow, :45] = _padded([("%.17g" % s).encode("ascii") for s in v[slow].tolist()], 45)
    return text.reshape(len(table), -1)


def _padded(texts: list[bytes], width: int = 0) -> np.ndarray:
    """The texts as rows of a byte table, padded with ``_PAD`` to ``width`` or to the longest."""
    width = max([width, *map(len, texts)])
    table = b"".join(text.ljust(width, _PAD) for text in texts)
    return np.frombuffer(table, np.uint8).reshape(len(texts), width)


def _joined(*columns) -> np.ndarray:
    """Byte rows side by side: each column an (n, w) ``uint8`` array, or bytes
    written on every row. A column zero bytes wide adds nothing."""
    n = next(len(c) for c in columns if not isinstance(c, bytes))
    columns = [c for c in columns if (len(c) if isinstance(c, bytes) else c.shape[1])]
    widths = [len(c) if isinstance(c, bytes) else c.shape[1] for c in columns]
    rows = np.empty((n, sum(widths)), np.uint8)
    # each column one field of a row: a field's copy is one block of bytes
    fields = np.dtype({"names": [f"c{k}" for k in range(len(columns))],
                       "formats": [f"V{w}" for w in widths],
                       "offsets": np.cumsum([0] + widths[:-1]).tolist(), "itemsize": sum(widths)})
    view = rows.view(fields)[:, 0]
    for name, c, w in zip(fields.names, columns, widths):
        view[name] = c if isinstance(c, bytes) else np.ascontiguousarray(c).view(f"V{w}")[:, 0]
    return rows
