"""Rows of numbers as text, byte-exact with Python's `%`, a block at a time.

format_rows(row_format, *columns) yields the bytes of `row_format % row` for
every row of equally long columns, for the conversions the CSV files use
(`csvio` is the only caller): `%d` and `%s` of an int, `%s` of "" for an
empty cell, and `%.17g` for round-trip-exact floats.  Python's `%` is the
exact oracle: correctly rounded, ties to even (Gay 1990).  The kernel
converts every cell as a double, with one rounder and without one `%` call
per number:

* `%.17g`: with E = floor(log10|x|), the double-double product
  |x| * 10^(16 - E) = p + t uses Dekker's (1971) TwoProduct for
  |x| * hi(10^(16 - E)) and adds |x| * lo(10^(16 - E)).  The 17-digit
  integer p + t is rounded only where the fraction of t lies farther from
  1/2 than 2^-40, far above the product's error (below 1e-14).
* An integer v with |v| <= 2^53 is its exact double, whose `%.17g` text is
  its `%d` text (E <= 15, so v * 10^(16 - E) is exact).  An integer past
  2^53 becomes NaN.

Each cell is six 8-byte words, and one translate per run of rows deletes
their zero bytes.  Words 0-4 hold twenty digits, the mantissa's 17 last,
each with a point slot after it: with n significant digits and q before the
point (E + 1 printed fixed, 1 with an exponent, 0 below 1), the first
max(n, q) show, and the point after the first q when n > q.  The first
three never show, so word 0's bytes 0-5 hold the sign and the "0." to
"0.000" of a value below 1.  Word 5 holds the exponent ("e-05" to "e+290")
and, at byte 5, the comma or newline after the cell; an empty cell keeps
only that byte.  A row holding a value the kernel cannot certify (a decimal
tie such as 2^-25, a NaN or infinity, an exponent outside the power table)
is written by `row_format % row` from its original cells, with "" in an
empty cell.

The kernel pays about a hundred numpy calls per block whatever the block's
size, so a table of at most SMALL_CELLS cells (rows times columns) goes
through `%` as a whole, by the same row builder and code as the fallback.
Its double-double product runs in place, and only a block holding a zero or
a value outside the power table pays for their fix-ups.  The kernel
overtakes `%` at about 340 cells for the `k,p_k` row, 300-315 for the
nine-column comparison row and 250 for the six-column trajectory row; a
21-row `k,p_k` table takes 32 us through `%` and 137 us in the kernel.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Cells formatted per block: BLOCK_CELLS // (cells per row) rows at a time,
# which bounds the kernel's temporary arrays at about 1 MB (1.20 MB traced on
# six columns, most of it at once in _fill's digit and mask gathers).
BLOCK_CELLS = 4096
# Tables of at most this many cells are written by `%` alone, below the
# kernel's fixed cost per block.
SMALL_CELLS = 256

# The comma or newline after a cell is byte 5 of word 5, after the exponent.
_LITERAL_AT = 45
# The digit of the mantissa that opens each of words 0-4.
_GROUP_START = np.arange(-3, 17, 4, dtype=np.int8).reshape(5, 1, 1)

# Decimal exponents E the %g path certifies: the splitter keeps |x| and
# 10^(16 - E) finite, and lo(10^(16 - E)) stays a normal number.
_EXP_MIN, _EXP_MAX = -280, 290
# A fraction of |x| * 10^(16 - E) within this of 1/2 is left to `%`.
_CERT = 2.0**-40
_SPLITTER = 134217729.0  # 2^27 + 1 (Veltkamp)
# Every integer up to 2^53 in magnitude is a double.
_EXACT = 2**53


def format_rows(row_format: str, *columns, empty=None):
    """Yield the bytes of row_format % row for every row, a block of rows at a time.

    row_format is a CSV row, one `%d`, `%s` or `%.17g` per column joined by
    commas and ended by a newline (any other raises ValueError), over ranges or
    integer arrays for `%d`/`%s` and float arrays for `%.17g`.  An integer past
    2^53 becomes NaN, so its row goes to `%`.  empty, if given, is a boolean
    array over the rows; each `%s` cell of its true rows is written as the `%s`
    of "", an empty cell.  Each block is a bytes-like object; a table of at most
    SMALL_CELLS cells is one block, written by `%`.
    """
    empty_cell, kinds = _plan(row_format)
    if len(columns) != len(kinds):
        raise ValueError(f"{row_format!r} takes {len(kinds)} columns, got {len(columns)}")
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns differ in length")
    if empty is not None and (getattr(empty, "dtype", None) != bool or empty.shape != (n_rows,)):
        raise ValueError(f"empty must be a boolean array of {n_rows} rows")
    blank = [] if empty is None else [j for j, kind in enumerate(kinds) if kind == "%s"]

    def rows(numbers):
        """The rows numbered by an index array, from the original cells, with ""
        in each `%s` cell of an empty row."""
        cells = [c[numbers].tolist() if isinstance(c, np.ndarray)
                 else [c[i] for i in numbers.tolist()] for c in columns]
        if blank:
            marks = empty[numbers].tolist()
            for j in blank:
                cells[j] = ["" if e else v for v, e in zip(cells[j], marks)]
        return zip(*cells)

    if n_rows * len(columns) <= SMALL_CELLS:
        yield "".join(_format_rows(row_format, rows(np.arange(n_rows)))).encode()
        return
    cols = list(map(_column, columns, kinds))
    step = max(1, BLOCK_CELLS // len(cols))
    out = np.empty((min(n_rows, step),) + empty_cell.shape, np.uint64)
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        block = out[:hi - lo]
        ok = _fill(block, [c[lo:hi] for c in cols], empty_cell[:, 5:6])
        if blank:
            marked = np.flatnonzero(empty[lo:hi])
            for j in blank:
                block[marked, j] = empty_cell[j]
                ok[j, marked] = True
        yield _emit(block, ~ok.all(axis=0), row_format, rows, lo)


def _format_rows(row_format: str, rows) -> list[str]:
    """Rows through Python's %: a small table, or the rows the kernel does not certify."""
    return [row_format % row for row in rows]


@cache
def _plan(row_format: str) -> tuple[np.ndarray, list[str]]:
    """A CSV row format's conversions (kinds) and each column's empty cell,
    zero but for the comma or newline after it, at byte _LITERAL_AT."""
    kinds = row_format[:-1].split(",")
    if not row_format.endswith("\n") or not set(kinds) <= {"%d", "%s", "%.17g"}:
        raise ValueError(f"unsupported row format {row_format!r}")
    words = np.zeros((len(kinds), 48), np.uint8)
    words[:, _LITERAL_AT] = list(b"," * (len(kinds) - 1) + b"\n")
    return words.view(np.uint64), kinds


def _column(col, kind) -> np.ndarray:
    """The column as float64; an integer past 2^53, or any cell of a non-integer array, is NaN."""
    if kind == "%.17g":
        return np.asarray(col, dtype=np.float64)
    if isinstance(col, range):
        if not col or max(abs(col[0]), abs(col[-1]), abs(col[-1] - col[0])) <= _EXACT:
            # start + i * step: every term is an integer within 2^53, so exact
            values = np.arange(len(col), dtype=np.float64)
            values *= col.step
            values += col.start
            return values
        # np.arange sizes a range by float division, which can drop its end
        col = np.fromiter(col, np.int64, len(col))
    arr = np.asarray(col)
    if arr.dtype.kind not in "iu":
        return np.full(len(arr), np.nan)
    values = arr.astype(np.float64)
    values[(arr < -_EXACT) | (arr > _EXACT)] = np.nan
    return values


def _fill(out: np.ndarray, block, separator: np.ndarray) -> np.ndarray:
    """Fill words 0-5 of out from one block of column slices, word 5 with the
    comma or newline; returns the certified cells, (cells, rows) as every per-cell array.
    """
    mag, exp, neg, ok = _round17(np.array(block))
    prefixes, suffixes, digits, last, keep, before = _tables()
    groups = np.empty((5,) + mag.shape, np.int64)
    for j in range(4, -1, -1):
        rest = mag // 10_000
        np.subtract(mag, rest * 10_000, out=groups[j])
        mag = rest
    e = exp - (_EXP_MIN - 1)
    q = before.take(e)
    bound = np.maximum((last.take(groups) + _GROUP_START).max(axis=0), q - 1)
    point = q * (bound >= q)
    words = out.transpose(2, 1, 0)
    np.bitwise_and(digits.take(groups), keep.take(18 * bound + point, axis=1), out=words[:5])
    by_sign = 2 * e + neg
    words[0] |= prefixes.take(by_sign)
    np.bitwise_or(suffixes.take(by_sign), separator, out=words[5])
    return ok


def _emit(out: np.ndarray, fallback: np.ndarray, row_format: str, rows, start: int):
    """The block's bytes: one translate per run of certified rows, `%` for each other row."""
    fall = fallback.nonzero()[0]
    texts = _format_rows(row_format, rows(fall + start)) if len(fall) else []
    pieces, lo = [], 0
    # the closing "" pairs with the end of the block, after the last certified run
    for r, text in zip(fall.tolist() + [len(out)], texts + [""]):
        if lo < r:
            pieces.append(out[lo:r].tobytes().translate(None, b"\0"))
        if text:
            pieces.append(text.encode())
        lo = r + 1
    return pieces[0] if len(pieces) == 1 else b"".join(pieces)


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The prefix and exponent words by (E, sign), each group's "d.d.d.d." word and
    last nonzero digit (-100 for none), the masks of words 0-4 by (bound, point), q by E.
    """
    es = range(_EXP_MIN - 1, _EXP_MAX + 3)
    ends = b"".join((sign + b"0." + b"0" * (-e - 1) if -4 <= e < 0 else sign).ljust(8, b"\0")
                    + (b"" if -4 <= e <= 16 else b"e%+03d" % e).ljust(8, b"\0")
                    for e in es for sign in (b"", b"-"))
    before = np.array([max(e + 1, 0) if -4 <= e <= 16 else 1 for e in es])
    n = np.arange(10_000)
    digit = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    dotted = np.full((10_000, 8), ord("."), np.uint8)
    dotted[:, ::2] = digit + ord("0")
    last = np.where(n > 0, 3 - (digit[:, ::-1] != 0).argmax(axis=1), -100).astype(np.int8)
    # mantissa digit i is byte 2i + 6 of words 0-4, its point slot the next
    keep = np.zeros((17, 18, 40), np.uint8)
    for i in range(17):
        keep[i:, :, 2 * i + 6] = 255
        keep[:, i + 1, 2 * i + 7] = 255
    tables = (*np.frombuffer(ends, np.uint64).reshape(-1, 2).T.copy(),
              dotted.view(np.uint64).ravel(), last, keep.view(np.uint64).reshape(-1, 5).T.copy(),
              before)
    for t in tables:
        t.setflags(write=False)
    return tables


@cache
def _pow10_table() -> np.ndarray:
    """Rows hi, its Veltkamp halves, and lo of 10^(16 - E), E from _EXP_MIN - 1.

    hi is 10^(16 - E) correctly rounded and lo the correctly rounded rest,
    both from exact integer arithmetic; built on first use, not at import.
    """
    hi, lo = [], []
    for e in range(_EXP_MIN - 1, _EXP_MAX + 2):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    table = np.stack([hi, *_split(hi), np.array(lo)])
    table.setflags(write=False)
    return table


def _split(a):
    """Veltkamp's split: a == a_hi + a_lo exactly, each half of 26 bits."""
    c = a * _SPLITTER
    a_hi = c - (c - a)
    return a_hi, a - a_hi


def _scaled(a, exp):
    """|x| * 10^(16 - exp) as p + t: p = fl(|x| * hi), t carries the rest."""
    hi, hi_hi, hi_lo, lo = _pow10_table().take(exp - (_EXP_MIN - 1), axis=1)
    a_hi, a_lo = _split(a)
    p = a * hi
    # p + e == a * hi exactly: Dekker's (1971) TwoProduct; then t = e + a * lo
    e = a_hi * hi_hi
    e -= p
    for u, w in (a_hi, hi_lo), (a_lo, hi_hi), (a_lo, hi_lo), (a, lo):
        e += np.multiply(u, w, out=hi)  # hi is free once p is taken
    return p, e


def _round17(x):
    """17-digit integer, exponent, sign and certified flag of each %.17g value."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= _EXP_MIN) & (e <= _EXP_MAX)
    fix = not ok.all()
    if fix:  # a zero, NaN, infinity or exponent past the table: scaled as 1.0
        a[~ok], e[~ok] = 1.0, 0.0
    exp = e.astype(np.int64)
    p, t = _scaled(a, exp)
    # log10 can miss by one next to a power of ten: rescale so p + t lies
    # in [1e16, 1e17) (1e16 and 1e17 are exact doubles).
    edge = ((p < 1e16) | (p >= 1e17) | ((p == 1e16) & (t < 0))).ravel().nonzero()[0]
    if len(edge):
        pe, te = p.flat[edge], t.flat[edge]
        shift = ((pe > 1e17) | ((pe == 1e17) & (te >= 0))).astype(np.int64)
        shift -= (pe < 1e16) | ((pe == 1e16) & (te < 0))
        exp.flat[edge] += shift
        p.flat[edge], t.flat[edge] = _scaled(a.flat[edge], exp.flat[edge])
    whole = np.floor(t)
    frac = t - whole
    ok &= np.abs(frac - 0.5) > _CERT
    mag = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    # rounding up to 10^17 carries into the exponent
    carry = mag == 10**17
    if carry.any():
        mag[carry] = 10**16
        exp += carry
    if fix:
        zero = x == 0.0
        mag[zero] = exp[zero] = 0
        ok |= zero
    return mag, exp, np.signbit(x), ok
