"""Rows of numbers as text, byte-exact with Python's `%`, a block at a time.

format_rows(row_format, *columns) yields the bytes of `row_format % row` for
every row of equally long columns, for the conversions the CSV files use
(`csvio` is the only caller): `%d` and `%s` of an int, and `%.17g` for
round-trip-exact floats.  Python's `%` is the exact oracle: correctly
rounded, ties to even (Gay 1990).  The kernel converts every cell as a
double, with one rounder and without one `%` call per number:

* `%.17g`: with E = floor(log10|x|), the double-double product
  |x| * 10^(16 - E) = p + t uses Dekker's (1971) TwoProduct for
  |x| * hi(10^(16 - E)) and adds |x| * lo(10^(16 - E)).  The 17-digit
  integer p + t is rounded only where the fraction of t lies farther from
  1/2 than 2^-40, far above the product's error (below 1e-14).
* An integer v with |v| <= 2^53 is its exact double, whose `%.17g` text is
  its `%d` text (E <= 15, so v * 10^(16 - E) is exact).  Any other `%d`/`%s`
  cell (an int past 2^53, a bool, an object such as "") becomes NaN.

Every cell of a block is laid out in the same seven 8-byte words, its
characters masked by the cell's layout, and one translate deletes the
masked bytes, so a block costs a constant number of numpy calls.  A row
holding a value the kernel cannot certify (an exact decimal tie such as
2^-25, a NaN or infinity, or a value outside the power table's exponent
range) is written by `row_format % row` from its original cells instead,
that row alone.
"""

from __future__ import annotations

import re
from functools import cache
from types import SimpleNamespace

import numpy as np

# Cells formatted per block: BLOCK_CELLS // (cells per row) rows at a time,
# which bounds the kernel's temporary arrays at about 1 MB.
BLOCK_CELLS = 2048

# A cell's field is seven 8-byte words.  Word 0 ends in the sign and the
# "0." that opens a %g value below 1; words 1-5 hold twenty digits, four
# per word, each followed by a decimal-point slot; word 6 starts with "e",
# the exponent's sign and three exponent digits.  Unused bytes are zero.
_SIGN, _ZERO, _DIGITS, _EXP = 5, 6, 8, 48
_WORDS = 7
_NDIG = 20
# A 17-digit %g mantissa fills the last 17 of the twenty digits.
_G_FIRST = _NDIG - 17

# Decimal exponents E the %g path certifies: the splitter keeps |x| and
# 10^(16 - E) finite, and lo(10^(16 - E)) stays a normal number.
_EXP_MIN, _EXP_MAX = -280, 290
# A fraction of |x| * 10^(16 - E) within this of 1/2 is left to `%`.
_CERT = 2.0**-40
_SPLITTER = 134217729.0  # 2^27 + 1 (Veltkamp)
# Every integer up to 2^53 in magnitude is a double.
_EXACT = 2**53

# Layouts of a field: by exponent class (E = -4..16 printed fixed, then
# exponent of two or of three digits) and last nonzero digit.  A cell's
# code is 2 * layout + sign.
_G_CLASSES, _G_LASTS = 23, _NDIG - _G_FIRST
_LAYOUTS = _G_CLASSES * _G_LASTS


def format_rows(row_format: str, *columns):
    """Yield the bytes of row_format % row for every row, a block of rows at a time.

    row_format holds literal text and one `%d`, `%s` or `%.17g` per column.
    Every cell is converted as a double: a `%d`/`%s` cell that is not an int
    within 2^53 (such as "" for an empty cell) becomes NaN, so its row goes
    to `%`.  Each block is a bytes-like object.
    """
    plan = _plan(row_format)
    if len(columns) != len(plan.kinds):
        raise ValueError(f"{row_format!r} takes {len(plan.kinds)} columns, got {len(columns)}")
    cols = list(map(_column, columns, plan.kinds))
    n_rows = len(cols[0])
    if any(len(c) != n_rows for c in cols):
        raise ValueError("columns differ in length")
    step = max(1, BLOCK_CELLS // len(cols))
    out = np.zeros((min(n_rows, step), len(cols), _WORDS + plan.tails.shape[1]), np.uint64)
    out[..., _WORDS:] = plan.tails
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        fallback = ~_fill(out[:hi - lo], [c[lo:hi] for c in cols]).all(axis=0)
        yield _emit(plan, out[:hi - lo], fallback, row_format, columns, lo)


def _format_row(row_format: str, row: tuple) -> bytes:
    """One row through Python's %, for the rows the kernel does not certify."""
    return (row_format % row).encode()


@cache
def _plan(row_format: str) -> SimpleNamespace:
    """What a row format fixes: its opening literal (head), the literal after
    each cell as 8-byte words (tails) and its conversions (kinds).
    """
    parts = re.split(r"%(d|s|\.17g)", row_format)
    literals, kinds = [p.encode() for p in parts[::2]], parts[1::2]
    if not kinds or any(b"%" in text or b"\0" in text for text in literals):
        raise ValueError(f"unsupported row format {row_format!r}")
    # The last cell's literal is the closing one followed by the opening one,
    # so a block's text is the opening literal, the nonzero bytes of the
    # words, less the opening literal at the end.
    tails = literals[1:-1] + [literals[-1] + literals[0]]
    words = np.zeros((len(kinds), -(-max(map(len, tails)) // 8) * 8), np.uint8)
    for i, text in enumerate(tails):
        words[i, :len(text)] = np.frombuffer(text, np.uint8)
    return SimpleNamespace(head=literals[0], tails=words.view(np.uint64), kinds=kinds)


def _column(col, kind) -> np.ndarray:
    """The column as float64; a `%d`/`%s` cell that is no int within 2^53 is NaN."""
    if kind == ".17g":
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
    if arr.dtype.kind in "iu":
        values = arr.astype(np.float64)
        values[(arr < -_EXACT) | (arr > _EXACT)] = np.nan
        return values
    return np.array([float(v) if type(v) is int and abs(v) <= _EXACT else np.nan for v in arr])


def _fill(out: np.ndarray, block) -> np.ndarray:
    """Write the fields of one block of column slices into out; returns the certified cells.

    Per-cell arrays are (cells, rows): one row per column of the block.
    """
    mag, exp, neg, ok = _round17(np.array(block))
    t = _tables()
    groups = _digit_groups(mag)
    last = (t.last.take(groups) + t.group_start).max(axis=0)
    code = t.g_code[exp - t.exp_min, np.maximum(last, _G_FIRST) - _G_FIRST] + neg
    words = out.transpose(2, 1, 0)
    words[0] = t.keep[0].take(code)
    digits = t.digits.take(groups)
    digits &= t.keep[1:6].take(code, axis=1)
    words[1:6] = digits
    exps = t.exp.take(exp - t.exp_min)
    exps &= t.keep[6].take(code)
    words[6] = exps
    return ok


def _emit(plan, out: np.ndarray, fallback: np.ndarray, row_format: str,
          columns, start: int):
    """The block's bytes, with each fallback row formatted by `%`."""
    words = out.ravel()
    kept = words != 0
    text = bytearray(8 * int(np.count_nonzero(kept)))
    np.compress(kept, words, out=np.frombuffer(text, np.uint64))
    text = text.translate(None, b"\0")
    if plan.head:
        text = plan.head + text
    if fallback.any():
        lengths = np.count_nonzero(out.view(np.uint8).reshape(len(out), -1), axis=1)
        starts = [0] + np.cumsum(lengths).tolist()
        pieces, pos = [], 0
        for r in fallback.nonzero()[0].tolist():
            row = tuple(c[start + r] for c in columns)
            pieces += [text[pos:starts[r]], _format_row(row_format, row)]
            pos = starts[r + 1]
        pieces.append(text[pos:])
        text = b"".join(pieces)
    return text[:len(text) - len(plan.head)] if plan.head else text


def _digit_groups(mag) -> np.ndarray:
    """The five four-digit groups of each integer below 10^20, most significant first."""
    groups = np.empty((5,) + mag.shape, np.int64)
    for j in range(4, 0, -1):
        q = mag // 10_000
        np.subtract(mag, q * 10_000, out=groups[j])
        mag = q
    groups[0] = mag
    return groups


@cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built on first use.

    digits: per group 0..9999, its four digits each followed by "." (uint64);
    last: its last nonzero digit, -100 for none;
    group_start: (5, 1, 1), the index of each group's first digit;
    exp: "e", sign and three digits of each exponent from exp_min;
    g_code: (exponent from exp_min, last digit - 3) -> 2 * layout;
    keep: (words, codes), the bytes a code prints as 0xff (word 0 as its
    characters).
    """
    n = np.arange(10_000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    nonzero = digits != 0
    last = np.where(n > 0, 3 - nonzero[:, ::-1].argmax(axis=1), -100).astype(np.int8)
    dotted = np.full((10_000, 8), ord("."), np.uint8)
    dotted[:, ::2] = digits + ord("0")
    e = np.arange(_EXP_MIN - 1, _EXP_MAX + 3)
    exp = np.zeros((len(e), 8), np.uint8)
    exp[:, 0] = ord("e")
    exp[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exp[:, 2:5] = np.stack([abs(e) // 100, abs(e) // 10 % 10, abs(e) % 10], axis=1) + ord("0")
    g_class = np.where((e >= -4) & (e <= 16), e + 4, np.where(abs(e) >= 100, 22, 21))
    g_code = (2 * (g_class[:, None] * _G_LASTS + np.arange(_G_LASTS))).astype(np.int16)
    keep = np.zeros((_LAYOUTS, 2, 8 * _WORDS), np.uint8)
    for layout in range(_LAYOUTS):
        q, lo, hi, zero, exp_digits = _field(layout)
        slots = keep[layout]
        slots[1, _SIGN] = ord("-")
        slots[:, _ZERO:_DIGITS] = np.frombuffer(b"0.", np.uint8) * zero
        slots[:, _DIGITS + 2 * lo:_DIGITS + 2 * hi + 1:2] = 255
        if q is not None:
            slots[:, _DIGITS + 2 * q + 1] = 255
        slots[:, _EXP:_EXP + 5] = 255 * np.array([exp_digits > 0] * 2 + [exp_digits == 3]
                                                 + [exp_digits > 0] * 2)
    tables = SimpleNamespace(
        digits=dotted.view(np.uint64).ravel(), last=last,
        group_start=np.arange(0, _NDIG, 4, dtype=np.int8).reshape(5, 1, 1),
        exp=exp.view(np.uint64).ravel(), exp_min=_EXP_MIN - 1, g_code=g_code,
        keep=keep.reshape(2 * _LAYOUTS, 8 * _WORDS).view(np.uint64).T.copy())
    for t in vars(tables).values():
        if isinstance(t, np.ndarray):
            t.setflags(write=False)
    return tables


def _field(layout: int) -> tuple[int | None, int, int, bool, int]:
    """(q, lo, hi, "0." shown, exponent digits) of one layout.

    Digits lo..hi of the twenty are printed, with a point after digit q
    unless q is None.
    """
    g_class, last = divmod(layout, _G_LASTS)
    last += _G_FIRST
    if g_class >= 21:
        return _G_FIRST if last > _G_FIRST else None, _G_FIRST, last, False, g_class - 19
    e = g_class - 4
    if e < 0:
        return None, _G_FIRST + e + 1, last, True, 0
    q = _G_FIRST + e
    return q if last > q else None, _G_FIRST, max(last, q), False, 0


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
    # p + e == a * hi exactly: Dekker's (1971) TwoProduct
    e = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    return p, e + a * lo


def _round17(x):
    """17-digit integer, exponent, sign and certified flag of each %.17g value."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= _EXP_MIN) & (e <= _EXP_MAX)
    a = np.where(ok, a, 1.0)
    exp = np.where(ok, e, 0.0).astype(np.int64)
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
    zero = x == 0.0
    return np.where(zero, 0, mag), np.where(zero, 0, exp), np.signbit(x), ok | zero

