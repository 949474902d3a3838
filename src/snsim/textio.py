"""Plain-text tables of floats, one row per line.

The snapshot files and the guidance and oracle CSVs print their floats
as ``%.17g``, which reads back as the same float64, and end their lines
in LF.  The text comes from numpy, a block of rows at a time, and is
byte for byte what ``'%.17g' % v`` gives:

* The 17 significant digits of |v| = f 2^e (f in [0.5, 1), ``frexp``)
  are D = round(f 10^(16 - X) 2^e), X = floor(log10|v|).  10^(16 - X)
  is a double-double (Dekker 1971, Numer. Math. 18, 224) and the product
  with f is error-free to within 2^-104 relative, so D is exact unless
  f 10^(16 - X) 2^e lies within 2^-40 of a rounding tie or of the range
  edges 10^16 and 10^17.  Those values, and inf and nan, are handed one
  by one to ``'%.17g' % v``, the correctly rounded conversion (Gay 1990).
* Each value gets a NUL-padded slot of ``_SLOT`` = 32 bytes, four 64-bit
  words filled under Python's ``g`` rules (fixed notation for
  -4 <= X < 17, trailing zeros and a bare point cut): the sign, a
  ``0.000`` lead, the first digit and the point; digits 2-9; digits
  10-17; and ``e+XXX``.  A mask on each digit word cuts the trailing
  zeros.  Only fixed notation with 1 <= X <= 16 puts the point among
  the digits, by one gather over those values.  The last byte holds the
  separator, and ``bytes.translate`` deletes the NULs.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# rows formatted per block: bounds the formatter's transient arrays
_BLOCK_ROWS = 2000
# bytes per value: four 64-bit words, see _tables
_SLOT = 32
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII '0's
_DOT = np.uint64(ord(".") << 56)  # the point, in the last byte of word 0
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter for a 53-bit significand
_NEAR = 2.0**-40  # closer than this to a tie or a range edge: ask '%'
_X_MIN, _X_MAX = -324, 308  # decimal exponents of nonzero finite float64


class _Tables(NamedTuple):
    """Lookup tables; a slot's digit j (0-16) is at byte 6 for j = 0 and
    at byte 7 + j otherwise."""

    # per decimal exponent X, row X - _X_MIN:
    hh: np.ndarray  # 10^(16 - X) / 2^b in [0.5, 1): split high part hh + hl
    hl: np.ndarray
    lo: np.ndarray  # and the low part
    b: np.ndarray
    pow2: np.ndarray  # 2^k
    lead: np.ndarray  # word 0 with the "0.000" lead of fixed X < 0, bytes 1-5
    suffix: np.ndarray  # word 3 with "e+XXX", bytes 24-28
    point: np.ndarray  # the digit after which the point goes (17: none)
    last: np.ndarray  # the last digit that fixed notation keeps
    first: np.ndarray  # per digit d: word 0 with d at byte 6
    four: np.ndarray  # per i < 10^4: i in four ASCII digits, low and high half
    # per exponent field (bits 52-62 as a float64) of a digit word less
    # '0's: its last digit that is not 0, for words 1 and 2
    tail: np.ndarray
    masks: np.ndarray  # per k: words 1 and 2 through digit k
    order: np.ndarray  # per 1 <= X <= 16: bytes 0-23 with the point after digit X


@functools.cache
def _tables() -> _Tables:
    """The lookup tables, built on the first call of a process."""
    hh, hl, lo, b, lead, suffix, point, last = [], [], [], [], [], [], [], []
    for x in range(_X_MIN, _X_MAX + 1):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        shift = num.bit_length() - den.bit_length()
        if num << max(-shift, 0) >= den << max(shift, 0):
            shift += 1
        num, den = (num, den << shift) if shift >= 0 else (num << -shift, den)
        high = num / den  # correctly rounded
        p, q = high.as_integer_ratio()
        split = high * _SPLIT - (high * _SPLIT - high)
        hh.append(split)
        hl.append(high - split)
        lo.append((num * q - p * den) / (den * q))
        b.append(shift)
        fixed = -4 <= x < 17
        lead.append(b"\0" + b"0." + b"0" * (-x - 1) if fixed and x < 0 else b"")
        suffix.append(b"" if fixed else b"e%+03d" % x)
        point.append(17 if fixed and x < 0 else x if fixed else 0)
        last.append(x if fixed and x >= 0 else 0)

    def words(texts):
        return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)

    four = np.zeros((10000, 4), np.uint8)
    four[:] = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
    four = four.view(np.uint32).ravel().astype(np.uint64)
    tail = np.zeros((2, 2048), np.int64)
    tail[:, 1023:1087] = np.arange(64) // 8 + [[1], [9]]
    keep = np.zeros((17, 16), np.uint8)
    for k in range(17):
        keep[k, :k] = 0xFF
    order = np.tile(np.arange(24), (17, 1))
    for x in range(1, 17):
        order[x] = [0, 6, *range(8, 8 + x), 7, *range(8 + x, 24), 1, 2, 3, 4, 5]
    return _Tables(np.array(hh), np.array(hl), np.array(lo), np.array(b),
                   2.0 ** np.arange(128), words(lead), words(suffix),
                   np.array(point), np.array(last),
                   words([b"\0" * 6 + b"%d" % d for d in range(10)]),
                   np.stack([four, four << np.uint64(32)]), tail,
                   keep.view(np.uint64).T.copy(), order)


def _decimal(v):
    """D and X of each value of ``v`` (0 and 0 for a zero), and whether it
    is too close to a tie or a range edge, or not finite, and goes to ``%``.
    """
    t = _tables()
    a = np.abs(v)
    zero = a == 0
    finite = np.isfinite(a)
    ok = finite & ~zero
    a = np.where(ok, a, 1.0)
    f, e = np.frexp(a)
    x = np.floor(np.log10(a)).astype(np.int64)
    fh = f * _SPLIT - (f * _SPLIT - f)
    fl = f - fh

    def scaled(x):
        # f 10^(16-x) 2^e = hi + lo; hi is an integer and |lo| < 32
        i = x - _X_MIN
        hh, hl = t.hh.take(i, mode="clip"), t.hl.take(i, mode="clip")
        p = f * (hh + hl)
        err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl + f * t.lo.take(i, mode="clip")
        s = t.pow2.take(e + t.b.take(i, mode="clip"), mode="clip")
        return p * s, err * s

    hi, lo = scaled(x)
    below, above = (hi - 1e16) + lo < 0, (hi - 1e17) + lo >= 0
    if below.any() or above.any():  # log10 is off by one next to 10^X
        x += above
        x -= below
        hi, lo = scaled(x)
    whole = np.floor(lo)
    frac = lo - whole
    d = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    top = d == 10**17
    d[top] = 10**16
    x += top
    to_percent = ~finite | ok & ((np.abs(frac - 0.5) < _NEAR)
                                 | ((hi - 1e16) + lo < _NEAR)
                                 | ((hi - 1e17) + lo > -_NEAR))
    d[zero] = 0
    x[zero] = 0
    return d, x, to_percent


def _digits(d):
    """D's first digit, its digits 2-9 and 10-17 as two rows of ASCII
    words, and the place (0-16) of its last digit that is not 0.
    """
    t = _tables()
    eight = np.empty((2, d.size), np.int64)
    first = d // 10**8
    eight[1] = d - first * 10**8
    eight[0] = first
    first //= 10**8
    eight[0] -= first * 10**8
    high = eight // 10**4
    eight -= high * 10**4
    words = t.four[0].take(high)
    words |= t.four[1].take(eight)
    # the top byte of words - '0' that is not 0, from its float exponent
    bits = (words ^ _ZEROS).astype(np.float64).view(np.int64) >> 52
    return first, words, np.maximum(t.tail[0].take(bits[0]), t.tail[1].take(bits[1]))


def format_cells(values) -> tuple[np.ndarray, int]:
    """``'%.17g' % v`` of each value as an (n, _SLOT) uint8 array.

    Each row is the text padded with NULs anywhere and a NUL last byte.
    Also returns how many values went through ``%`` one by one.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    t = _tables()
    # _decimal and _digits free their temporaries as they return: that
    # bounds a block's peak memory
    d, xi, to_percent = _decimal(v)
    xi -= _X_MIN  # X's row in the tables
    d, words, last = _digits(d)
    point = t.point.take(xi, mode="clip")
    dotted = last > point
    slots = np.empty((v.size, _SLOT // 8), np.uint64)
    slots[:, 0] = (t.lead.take(xi, mode="clip") | t.first.take(d)
                   | np.signbit(v) * np.uint64(ord("-")) | dotted * _DOT)
    # cut trailing zeros, but none before the point of fixed notation
    keep = np.maximum(last, t.last.take(xi, mode="clip"))
    slots[:, 1] = words[0] & t.masks[0].take(keep)
    slots[:, 2] = words[1] & t.masks[1].take(keep)
    slots[:, 3] = t.suffix.take(xi, mode="clip")
    out = slots.view(np.uint8)
    # fixed notation with 1 <= X <= 16 moves the point among the digits
    inner = np.flatnonzero(dotted & (point > 0))
    if inner.size:
        out[inner, :24] = out.reshape(-1).take(t.order[point[inner]] + _SLOT * inner[:, None])
    fallback = np.flatnonzero(to_percent)
    for j in fallback:
        text = b"%.17g" % v[j]
        out[j] = 0
        out[j, :len(text)] = np.frombuffer(text, np.uint8)
    return out, len(fallback)


def _write_rows(fh, cols, ends) -> tuple[int, int]:
    """Write one block of rows of ``write_table``, columns ``cols`` of one
    length, to ``fh``.  Returns the bytes written and the count of values
    formatted one by one.  A function of its own, so that a block's arrays
    are freed before the next block's are made.
    """
    block = np.empty((len(cols[0]), len(cols), _SLOT), np.uint8)
    floats = [j for j, c in enumerate(cols) if c.ndim == 1]
    fallbacks = 0
    for j, c in enumerate(cols):
        if c.ndim == 2:
            block[:, j] = c
    if floats:
        cells, fallbacks = format_cells(np.stack([cols[j] for j in floats], 1))
        block[:, floats] = cells.reshape(len(block), len(floats), _SLOT)
    block[:, :, -1] = ends
    return fh.write(block.tobytes().translate(None, b"\0")), fallbacks


def write_table(path, header: str, columns, sep: str = ",") -> tuple[int, int]:
    """Write ``header``, then one line per row: the columns' values as
    ``%.17g`` joined by ``sep``.

    A column is a sequence of floats or the cells ``format_cells`` made
    of one.  Like ``zip``, the rows stop at the shortest column.  Returns
    the bytes written and the count of values formatted one by one.
    """
    cols = [c if isinstance(c, np.ndarray) and c.dtype == np.uint8
            else np.asarray(c, dtype=np.float64) for c in columns]
    n_rows = min((len(c) for c in cols), default=0)
    ends = np.frombuffer((sep * (len(cols) - 1) + "\n").encode(), np.uint8)
    fallbacks = 0
    with open(path, "wb") as fh:
        size = fh.write(header.encode() + b"\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            n_bytes, n = _write_rows(fh, [c[start:stop] for c in cols], ends)
            size += n_bytes
            fallbacks += n
    return size, fallbacks
