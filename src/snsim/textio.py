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
* Each value gets a NUL-padded slot of ``_SLOT`` bytes with fixed places
  for the sign, a ``0.000`` prefix, the digits with a possible ``.``
  after each, and ``e+XXX``, filled under Python's ``g`` rules (fixed
  notation for -4 <= X < 17, trailing zeros and a bare point cut).  The
  last byte holds the separator, and ``bytes.translate`` deletes the NULs.
"""

from __future__ import annotations

import functools

import numpy as np

# rows formatted per block: bounds the formatter's transient arrays
_BLOCK_ROWS = 1000
# bytes per value: seven 64-bit words, see _tables
_SLOT = 56
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter for a 53-bit significand
_NEAR = 2.0**-40  # closer than this to a tie or a range edge: ask '%'
_X_MIN, _X_MAX = -324, 308  # decimal exponents of nonzero finite float64


@functools.cache
def _tables():
    """Lookup tables, built on the first call of a process.

    Per decimal exponent X (row X - _X_MIN): 10^(16 - X) / 2^b in
    [0.5, 1) as a split high part (hh + hl) plus a low part, and b; the
    prefix word (bytes 1-5 of a slot), the exponent word (bytes 48-52)
    and the digit after which the point goes (17: none).  Digit words
    put digit j of D at byte 14 + 2j, leaving byte 15 + 2j for a point.
    """
    hh, hl, lo, b, prefix, suffix, point = [], [], [], [], [], [], []
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
        prefix.append(b"\0" + b"0." + b"0" * (-x - 1) if fixed and x < 0 else b"")
        suffix.append(b"" if fixed else b"e%+03d" % x)
        point.append(17 if fixed and x < 0 else x if fixed else 0)

    def words(texts):
        return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)

    four = np.zeros((10000, 8), np.uint8)
    four[:, ::2] = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
    i = np.arange(10000)
    trailing = sum((i % 10**k == 0).astype(np.int64) for k in range(1, 5))
    keep = np.zeros((17, 40), np.uint8)  # words 1-5 through digit k
    for k in range(17):
        keep[k, 6:7 + 2 * k] = 0xFF
    return (np.array(hh), np.array(hl), np.array(lo), np.array(b),
            2.0 ** np.arange(128), words(prefix), words(suffix),
            np.array(point), words([b"\0" * 6 + b"%d" % d for d in range(10)]),
            four.view(np.uint64).ravel(), trailing, keep.view(np.uint64))


def format_cells(values) -> tuple[np.ndarray, int]:
    """``'%.17g' % v`` of each value as an (n, _SLOT) uint8 array.

    Each row is the text padded with NULs anywhere and a NUL last byte.
    Also returns how many values went through ``%`` one by one.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    (thh, thl, tlo, tb, pow2, prefix, suffix, tpoint,
     one, four, trailing, keep_words) = _tables()
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
        hh, hl = thh.take(i, mode="clip"), thl.take(i, mode="clip")
        p = f * (hh + hl)
        err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl + f * tlo.take(i, mode="clip")
        s = pow2.take(e + tb.take(i, mode="clip"), mode="clip")
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
    xi = x - _X_MIN
    point = tpoint.take(xi, mode="clip")
    # D as digit 0 and four groups of four
    g = np.empty((n, 4), np.int64)
    g0 = np.empty(n, np.int64)
    q, r = np.divmod(d, 10**8)
    np.divmod(q, 10**4, out=(g0, g[:, 1]))
    np.divmod(g0, 10**4, out=(g0, g[:, 0]))
    np.divmod(r, 10**4, out=(g[:, 2], g[:, 3]))
    slots = np.empty((n, _SLOT // 8), np.uint64)
    slots[:, 0] = prefix.take(xi, mode="clip") | np.signbit(v) * np.uint64(ord("-"))
    slots[:, 1] = one.take(g0)
    four.take(g, out=slots[:, 2:6])
    slots[:, 6] = suffix.take(xi, mode="clip")
    # cut trailing zeros, but none before the point of fixed notation
    last = np.full(n, 16)
    cut = np.flatnonzero(g[:, 3] % 10 == 0)
    if cut.size:
        gc = g[cut]
        z, empty = trailing.take(gc), gc == 0
        zeros = z[:, 0] + empty[:, 0] * (g0[cut] == 0)
        for j in (1, 2, 3):
            zeros = z[:, j] + empty[:, j] * zeros
        last[cut] = 16 - zeros
        keep = np.where(point[cut] < 17, np.maximum(last[cut], point[cut]), last[cut])
        slots[cut, 1:6] &= keep_words[keep]
    out = slots.view(np.uint8)
    dotted = np.flatnonzero(last > point)
    out.reshape(-1)[dotted * _SLOT + 15 + 2 * point[dotted]] = ord(".")
    fallback = np.flatnonzero(to_percent)
    for j in fallback:
        text = b"%.17g" % v[j]
        out[j] = 0
        out[j, :len(text)] = np.frombuffer(text, np.uint8)
    return out, len(fallback)


def write_table(path, header: str, columns, sep: str = ",") -> tuple[int, int]:
    """Write ``header``, then one line per row: the columns' values as
    ``%.17g`` joined by ``sep``.

    A column is a sequence of floats or the cells ``format_cells`` made
    of one.  Like ``zip``, the rows stop at the shortest column.  Returns
    the bytes written and the count of values formatted one by one.
    """
    cols = [c if isinstance(c, np.ndarray) and c.dtype == np.uint8
            else np.asarray(c, dtype=np.float64) for c in columns]
    floats = [j for j, c in enumerate(cols) if c.ndim == 1]
    n_rows = min((len(c) for c in cols), default=0)
    ends = np.frombuffer((sep * (len(cols) - 1) + "\n").encode(), np.uint8)
    fallbacks = 0
    with open(path, "wb") as fh:
        size = fh.write(header.encode() + b"\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            block = np.empty((stop - start, len(cols), _SLOT), np.uint8)
            for j, c in enumerate(cols):
                if c.ndim == 2:
                    block[:, j] = c[start:stop]
            if floats:
                cells, n = format_cells(np.stack([cols[j][start:stop] for j in floats], 1))
                block[:, floats] = cells.reshape(stop - start, len(floats), _SLOT)
                fallbacks += n
            block[:, :, -1] = ends
            size += fh.write(block.tobytes().translate(None, b"\0"))
    return size, fallbacks
