"""CSV rows whose floats read exactly as Python's ``'%.16e' % v``, built by numpy.

Python's formatter costs about 0.65 us per float: 17 significant digits
always take dtoa's bignum path.  Here each finite |x| in [1e-280, 1e280]
is turned into its 17 digits N = round(|x| * 10^(16 - E)), E =
floor(log10 |x|), with array arithmetic:

- |x| times the double-double (hi, lo) = 10^(16 - E) is taken in
  double-double arithmetic, |x| * hi exactly by Dekker's two-product on
  Veltkamp halves (numpy has no fused multiply-add), giving p + r with p
  a double and r the small remainder.  p lies near [1e16, 1e17], where
  every double is an integer, so N = p + round(r).  hi + lo is 10^(16 - E)
  to 2^-106 relative and the two-product is exact; the few additions
  that form r round at the 1e-15 level, so p + r is within 1e-13 of
  |x| * 10^(16 - E).
- N takes r's nearest integer.  A fraction of r within 1e-6 of one half
  is a near-tie, which Python decides.
- 1e16 < N < 1e17 proves E.  log10 can be off by one only next to a power
  of ten: with E one too large the scaled value is below 1e16 and N at
  most 1e16, with E one too small N is at least 1e17.  Python decides
  those values, and the 17 digits that round up to 1e17.

Zero, -0, NaN, +-inf and |x| outside [1e-280, 1e280] (subnormals among
them) are formatted by Python too, one value at a time.
``tests/test_csvrows.py`` referees every path against Python's formatter.

A row is a run of little-endian uint32 words: its leading text fields,
zero-padded, then seven words per float, ``[sign d0 . 0][dddd][dddd]
[dddd][dddd][e sign e e][e sep 0 0]`` with absent exponent digits and the
sign of a positive value left 0.  Dropping every zero byte once leaves
the text.
"""

from __future__ import annotations

import functools

import numpy as np

__all__: list[str] = []

_K = np.arange(16 - 282, 16 + 283)
"""The powers of ten |x| is scaled by: 10^(16 - E) for E from -282 to 282,
which holds floor(log10 |x|) on [1e-280, 1e280] with room to spare."""

BLOCK_FLOATS = 1 << 13
"""Floats a streaming writer hands :func:`_csv_rows` at a time.  The
buffers of one call, about 1.5 MB at the peak, stay in cache, and numpy's
per-call cost is spread over enough values to vanish; blocks of 2^14
floats rendered the tree127 trajectory about 1.5 times slower."""

_WORDS = 7
"""uint32 words per float: 28 bytes hold the widest text, 24 bytes, and
its separator."""


@functools.cache
def _tables():
    """The scaling and digit tables, built on first use.

    ``hi`` is 10^k rounded to a double, with its Veltkamp halves
    ``hi_1 + hi_2 == hi``; ``lo`` is 10^k - hi rounded to a double.  Both
    divisions are of Python integers, so both are correctly rounded.
    ``digits`` holds the words of "0000" .. "9999"; ``exp5`` and ``exp6``
    the two words that hold the exponent of E = 16 - k.
    """
    hi, lo = np.empty(_K.size), np.empty(_K.size)
    for i, k in enumerate(_K.tolist()):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi[i] = num / den
        h_num, h_den = hi[i].item().as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    hi_1, hi_2 = _split(hi)
    digits = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), "<u4")
    exponents = []
    for e in (16 - _K).tolist():
        hundreds = b"%d" % (abs(e) // 100) if abs(e) >= 100 else b"\0"
        exponents.append(b"e" + (b"-" if e < 0 else b"+") + hundreds + b"%02d" % (abs(e) % 100))
    words = np.array(exponents, "S8").view("<u4").reshape(-1, 2)
    return hi, hi_1, hi_2, lo, digits, words[:, 0].copy(), words[:, 1].copy()


def _split(v: np.ndarray):
    """Veltkamp's split of doubles into halves of at most 26 bits each."""
    c = 134217729.0 * v  # 2^27 + 1
    h = c - (c - v)
    return h, v - h


def _kernel(x: np.ndarray):
    """The fast path: each float of the 1-d ``x`` as ``'%.16e' % v`` and a
    comma, in the word layout above, uint32 of shape (x.size, 7), and the
    boolean mask of the values whose text it proved."""
    hi, hi_1, hi_2, lo, digits, exp5, exp6 = _tables()
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)  # False for 0, NaN, inf and subnormals
    a[~ok] = 1.0
    i = (16 - _K[0] - np.floor(np.log10(a))).astype(np.intp)
    p = a * hi[i]
    a_1, a_2 = _split(a)
    b_1, b_2 = hi_1[i], hi_2[i]
    r = ((a_1 * b_1 - p) + a_1 * b_2 + a_2 * b_1) + a_2 * b_2 + a * lo[i]
    whole = np.floor(r)
    frac = r - whole
    ok &= np.abs(frac - 0.5) >= 1e-6
    n = p.astype(np.int64) + (whole + (frac > 0.5)).astype(np.int64)
    ok &= (n > 10 ** 16) & (n < 10 ** 17)

    out = np.empty((x.size, _WORDS), "<u4")
    top, bottom = (g.astype(np.uint32) for g in np.divmod(n, 10 ** 8))
    first, top = np.divmod(top, 10 ** 8)
    out[:, 0] = (first + 48) << 8 | 0x2E0000 | (np.signbit(x) * 45).astype(np.uint32)
    # every index is in range; mode="clip" lets take write into out unbuffered
    for w, g in enumerate((*np.divmod(top, 10000), *np.divmod(bottom, 10000)), 1):
        np.take(digits, g, out=out[:, w], mode="clip")
    np.take(exp5, i, out=out[:, 5], mode="clip")
    out[:, 6] = exp6[i] | ord(",") << 8
    return out, ok


def _render(x: np.ndarray) -> np.ndarray:
    """:func:`_kernel`'s words, with Python's own ``'%.16e' % v`` wherever
    the kernel proved nothing."""
    out, ok = _kernel(x)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array([b"%.16e" % v for v in x[bad].tolist()], "S28")
        words = text.view("<u4").reshape(-1, _WORDS)
        words[:, -1] |= ord(",") << 8
        out[bad] = words
    return out


def _csv_rows(fields, values: np.ndarray) -> str:
    """CSV text: per row, the ``fields`` then the floats of ``values``.

    ``values`` has shape (..., k), one row per leading index.  Each field
    is an ``S`` array of text that ends in its comma, broadcast against
    ``values.shape[:-1]``.  The floats follow as ``'%.16e'``, comma
    separated, and each row ends in a newline.
    """
    values = np.ascontiguousarray(values, dtype=float)
    *rows, k = values.shape
    lead = -(-sum(f.itemsize for f in fields) // 4)
    buf = np.empty((*rows, lead + _WORDS * k), "<u4")
    buf[..., :lead] = 0
    text = buf[..., :lead].view(np.uint8)
    at = 0
    for f in fields:
        text[..., at : at + f.itemsize] = f.view(np.uint8).reshape(*f.shape, f.itemsize)
        at += f.itemsize
    buf[..., lead:] = _render(values.ravel()).reshape(*rows, _WORDS * k)
    buf[..., -1] = buf[..., -1] & 0xFF | ord("\n") << 8  # the last comma ends the row
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _int_field(values) -> np.ndarray:
    """Python integers as ``S`` text, each followed by a comma."""
    return np.array([b"%d," % v for v in values])
