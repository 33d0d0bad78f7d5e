"""Block-vectorised "{:.17g}" formatting of float64 arrays, byte for byte.

Python's "{:.17g}".format(x) prints the 17-significant-digit decimal
D * 10**(E - 16) nearest to x (ties to even): in fixed notation when
-4 <= E <= 16, otherwise as d.ddd...e±XX, with trailing zeros and a bare
point removed.  `format_g17` computes D and E for a whole array with numpy
arithmetic and lays each value's text out as NUL-padded bytes, so a caller
can write many values with one `bytes.translate(None, b"\\0")`.

Exactness.  For |x| in [1e-280, 1e280), E0 = floor(log10 |x|) and
y = |x| * 10**(16 - E0) is formed as p + t: p + e is Dekker's exact
two-product of |x| with the high part of 10**(16 - E0), and t adds
|x| times its low part; both parts are correctly rounded from Python
integers.  D = p + round(t).  Where log10 put E0 one decade off (D outside
[1e16, 1e17)), y is formed again at E0 - 1 or E0 + 1; D = 1e17 carries to
1e16 at E + 1.  For y < 2**57 the computed t is within 2**-47 (about 7e-15) of the
true y - p (see `_scaled`).  A value whose fraction t - round(t) lies within
_TIE_MARGIN = 1e-6 of one half may be a tie, such as 2**-25, and is
formatted by Python instead, as are non-finite values and
magnitudes outside the table's range.  Every other value gets D exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = ["FIELD_BYTES", "format_g17"]

_NUM = "{:.17g}"

# Decades the power table covers.  |x| in [1e-280, 1e280) puts floor(log10|x|)
# in [-281, 280], and a one-decade correction in [-282, 281].  The largest
# table entry, 10**(16 + 283), still splits without overflow (times 2**27 + 1).
_E_LO, _E_HI = -283, 282
_LOW, _HIGH = 1e-280, 1e280
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
# In-range stand-in for a value the kernel does not format (zero, non-finite,
# out of range): its text is overwritten, so any ordinary 17-digit value works.
_STAND_IN = 0.3

# Each value's text sits in four uint64 words (32 bytes), NUL where unused:
#   0 sign, 1-5 prefix "0.000", 6 first digit, 7 point, 8-23 digits 2 to 17,
#   24-28 exponent "e±XX[X]", 29 separator, 30-31 unused.
FIELD_BYTES = 32
_MANTISSA = slice(6, 24)  # 17 digits and one point, in the general layout
_TEXT = 29  # bytes before the separator


class _Tables(NamedTuple):
    pow10: np.ndarray  # (E rows, 4): hi, hi's two halves, lo of 10**(16 - E)
    head: np.ndarray  # uint64 word 0 for (E, sign): sign, prefix and point
    tail: np.ndarray  # uint64 word 3 for E: the exponent
    point_after: np.ndarray  # digits before the point; 17 means no point
    min_digits: np.ndarray  # digits kept however many trailing zeros
    groups: np.ndarray  # uint32 text of 0..9999; then the same, trailing zeros NUL
    lead: np.uint64  # word with a 1 in byte 6: times a digit places it there
    zero_head: np.ndarray  # word 0 of "0" and "-0"


def _word(text: bytes) -> np.uint64:
    return np.frombuffer(text.ljust(8, b"\0"), np.uint64)[0]


def _veltkamp(x):
    """Split x into hi + lo, each with at most 26 significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


@lru_cache(maxsize=1)
def _tables() -> _Tables:
    e = np.arange(_E_LO, _E_HI + 1)
    pow10 = np.empty((e.size, 4))
    for i, k in enumerate((16 - e).tolist()):
        if k >= 0:
            exact = 10**k
            hi = float(exact)
            pow10[i, 3] = float(exact - int(hi))
        else:
            q = 10**-k
            hi = 1 / q  # int / int is correctly rounded
            num, den = hi.as_integer_ratio()
            pow10[i, 3] = (den - num * q) / (q * den)  # 1/q - hi, correctly rounded
        pow10[i, 0] = hi
    pow10[:, 1], pow10[:, 2] = _veltkamp(pow10[:, 0])

    fixed_neg = (e >= -4) & (e < 0)  # 0.0001 ... 0.9
    fixed_pos = (e >= 0) & (e <= 16)  # 1 ... 99999999999999999
    point_after = np.where(fixed_neg, 17, np.where(fixed_pos, e + 1, 1))
    min_digits = np.where(fixed_pos, e + 1, 1)
    head = np.zeros((e.size, 2, 8), np.uint8)  # [E, sign, byte]
    head[:, 1, 0] = ord("-")
    for i in np.flatnonzero(fixed_neg):
        prefix = np.frombuffer(b"0.000"[: 1 - e[i]], np.uint8)
        head[i, :, 1 : 1 + prefix.size] = prefix
    head[point_after == 1, :, 7] = ord(".")
    scientific = ~(fixed_neg | fixed_pos)
    tail = np.array([f"e{x:+03d}" if sci else "" for x, sci in zip(e.tolist(), scientific)], "S8")

    # small dtypes keep every array here at 80 KB
    groups = np.empty((2, 10000, 4), np.uint8)
    digits, stripped = groups
    digits[...] = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    digits += ord("0")
    stripped[...] = digits
    for j in range(4):
        stripped[:, j] *= stripped[:, j:].max(axis=1) > ord("0")
    tables = _Tables(
        pow10=pow10,
        head=head.view(np.uint64).ravel(),
        tail=tail.view(np.uint64),
        point_after=point_after,
        min_digits=min_digits,
        groups=groups.view(np.uint32).ravel(),
        lead=_word(b"\0" * 6 + b"\1"),
        zero_head=np.array([_word(b"\0" * 6 + b"0"), _word(b"-" + b"\0" * 5 + b"0")], np.uint64),
    )
    for value in tables:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False  # shared by every caller through the cache
    return tables


@lru_cache(maxsize=8)
def _separator_words(separators: str) -> np.ndarray:
    """Word 3 bits that put each column's separator in its field's byte 29."""
    words = np.array([_word(b"\0" * 5 + c.encode("ascii")) for c in separators], np.uint64)
    words.flags.writeable = False
    return words


def _scaled(tables: _Tables, a: np.ndarray, t: np.ndarray):
    """D = round(a * 10**(16 - E)) as int64 and the fraction left over, E = t + _E_LO.

    With p + e = a * hi exactly (Dekker) and hi + lo_true = 10**(16 - E), for
    y = a * 10**(16 - E) < 2**57 the computed t = e + fl(a * lo) errs by at most
    2**-106 * y <= 2**-49 from lo's rounding, 2**-50 from the product a * lo
    (|a * lo| < 2**4) and 2**-49 from the sum (|t| < 2**5): below 2**-47 in
    all, while round(t) and t - round(t) are exact.
    """
    p10 = tables.pow10.take(t, axis=0)
    hi, hi_hi, hi_lo, lo = p10[..., 0], p10[..., 1], p10[..., 2], p10[..., 3]
    a_hi, a_lo = _veltkamp(a)
    p = a * hi
    e = a_lo * hi_lo - (((p - a_hi * hi_hi) - a_lo * hi_hi) - a_hi * hi_lo)
    e += a * lo
    r = np.rint(e)
    d = p.astype(np.int64)
    d += r.astype(np.int64)
    e -= r
    return d, e


def _fix_decade(tables, a, t, d, frac) -> None:
    """Correct, in place, the rare values whose D left [1e16, 1e17) because log10
    misplaced the decade, and carry D = 1e17 to 1e16 at the next decade."""
    off = np.flatnonzero((d <= 10**16) | (d >= 10**17))
    if not off.size:
        return
    df, ff, tf = d.reshape(-1), frac.reshape(-1), t.reshape(-1)
    di, fi, ti = df[off], ff[off], tf[off]
    low = (di < 10**16) | ((di == 10**16) & (fi < 0))
    ti = ti + (di > 10**17) - low
    di, fi = _scaled(tables, a.reshape(-1)[off], ti)
    unproven = (di < 10**16) | ((di == 10**16) & (fi < 0)) | (di > 10**17)
    fi[unproven] = 0.5  # sent to Python with the near-ties
    carry = di == 10**17
    di[carry] = 10**16
    ti += carry
    df[off], ff[off], tf[off] = di, fi, ti


def format_g17(values: np.ndarray, words: np.ndarray, separators: str) -> int:
    """Lay out "{:.17g}".format(v) for each float v of a 2-D array.

    `words`, uint64 of shape values.shape + (FIELD_BYTES // 8,), receives one
    NUL-padded field per value, ending with the separator of its column
    (separators[j] for column j).  Returns how many values were formatted by
    Python: non-finite, outside [1e-280, 1e280) or within _TIE_MARGIN of a
    rounding tie.
    """
    tables = _tables()
    a = np.abs(values)
    in_range = (a >= _LOW) & (a < _HIGH)
    a = np.where(in_range, a, _STAND_IN)
    t = (np.log10(a) - _E_LO).astype(np.intp)
    d, frac = _scaled(tables, a, t)
    _fix_decade(tables, a, t, d, frac)
    zero = values == 0
    python = (np.abs(frac) > 0.5 - _TIE_MARGIN) | ~(in_range | zero)

    # D = lead * 1e16 + four groups of four digits
    q = d // 10**8
    halves = np.empty(values.shape + (2,), np.intp)
    np.subtract(d, q * 10**8, out=halves[..., 1])
    lead = q // 10**8
    np.subtract(q, lead * 10**8, out=halves[..., 0])
    g = np.empty(values.shape + (4,), np.intp)
    np.floor_divide(halves, 10**4, out=g[..., ::2])
    np.subtract(halves, g[..., ::2] * 10**4, out=g[..., 1::2])
    # The common case needs no digit-by-digit work: the last group drops its
    # trailing zeros through the second half of the group table, and the
    # point follows the first digit or is absent.  The rest is done below.
    general = (g[..., 3] == 0) | (tables.min_digits.take(t) > 1)
    g[..., 3] += 10000

    neg = np.signbit(values)
    head = tables.head.take(2 * t + neg)
    head += (lead + ord("0")).astype(np.uint64) * tables.lead
    words[..., 0] = head
    words[..., 1:3].view("V16")[..., 0] = tables.groups.take(g).view("V16")[..., 0]
    np.add(tables.tail.take(t), _separator_words(separators), out=words[..., 3])
    text = words.view(np.uint8)

    if zero.any():
        z = np.nonzero(zero)
        words[z + (0,)] = tables.zero_head.take(neg[z])
        words[z + (slice(1, 3),)] = 0
        general &= ~zero
    if general.any():
        rows, cols = np.nonzero(general)
        text[rows, cols, _MANTISSA] = _general_mantissa(
            tables, lead[rows, cols], g[rows, cols], t[rows, cols]
        )
    fallback = list(zip(*np.nonzero(python))) if python.any() else []
    for index in fallback:
        field = _NUM.format(float(values[index])).encode("ascii")
        text[index][:_TEXT] = np.frombuffer(field.ljust(_TEXT, b"\0"), np.uint8)
    return len(fallback)


def _general_mantissa(tables, lead, g, t) -> np.ndarray:
    """Bytes 6-23 of each field: 17 digits, trailing zeros beyond the integer part
    removed, and the point after the integer part when digits follow it."""
    digits = np.empty((lead.size, 17), np.uint8)
    digits[:, 0] = lead + ord("0")
    g = g - [0, 0, 0, 10000]
    digits[:, 1:] = tables.groups.take(g).view(np.uint8)
    significant = 17 - np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    after = tables.point_after.take(t)[:, None]
    keep = np.maximum(significant, tables.min_digits.take(t))[:, None]
    point = significant[:, None] > after
    j = np.arange(18)
    shifted = point & (j > after)
    out = np.take_along_axis(digits, np.minimum(j - shifted, 16), axis=1)
    out[j >= keep + point] = 0
    out[point & (j == after)] = ord(".")
    return out
