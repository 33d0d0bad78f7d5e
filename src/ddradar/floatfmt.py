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

Layout.  The kernel takes a block's floats column by column, as one
contiguous run (re, then im, then abs for a surface CSV), and makes about
75 passes over it.  Each pass is a 1-D numpy operation between the rows of
a `Workspace` that the writer allocates once per file.  Three table
lookups build each field: word 0 (sign, prefix, first digit, point) is
indexed by (E, sign, first digit); words 1-2 (digits 2 to 17) come from
one lookup of four 4-digit groups; word 3 (exponent and separator) is
indexed by (column, E).  One strided copy per word then moves the fields
into the caller's line buffer.  Zeros, the general mantissas and the
Python fallbacks are rare; they are found with `flatnonzero` and
overwritten afterwards.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = ["FIELD_BYTES", "Workspace", "format_g17"]

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
    hi: np.ndarray  # by row t = E - _E_LO: 10**(16 - E) rounded to float64
    hi_hi: np.ndarray  # hi's two 26-bit halves
    hi_lo: np.ndarray
    lo: np.ndarray  # 10**(16 - E) - hi, correctly rounded
    head: np.ndarray  # uint64 word 0 at (2 * t + sign) * 10 + first digit: sign, prefix, digit, point
    tail: np.ndarray  # uint64 word 3 for E: the exponent
    point_after: np.ndarray  # digits before the point; 17 means no point
    min_digits: np.ndarray  # digits kept however many trailing zeros
    groups: np.ndarray  # uint32 text of 0..9999; then the same, trailing zeros NUL
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
    hi, lo = np.empty(e.size), np.empty(e.size)
    for i, k in enumerate((16 - e).tolist()):
        if k >= 0:
            exact = 10**k
            hi[i] = float(exact)
            lo[i] = float(exact - int(hi[i]))
        else:
            q = 10**-k
            hi[i] = 1 / q  # int / int is correctly rounded
            num, den = float(hi[i]).as_integer_ratio()
            lo[i] = (den - num * q) / (q * den)  # 1/q - hi, correctly rounded
    hi_hi, hi_lo = _veltkamp(hi)

    fixed_neg = (e >= -4) & (e < 0)  # 0.0001 ... 0.9
    fixed_pos = (e >= 0) & (e <= 16)  # 1 ... 99999999999999999
    point_after = np.where(fixed_neg, 17, np.where(fixed_pos, e + 1, 1))
    min_digits = np.where(fixed_pos, e + 1, 1)
    head = np.zeros((e.size, 2, 10, 8), np.uint8)  # [E, sign, first digit, byte]
    head[:, 1, :, 0] = ord("-")
    for i in np.flatnonzero(fixed_neg):
        prefix = np.frombuffer(b"0.000"[: 1 - e[i]], np.uint8)
        head[i, :, :, 1 : 1 + prefix.size] = prefix
    head[..., 6] = ord("0") + np.arange(10, dtype=np.uint8)
    head[point_after == 1, ..., 7] = ord(".")
    scientific = ~(fixed_neg | fixed_pos)
    tail = np.array([f"e{x:+03d}" if sci else "" for x, sci in zip(e.tolist(), scientific)], "S8")

    # small dtypes keep every array here at 91 KB or less
    groups = np.empty((2, 10000, 4), np.uint8)
    digits, stripped = groups
    digits[...] = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    digits += ord("0")
    stripped[...] = digits
    for j in range(4):
        stripped[:, j] *= stripped[:, j:].max(axis=1) > ord("0")
    tables = _Tables(
        hi=hi,
        hi_hi=hi_hi,
        hi_lo=hi_lo,
        lo=lo,
        head=head.view(np.uint64).ravel(),
        tail=tail.view(np.uint64),
        point_after=point_after,
        min_digits=min_digits,
        groups=groups.view(np.uint32).ravel(),
        zero_head=np.array([_word(b"\0" * 6 + b"0"), _word(b"-" + b"\0" * 5 + b"0")], np.uint64),
    )
    for value in tables:
        value.flags.writeable = False  # shared by every caller through the cache
    return tables


@lru_cache(maxsize=8)
def _column_tails(separators: str) -> np.ndarray:
    """Word 3 by column j and row t: the exponent, then separators[j] in the field's byte 29."""
    ends = np.array([_word(b"\0" * 5 + c.encode("ascii")) for c in separators], np.uint64)
    tails = _tables().tail[None, :] + ends[:, None]
    tails.flags.writeable = False
    return tails


# Rows of 8 bytes per float in a Workspace.  Each pass of the kernel reads
# and writes whole rows, named where they are used; a row is reused once
# what it held is dead.
_ROWS = 8


class Workspace:
    """Scratch space for format_g17 calls over at most `size` floats.

    A writer allocates it once and passes it to every call, so the kernel's
    passes run over the same few contiguous buffers: _ROWS rows of one
    8-byte word per float and two boolean masks, 66 bytes per float.
    """

    FLOAT_BYTES = 8 * _ROWS + 2

    def __init__(self, size: int) -> None:
        self.size = size
        self._words = np.empty(_ROWS * size, np.uint64)
        self._masks = np.empty((2, size), bool)

    def _rows(self, m: int):
        """(_ROWS, m) rows, each contiguous and the next one adjacent, and two (m,) masks."""
        if m > self.size:
            raise ValueError(f"a workspace for {self.size} floats cannot format {m}")
        return self._words[: _ROWS * m].reshape(_ROWS, m), self._masks[0, :m], self._masks[1, :m]


def _scaled(tables: _Tables, a: np.ndarray, t: np.ndarray, rows: np.ndarray):
    """D = round(a * 10**(16 - E)) as int64 and the fraction left over, E = t + _E_LO.

    Both land in `rows`, (_ROWS, a.size) words of which rows 2-7 are scratch:
    D in row 2, the fraction in row 3.

    With p + e = a * hi exactly (Dekker) and hi + lo_true = 10**(16 - E), for
    y = a * 10**(16 - E) < 2**57 the computed t = e + fl(a * lo) errs by at most
    2**-106 * y <= 2**-49 from lo's rounding, 2**-50 from the product a * lo
    (|a * lo| < 2**4) and 2**-49 from the sum (|t| < 2**5): below 2**-47 in
    all, while round(t) and t - round(t) are exact.
    """
    f = rows.view(np.float64)
    a_lo, e, hi, hi_hi, hi_lo, a_hi = f[2:8]
    for table, out in ((tables.hi, hi), (tables.hi_hi, hi_hi), (tables.hi_lo, hi_lo)):
        table.take(t, out=out, mode="clip")
    np.multiply(a, _SPLIT, out=a_hi)  # Veltkamp: c = a * _SPLIT
    np.subtract(a_hi, a, out=a_lo)
    np.subtract(a_hi, a_lo, out=a_hi)  # c - (c - a)
    np.subtract(a, a_hi, out=a_lo)
    p = np.multiply(a, hi, out=hi)
    # e = a_lo * hi_lo - (((p - a_hi * hi_hi) - a_lo * hi_hi) - a_hi * hi_lo), one pass at a time
    np.multiply(a_hi, hi_hi, out=e)
    np.subtract(p, e, out=e)
    np.multiply(a_lo, hi_hi, out=hi_hi)
    e -= hi_hi
    np.multiply(a_hi, hi_lo, out=hi_hi)
    e -= hi_hi
    np.multiply(a_lo, hi_lo, out=hi_lo)
    np.subtract(hi_lo, e, out=e)
    lo = tables.lo.take(t, out=hi_hi, mode="clip")
    np.multiply(a, lo, out=lo)
    e += lo
    r = np.rint(e, out=lo)
    d, whole = rows[2].view(np.int64), rows[6].view(np.int64)  # over a_lo and hi_lo
    np.copyto(d, p, casting="unsafe")
    np.copyto(whole, r, casting="unsafe")
    d += whole
    e -= r
    return d, e


def _fix_decade(tables, a, t, d, frac, off) -> None:
    """Correct, in place at the indices `off`, the rare values whose D left
    [1e16, 1e17) because log10 misplaced the decade, and carry D = 1e17 to
    1e16 at the next decade."""
    di, fi, ti = d[off], frac[off], t[off]
    low = (di < 10**16) | ((di == 10**16) & (fi < 0))
    ti = ti + (di > 10**17) - low
    di, fi = _scaled(tables, a[off], ti, np.empty((_ROWS, off.size), np.uint64))
    unproven = (di < 10**16) | ((di == 10**16) & (fi < 0)) | (di > 10**17)
    fi[unproven] = 0.5  # sent to Python with the near-ties
    carry = di == 10**17
    di[carry] = 10**16
    ti += carry
    d[off], frac[off], t[off] = di, fi, ti


def format_g17(values: np.ndarray, words: np.ndarray, separators: str,
               workspace: Workspace | None = None) -> int:
    """Lay out "{:.17g}".format(v) for each float v of a 2-D array.

    `words`, uint64 of shape values.shape + (FIELD_BYTES // 8,), receives one
    NUL-padded field per value, ending with the separator of its column
    (separators[j] for column j).  Returns how many values were formatted by
    Python: non-finite, outside [1e-280, 1e280) or within _TIE_MARGIN of a
    rounding tie.

    The kernel reads the floats column by column as one contiguous run (no
    copy when `values` is the transpose of a C-ordered array).  Every pass
    is a 1-D operation over the rows of `workspace` (a new one when None);
    the finished words are copied into `words` at the end.
    """
    n, ncol = values.shape
    m = values.size
    rows, mask, mask2 = (workspace or Workspace(m))._rows(m)
    f, i = rows.view(np.float64), rows.view(np.int64)
    tables = _tables()
    v = np.ascontiguousarray(values.T).reshape(m)

    a, t, x = f[0], i[1], f[2]
    np.abs(v, out=a)
    np.greater_equal(a, _LOW, out=mask)
    np.less(a, _HIGH, out=mask2)
    np.logical_and(mask, mask2, out=mask)
    odd = np.flatnonzero(np.logical_not(mask, out=mask))  # zero, non-finite or out of range
    a[odd] = _STAND_IN
    np.log10(a, out=x)
    x -= _E_LO
    np.copyto(t, x, casting="unsafe")
    d, frac = _scaled(tables, a, t, rows)
    off = i[4]  # D outside [1e16, 1e17]: D - (1e16 + 1) >= 1e17 - 1e16 - 1 unsigned
    np.subtract(d, 10**16 + 1, out=off)
    np.greater_equal(off.view(np.uint64), 10**17 - 10**16 - 1, out=mask)
    off = np.flatnonzero(mask)
    if off.size:
        _fix_decade(tables, a, t, d, frac, off)
    np.greater(np.abs(frac, out=f[4]), 0.5 - _TIE_MARGIN, out=mask)
    odd_zero = v[odd] == 0
    zero = odd[odd_zero]
    python = np.concatenate((np.flatnonzero(mask), odd[~odd_zero]))

    # D = lead * 1e16 + four groups of four digits, one group per row of g
    q, lead, low, g = i[0], i[2], i[3], i[4:8]
    np.floor_divide(d, 10**8, out=q)
    np.multiply(q, 10**8, out=low)
    np.subtract(d, low, out=low)
    np.floor_divide(q, 10**8, out=lead)  # overwrites d
    np.multiply(lead, 10**8, out=g[0])
    q -= g[0]
    np.floor_divide(q, 10**4, out=g[0])
    np.multiply(g[0], 10**4, out=g[1])
    np.subtract(q, g[1], out=g[1])
    np.floor_divide(low, 10**4, out=g[2])
    np.multiply(g[2], 10**4, out=g[3])
    np.subtract(low, g[3], out=g[3])
    # The common case needs no digit-by-digit work: the last group drops its
    # trailing zeros through the second half of the group table, and the
    # point follows the first digit or is absent.  The rest is done below:
    # a last group of 0000, or 1 <= E <= 16 (min_digits > 1).
    np.equal(g[3], 0, out=mask)
    g[3] += 10000
    np.subtract(t, 1 - _E_LO, out=q)
    np.less(q.view(np.uint64), 16, out=mask2)
    mask |= mask2
    general = np.flatnonzero(mask)  # never a zero: its stand-in has E = -1 and a last group 9999
    if general.size:
        mantissas = _general_mantissa(tables, lead[general], g[:, general].T, t[general])

    # word 0 from (E, sign, first digit), word 3 from (column, E), words 1-2 from the groups
    neg = np.signbit(v, out=mask2)
    head, tail, groups = rows[3], rows[0], rows[1:3].reshape(-1).view(np.uint32).reshape(4, m)
    index = q
    np.multiply(t, 2, out=index)
    np.add(index, neg, out=index)
    index *= 10
    index += lead
    tables.head.take(index, out=head, mode="clip")
    tails = _column_tails(separators)
    for j in range(ncol):
        column = slice(j * n, (j + 1) * n)
        tails[j].take(t[column], out=tail[column], mode="clip")
    tables.groups.take(g, out=groups, mode="clip")  # over t and lead

    words[..., 0] = head.reshape(ncol, n).T
    words.view(np.uint32)[..., 2:6] = groups.reshape(4, ncol, n).transpose(2, 1, 0)
    words[..., 3] = tail.reshape(ncol, n).T
    text = words.view(np.uint8)
    if general.size:
        text[general % n, general // n, _MANTISSA] = mantissas
    if zero.size:
        at = (zero % n, zero // n)
        words[at + (0,)] = tables.zero_head.take(neg[zero])
        words[at + (slice(1, 3),)] = 0
    for k in python.tolist():
        field = _NUM.format(float(v[k])).encode("ascii")
        text[k % n, k // n, :_TEXT] = np.frombuffer(field.ljust(_TEXT, b"\0"), np.uint8)
    return python.size


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
