"""Block-vectorised "{:.17g}" formatting of float64 arrays, byte for byte.

Python's "{:.17g}".format(x) prints the 17-significant-digit decimal
D * 10**(E - 16) nearest to x (ties to even): in fixed notation when
-4 <= E <= 16, otherwise as d.ddd...e±XX, with trailing zeros and a bare
point removed.  `format_g17` computes D and E for a whole array with numpy
arithmetic and lays each value's text out as NUL-padded bytes in a CSV field
after the comma the caller lays there, so a caller can write many values with
one `bytes.translate(None, b"\\0")`.

Exactness.  For x whose decade E0 = floor(log10 |x|), as numpy computes
it, lies in [-280, 279], y = |x| * 10**(16 - E0) is formed as p + t: p + e
is Dekker's exact two-product of |x| with the high part of 10**(16 - E0),
and t adds |x| times its low part; both parts are correctly rounded from
Python integers.  D = p + round(t).  For y < 2**57 the computed t is within
2**-47 (about 7e-15) of the true y - p (see `_scaled`).  Python formats
instead every value whose D left [1e16, 1e17), because log10 put E0 one
decade off or D carried to 1e17, but for D = 1e16 with a fraction
t - round(t) >= 0, such as 1.0; a value whose fraction lies within
_TIE_MARGIN = 1e-6 of one half, which may be a tie such as 2**-25;
non-finite values; and decades outside the table's range (1e-280 is
inside, 1e280 outside).  Every other value gets D exactly.

Layout.  The kernel takes a block's floats column by column, as one
contiguous run (re, then im, then abs for a surface CSV), and makes about
85 passes over it in about 60 numpy calls.  Each pass is a 1-D numpy
operation between the rows of a `Workspace` that the writer allocates once
per file.  One table lookup on the decade sets aside the rare values the
common path cannot take.  Three more lookups give each field's text: the head
(sign, prefix, first digit, point), in two 4-byte halves, is indexed by (E,
first digit, sign); digits 2 to 17 come from one lookup of four 4-digit
groups; the first 4 bytes of the exponent are indexed by E.  Trailing zeros
are the kernel's too: each group takes its full text, or its text with
trailing zeros as NUL when every later group is 0000, and when all four are,
the head's point is dropped.  A zero takes the first decade row, whose head
is "0" or "-0".  A field's text is six 4-byte slots (FIELD_BYTES), picked
from those seven rows by uint32 arithmetic, x[s] + k * (x[s + 1] - x[s]),
with k = 1 where the head fits in its second half, so that no NUL stands
for a head half or an exponent a value does not have; one strided copy per
column then moves the slots into the caller's line buffer.  Two rare kinds,
found with `flatnonzero`, are edited there afterwards, decade by decade.
For 1 <= E <= 16 the point falls among the digits: the NULs of the integer
part (the zeros the trailing-zero rule dropped) become "0", the fraction
moves one byte to the right, and a point goes after the integer part when a
digit follows it.  A three-digit exponent, one byte longer than its slot,
moves the head and digits one byte to the left and is written whole.  The
Python fallbacks overwrite their whole text.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = ["FIELD_BYTES", "Workspace", "format_g17"]

_NUM = "{:.17g}"

# Decades the power table covers: the kernel's E0 = floor(log10|x|) in
# [-280, 279], and one _OUTSIDE row beyond each end, where a clipped lookup
# sends every other decade.  The largest table entry, 10**(16 + 281), still
# splits without overflow (times 2**27 + 1).
_E_LO, _E_HI = -281, 280
_E_MIN, _E_MAX = -280, 279
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
# In-range stand-in for a value the kernel does not lay out itself (zero,
# non-finite, out of range): 0.5, whose digits after the first are all 0, so
# that a zero, given the zero row below, needs no digit of its own.
_STAND_IN = 0.5
_STAND_IN_T = -1 - _E_LO  # its decade row
# The first decade row, below any the kernel reaches, holds the text of 0 and -0.
_ZERO_T = 0
# What the decade alone says of a value: the common path, a field edited after
# the common path has laid it out (a fixed-notation mantissa with the point
# inside it, 1 <= E <= 16, or a three-digit exponent, |E| >= 100), or outside
# the table.
_COMMON, _EDITED, _OUTSIDE = 0, 1, 2

# A value's field is its comma, in byte 0, and its text, NUL-padded in bytes
# 1-24, which the kernel fills as six 4-byte slots.  Digits 2 to 17 (four
# 4-digit groups) sit where the head puts them: a head (sign, prefix, first
# digit and point) of at most 4 bytes ends at byte 4, and is followed by the
# digits in 5-20 and the exponent "e±XX" in 21-24, if any; a longer head, as
# in "-0.0001", ends at byte 8, and is followed by the digits in 9-24.  The
# widest text, "-1.2345678901234567e-308", fills all 24 bytes: a three-digit
# exponent moves the head and digits one byte to the left.
FIELD_BYTES = 25
# The six slots are picked from the seven rows [head bytes 0-3, head bytes 4-7,
# four digit groups, exponent bytes 0-3]: rows 0-5 for a long head, 1-6 for a
# short one, whose bytes 0-3 are NUL.
_SLOTS = 6


class _Tables(NamedTuple):
    hi: np.ndarray  # (3, T) by row t = E - _E_LO: 10**(16 - E) rounded to float64, and its two 26-bit halves
    lo: np.ndarray  # 10**(16 - E) - hi, correctly rounded
    kind: np.ndarray  # uint8 by t: _COMMON, _EDITED or _OUTSIDE
    special: np.ndarray  # kind != _COMMON
    head: np.ndarray  # (2, H) uint32 bytes 0-3 and 4-7 at (10 * t + first digit) * 2 + sign
    tail: np.ndarray  # uint32 by t: E's exponent, if any, its first 4 bytes
    groups: np.ndarray  # uint32 text of 0..9999; then the same, trailing zeros NUL


def _word(text: bytes) -> np.uint64:
    """Up to 8 bytes as one uint64, ending at its last byte (NULs first)."""
    return np.frombuffer(text.rjust(8, b"\0"), np.uint64)[0]


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
    general = (e >= 1) & (e <= 16)
    edited = general | (abs(e) >= 100)
    kind = np.where((e < _E_MIN) | (e > _E_MAX), _OUTSIDE, np.where(edited, _EDITED, _COMMON))
    # the head's text by pattern, ending at byte 7: E = -4..-1, then a point
    # after the first digit (E = 0 and scientific), then none (1 <= E <= 16),
    # then the zero row's 0
    patterns = ["0.000{}", "0.00{}", "0.0{}", "0.{}", "{}.", "{}", "0"]
    texts = [[_word((sign + p.format(d)).encode("ascii")) for d in range(10) for sign in ("", "-")]
             for p in patterns]
    pattern = np.where(fixed_neg, e + 4, np.where(general, 5, 4))
    pattern[_ZERO_T] = 6
    head = np.array(texts, np.uint64)[pattern]
    bare = fixed_neg | fixed_pos
    bare[_ZERO_T] = True
    tail = np.array([b"" if no else f"e{x:+03d}".encode("ascii")[:4] for x, no in zip(e.tolist(), bare)], "S4")

    # small dtypes keep every array here at 91 KB or less
    groups = np.empty((2, 10000, 4), np.uint8)
    digits, stripped = groups
    digits[...] = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    digits += ord("0")
    stripped[...] = digits
    for j in range(4):
        stripped[:, j] *= stripped[:, j:].max(axis=1) > ord("0")
    tables = _Tables(
        hi=np.stack((hi, hi_hi, hi_lo)),
        lo=lo,
        kind=kind.astype(np.uint8),
        special=kind != _COMMON,
        head=np.ascontiguousarray(head.ravel().view(np.uint32).reshape(-1, 2).T),
        tail=tail.view(np.uint32),
        groups=groups.view(np.uint32).ravel(),
    )
    for value in tables:
        value.flags.writeable = False  # shared by every caller through the cache
    return tables


# Rows of 8 bytes per float in a Workspace.  Each pass of the kernel reads
# and writes whole rows, named where they are used; a row is reused once
# what it held is dead.
_ROWS = 8


# A format_g17 call's bytes per float beyond its Workspace: the index arrays it
# builds over the values the common path sets aside, when every float of the
# call is one.  Under tracemalloc in the CSV writer, a file of such values
# against one of random values, zeros, non-finite values and decades outside
# the table need up to 77 (a 2,500-value vector of zeros); values of 10 or
# more, or with a three-digit exponent, whose fields are edited decade by
# decade, up to 50.
INDEX_BYTES = 80


class Workspace:
    """Scratch space for format_g17 calls over at most `size` floats.

    A writer allocates it once and passes it to every call, so the kernel's
    passes run over the same few contiguous buffers: _ROWS rows of one
    8-byte word per float and one boolean mask, 65 bytes per float.
    """

    FLOAT_BYTES = 8 * _ROWS + 1

    def __init__(self, size: int) -> None:
        self.size = size
        self._words = np.empty(_ROWS * size, np.uint64)
        self._mask = np.empty(size, bool)

    def _rows(self, m: int):
        """(_ROWS, m) rows, each contiguous and the next one adjacent, and an (m,) mask."""
        if m > self.size:
            raise ValueError(f"a workspace for {self.size} floats cannot format {m}")
        return self._words[: _ROWS * m].reshape(_ROWS, m), self._mask[:m]


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
    tables.hi.take(t, axis=1, out=f[4:7], mode="clip")  # hi, hi_hi, hi_lo
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


def format_g17(values: np.ndarray, fields: np.ndarray, workspace: Workspace | None = None) -> int:
    """Lay out "{:.17g}".format(v) for each float v of a 2-D array, as CSV fields.

    `fields`, uint8 of shape values.shape + (k,) with k >= FIELD_BYTES and
    each field's bytes adjacent, receives one NUL-padded text per value in
    bytes 1 to FIELD_BYTES - 1; byte 0 is left for the comma, which the
    caller lays once for all the blocks of a file, and so are the caller's
    other bytes.  Returns how many values were formatted by Python:
    non-finite, of a decade outside [-280, 279], within _TIE_MARGIN of a
    rounding tie, or whose D left [1e16, 1e17).

    The kernel reads the floats column by column as one contiguous run (no
    copy when `values` is the transpose of a C-ordered array).  Every pass
    is a 1-D operation over the rows of `workspace` (a new one when None);
    the finished slots are copied into `fields` at the end.
    """
    n, ncol = values.shape
    m = values.size
    rows, mask = (workspace or Workspace(m))._rows(m)
    f, i = rows.view(np.float64), rows.view(np.int64)
    tables = _tables()
    v = np.ascontiguousarray(values.T).reshape(m)

    # the decade row t = floor(log10 a) - _E_LO; what it says sets aside the rare values
    a, t = f[0], i[1]
    np.abs(v, out=a)
    x = f[2]
    with np.errstate(divide="ignore", invalid="ignore"):  # log10(0), and the casts of inf and nan
        np.log10(a, out=x)
        x -= _E_LO
        np.copyto(t, x, casting="unsafe")  # truncation is floor where t >= 0
    tables.special.take(t, out=mask, mode="clip")  # a t off the table is clipped to an _OUTSIDE end
    special = np.flatnonzero(mask)
    kind = tables.kind.take(t[special], mode="clip")
    odd = special[kind == _OUTSIDE]  # zero, non-finite or out of range
    edited = special[kind == _EDITED]
    decade = (t[edited] + _E_LO).astype(np.int16)  # their E, held to the end in two bytes each
    a[odd] = _STAND_IN
    t[odd] = _STAND_IN_T
    d, frac = _scaled(tables, a, t, rows)
    off = i[4]  # D outside [1e16, 1e17]: D - (1e16 + 1) >= 1e17 - 1e16 - 1 unsigned
    np.subtract(d, 10**16 + 1, out=off)
    np.greater_equal(off.view(np.uint64), 10**17 - 10**16 - 1, out=mask)
    off = np.flatnonzero(mask)
    if off.size:  # but D = 1e16 with a non-negative fraction is exact: Python takes the rest
        frac[off[(d[off] != 10**16) | (frac[off] < 0)]] = 0.5
    np.greater(np.abs(frac, out=f[4]), 0.5 - _TIE_MARGIN, out=mask)
    odd_zero = v[odd] == 0
    zero = odd[odd_zero]
    python = np.concatenate((np.flatnonzero(mask), odd[~odd_zero]))
    t[zero] = _ZERO_T

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
    # The last group drops its trailing zeros through the second half of the
    # group table.  When it is 0000, so is its text, and the group before it
    # drops its own; a group is full only when a later group is not 0000.
    np.equal(g[3], 0, out=mask)
    g[3] += 10000
    short = np.flatnonzero(mask)
    if short.size:
        gz = g[:3, short]
        later = np.logical_and.accumulate(gz[::-1] == 0, axis=0)[::-1]  # [j]: groups j..2 are 0000
        gz[:2] += 10000 * later[1:]
        gz[2] += 10000
        g[:3, short] = gz
        single = short[later[0]]  # D = lead * 1e16: no digit follows the first

    # the head from (E, first digit, sign), the exponent from E, the digits from the
    # groups: seven 4-byte rows x, from which each field's six slots are picked
    index, sign = i[3], i[0]  # over low and q
    np.right_shift(v.view(np.int64), 63, out=sign)  # -1 where the sign bit is set
    np.multiply(t, 10, out=index)
    index += lead
    index *= 2
    index -= sign
    u = rows.view(np.uint32).reshape(2 * _ROWS, m)
    x, shifted, slots = u[:7], u[7], u[8 : 8 + _SLOTS]
    tables.head.take(index, axis=1, out=x[:2], mode="clip")  # over sign
    if short.size and single.size:  # a bare point ends the head: drop it
        text = x[1, single].view(np.uint8).reshape(-1, 4)
        text[text[:, 3] == ord("."), 3] = 0
        x[1, single] = text.view(np.uint32).ravel()
    tables.tail.take(t, out=x[6], mode="clip")  # over index
    tables.groups.take(g, out=x[2:6], mode="clip")  # over t and lead
    np.equal(x[0], 0, out=shifted)  # a head of at most 4 bytes
    # slot s of a field is x[s + shifted]: x[s] + shifted * (x[s + 1] - x[s]), in uint32
    # arithmetic, which wraps around and back
    np.subtract(x[1:], x[:-1], out=slots)  # over g
    np.multiply(slots, shifted, out=slots)
    slots += x[:-1]

    slots_at = fields[..., 1:FIELD_BYTES].view(np.uint32)
    for j in range(ncol):  # one column at a time: the copy reads contiguous runs
        slots_at[:, j] = slots[:, j * n : (j + 1) * n].T
    if edited.size:
        # the decades present, ascending; np.unique would import numpy.ma (16 ms, 1 MB held)
        for e in (np.flatnonzero(np.bincount(decade - _E_MIN)) + _E_MIN).tolist():
            at = edited[decade == e]
            row, col = at % n, at // n
            text = fields[row, col, 1:FIELD_BYTES]
            if 1 <= e <= 16:  # the integer part is the first E + 1 digits
                digits = text[:, 4:21]  # digits 2 to 17, and the NUL after them
                whole = digits[:, :e]
                whole[whole == 0] = ord("0")  # zeros the trailing-zero rule dropped
                digits[:, e + 1 :] = digits[:, e:-1]  # the fraction, one byte to the right
                digits[:, e] = np.where(digits[:, e + 1 :].any(axis=1), ord("."), 0)
            else:  # the head and digits one byte to the left, and the whole exponent
                text[:, :19] = text[:, 1:20]
                text[:, 19:] = np.frombuffer(f"e{e:+04d}".encode("ascii"), np.uint8)
            fields[row, col, 1:FIELD_BYTES] = text
    for k in python:  # one index at a time, not a list of them all
        text = _NUM.format(float(v[k])).encode("ascii").ljust(FIELD_BYTES - 1, b"\0")
        fields[k % n, k // n, 1:FIELD_BYTES] = np.frombuffer(text, np.uint8)
    return python.size

