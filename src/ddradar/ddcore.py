"""The two unitarily equivalent signal spaces and the Zak transform between them.

Time side: complex sequences of period MN, stored as one fundamental period
with modular indexing.  Delay-Doppler side: M x N arrays whose extension
beyond the fundamental domain picks up the quasi-periodic phase
exp(j*2*pi*n*l/N) under delay-period shifts.  The discrete Zak transform

    X[k, l] = (1/sqrt(N)) * sum_p x[k + p*M] * exp(-j*2*pi*p*l/N)

is the unitary map between them; its inverse reads

    x[n] = (1/sqrt(N)) * sum_q X[n mod M, q] * exp(j*2*pi*q*floor(n/M)/N).

Both are one case of the Zak transform of period P, for any P that divides
MN, which `zak` computes: with R = MN/P,

    Z[r, m] = (1/sqrt(R)) * sum_p x[r + p*P] * exp(-j*2*pi*m*p/R).

P = M gives X (`dzt`), and the fast ambiguity engine's table of a pulsone
reference; P = 1 gives FFT(x)/sqrt(MN), its table of a tone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .floatfmt import FIELD_BYTES, Workspace, format_g17
from .modmath import Modulus, same_modulus

__all__ = [
    "PeriodicSequence",
    "QuasiPeriodicArray",
    "complex_from_csv",
    "complex_to_csv",
    "dzt",
    "idzt",
    "inner",
    "inner_dd",
    "sequence_from_csv",
    "sequence_to_csv",
    "zak",
]


def _complex_array(values, shape: tuple) -> np.ndarray:
    """`values` as a complex128 array, refused with ConfigurationError unless of `shape`."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ConfigurationError(f"expected shape {shape}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class PeriodicSequence:
    """One fundamental period of an MN-periodic complex sequence."""

    mod: Modulus
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _complex_array(self.samples, (self.mod.MN,)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))


@dataclass(frozen=True)
class QuasiPeriodicArray:
    """M x N delay-Doppler array: the fundamental domain only.

    Beyond it the array is quasi-periodic, X[k + n*M, l + m*N] =
    exp(j*2*pi*n*l/N) * X[k, l]; that extension is never stored.
    """

    mod: Modulus
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _complex_array(self.values, (self.mod.M, self.mod.N)))


def inner(x: PeriodicSequence, y: PeriodicSequence) -> complex:
    """<x, y> = sum_n x[n] * conj(y[n]) over one period."""
    same_modulus(x, y)
    return complex(np.vdot(y.samples, x.samples))


def inner_dd(X: QuasiPeriodicArray, Y: QuasiPeriodicArray) -> complex:
    """Delay-Doppler inner product over the fundamental M x N domain."""
    same_modulus(X, Y)
    return complex(np.vdot(Y.values, X.values))


def zak(x: PeriodicSequence, period: int) -> np.ndarray:
    """The Zak transform of x of period P, for any P that divides MN: with R = MN/P,
    the C-contiguous P x R table Z[r, m] = R**-0.5 * sum_p x[r + p*P] * exp(-j*2*pi*m*p/R),
    one length-R FFT per row.  P = M is dzt's delay-Doppler table; P = 1 is the
    tone table FFT(x)/sqrt(MN).  A P that does not divide MN is a ConfigurationError.
    Each row is within 2*u*log2(MN) of the exact sum, relative in the 2-norm,
    u = 2**-53 (a tier-1 test against a long-double oracle)."""
    mn = x.mod.MN
    if period < 1 or mn % period:
        raise ConfigurationError(f"Zak period {period} does not divide MN = {mn}")
    length = mn // period
    # x[r + p*P] lives at [r, p] of the transposed reshape; the FFT of that view is
    # F-ordered for P > 1, and a table lookup (take) on it would copy it every time
    return np.ascontiguousarray(np.fft.fft(x.samples.reshape(length, period).T, axis=1) / np.sqrt(length))


def dzt(x: PeriodicSequence) -> QuasiPeriodicArray:
    """Discrete Zak transform: zak(x, M)."""
    return QuasiPeriodicArray(x.mod, zak(x, x.mod.M))


def idzt(X: QuasiPeriodicArray) -> PeriodicSequence:
    """Inverse Zak transform, one length-N inverse FFT per delay row."""
    mod = X.mod
    # x[k + p*M] = (1/sqrt(N)) sum_q X[k, q] exp(j*2*pi*q*p/N) = sqrt(N)*ifft_q(X[k,:])[p]
    reshaped = np.sqrt(mod.N) * np.fft.ifft(X.values, axis=1)  # [k, p]
    return PeriodicSequence(mod, reshaped.T.reshape(mod.MN))


# ---------------------------------------------------------------------------
# CSV serialisation of a complex vector (header n,re,im) or matrix (header
# k,l,re,im,abs), one line per value.  Floats are printed as "{:.17g}" would,
# enough to round-trip float64, by the vectorised formatter in floatfmt.

_CSV_HEADER = {1: "n,re,im", 2: "k,l,re,im,abs"}
# Grid points (CSV lines) in one block, from the fast engine that forms them
# to the writer that formats them: the one block size of a streamed surface.
_CSV_BLOCK_ROWS = 4096


def _block_rows(nk: int, nl: int) -> int:
    """Whole rows of an nk x nl grid in one block: about _CSV_BLOCK_ROWS points, at least 1, at most nk."""
    return max(1, min(nk, _CSV_BLOCK_ROWS // max(nl, 1)))


def _csv_layout(shape: tuple, table_size: int = 0) -> tuple[int, int, int, int, tuple, int]:
    """complex_to_csv's buffers for an array of `shape`: floats per line, floats
    formatted per line, columns, rows per block, the bytes of each index's slot,
    and bytes per line.  A line is "k,l" or "n", one floatfmt field per float
    (its comma and its text, as wide as the widest) and a newline.  A matrix
    whose magnitudes come from a table of `table_size` entries, fewer than its
    points, formats one float fewer: its abs fields are formatted once per entry
    and gathered.  ambiguity._csv_block counts these buffers in the memory budget,
    and ambiguity._written a file's bytes from its lines."""
    nfloat, cols = (2, 1) if len(shape) == 1 else (3, shape[1])
    # the widest index, with a comma after each but the last
    slots = tuple(len(str(max(size - 1, 0))) + (axis < len(shape) - 1) for axis, size in enumerate(shape))
    formatted = nfloat - (0 < table_size < shape[0] * cols)
    return nfloat, formatted, cols, _block_rows(shape[0], cols), slots, sum(slots) + nfloat * FIELD_BYTES + 1


def _index_texts(count: int, width: int, comma: bool) -> np.ndarray:
    """The texts of the indices 0..count-1 as NUL-padded bytes of `width`, each
    followed by a comma when `comma`: the comma of the d-digit indices goes in
    their byte d, one slice per digit count."""
    texts = np.arange(count).astype(f"S{width}")
    if comma:
        grid = texts.view(np.uint8).reshape(count, width)
        for digits in range(1, width):
            grid[10 ** (digits - 1) if digits > 1 else 0 : 10**digits, digits] = ord(",")
    return texts


def complex_to_csv(values, path, shape: tuple | None = None, mags=None) -> int:
    """Write a complex vector or matrix as CSV, one block of whole rows at a time.

    `values` is the array, or, with `shape` given, an iterable of the
    consecutive row blocks (for a vector, slices) of an array of that shape,
    each a pair (values, entries): the block's values, and None or, as
    ambiguity.FastEngine.blocks() yields them, an int64 array of the block's
    shape holding each point's index into `mags`.  An array is its own
    single block, with entries None.  The buffers hold _block_rows(shape)
    rows (a vector's rows are its values), so a block from
    FastEngine.blocks() is formatted as it arrives, in one pass; a longer
    block, such as an array passed whole, is cut into views of that many
    rows.  A pass copies the floats column by column (re, im and, for a
    matrix, abs) into one contiguous run, which one floatfmt.format_g17 call
    formats.  Each line is laid out as NUL-padded bytes in a bytearray: one
    slot per index, as wide as its widest text ("k," and "l", or "n"), one
    floatfmt.FIELD_BYTES field per float, its comma and then its text, and
    the newline; one bytearray.translate of the whole buffer drops the NULs.
    A short pass first sets its unused lines to NUL, so that translate is
    the only copy of the text.  The buffers are allocated once per file, and
    what is the same in every block, the l slots, commas and newlines, is
    laid on the first pass and again only after a short one.
    The abs column of an array is np.hypot(re, im), the same libm hypot as
    Python's abs(complex) (np.abs can differ in the last digit).  With
    `mags`, the 1-D magnitudes of a table that every block's entries index,
    a point's abs field is that of its entry.  When the table has fewer
    entries than the matrix has points, each entry's field is formatted
    once, before the first block, through the same workspace, and a pass
    gathers its lines' fields and formats only re and im; otherwise a pass
    gathers its points' magnitudes and formats them with re and im.
    Returns how many floats were formatted by Python rather than by the
    vectorised kernel.

    A (23,29) full-grid image, 444,889 lines of 83 bytes in 4002-line blocks,
    takes about 0.12 s as an array, 0.28 us per line, and 0.10 s from engine
    blocks that gather the abs fields of 667 table entries, on one core of a
    2-vCPU x86-64 machine (best of 20 runs).
    """
    if shape is None:
        values = np.asarray(values)
        shape, values = values.shape, ((values, None),)
    ndim = len(shape)
    nfloat, formatted, cols, rows, slots, width = _csv_layout(shape, 0 if mags is None else mags.size)
    size = rows * cols  # lines in the buffers
    text = bytearray(size * width)
    line = np.frombuffer(text, np.uint8).reshape(size, width)
    grid = line.reshape(rows, cols, width)
    at = np.cumsum((0,) + slots).tolist()
    # per index, its texts ("i," but for the last index "i") and its slot in every line
    labels = [_index_texts(count, w, axis < ndim - 1) for axis, (count, w) in enumerate(zip(shape, slots))]
    index = [grid[:, :, s : s + w].view(f"S{w}")[..., 0] for s, w in zip(at, slots)]
    fields = line[:, at[-1] : -1].reshape(size, nfloat, FIELD_BYTES)
    floats = np.empty(formatted * size)
    workspace = Workspace(formatted * size)
    # the abs field of each table entry, in chunks of the workspace, and of each line, as one item each
    table = np.empty((mags.size if formatted < nfloat else 0, 1, FIELD_BYTES), np.uint8)
    table[..., 0] = ord(",")
    python = sum(format_g17(mags[i : i + workspace.size, None], table[i : i + workspace.size], workspace)
                 for i in range(0, len(table), workspace.size))
    table, absfield = (a.view(f"V{FIELD_BYTES}")[:, 0] for a in (table[:, 0], fields[:, -1]))
    start = 0  # the row of the next pass
    laid = 0  # lines whose l slot, commas and newline, the same in every block, are laid
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER[ndim].encode("ascii") + b"\n")
        for block, entries in values:
            block = np.asarray(block, dtype=np.complex128).reshape(len(block), cols)
            for cut in range(0, block.shape[0], rows):
                chunk = block[cut : cut + rows]
                r = chunk.shape[0]
                n = r * cols
                if laid < n:  # first pass, or after a short one
                    if ndim == 2:
                        index[1][:] = labels[1]
                    fields[..., 0] = ord(",")
                    line[:, -1] = ord("\n")
                    laid = size
                if n < laid:  # a short pass: its unused lines, dropped with the other NULs
                    line[n:] = 0
                    laid = n
                index[0][:r] = labels[0][start : start + r, None]
                start += r
                columns = floats[: formatted * n].reshape(formatted, r, cols)
                np.copyto(columns[0], chunk.real)
                np.copyto(columns[1], chunk.imag)
                if formatted < nfloat:
                    absfield[:n] = table[entries[cut : cut + r].ravel()]
                elif mags is not None:  # no fewer entries than points, as on a fundamental
                    # grid: formatting the table's fields first took 13-16% longer a command
                    mags.take(entries[cut : cut + r], out=columns[2], mode="clip")
                elif ndim == 2:
                    with np.errstate(invalid="ignore", over="ignore"):  # non-finite values
                        np.hypot(columns[0], columns[1], out=columns[2])
                python += format_g17(columns.reshape(formatted, n).T, fields[:n, :formatted], workspace)
                fh.write(text.translate(None, b"\0"))
    return python


def complex_from_csv(path, shape: tuple) -> np.ndarray:
    """Read a complex_to_csv file holding an array of the given shape.

    Each line must have the header's field count, integer indices inside
    `shape` and float values, all in ASCII, and no index may repeat, so a
    file with one line per index is read exactly; anything else is a
    ConfigurationError naming the line.
    """
    values = np.zeros(shape, dtype=np.complex128)
    seen = np.zeros(shape, dtype=bool)
    nd = values.ndim
    count = 0
    with open(path, "rb") as fh:
        # a non-ASCII header byte is kept as an escape, so the header differs
        header = fh.readline().decode("ascii", "backslashreplace").strip()
        if header != _CSV_HEADER[nd]:
            raise ConfigurationError(f"bad CSV header for a {nd}-D array: {header!r}")
        nfield = header.count(",") + 1
        for count, line in enumerate(fh, 1):
            try:
                fields = line.decode("ascii").split(",")  # UnicodeDecodeError is a ValueError
                if len(fields) != nfield:
                    raise ValueError(f"{len(fields)} fields, expected {nfield}")
                index = tuple(int(v) for v in fields[:nd])
                if not all(0 <= i < n for i, n in zip(index, shape)):
                    raise ValueError(f"index {index} outside shape {shape}")
                if seen[index]:
                    raise ValueError(f"index {index} repeated")
                values[index] = complex(float(fields[nd]), float(fields[nd + 1]))
            except ValueError as exc:
                raise ConfigurationError(f"{path}, data line {count}: {exc}") from exc
            seen[index] = True
    if count != values.size:
        raise ConfigurationError(f"expected {values.size} rows, got {count}")
    return values


def sequence_to_csv(x: PeriodicSequence, path) -> None:
    complex_to_csv(x.samples, path)


def sequence_from_csv(path, mod: Modulus) -> PeriodicSequence:
    return PeriodicSequence(mod, complex_from_csv(path, (mod.MN,)))
