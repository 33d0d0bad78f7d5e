"""The two unitarily equivalent signal spaces and the Zak transform between them.

Time side: complex sequences of period MN, stored as one fundamental period
with modular indexing.  Delay-Doppler side: M x N arrays whose extension
beyond the fundamental domain picks up the quasi-periodic phase
exp(j*2*pi*n*l/N) under delay-period shifts.  The discrete Zak transform

    X[k, l] = (1/sqrt(N)) * sum_p x[k + p*M] * exp(-j*2*pi*p*l/N)

is the unitary map between them; its inverse reads

    x[n] = (1/sqrt(N)) * sum_q X[n mod M, q] * exp(j*2*pi*q*floor(n/M)/N).
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
]


def _as_complex_vector(samples, length: int) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.complex128)
    if arr.shape != (length,):
        raise ConfigurationError(f"expected {length} samples, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PeriodicSequence:
    """One fundamental period of an MN-periodic complex sequence."""

    mod: Modulus
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _as_complex_vector(self.samples, self.mod.MN))

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
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != (self.mod.M, self.mod.N):
            raise ConfigurationError(
                f"expected shape {(self.mod.M, self.mod.N)}, got {arr.shape}"
            )
        object.__setattr__(self, "values", arr)


def inner(x: PeriodicSequence, y: PeriodicSequence) -> complex:
    """<x, y> = sum_n x[n] * conj(y[n]) over one period."""
    same_modulus(x, y)
    return complex(np.vdot(y.samples, x.samples))


def inner_dd(X: QuasiPeriodicArray, Y: QuasiPeriodicArray) -> complex:
    """Delay-Doppler inner product over the fundamental M x N domain."""
    same_modulus(X, Y)
    return complex(np.vdot(Y.values, X.values))


def dzt(x: PeriodicSequence) -> QuasiPeriodicArray:
    """Discrete Zak transform, one length-N FFT per delay row."""
    mod = x.mod
    # x[k + p*M] lives at reshaped[p, k]
    reshaped = x.samples.reshape(mod.N, mod.M)
    values = np.fft.fft(reshaped, axis=0).T / np.sqrt(mod.N)
    return QuasiPeriodicArray(mod, values)


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
# Bytes per point of one fast-engine block: 16 for its complex values and 112
# for the int64 index and phase arrays its query holds at once (the tracemalloc
# peak of a row block is at most 105 per point, on a two-label chain).
_ENGINE_POINT_BYTES = 128
# Bytes of complex_to_csv that do not grow with the block: the open file's
# buffer and the array headers (7.3 to 8.1 KB under tracemalloc, CPython 3.11).
_CSV_FIXED_BYTES = 16384


def _block_rows(nk: int, nl: int) -> int:
    """Whole rows of an nk x nl grid in one block: about _CSV_BLOCK_ROWS points, at least 1, at most nk."""
    return max(1, min(nk, _CSV_BLOCK_ROWS // max(nl, 1)))


def _csv_layout(shape: tuple) -> tuple[int, int, int, int, int]:
    """complex_to_csv's buffers for an array of `shape`: floats per line, columns,
    rows per block, uint64 words per index, and words per line."""
    nfloat, cols = (2, 1) if len(shape) == 1 else (3, shape[1])
    iw = (len(str(max(max(shape, default=0) - 1, 0))) + 8) // 8  # "i," NUL padded
    return nfloat, cols, _block_rows(shape[0], cols), iw, len(shape) * iw + nfloat * FIELD_BYTES // 8


def _block_bytes(shape: tuple, csv: bool = True) -> int:
    """Bytes one streamed block of a surface of `shape` holds: the engine's block and,
    with `csv`, what complex_to_csv allocates for it: the index words, and per
    line its text twice (laid out, and without NULs), its floats and their
    floatfmt.Workspace: 446 bytes per line of a grid of under 10^7 rows, plus
    _CSV_FIXED_BYTES."""
    nfloat, cols, rows, iw, width = _csv_layout(shape)
    need = _ENGINE_POINT_BYTES * rows * cols
    if csv:
        need += _CSV_FIXED_BYTES + 8 * iw * max(shape)
        need += rows * cols * (16 * width + nfloat * (8 + Workspace.FLOAT_BYTES))
    return need


def _index_words(count: int, words: int) -> np.ndarray:
    """The text "i," for i in range(count), NUL padded to `words` uint64 words."""
    text = np.array([f"{i}," for i in range(count)], dtype=f"S{8 * words}")
    return text.view(np.uint64).reshape(count, words)


def complex_to_csv(values, path, shape: tuple | None = None) -> int:
    """Write a complex vector or matrix as CSV, one block of whole rows at a time.

    `values` is the array, or, with `shape` given, an iterable of the
    consecutive row blocks (for a vector, slices) of an array of that shape;
    an array is its own single block.  The buffers hold _block_rows(shape)
    rows (a vector's rows are its values), so a block from
    ambiguity.FastEngine.blocks() is formatted as it arrives, in one pass;
    a longer block, such as an array passed whole, is cut into views of
    that many rows.  A pass copies the floats column by column (re, im and,
    for a matrix, abs) into one contiguous run, which one
    floatfmt.format_g17 call formats.  Each line is laid out as NUL-padded
    words (indices, then one floatfmt.FIELD_BYTES field per float) in a
    bytearray, and one bytearray.translate of the whole buffer drops the
    NULs; a short pass first sets its unused lines to NUL, so that
    translate is the only copy of the text.  The buffers are allocated once
    per file.  The abs column of a matrix is np.hypot(re, im), the same libm
    hypot as Python's abs(complex) (np.abs can differ in the last digit).
    Returns how many floats were formatted by Python rather than by the
    vectorised kernel.

    A (23,29) full-grid image, 444,889 lines in 4002-line blocks, takes
    about 0.21 s: 0.47 us per line on one core of a 2-vCPU x86-64 machine.
    """
    if shape is None:
        values = np.asarray(values)
        shape, values = values.shape, (values,)
    ndim = len(shape)
    nfloat, cols, rows, iw, width = _csv_layout(shape)
    size = rows * cols  # lines in the buffers
    index = _index_words(max(shape, default=0), iw)
    text = bytearray(8 * size * width)
    line = np.frombuffer(text, np.uint64).reshape(size, width)
    grid = line.reshape(rows, cols, width)
    fields = line[:, ndim * iw :].reshape(size, nfloat, FIELD_BYTES // 8)
    floats = np.empty(nfloat * size)
    workspace = Workspace(nfloat * size)
    separators = "," * (nfloat - 1) + "\n"
    python = 0
    start = 0  # the row of the next pass
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER[ndim].encode("ascii") + b"\n")
        for block in values:
            block = np.asarray(block, dtype=np.complex128).reshape(len(block), cols)
            for cut in range(0, block.shape[0], rows):
                chunk = block[cut : cut + rows]
                r = chunk.shape[0]
                n = r * cols
                line[n:] = 0  # unused lines of a short pass, dropped with the other NULs
                grid[:r, :, :iw] = index[start : start + r, None]
                if ndim == 2:  # every pass starts a row; a short one may have cleared the l column
                    grid[:r, :, iw : 2 * iw] = index[:cols]
                start += r
                columns = floats[: nfloat * n].reshape(nfloat, r, cols)
                np.copyto(columns[0], chunk.real)
                np.copyto(columns[1], chunk.imag)
                if ndim == 2:
                    with np.errstate(invalid="ignore", over="ignore"):  # non-finite values
                        np.hypot(columns[0], columns[1], out=columns[2])
                python += format_g17(columns.reshape(nfloat, n).T, fields[:n], separators, workspace)
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
