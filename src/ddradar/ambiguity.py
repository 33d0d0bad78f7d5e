"""Cross-ambiguity surfaces: direct sums, FFT rows, and the fast pulsone engine.

The cross-ambiguity of two unit-norm period-L sequences is

    A_{x,y}[k, l] = sum_n x[n] * conj(y[(n-k) mod L]) * exp(-j*2*pi*l*(n-k)/L).

Two kinds of route live here:

* lag products: with m = n - k, A[k, l] = sum_m S[k, m] * exp(-j*2*pi*l*m/L)
  for S[k, m] = x[(m+k) mod L] * conj(y[m]).  One kernel forms S in blocks
  of rows and reduces each block along m, in one of two ways:
  - direct sums (cross_ambiguity_naive for a modulus-bound pair on either
    grid, cross_ambiguity_array for plain period-L arrays such as coded
    waveforms): S times the table of exp(-j*2*pi*l*m/L), gathered from the
    2L roots of unity.  O(L) per point, the honest O(M^2 N^2) baseline on
    the fundamental grid; memory is the table plus the output.
  - cross_ambiguity_fft: one FFT per row of S, O(L^2 log L) for the full
    grid; memory is the output plus one block.
* fast_pulsone_*: when the reference y is a pulsone, the whole surface
  collapses to a phased lookup into the M x N Zak transform of x
  (ddcore.zak, period M).  Precompute costs O(MN log N); every point
  afterwards is O(1).  A tone exp(j*2*pi*beta*n/MN)/sqrt(MN) is the pulsone
  (0, beta) of the 1 x MN factorisation, whose table is the Zak transform of
  period 1, FFT(x)/sqrt(MN), and the same query reads it.
  FastEngine extends this to y = chain_apply(labels, base): the chain is
  undone on x (symplectic.chain_adjoint), and it folds into one index map G,
  the inverse of the labels' product, and one quadratic phase on the grid,
  Q(K, L) = K*L - k*l for (k, l) = G(K, L), minus AmbiguityRemap(G).form.
  Every modulus-bound waveform is such a y: chirp(alpha, beta, gamma) is
  the tone beta under lfm(alpha), up to a constant phase, and zc(root) the
  tone A under lfm(A), A = -root/2 mod MN.

The fast path is one FastEngine: O(1) point queries, and row blocks of
either grid.  Writing all (MN)^2 points would itself cost O(M^2 N^2) and
defeat the complexity advantage, so a full-grid surface is an explicit
caller decision.  A block is one protocol from the engine to the writers:
the pair (values, entries), a block's complex values and the table entry
each point reads, or None for an array's rows.  An engine's block is two
arrays of its own, which no later block overwrites: the values of the point
query fast_pulsone_query, and the entries of one integer map (_pulsone_map),
which FastEngine.entries and entry_blocks also read alone, with no value
formed.  write_surface streams the blocks into the CSV and PGM
files without holding the complex surface or a magnitude per point (it
gathers them by the entries from the table's), forms values only for a CSV,
and FastEngine.surface stacks the values into one array.
"""

from __future__ import annotations

import functools
import math
import shutil
import warnings
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ddcore import PeriodicSequence, _block_rows, _complex_array, _csv_layout, complex_from_csv, complex_to_csv, zak
from .errors import (
    BadRoot,
    ConfigurationError,
    EmptyChip,
    GridMismatch,
    IndexOutOfRange,
    OverBudget,
)
from .floatfmt import FIELD_BYTES, INDEX_BYTES, Workspace
from .modmath import Modulus, phases_to_complex, quadratic_phase, reduce_mod, same_modulus
from .symplectic import AmbiguityRemap, SL2Element, chain_adjoint

__all__ = [
    "AmbiguitySurface",
    "FastEngine",
    "FastPulsonePrecomp",
    "MEMORY_BUDGET_BYTES",
    "UNIMODULAR_THRESHOLD",
    "check_budget",
    "check_disk",
    "coded_waveform",
    "cross_ambiguity_array",
    "cross_ambiguity_fft",
    "cross_ambiguity_naive",
    "cross_ambiguity_point",
    "fast_pulsone_precompute",
    "fast_pulsone_query",
    "fast_pulsone_surface",
    "moyal_residual",
    "surface_from_csv",
    "surface_to_csv",
    "unimodular_count",
    "write_surface",
    "zc_sequence",
]

# |A| above this counts as unimodular; separates exact-1 support points from
# numerically-zero sidelobes by far more than 150 dB in every tested case.
UNIMODULAR_THRESHOLD = 1.0 - 1e-6

# Grid rows formed at once by the direct and FFT routes: bounds their
# temporaries to 64 rows whatever the grid, while each block is still one GEMM
# or FFT call.  The fast engine's blocks are the CSV writer's, ddcore._block_rows.
_BLOCK_ROWS = 64

# ---------------------------------------------------------------------------
# The memory model: one function per kind of array a route holds, each giving
# its bytes and a name for the refusal.  A command or a library route adds the
# terms of what it holds and passes them to check_budget once, before its first
# allocation; a library route that a command calls checks its own term again.
# Each term is pinned by a tracemalloc test at two sizes (peak <= need < 2 x peak).

# Largest allocation a command or a surface route may make, in bytes.
MEMORY_BUDGET_BYTES = 2**30
# Bytes per MN a command holds in O(MN) arrays: its waveforms, a return, the fast
# table, its magnitudes and its labels' temporaries, and the 2MN roots of unity,
# counted whether or not modmath's cache holds them.  The rule: the largest
# tracemalloc peak per MN of a command run with its writers stubbed and a
# one-point readout region, from a cold roots cache, at (127, 131) and
# (251, 257), rounded up to a multiple of 16.
# That peak is 129.4, simulate, whose readout's crystallization check holds about
# 42, on every line class; waveforms and fast ambiguities hold 80 to 112.  A larger
# region is _readout's.
_MN_BYTES = 144
# Bytes per point of one fast-engine block: 24 for the block its consumer still
# holds while the next forms, its complex values and int64 table entries, and 104
# for the next block's query, which owns its output, and the int64 index and phase
# arrays it holds at once (the tracemalloc peak of the second row block, the first
# held, is at most 121 per point, on a chain whose G gives a 2-D phase at (61, 67)).
_ENGINE_POINT_BYTES = 128
# Bytes per point of one index-only block (FastEngine.entry_blocks) and its gathered
# pixels: the int64 terms and index arrays of its map, and the block its consumer
# still holds while the next forms (the tracemalloc peak of the second such block, the
# first held, is at most 72.5 per block point, a G with a 2-D phase on a full
# grid of one-row blocks, whose columns' k and l shares are each as large as a block,
# at (61, 67) and (127, 131); rounded up to a multiple of 16).  A value block follows
# the index pass, so it is charged the rest of _ENGINE_POINT_BYTES.
_INDEX_POINT_BYTES = 80


def _check_budget(need: int, what: str) -> None:
    """Refuse with OverBudget when `what` needs more than MEMORY_BUDGET_BYTES bytes."""
    if need > MEMORY_BUDGET_BYTES:
        raise OverBudget(f"{what} would take {need:,} bytes, over the {MEMORY_BUDGET_BYTES:,}-byte budget")


def check_budget(*terms: tuple[int, str]) -> None:
    """Refuse with OverBudget when the terms a route holds at once, (bytes, what)
    pairs from the functions below, add up to more than the budget."""
    _check_budget(sum(need for need, _ in terms), ", ".join(what for _, what in terms))


def check_disk(out_dir, csv: tuple, pgm: tuple | None) -> None:
    """Refuse with OverBudget when a command's files, their _written term, need more
    bytes than are free on the disk of `out_dir`, read at its nearest existing ancestor,
    and with NotADirectoryError when that ancestor is not a directory: `out_dir` is, or
    lies under, a file or a dangling symlink.  Commands call it once, after
    check_budget and before --out exists."""
    need, what = _written(csv, pgm)
    path = Path(out_dir).absolute()
    while not (path.exists() or path.is_symlink()):
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(f"--out {out_dir}: {path} is not a directory")
    free = shutil.disk_usage(path).free
    if need > free:
        raise OverBudget(f"{what} would take {need:,} bytes on disk, with {free:,} bytes free")


def _written(csv: tuple, pgm: tuple | None) -> tuple[int, str]:
    """The bytes a command writes, at most: its one CSV, of an array of shape `csv`,
    every line as wide as the writer lays it out (ddcore._csv_layout: the widest
    index texts, a floatfmt.FIELD_BYTES field per float, as wide as the widest
    float text, and the newline), the PGM of a `pgm` grid if it writes one, 1 byte
    a point, and 64 bytes for each file's header.  papr.txt and targets.json are
    not counted."""
    line = _csv_layout(csv)[-1]
    need, what = 64 + math.prod(csv) * line, f"a CSV of {' x '.join(map(str, csv))} values"
    if pgm is not None:
        need, what = need + 64 + math.prod(pgm), f"{what} and a {pgm[0]} x {pgm[1]} PGM"
    return need, what


def _mn_arrays(mod: Modulus) -> tuple[int, str]:
    """A command's O(MN) arrays."""
    return _MN_BYTES * mod.MN, f"O(MN) arrays over MN = {mod.MN}"


def _readout(points: int, mn: int) -> tuple[int, str]:
    """radarsim.readout_targets on a region of `points` points, and the targets.json of
    its hits: 416 bytes a point, for when every point is a hit.  The region's table
    entries (FastEngine.entries) and their magnitudes take at most 83 under
    tracemalloc, its crystallization check included; the hits' values, formed for
    them alone, held while the image is written, and then their JSON document take
    at most 393.  The region is read in one query, not in blocks: the hits, not the
    query, set the term.  At most MN points are read: a larger region aliases and
    is refused first."""
    return 416 * min(points, mn), f"a readout of {points} region points"


def _streamed_pgm(nk: int, nl: int, table_size: int = 0) -> tuple[int, str]:
    """write_surface's PGM of an nk x nl surface: the open file's 8 KiB buffer and one
    block, an array's float64 magnitudes and uint8 pixels, 9 bytes a point, within 16,
    or a fast engine's index-only block (_INDEX_POINT_BYTES).  A fast engine's table of
    `table_size` entries adds 9 bytes an entry: a copy of its magnitudes, which _pixels
    overwrites, and each entry's pixel.  (The magnitudes themselves, 8 bytes an entry,
    are held by the engine from its construction, among the O(MN) arrays.)  An
    engine's value blocks, formed only for a CSV, are _value_block."""
    point = _INDEX_POINT_BYTES if table_size else 16
    return 8192 + point * _block_rows(nk, nl) * nl + 9 * table_size, f"a streamed {nk} x {nl} PGM"


def _value_block(nk: int, nl: int) -> tuple[int, str]:
    """The FastEngine.blocks pairs of an nk x nl grid, which a fast engine forms for a
    CSV after the index-only pass of its PGM (_streamed_pgm): the pair the writer holds
    and the next one's query, its new output and temporaries, _ENGINE_POINT_BYTES a
    block point, of which that pass is charged _INDEX_POINT_BYTES."""
    return (_ENGINE_POINT_BYTES - _INDEX_POINT_BYTES) * _block_rows(nk, nl) * nl, f"{nk} x {nl} value blocks"


def _csv_block(shape: tuple, table_size: int = 0) -> tuple[int, str]:
    """ddcore.complex_to_csv's buffers for an array of `shape`, a grid or a vector:
    each index's texts and the int64 indices they are made from, and per line of a
    block its text twice (laid out, and without NULs), its floats and their
    format_g17 bytes (its floatfmt.Workspace, and floatfmt.INDEX_BYTES for the index
    arrays over the values its common path sets aside: zeros, non-finite values,
    decades outside its table, and values of 10 or more or with three-digit
    exponents, whose fields it edits in place), plus 16 KiB that does not grow with
    the block: the open file's buffer and the array headers (7.3 to 8.1 KB under
    tracemalloc, CPython 3.11).  A fast engine's grid with more points than its
    table's `table_size` entries formats two floats a line, re and im, and gathers
    the abs fields by each block's entries from one per table entry, FIELD_BYTES
    each, through a temporary of FIELD_BYTES a line (ddcore._csv_layout: 83-byte
    lines and 25-byte fields at (19,23)).  The entries themselves are the engine
    block's (_value_block)."""
    nfloat, formatted, cols, rows, slots, width = _csv_layout(shape, table_size)
    line = 2 * width + FIELD_BYTES * (nfloat - formatted)  # the text twice, and a gathered abs field
    need = 16384 + sum((w + 8) * size for w, size in zip(slots, shape)) + FIELD_BYTES * table_size * (nfloat - formatted)
    need += rows * cols * (line + formatted * (8 + Workspace.FLOAT_BYTES + INDEX_BYTES))
    return need, f"a CSV of {' x '.join(map(str, shape))} values"


def _lag_rows(L: int, nk: int, nl: int) -> tuple[int, str]:
    """_lag_product_rows, all cross_ambiguity_fft holds (one FFT per row): the complex
    nk x nl output, one block of lag products and its reduction, and 16 rows of
    period-L temporaries: tracemalloc shows 8 (x twice, conj(y)), and the other 8
    leave room for a numpy that holds more."""
    return 16 * (nk * nl + min(nk, _BLOCK_ROWS) * (L + nl) + 16 * L), f"{nk} x {nl} lag products of period {L}"


def _direct_sums(L: int, nk: int, nl: int) -> tuple[int, str]:
    """A direct-sum surface of nk x nl points and period L: its L x nl phase table
    with the int64 index temporaries (32 bytes an entry), and the lag-product rows."""
    return 32 * L * nl + _lag_rows(L, nk, nl)[0], f"{nk} x {nl} direct sums of period {L}"


def _surface(nk: int, nl: int) -> tuple[int, str]:
    """FastEngine.surface: the complex nk x nl surface and one engine block."""
    return 16 * nk * nl + _ENGINE_POINT_BYTES * _block_rows(nk, nl) * nl, f"a {nk} x {nl} fast surface"


def _prediction(mn: int) -> tuple[int, str]:
    """radarsim.predicted_image: the complex output, a gathered copy of the
    self-ambiguity that each tap's product overwrites, and 16 rows of index and
    phase temporaries: tracemalloc shows 8, and the other 8 leave room for a numpy
    that holds more."""
    return 32 * mn * (mn + 16), f"a {mn} x {mn} predicted image"


@dataclass(frozen=True)
class AmbiguitySurface:
    """Ambiguity values on either the full MN x MN grid or the M x N fundamental one."""

    mod: Modulus
    grid: str  # "full" | "fundamental"
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _complex_array(self.values, _grid_shape(self.mod, self.grid)))

    def points(self, K, L) -> np.ndarray:
        """The values at the grid points (K, L), integer arrays in 0..MN-1 that broadcast together.

        Read like FastEngine.points; only a full-grid surface holds every
        point (GridMismatch otherwise).
        """
        if self.grid != "full":
            raise GridMismatch("readout needs a full-grid image")
        return self.values[K, L]


def _grid_shape(mod: Modulus, grid: str) -> tuple[int, int]:
    if grid == "full":
        return mod.MN, mod.MN
    if grid == "fundamental":
        return mod.M, mod.N
    raise ConfigurationError(f"unknown grid kind {grid!r}")


def _warn_if_not_unit(x: PeriodicSequence, name: str) -> None:
    nrm = x.norm()
    if abs(nrm - 1.0) > 1e-9:
        warnings.warn(
            f"{name} has norm {nrm:.6g}; ambiguity values assume unit-norm inputs",
            RuntimeWarning,
            stacklevel=3,
        )


def cross_ambiguity_point(x: PeriodicSequence, y: PeriodicSequence, k: int, l: int) -> complex:
    """Single ambiguity value straight from the defining sum, O(MN)."""
    same_modulus(x, y)
    mn = x.mod.MN
    offsets = (np.arange(mn, dtype=np.int64) - k % mn) % mn  # k, l any integers: reduced first
    phases = phases_to_complex(-2 * (l % mn) * offsets, mn)  # l % mn, offsets < MN: below 2*MN**2 < 2**63
    return complex(np.sum(x.samples * np.conj(y.samples[offsets]) * phases))


def _lag_product_rows(xa: np.ndarray, ya: np.ndarray, nk: int, nl: int, reduce) -> np.ndarray:
    """Rows k < nk of reduce(S) for the lag products S[k, m] = x[(m + k) mod L] * conj(y[m]).

    S is formed _BLOCK_ROWS rows at a time, each block reduced along m straight
    into one preallocated (nk x nl) output; x is read through a sliding window
    over two periods, so no index matrix is built.
    """
    L = xa.shape[0]
    shifted = sliding_window_view(np.concatenate((xa, xa)), L)[:nk]  # [k, m] -> x[(m + k) mod L]
    yc = np.conj(ya)
    out = np.empty((nk, nl), dtype=np.complex128)
    for start in range(0, nk, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        out[rows] = reduce(shifted[rows] * yc)
    return out


def _direct_rows(xa: np.ndarray, ya: np.ndarray, nk: int, nl: int) -> np.ndarray:
    """Direct-sum surface rows k < nk, columns l < nl, of two period-L arrays.

    S @ E, with E[m, l] = exp(-j*2*pi*l*m/L), the phase index -2*l*m of period L
    gathered by modmath.phases_to_complex.
    Refused with OverBudget when its memory (_direct_sums) is over the budget.
    """
    L = xa.shape[0]
    check_budget(_direct_sums(L, nk, nl))
    # |-2*m*l| < 2*L*nl, which the _direct_sums term holds far below 2**63 (32 bytes an entry)
    table = phases_to_complex(-2 * np.outer(np.arange(L), np.arange(nl)), L)
    return _lag_product_rows(xa, ya, nk, nl, lambda s: s @ table)


def cross_ambiguity_array(xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """Full L x L ambiguity surface of two plain period-L arrays, by direct sums.

    Serves coded waveforms whose period is not a product of two primes.
    """
    xa = np.asarray(xa, dtype=np.complex128)
    ya = np.asarray(ya, dtype=np.complex128)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ConfigurationError(f"need equal-length vectors, got {xa.shape} and {ya.shape}")
    return _direct_rows(xa, ya, xa.shape[0], xa.shape[0])


def cross_ambiguity_naive(
    x: PeriodicSequence,
    y: PeriodicSequence,
    grid: str = "full",
    warn_nonunit: bool = True,
) -> AmbiguitySurface:
    """Surface from the defining sums; the oracle all fast paths must match.

    O(MN) work per grid point: O(M^2 N^2) on the fundamental grid, the coded
    waveform baseline cost.  `warn_nonunit=False` silences the unit-norm
    warning for callers like image formation where the first argument is a
    raw channel return.
    """
    same_modulus(x, y)
    if warn_nonunit:
        _warn_if_not_unit(x, "x")
        _warn_if_not_unit(y, "y")
    nk, nl = _grid_shape(x.mod, grid)
    return AmbiguitySurface(x.mod, grid, _direct_rows(x.samples, y.samples, nk, nl))


def cross_ambiguity_fft(x: PeriodicSequence, y: PeriodicSequence) -> AmbiguitySurface:
    """Full-grid surface, one length-MN FFT per lag-product row: A[k, :] = FFT_m(S[k, m]).

    On unit-norm inputs each point is within 2*u*log2(MN) of the exact sum in
    absolute error, u = 2**-53 (a tier-1 test against a long-double oracle).
    """
    same_modulus(x, y)
    mn = x.mod.MN
    check_budget(_lag_rows(mn, mn, mn))
    rows = _lag_product_rows(x.samples, y.samples, mn, mn, lambda s: np.fft.fft(s, axis=1))
    return AmbiguitySurface(x.mod, "full", rows)


@dataclass(frozen=True)
class FastPulsonePrecomp:
    """The table of x against the pulsone reference (k0, l0): rowfft = ddcore.zak(x, P).

    P is the reference's delay period, M for the pulsone of the M x N grid
    and 1 for a tone, and rowfft is P x R with R = MN/P.  Any ambiguity point
    is one phased table entry.
    """

    mod: Modulus
    k0: int
    l0: int
    rowfft: np.ndarray


def fast_pulsone_precompute(
    x: PeriodicSequence, k0: int, l0: int, period: int | None = None
) -> FastPulsonePrecomp:
    """O(MN log MN) precompute: the Zak transform of x of period P, ddcore.zak.

    `period` is the delay period P of the reference, M (the default) or 1 for
    the tone l0; it must divide MN, with 0 <= k0 < P and 0 <= l0 < MN/P.
    """
    table = zak(x, x.mod.M if period is None else period)
    period, length = table.shape
    if not (0 <= k0 < period and 0 <= l0 < length):
        raise IndexOutOfRange(f"pulsone indices ({k0}, {l0}) outside {period} x {length}")
    return FastPulsonePrecomp(x.mod, k0, l0, table)


def _pulsone_map(pre: FastPulsonePrecomp, k, l, phase=None):
    """The integer half of fast_pulsone_query: (entries, phase index), each point's table
    entry, its index into the raveled table, and, unless `phase` is None, its phase index.

    With k + k0 = quot*P + row, the point (k, l) reads the entry [row, (l + l0) mod R]
    at the phase index 2*((l + l0)*(k - row) + k0*l0) + phase, k and l + l0 taken mod
    MN.  P and R divide MN, so the entry alone needs no reduction mod MN.  A tone's
    entries have l's shape: its table has one row.
    """
    mn = pre.mod.MN
    period, length = pre.rowfft.shape
    # each array is freed once used, so a block of queries holds a few block-sized
    # arrays at a time
    k = np.asarray(k, dtype=np.int64)
    k = k if phase is None else reduce_mod(k, mn)
    u = reduce_mod(np.asarray(l, dtype=np.int64) + pre.l0, length if phase is None else mn)
    # the tone's period == 1 shortcuts are measured: without them a (23,29) chirp's
    # full-grid block walk took 15-17 ms, not 8-14 (one core of a 2-vCPU x86-64 machine)
    row = 0 if period == 1 else reduce_mod(k + pre.k0, period)
    # the constant and k's factor are summed in k's (often smaller) shape first
    index = None if phase is None else 2 * (k - row) * u + (2 * pre.k0 * pre.l0 + phase)
    del k
    # u is (l + l0) mod R already on a tone (R = MN) and without a phase
    return (u if period == 1 else row * length + (u if phase is None else reduce_mod(u, length))), index


def fast_pulsone_query(pre: FastPulsonePrecomp, k, l, phase=0):
    """Exact A_{x, ref}[k, l] in O(1) per point, times exp(j*pi*phase/MN).

    k, l and the added phase index may be integer arrays that broadcast
    together; the delay period P and Doppler length R come from the table's
    shape.  The point reads its table entry at its phase index (_pulsone_map).
    Returns a new complex array of the broadcast shape, or a complex for one
    point.
    """
    flat, index = _pulsone_map(pre, k, l, phase)
    del k, l, phase
    phases = phases_to_complex(index, pre.mod.MN)
    del index
    # table entry first: the order numpy's temporary elision gave the whole-grid
    # product phase * entry, so full-grid images stay byte-identical.  Never in
    # place: numpy multiplies a lone element in place outside its vector loop,
    # which rounds differently, and a one-point query must match its row block.
    out = np.multiply(pre.rowfft.take(flat), phases)
    return complex(out) if out.ndim == 0 else out


def fast_pulsone_surface(pre: FastPulsonePrecomp) -> AmbiguitySurface:
    """Materialise the fundamental M x N grid from the precomputed table, O(MN).

    Any other point is one fast_pulsone_query, or a FastEngine block.
    """
    mod = pre.mod
    return AmbiguitySurface(mod, "fundamental", fast_pulsone_query(pre, np.arange(mod.M)[:, None], np.arange(mod.N)))


class FastEngine:
    """A_{x, ref} point by point, for ref = exp(j*2*pi*gamma/MN) * chain_apply(transform, base).

    The base is the pulsone (k0, l0) of period `period` (fast_pulsone_precompute):
    the M x N pulsone by default, the tone l0 for period 1.  The chain is
    undone on x by its exact inverse, symplectic.chain_adjoint.  Each label's
    remap law (AmbiguityRemap) maps the grid point through g^-1 and adds a
    phase, and the phases telescope, so the chain folds into one map G, the
    product of the g^-1, and one integer quadratic form mod MN, with constant
    -2*gamma: Q(K, L) = K*L - k*l for (k, l) = G(K, L), which is minus the
    form of AmbiguityRemap(G), the composite's own law:

        A[K, L] = exp(j*2*pi*inv2*Q(K, L)/MN) * A_{W^H x, base}[G(K, L)]

    After O(MN) per b = 0 label (a dilation and a chirp), O(MN log p) per label
    whose b is 0 mod one prime only (a length-p DFT along the other prime p)
    and O(MN log MN) per GDAFT label, points(K, L) costs O(1) per point at any
    (K, L), whatever the `grid`, and entries(K, L) gives the table entry each
    of those points reads, the integer map G alone with no phase or product;
    blocks() walks the `grid` in row blocks of ddcore._block_rows rows, each a
    pair (values, entries) that ddcore.complex_to_csv formats in one pass,
    entry_blocks() walks the same rows for the entries alone, and `surface`
    stacks the values into the whole grid.  With x a radar return, the engine
    is its image (radarsim.form_image), and readout_targets thresholds its
    points' entries' magnitudes, forming values for the hits alone.

    Every value is thus fl(t * p), for its table entry t and a roots-table
    phase p, so |A| is |t| in exact arithmetic: `magnitudes` holds one
    np.hypot of the table, bit for bit abs(t), and write_surface takes every
    magnitude it writes from it, one abs field and one pixel per entry.  The
    product path would round: with u = 2**-53, |p| is within 2u of 1 (cos and
    sin within an ulp each), the complex product within sqrt(5) u of t * p
    (Brent, Percival & Zimmermann 2007) and hypot within 2u, so the magnitude
    of a computed value is |t| (1 + d) with |d| < 7u.  The entry [row, col]
    holds the values at G^-1(k, l) for k = row - k0 (mod P) and l = col - l0
    (mod R), its MN preimages, all on the full grid: there the largest |A| is
    the largest entry's, while the fundamental grid's points may miss any
    entry, the largest among them.  An x near the float64 limit, whose table
    is not finite or overflows the PGM's linear scale 255*|A|, is refused
    with ConfigurationError.
    """

    def __init__(
        self,
        x: PeriodicSequence,
        k0: int,
        l0: int,
        period: int | None = None,
        gamma: int = 0,
        *,
        transform: tuple[SL2Element, ...] = (),
        grid: str = "fundamental",
    ) -> None:
        mod = x.mod
        self.mod = mod
        self.grid = grid
        self.shape = _grid_shape(mod, grid)
        with np.errstate(over="ignore", invalid="ignore"):  # an x near the float64 limit: refused below
            x = chain_adjoint(transform, x)
            self._pre = fast_pulsone_precompute(x, k0, l0, period)
            # |t| of each entry, raveled as each block's entries index it
            self.magnitudes = np.hypot(self._pre.rowfft.real, self._pre.rowfft.imag).ravel()
            if not np.isfinite(255.0 * self.magnitudes.max()):
                raise ConfigurationError("the surface is not finite, or too large for its 8-bit PGM scale")
        self._G = functools.reduce(SL2Element.matmul, [g.inverse() for g in transform], SL2Element.identity(mod))
        # the added phase index is 2*(inv2*Q mod MN) for Q = -q_G
        self._q = tuple(mod.inv2 * -q % mod.MN for q in AmbiguityRemap(self._G).form + (2 * gamma,))

    def points(self, K, L) -> np.ndarray:
        """A at the grid points (K, L), integer arrays that broadcast together.

        Any int64 integers are taken mod MN.
        """
        return self._query(self._terms(K, 0), self._terms(L, 1))

    def entries(self, K, L) -> np.ndarray:
        """The table entry each grid point (K, L) reads, its index into `magnitudes`, for
        integer arrays that broadcast together: the entries of points(K, L), with no
        phase or value formed.  Any int64 integers are taken mod MN."""
        (K, k_rows, l_rows, _), (L, k_cols, l_cols, _) = self._terms(K, 0), self._terms(L, 1)
        return self._entries(k_rows + k_cols, l_rows + l_cols, np.broadcast_shapes(K.shape, L.shape))

    def _entries(self, k, l, shape: tuple) -> np.ndarray:
        """The integer map (_pulsone_map) at (k, l) = G(K, L), summed from the _terms of K
        and of L, broadcast to `shape` (a read-only view for a tone, whose entries have
        l's shape)."""
        return np.broadcast_to(_pulsone_map(self._pre, k, l)[0], shape)

    def _terms(self, X, axis: int) -> tuple:
        """The query's terms in one coordinate X (K for axis 0, L for axis 1), any int64
        integers: X mod MN, and its shares of G's k, of G's l and of Q, each reduced
        mod MN (0 when its coefficient is).  Every term stays below MN**2 < 2**62."""
        mn = self.mod.MN
        X = np.asarray(X, dtype=np.int64) % mn
        G = self._G
        ck, cl, cq = (G.a, G.c, self._q[0]) if axis == 0 else (G.b, G.d, self._q[1])
        return (X, ck * X % mn if ck else 0, cl * X % mn if cl else 0,
                cq * (X * X % mn) % mn if cq else 0)

    def _query(self, rows: tuple, cols: tuple) -> np.ndarray:
        """fast_pulsone_query at G(K, L) with the phase index 2*Q(K, L), from _terms of K and of L.

        A term in one coordinate keeps that coordinate's shape (a block's rows
        or a grid's columns), so only the sums below are full-size.  The query
        reduces k and l, both below 2*MN; the phase index is reduced here, below
        2*MN, which keeps the query's index below 2**63 up to _MN_CAP.  Before that
        one reduction q is at most 3*(MN - 1) + (MN - 1)**2 < 2**63 for MN up to
        _MN_CAP = 2**31 - 1: three terms below MN, and ckl*(K*L mod MN) below MN**2.
        """
        mn = self.mod.MN
        K, k_rows, l_rows, q_rows = rows
        L, k_cols, l_cols, q_cols = cols
        ckl, c0 = self._q[2:]
        q = q_rows + c0 + q_cols
        if ckl:  # only GDAFT labels make Q's phase 2-D
            q = q + ckl * reduce_mod(K * L, mn)
        q = reduce_mod(q, mn)  # one q array held, doubled in place
        q *= 2
        return fast_pulsone_query(self._pre, k_rows + k_cols, l_rows + l_cols, q)

    def _walk(self):
        """The _terms of the grid's rows, top to bottom, in blocks of ddcore._block_rows rows.
        Each caller forms the grid's columns' terms once, and keeps those it reads."""
        nk, nl = self.shape
        step = _block_rows(nk, nl)
        for start in range(0, nk, step):
            yield self._terms(np.arange(start, min(start + step, nk), dtype=np.int64)[:, None], 0)

    def blocks(self):
        """The grid's row blocks (_walk), each a pair (values, entries) of arrays of the block's shape.

        Its complex values, and each point's table entry, its index into
        `magnitudes` (and into the raveled table), the entries of entry_blocks().
        Each block is its own pair of new arrays (a tone's entries are a
        read-only view): no buffer is shared between blocks, so a block may be
        kept after the next is formed.
        """
        nl = self.shape[1]
        cols = self._terms(np.arange(nl, dtype=np.int64)[None, :], 1)
        for rows in self._walk():
            yield self._query(rows, cols), self._entries(rows[1] + cols[1], rows[2] + cols[2], (len(rows[0]), nl))

    def entry_blocks(self):
        """The entries of blocks() alone, equal block for block, with no phase or value
        formed: _entries of each row block (_walk)."""
        nl = self.shape[1]
        # the columns' k and l shares alone: a block of one row is as large as each of them
        k_cols, l_cols = self._terms(np.arange(nl, dtype=np.int64)[None, :], 1)[1:3]
        for K, k_rows, l_rows, _ in self._walk():
            yield self._entries(k_rows + k_cols, l_rows + l_cols, (len(K), nl))

    @functools.cached_property
    def surface(self) -> AmbiguitySurface:
        """The whole grid as one AmbiguitySurface, the values of blocks() stacked.

        Refused with OverBudget when the output plus one engine block
        (_surface) would exceed the budget; no CSV is written.
        """
        nk, nl = self.shape
        check_budget(_surface(nk, nl))
        rows = (row for values, _ in self.blocks() for row in values)
        return AmbiguitySurface(self.mod, self.grid, np.fromiter(rows, dtype=(np.complex128, nl), count=nk))


def moyal_residual(x: PeriodicSequence, y: PeriodicSequence) -> float:
    """| (1/MN) * sum_{k,l} conj(A_x[k,l]) * A_y[k,l] - |<x, y>|^2 |.

    Zero for exact arithmetic on unit-norm inputs; with y = x this checks
    that the mean of |A_x|^2 over the full grid is 1.
    """
    ax = cross_ambiguity_fft(x, x).values
    ay = ax if y is x else cross_ambiguity_fft(y, y).values
    lhs = np.vdot(ax, ay) / x.mod.MN
    rhs = abs(np.vdot(y.samples, x.samples)) ** 2
    return float(abs(lhs - rhs))


def unimodular_count(surface: AmbiguitySurface, threshold: float = UNIMODULAR_THRESHOLD) -> int:
    """Number of grid points with |A| above the unimodularity threshold."""
    return int(np.count_nonzero(np.abs(surface.values) > threshold))


def _check_zc_root(root: int, L: int) -> None:
    """Refuse with BadRoot a Zadoff-Chu length that is not odd and positive, or a root
    that shares a factor with it."""
    if L < 1 or L % 2 == 0:
        raise BadRoot(f"length must be odd and positive, got {L}")
    if gcd(root, L) != 1:
        raise BadRoot(f"root {root} shares a factor with length {L}")


def zc_sequence(root: int, L: int) -> np.ndarray:
    """Odd-length Zadoff-Chu sequence z[n] = exp(-j*pi*root*n*(n+1)/L)/sqrt(L).

    Constant amplitude with zero periodic autocorrelation at every nonzero
    lag; requires odd L and gcd(root, L) = 1.  It is the period-L quadratic
    phase modmath.quadratic_phase(L, r, r) with r = -root*(L+1)/2 mod L:
    since n*(n+1) is even, 2*r*n*(n+1) = -root*n*(n+1) mod 2L, so each sample
    gathers the root of unity exp(j*pi*p/L) its own exponent names, from the
    2L roots the direct sums read, and any integer root gives the samples of
    root % L.
    """
    _check_zc_root(root, L)
    r = -root * ((L + 1) // 2) % L
    return quadratic_phase(L, r, r) / np.sqrt(L)


def coded_waveform(z: np.ndarray, chip: np.ndarray) -> np.ndarray:
    """Phase-coded carrier baseline: chip copies scaled by the code symbols.

    Returns the unit-normalised period-(len(z)*len(chip)) waveform with
    y[m*s + i] = z[m] * chip[i]; with a length-1 rectangular chip this is
    just the normalised code itself.  The modulus-free counterpart of the
    separately-optimised sequence-on-carrier architecture.
    """
    z = np.asarray(z, dtype=np.complex128)
    chip = np.asarray(chip, dtype=np.float64)
    if chip.ndim != 1 or chip.size < 1:
        raise EmptyChip(f"chip must be a non-empty vector, got shape {chip.shape}")
    y = (z[:, None] * chip[None, :]).reshape(z.size * chip.size)
    nrm = np.linalg.norm(y)
    if nrm == 0.0:
        raise ConfigurationError("coded waveform is identically zero")
    return y / nrm


# ---------------------------------------------------------------------------
# Surface export: CSV with columns k,l,re,im,abs and 8-bit binary PGM
# heatmaps of |A| with linear or dB scaling.


def surface_to_csv(surface, path, shape: tuple | None = None, mags=None) -> None:
    """Write a surface (AmbiguitySurface or plain 2-D array) as k,l,re,im,abs CSV.

    With `shape`, `surface` is instead an iterable of the consecutive row blocks
    of a surface of that shape, each a pair (values, entries), written as they
    arrive (ddcore.complex_to_csv): FastEngine.blocks(), or an array's rows with
    entries None.  With `mags` too, FastEngine.magnitudes, each abs field is
    that of the point's table entry.
    """
    values = surface.values if isinstance(surface, AmbiguitySurface) else surface
    complex_to_csv(values, path, shape, mags)


def surface_from_csv(path, mod: Modulus, grid: str) -> AmbiguitySurface:
    return AmbiguitySurface(mod, grid, complex_from_csv(path, _grid_shape(mod, grid)))


def _pixels(mags: np.ndarray, peak: float, scale: str, floor: float) -> np.ndarray:
    """The PGM pixels, uint8, of the magnitudes `mags` against the surface's `peak`;
    `mags` is overwritten."""
    if peak == 0.0:
        mags.fill(0.0)
    elif scale == "linear":  # round(255 * mags / peak)
        mags *= 255.0
        mags /= peak
    else:  # round(255 * (clip(20 * log10(mags / peak), floor, 0) - floor) / -floor)
        mags /= peak
        with np.errstate(divide="ignore"):
            np.log10(mags, out=mags)
        mags *= 20.0
        np.maximum(mags, floor, out=mags)  # np.clip(mags, floor, 0.0), without its Python-level checks
        np.minimum(mags, 0.0, out=mags)
        mags -= floor
        mags *= 255.0
        mags /= -floor
    return np.rint(mags, out=mags).astype(np.uint8)  # np.round's half-to-even


def write_surface(surface, csv_path, pgm_path, scale: str = "linear", floor: float = -120.0) -> None:
    """Write a surface, a FastEngine or a 2-D array, to CSV and PGM in one pass of row blocks.

    The peak comes first.  An engine's is the largest of its magnitudes over
    the entries its grid reads (see FastEngine): all of them on the full grid,
    and on the fundamental grid those of an index-only pass of its blocks
    (FastEngine.entry_blocks); neither forms a value.  An array's is its
    largest |A| from a first pass of its row blocks.  The PGM header follows,
    and then each block, a pair (values, entries) from FastEngine.blocks, or
    views of the array of as many rows with entries None, is formatted into
    the CSV as it arrives while its pixels, final against the known peak, go
    to the PGM: rows are delay k, columns Doppler l.  With no CSV (`csv_path`
    None) an engine's blocks are its index-only ones, so each engine value is
    formed once, and only for a CSV.  linear: 0..255 spans 0..max|A|.  db:
    0..255 spans floor..0 dB relative to the surface peak, clamping below the
    floor; the floor must be a finite negative number, with 255*floor finite.
    An engine's every magnitude is that of its table entry,
    FastEngine.magnitudes: the pixels of the entries are formed once and
    gathered by each block's entries, as the CSV gathers the abs fields, and
    no magnitude of a point is computed.  An array's are np.hypot of its
    values, for the PGM as for the CSV.  No array of the surface's size is
    held but an engine's per-entry arrays, of its table's MN entries, and no
    complex one beyond the block being written (_streamed_pgm, _value_block,
    _csv_block).
    Commands check the model's terms with check_budget first.
    """
    _check_scale(scale, floor)
    nk, nl = shape = surface.shape
    step = _block_rows(nk, nl)
    if isinstance(surface, FastEngine):  # each entry's pixel, gathered by the block's entries
        table = surface.magnitudes
        # the largest magnitude over the entries the grid reads: on the full grid every
        # entry; the fundamental grid's points may miss any, so an index-only pass reads theirs
        peak = table.max() if surface.grid == "full" else max(table.take(e).max() for e in surface.entry_blocks())
        shades = _pixels(table.copy(), peak, scale, floor)
        # values are formed only for a CSV: a PGM alone reads each block's entries
        blocks = surface.blocks() if csv_path is not None else ((None, e) for e in surface.entry_blocks())
        shade = lambda _, flat: shades.take(flat)  # a block's own entries, its raveled table indices
    else:
        table, mags = None, np.empty((step, nl))
        blocks = [(surface[s : s + step], None) for s in range(0, nk, step)]
        # one magnitude, the CSV's abs column's np.hypot, for the peak and the pixels
        hypot = lambda values: np.hypot(values.real, values.imag, out=mags[: len(values)])
        peak = max(float(hypot(values).max()) for values, _ in blocks)
        shade = lambda values, _: _pixels(hypot(values), peak, scale, floor)
    with open(pgm_path, "wb") as pgm:
        pgm.write(f"P5\n{nl} {nk}\n255\n".encode("ascii"))

        def written():
            for block in blocks:
                pgm.write(shade(*block))
                yield block

        if csv_path is not None:
            return surface_to_csv(written(), csv_path, shape, table)
        for _ in written():
            pass


def _check_scale(scale: str, floor: float) -> None:
    """Refuse an unknown PGM scale, or a dB floor that is not a finite negative number or
    whose 255*floor, the largest product _pixels forms, overflows."""
    if scale not in ("linear", "db"):
        raise ConfigurationError(f"unknown scale {scale!r}")
    if scale == "db" and not (math.isfinite(floor) and floor < 0):
        raise ConfigurationError(f"dB floor must be a finite negative number, got {floor}")
    if scale == "db" and math.isinf(255.0 * floor):
        raise ConfigurationError(f"dB floor {floor} overflows the PGM scale: 255*floor is not finite")
