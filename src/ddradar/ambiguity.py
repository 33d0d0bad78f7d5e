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
  collapses to a phased lookup into the M x N table of delay-decimated FFTs
  of x.  Precompute costs O(MN log N); every point afterwards is O(1).  A
  tone exp(j*2*pi*beta*n/MN)/sqrt(MN) is the pulsone (0, beta) of the 1 x MN
  factorisation, whose table is FFT(x)/sqrt(MN), and the same query reads it.
  FastEngine extends this to y = chain_apply(labels, base): each
  label is undone on x, and the chain folds into one index map and one
  quadratic phase on the grid.  Every modulus-bound waveform is such a y:
  chirp(alpha, beta, gamma) is the tone beta under lfm(alpha), up to a
  constant phase, and zc(root) the tone A under lfm(A), A = -root/2 mod MN.

The fast path is one FastEngine: O(1) point queries, and row blocks of
either grid.  Writing all (MN)^2 points would itself cost O(M^2 N^2) and
defeat the complexity advantage, so a full-grid surface is an explicit
caller decision; write_surface streams the blocks into the CSV and PGM files
without holding the complex surface, and FastEngine.surface materialises it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ddcore import PeriodicSequence, _block_bytes, _block_rows, complex_from_csv, complex_to_csv
from .errors import (
    BadRoot,
    ConfigurationError,
    EmptyChip,
    GridMismatch,
    IndexOutOfRange,
    OverBudget,
)
from .modmath import Modulus, _roots_of_unity, phases_to_complex, same_modulus
from .symplectic import SL2Element, gdaft_adjoint, lfm_apply, remap_for

__all__ = [
    "AmbiguitySurface",
    "FastEngine",
    "FastPulsonePrecomp",
    "MEMORY_BUDGET_BYTES",
    "UNIMODULAR_THRESHOLD",
    "check_stream_budget",
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
    "surface_to_pgm",
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

# Largest allocation a surface route may make, in bytes, checked by
# _check_budget before anything is allocated.  A direct-sum surface needs an
# L x nl phase table and its int64 index temporaries (32 bytes per entry) plus
# the nk x nl complex output: about 0.8 GB for the full grid at (61, 67),
# L = 4087, while a zc-coded pair with period L = 15000 would need about 11 GB
# and is refused with OverBudget (exit 3).
MEMORY_BUDGET_BYTES = 2**30


@dataclass(frozen=True)
class AmbiguitySurface:
    """Ambiguity values on either the full MN x MN grid or the M x N fundamental one."""

    mod: Modulus
    grid: str  # "full" | "fundamental"
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = _grid_shape(self.mod, self.grid)
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != expected:
            raise ConfigurationError(f"{self.grid} grid needs shape {expected}, got {arr.shape}")
        object.__setattr__(self, "values", arr)

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
    offsets = (np.arange(mn, dtype=np.int64) - k) % mn
    phases = phases_to_complex(-2 * ((l % mn) * offsets % mn), x.mod)
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


def _check_budget(need: int, what: str) -> None:
    """Refuse with OverBudget when `what` needs more than MEMORY_BUDGET_BYTES bytes."""
    if need > MEMORY_BUDGET_BYTES:
        raise OverBudget(
            f"{what} needs about {need / 2**30:.1f} GiB, "
            f"over the {MEMORY_BUDGET_BYTES / 2**30:g} GiB budget"
        )


def _direct_rows(xa: np.ndarray, ya: np.ndarray, nk: int, nl: int) -> np.ndarray:
    """Direct-sum surface rows k < nk, columns l < nl, of two period-L arrays.

    S @ E, with E[m, l] = exp(-j*2*pi*l*m/L) gathered from the 2L roots of unity.
    Refused with OverBudget when the table and output exceed the budget.
    """
    L = xa.shape[0]
    _check_budget(32 * L * nl + 16 * nk * nl, f"a {nk} x {nl} direct-sum surface of period {L}")
    table = _roots_of_unity(L)[-2 * (np.outer(np.arange(L), np.arange(nl)) % L) % (2 * L)]
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
    """Full-grid surface, one length-MN FFT per lag-product row: A[k, :] = FFT_m(S[k, m])."""
    same_modulus(x, y)
    mn = x.mod.MN
    _check_budget(16 * mn * (mn + _BLOCK_ROWS), f"a {mn} x {mn} FFT surface")
    rows = _lag_product_rows(x.samples, y.samples, mn, mn, lambda s: np.fft.fft(s, axis=1))
    return AmbiguitySurface(x.mod, "full", rows)


@dataclass(frozen=True)
class FastPulsonePrecomp:
    """Delay-decimated FFT table of x against the pulsone reference (k0, l0).

    For the P x R factorisation of MN (P = M for the pulsone of the M x N
    grid, P = 1 for a tone), rowfft[r, m] = (1/sqrt(R)) * sum_p x[r + p*P] *
    exp(-j*2*pi*m*p/R), a P x R array: the Zak transform of x when P = M, and
    FFT(x)/sqrt(MN) when P = 1.  Any ambiguity point is one phased table entry.
    """

    mod: Modulus
    k0: int
    l0: int
    rowfft: np.ndarray


def fast_pulsone_precompute(
    x: PeriodicSequence, k0: int, l0: int, period: int | None = None
) -> FastPulsonePrecomp:
    """O(MN log MN) precompute: P length-R FFTs of the delay-decimated slices of x.

    `period` is the delay period P of the reference, M (the default) or 1 for
    the tone l0; it must divide MN, with 0 <= k0 < P and 0 <= l0 < MN/P.
    """
    mod = x.mod
    period = mod.M if period is None else period
    if period < 1 or mod.MN % period:
        raise ConfigurationError(f"pulsone period {period} does not divide MN = {mod.MN}")
    length = mod.MN // period
    if not (0 <= k0 < period and 0 <= l0 < length):
        raise IndexOutOfRange(f"pulsone indices ({k0}, {l0}) outside {period} x {length}")
    # x[r + p*P] lives at [r, p] of the transposed reshape
    table = np.fft.fft(x.samples.reshape(length, period).T, axis=1) / np.sqrt(length)
    return FastPulsonePrecomp(mod, k0, l0, table)


def fast_pulsone_query(pre: FastPulsonePrecomp, k, l, phase=0, out: np.ndarray | None = None):
    """Exact A_{x, ref}[k, l] in O(1) per point, times exp(j*pi*phase/MN).

    k, l and the added phase index may be integer arrays that broadcast
    together; the delay period P and Doppler length R come from the table's
    shape.  With `out`, a complex array of the broadcast shape, the values are
    written there.
    """
    mod = pre.mod
    period, length = pre.rowfft.shape
    # with k + k0 = quot*P + row: phase index 2*((l + l0)*(k - row) + k0*l0) + phase,
    # table entry [row, (l + l0) mod R]; each array is freed once used, so a block
    # of queries holds a few block-sized arrays at a time
    k = np.asarray(k, dtype=np.int64) % mod.MN
    row = (k + pre.k0) % period
    u = (np.asarray(l, dtype=np.int64) + pre.l0) % mod.MN
    # the constant and k's factor are summed in k's (often smaller) shape first
    index = 2 * (k - row) * u + (2 * pre.k0 * pre.l0 + phase)
    del k
    flat = u if period == 1 else row * length + u % length  # a tone's R is MN
    del row, u
    phases = phases_to_complex(index, mod)
    del index
    # table entry first: the order numpy's temporary elision gave the whole-grid
    # product phase * entry, so full-grid images stay byte-identical.  Never in
    # place: numpy multiplies a lone element in place outside its vector loop,
    # which rounds differently, and a one-point query must match its row block.
    out = np.multiply(pre.rowfft.take(flat), phases, out=out)
    return complex(out) if out.ndim == 0 else out


def fast_pulsone_surface(pre: FastPulsonePrecomp) -> AmbiguitySurface:
    """Materialise the fundamental M x N grid from the precomputed table, O(MN).

    Any other point is one fast_pulsone_query, or a FastEngine block.
    """
    mod = pre.mod
    kk, ll = np.meshgrid(np.arange(mod.M), np.arange(mod.N), indexing="ij")
    return AmbiguitySurface(mod, "fundamental", fast_pulsone_query(pre, kk, ll))


class FastEngine:
    """A_{x, ref} point by point, for ref = exp(j*2*pi*gamma/MN) * chain_apply(transform, base).

    The base is the pulsone (k0, l0) of period `period` (fast_pulsone_precompute):
    the M x N pulsone by default, the tone l0 for period 1.  Each label is
    undone on x by its exact adjoint, last label first, which maps the grid
    point (K, L) through g^-1 and adds the label's remap form q_g
    (AmbiguityRemap.form) at the mapped point.  The chain folds, at O(1) cost
    per label, into one map G, the product of the g^-1, and one integer
    quadratic form Q(K, L) mod MN, the sum of the q_g, with constant -2*gamma:

        A[K, L] = exp(j*2*pi*inv2*Q(K, L)/MN) * A_{W^H x, base}[G(K, L)]

    After O(MN log MN) per label, points(K, L) costs O(1) per point at any
    (K, L), whatever the `grid`; blocks() walks the `grid` in the row blocks
    that ddcore.complex_to_csv formats in one pass each, ddcore._block_rows
    of them, and `surface` holds the whole grid.  With x a radar return,
    the engine is its image (radarsim.form_image).
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
        mn = mod.MN
        self.mod = mod
        self.grid = grid
        self.shape = _grid_shape(mod, grid)
        G = SL2Element.identity(mod)
        qkk = qll = qkl = 0  # Q's K^2, L^2 and K*L coefficients
        for g in reversed(transform):
            kk, ll, kl = remap_for(g).form
            x = lfm_apply(-g.c * mod.inv2 % mn, x) if g.b == 0 else gdaft_adjoint(g, x)
            G = g.inverse().matmul(G)
            a, b, c, d = G.a, G.b, G.c, G.d
            # q_g(a*K + b*L, c*K + d*L), term by term
            qkk += kk * a * a + ll * c * c + kl * a * c
            qll += kk * b * b + ll * d * d + kl * b * d
            qkl += 2 * (kk * a * b + ll * c * d) + kl * (a * d + b * c)
        self._pre = fast_pulsone_precompute(x, k0, l0, period)
        self._G = G
        # the added phase index is 2*(inv2*Q mod MN)
        self._q = tuple(mod.inv2 * q % mn for q in (qkk, qll, qkl, -2 * gamma))

    def points(self, K, L, out: np.ndarray | None = None) -> np.ndarray:
        """A at the grid points (K, L), integer arrays that broadcast together.

        Any integers are taken mod MN.  With `out`, a complex array of the
        broadcast shape, the values are written there.
        """
        mn = self.mod.MN
        G = self._G
        ckk, cll, ckl, c0 = self._q
        K = np.asarray(K, dtype=np.int64) % mn
        L = np.asarray(L, dtype=np.int64) % mn
        # k stays a column when G's b entry is 0, l a row when its c entry is 0
        k = G.a * K + G.b * L if G.b else G.a * K
        l = G.c * K + G.d * L if G.c else G.d * L
        phase = 0
        if ckk or cll or ckl or c0:
            l_part = cll * (L * L % mn) if cll else 0
            cross = ckl * (K * L % mn) if ckl else 0  # only GDAFT labels make Q's phase 2-D
            phase = 2 * ((ckk * (K * K % mn) + l_part + cross + c0) % mn)
        return fast_pulsone_query(self._pre, k, l, phase, out=out)

    def blocks(self, out: np.ndarray | None = None):
        """The grid's rows, top to bottom, in blocks of ddcore._block_rows rows.

        Without `out`, every block is written into one buffer, so each is
        overwritten by the next.  With `out`, a complex array of the grid's
        shape, each block is written into its own rows of `out`, which holds
        the whole surface once the blocks are exhausted.
        """
        nk, nl = self.shape
        step = _block_rows(nk, nl)
        L = np.arange(nl, dtype=np.int64)[None, :]
        buf = np.empty((step, nl), dtype=np.complex128) if out is None else None
        for start in range(0, nk, step):
            stop = min(start + step, nk)
            rows = buf[: stop - start] if out is None else out[start:stop]
            yield self.points(np.arange(start, stop, dtype=np.int64)[:, None], L, out=rows)

    @functools.cached_property
    def surface(self) -> AmbiguitySurface:
        """The whole grid as one AmbiguitySurface, formed once by blocks(out).

        Refused with OverBudget when the output plus one engine block would
        exceed the budget; no CSV is written.
        """
        nk, nl = self.shape
        _check_budget(16 * nk * nl + _block_bytes(self.shape, csv=False), f"a {nk} x {nl} fast surface")
        out = np.empty(self.shape, dtype=np.complex128)
        for _ in self.blocks(out):
            pass
        return AmbiguitySurface(self.mod, self.grid, out)


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


def zc_sequence(root: int, L: int) -> np.ndarray:
    """Odd-length Zadoff-Chu sequence z[n] = exp(-j*pi*root*n*(n+1)/L)/sqrt(L).

    Constant amplitude with zero periodic autocorrelation at every nonzero
    lag; requires odd L and gcd(root, L) = 1.  The exponent root*n*(n+1) is
    reduced mod 2L and gathered, negated, from the 2L roots of unity
    exp(j*pi*p/L), the table the direct sums read.
    """
    if L < 1 or L % 2 == 0:
        raise BadRoot(f"length must be odd and positive, got {L}")
    if gcd(root, L) != 1:
        raise BadRoot(f"root {root} shares a factor with length {L}")
    n = np.arange(L, dtype=np.int64)
    expo = (root * (n * (n + 1) % (2 * L))) % (2 * L)
    return _roots_of_unity(L)[(-expo) % (2 * L)] / np.sqrt(L)


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


def surface_to_csv(surface, path, shape: tuple | None = None) -> None:
    """Write a surface (AmbiguitySurface or plain 2-D array) as k,l,re,im,abs CSV.

    With `shape`, `surface` is instead an iterable of the consecutive row blocks
    of a surface of that shape, written as they arrive (ddcore.complex_to_csv).
    """
    values = surface.values if isinstance(surface, AmbiguitySurface) else surface
    complex_to_csv(values, path, shape)


def surface_from_csv(path, mod: Modulus, grid: str) -> AmbiguitySurface:
    return AmbiguitySurface(mod, grid, complex_from_csv(path, _grid_shape(mod, grid)))


def surface_to_pgm(values: np.ndarray, path, scale: str = "linear", floor: float = -120.0) -> None:
    """8-bit binary PGM of |values|; rows are delay k, columns Doppler l.

    linear: 0..255 spans 0..max|A|.  db: 0..255 spans floor..0 dB relative
    to the surface peak, clamping below the floor; the floor must be a finite
    negative number.
    """
    _check_scale(scale, floor)
    _write_pgm(np.abs(np.asarray(values)).astype(np.float64, copy=False), path, scale, floor)


def _write_pgm(mags: np.ndarray, path, scale: str, floor: float) -> None:
    """The PGM of the float64 magnitudes `mags`, whose buffer each pixel step overwrites."""
    peak = mags.max()
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
        np.clip(mags, floor, 0.0, out=mags)
        mags -= floor
        mags *= 255.0
        mags /= -floor
    pixels = np.round(mags, out=mags).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels))


def check_stream_budget(shape: tuple[int, int]) -> None:
    """Refuse with OverBudget when write_surface over `shape` would exceed the budget.

    It holds 9 bytes per point, the float64 magnitudes and the uint8 pixels,
    plus one streamed block (ddcore._block_bytes): the engine's values and
    query arrays, and the CSV writer's text, float and workspace buffers.
    """
    nk, nl = shape
    need = 9 * nk * nl + _block_bytes(shape)
    _check_budget(need, f"writing a {nk} x {nl} surface")


def write_surface(blocks, shape: tuple[int, int], csv_path, pgm_path,
                  scale: str = "linear", floor: float = -120.0) -> None:
    """Write a surface given as consecutive row blocks to CSV and PGM in one pass.

    Each block is formatted into the CSV as it arrives, and its magnitudes go
    into one float64 buffer, in which the PGM pixels are computed after the
    last block.  The files are byte for byte those of surface_to_csv and
    surface_to_pgm on the whole surface, and no complex array is held beyond
    the block being written.  Callers check check_stream_budget(shape) first.
    """
    _check_scale(scale, floor)
    mags = np.empty(shape)

    def measured():
        start = 0
        for block in blocks:
            np.abs(block, out=mags[start : start + block.shape[0]])
            start += block.shape[0]
            yield block

    surface_to_csv(measured(), csv_path, shape)
    _write_pgm(mags, pgm_path, scale, floor)


def _check_scale(scale: str, floor: float) -> None:
    """Refuse an unknown PGM scale, or a dB floor that is not finite and negative."""
    if scale not in ("linear", "db"):
        raise ConfigurationError(f"unknown scale {scale!r}")
    if scale == "db" and not (math.isfinite(floor) and floor < 0):
        raise ConfigurationError(f"dB floor must be a finite negative number, got {floor}")
