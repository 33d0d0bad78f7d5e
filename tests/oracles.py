"""Literal-definition oracles that the library's fast routes are tested against."""

from itertools import repeat
from math import gcd

import numpy as np

from ddradar.ddcore import PeriodicSequence, QuasiPeriodicArray
from ddradar.errors import BNotCoprime, NotPrimitive
from ddradar.heisenberg import HeisenbergElement
from ddradar.modmath import Modulus, mod_inv, phases_to_complex, to_complex
from ddradar.subgroups import LineSubgroup, eigenvector
from ddradar.symplectic import SL2Element, chain_apply, sl2_factors


def zero_sequence(mod: Modulus) -> PeriodicSequence:
    return PeriodicSequence(mod, np.zeros(mod.MN, dtype=np.complex128))


def basis_vector(mod: Modulus, n: int) -> PeriodicSequence:
    """Standard basis vector e_n (index reduced mod MN)."""
    samples = np.zeros(mod.MN, dtype=np.complex128)
    samples[n % mod.MN] = 1.0
    return PeriodicSequence(mod, samples)


def zero_array(mod: Modulus) -> QuasiPeriodicArray:
    return QuasiPeriodicArray(mod, np.zeros((mod.M, mod.N), dtype=np.complex128))


def extend(X: QuasiPeriodicArray, k: int, l: int) -> complex:
    """Quasi-periodic extension at any integer (k, l).

    X[k + n*M, l + m*N] = exp(j*2*pi*n*l/N) * X[k, l].
    """
    M, N = X.mod.M, X.mod.N
    n = k // M
    # exp(j*2*pi*n*l/N) is the phase index 2*M*(n*l mod N), reduced before evaluation
    phase = to_complex(2 * M * (n % N * (l % N) % N), X.mod)
    return complex(phase * X.values[k % M, l % N])


def phase_from_whole(m: int, mod: Modulus) -> int:
    """Embed a whole phase exp(j*2*pi*m/MN) as index 2m."""
    return (2 * m) % mod.twoMN


def commutes(h1: HeisenbergElement, h2: HeisenbergElement) -> bool:
    """True iff the symplectic form l1*k2 - l2*k1 vanishes mod MN."""
    return (h1.l * h2.k - h2.l * h1.k) % h1.mod.MN == 0


def commutator_phase(h1: HeisenbergElement, h2: HeisenbergElement) -> int:
    """Phase index with compose(h1, h2) = that phase times compose(h2, h1)."""
    return (2 * (h1.l * h2.k - h2.l * h1.k)) % h1.mod.twoMN


def support_set(line: LineSubgroup) -> set[tuple[int, int]]:
    """All MN distinct (k, l) points of the line."""
    mn = line.mod.MN
    points = {((x * line.c) % mn, (x * line.d) % mn) for x in range(mn)}
    if len(points) != mn:  # cannot happen for a primitive generator
        raise NotPrimitive(f"generator ({line.c}, {line.d}) spans only {len(points)} points")
    return points


def dft_label(mod: Modulus) -> SL2Element:
    """Label of the unitary DFT: [[0, 1], [-1, 0]]."""
    return SL2Element(mod, 0, 1, -1, 0)


def sl2_apply(g: SL2Element, x: PeriodicSequence) -> PeriodicSequence:
    """Apply a unitary realising any determinant-1 label g: the GDAFTs of sl2_factors(g)."""
    return chain_apply(sl2_factors(g), x)


def dzt_direct(x: PeriodicSequence) -> QuasiPeriodicArray:
    """Direct-sum Zak transform; the oracle the FFT path must match."""
    mod = x.mod
    M, N = mod.M, mod.N
    values = np.zeros((M, N), dtype=np.complex128)
    for k in range(M):
        for l in range(N):
            acc = 0.0 + 0.0j
            for p in range(N):
                acc += x.samples[k + p * M] * np.exp(-1j * 2 * np.pi * p * l / N)
            values[k, l] = acc / np.sqrt(N)
    return QuasiPeriodicArray(mod, values)


def idzt_direct(X: QuasiPeriodicArray) -> PeriodicSequence:
    """Direct-sum inverse Zak transform (oracle)."""
    mod = X.mod
    M, N = mod.M, mod.N
    samples = np.zeros(mod.MN, dtype=np.complex128)
    for n in range(mod.MN):
        acc = 0.0 + 0.0j
        for q in range(N):
            acc += X.values[n % M, q] * np.exp(1j * 2 * np.pi * q * (n // M) / N)
        samples[n] = acc / np.sqrt(N)
    return PeriodicSequence(mod, samples)


def basis_vrs(r: int, s: int, mod: Modulus) -> PeriodicSequence:
    """Windowed-exponential orthonormal basis, a closed-form input for the Zak transform.

    v[n] = (1/sqrt(M)) * exp(j*2*pi*s*n/M) for r*M <= n < (r+1)*M, else 0.
    """
    samples = np.zeros(mod.MN, dtype=np.complex128)
    n = np.arange(r * mod.M, (r + 1) * mod.M)
    samples[n] = np.exp(1j * 2 * np.pi * s * n / mod.M) / np.sqrt(mod.M)
    return PeriodicSequence(mod, samples)


def ambiguity_sum(xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """Full L x L cross-ambiguity, one literal sum per point:

    A[k, l] = sum_n x[n] * conj(y[(n-k) mod L]) * exp(-j*2*pi*l*(n-k)/L),
    with the exponent's integer product l*(n-k) reduced mod L first.
    """
    L = len(xa)
    n = np.arange(L)
    out = np.zeros((L, L), dtype=np.complex128)
    for k in range(L):
        for l in range(L):
            lag = (n - k) % L
            out[k, l] = np.sum(xa * np.conj(ya[lag]) * np.exp(-2j * np.pi * (l * lag % L) / L))
    return out


def gdaft_kernel(g: SL2Element) -> np.ndarray:
    """Dense GDAFT matrix K[n, n1] with ring-exact half-integer exponents."""
    mod = g.mod
    if gcd(g.b, mod.MN) != 1:
        raise BNotCoprime(f"GDAFT needs gcd(b, MN) = 1, got b = {g.b}, MN = {mod.MN}")
    mn = mod.MN
    half_binv = mod.inv2 * mod_inv(g.b, mn) % mn
    n = np.arange(mn, dtype=np.int64)
    dn2 = g.d * (n * n % mn) % mn             # d*n^2 along rows
    an2 = g.a * (n * n % mn) % mn             # a*n1^2 along columns
    cross = (-2 * np.outer(n, n)) % mn        # -2*n*n1
    idx = 2 * (half_binv * ((dn2[:, None] + an2[None, :] + cross) % mn) % mn)
    return phases_to_complex(idx, mod) / np.sqrt(mod.MN)


def sl2_matrix(g: SL2Element) -> np.ndarray:
    """Dense matrix of sl2_apply(g, .): one kernel, or two around the smallest shear."""
    mod = g.mod
    mn = mod.MN
    if gcd(g.b, mn) == 1:
        return gdaft_kernel(g)
    x0 = next(v for v in range(1, mn) if gcd(v, mn) == 1 and gcd(g.b + v * g.d, mn) == 1)
    shear = SL2Element(mod, 1, x0, 0, 1)
    return gdaft_kernel(shear.inverse()) @ gdaft_kernel(shear.matmul(g))


def eigenbasis_for_line(line: LineSubgroup) -> list:
    """All MN eigenvectors of the line, in eigenvector's index order."""
    return [eigenvector(line, i) for i in range(line.mod.MN)]


def complex_to_csv_rows(values: np.ndarray, path) -> None:
    """Byte oracle for the CSV writer: every float through "{:.17g}".format,
    one Python format call per value, and abs through Python's abs(complex)."""
    values = np.asarray(values, dtype=np.complex128)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if values.ndim == 1:
            fh.write("n,re,im\n")
            fh.write("".join(map("{},{:.17g},{:.17g}\n".format, range(values.size),
                                 values.real.tolist(), values.imag.tolist())))
            return
        fh.write("k,l,re,im,abs\n")
        line = "{},{},{:.17g},{:.17g},{:.17g}\n"
        for k, row in enumerate(values):
            fh.write("".join(map(line.format, repeat(k), range(row.size), row.real.tolist(),
                                 row.imag.tolist(), map(abs, row.tolist()))))


def pgm_bytes(values: np.ndarray, scale: str, floor: float) -> bytes:
    """Byte oracle for the PGM writer: the whole file, each pixel stage a new array."""
    mags = np.abs(np.asarray(values))
    peak = mags.max()
    if peak == 0.0:
        pixels = np.zeros(mags.shape, dtype=np.uint8)
    elif scale == "linear":
        pixels = np.round(255.0 * mags / peak).astype(np.uint8)
    else:
        with np.errstate(divide="ignore"):
            rel = 20.0 * np.log10(mags / peak)
        rel = np.clip(rel, floor, 0.0)
        pixels = np.round(255.0 * (rel - floor) / (-floor)).astype(np.uint8)
    height, width = pixels.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()
