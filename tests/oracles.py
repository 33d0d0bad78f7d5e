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


def phases_ld(p, n: int) -> np.ndarray:
    """exp(j*pi*p/n) in np.clongdouble for integer indices p: p reduced mod 2n as an
    integer, and pi as 4*arctan(1) in long double (np.pi, a double, would cap the
    oracle at float64)."""
    pi = 4 * np.arctan(np.longdouble(1))
    angle = pi * (np.asarray(p, dtype=np.int64) % (2 * n)).astype(np.longdouble) / n
    out = np.empty(angle.shape, dtype=np.clongdouble)
    out.real, out.imag = np.cos(angle), np.sin(angle)
    return out


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
    """Apply a unitary realising any determinant-1 label g: the chain of sl2_factors(g),
    one label for b = 0 or b invertible, else a shear pair of GDAFTs."""
    return chain_apply(sl2_factors(g), x)


def shear_pair(g: SL2Element) -> tuple[SL2Element, SL2Element]:
    """The GDAFT labels (S g, S^-1), first applied first, around the smallest shear
    S = [[1, x0], [0, 1]] that makes both b entries invertible: sl2_factors' split of a
    b that is not invertible, which it also took for b = 0 before a b = 0 label was
    realised in one step (a dilation and a chirp)."""
    mod = g.mod
    mn = mod.MN
    x0 = next(v for v in range(1, mn) if gcd(v, mn) == 1 and gcd(g.b + v * g.d, mn) == 1)
    shear = SL2Element(mod, 1, x0, 0, 1)
    return shear.matmul(g), shear.inverse()


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


def _gdaft_indices(g: SL2Element) -> np.ndarray:
    """The GDAFT kernel's phase indices [n, n1]: the half-integer exponent
    binv*(d*n^2 - 2*n*n1 + a*n1^2) read through inv2 as the integer
    2*(inv2*binv*(d*n^2 - 2*n*n1 + a*n1^2) mod MN)."""
    mod = g.mod
    if gcd(g.b, mod.MN) != 1:
        raise BNotCoprime(f"GDAFT needs gcd(b, MN) = 1, got b = {g.b}, MN = {mod.MN}")
    mn = mod.MN
    half_binv = mod.inv2 * mod_inv(g.b, mn) % mn
    n = np.arange(mn, dtype=np.int64)
    dn2 = g.d * (n * n % mn) % mn             # d*n^2 along rows
    an2 = g.a * (n * n % mn) % mn             # a*n1^2 along columns
    cross = (-2 * np.outer(n, n)) % mn        # -2*n*n1
    return 2 * (half_binv * ((dn2[:, None] + an2[None, :] + cross) % mn) % mn)


def gdaft_kernel(g: SL2Element) -> np.ndarray:
    """Dense GDAFT matrix K[n, n1] with ring-exact half-integer exponents."""
    return phases_to_complex(_gdaft_indices(g), g.mod.MN) / np.sqrt(g.mod.MN)


def gdaft_ld(g: SL2Element, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """The literal GDAFT sum of the symplectic module docstring in np.clongdouble,
    (W x)[n] = MN**-0.5 * sum_n1 exp(j*pi*binv*(d*n^2 - 2*n*n1 + a*n1^2)/MN) * x[n1],
    for the MN samples x (a long-double array keeps its precision), each exponential
    phases_ld of its integer index (_gdaft_indices); with `adjoint`, the sum of W^H,
    the conjugate transpose."""
    mn = g.mod.MN
    kernel = phases_ld(_gdaft_indices(g), mn)
    if adjoint:
        kernel = np.conj(kernel).T
    return (kernel * np.asarray(x, dtype=np.clongdouble)).sum(axis=1) / np.sqrt(np.longdouble(mn))


def label_ld(g: SL2Element, x: np.ndarray) -> np.ndarray:
    """One label's unitary on the MN samples x in np.clongdouble: a label [[a, 0], [c, d]]
    as the dilation x[d*n mod MN] times exp(j*pi*c*d*n^2/MN), its half read through inv2
    as the integer index 2*(inv2*c*d*n^2 mod MN) (phases_ld), so an LFM label
    [[1, 0], [2A, 1]] is exp(j*2*pi*A*n^2/MN); any other as its literal GDAFT sum
    (gdaft_ld).  O(MN) for b = 0."""
    if g.b != 0:
        return gdaft_ld(g, x)
    mod = g.mod
    mn = mod.MN
    n = np.arange(mn, dtype=np.int64)
    rate = g.c * g.d * mod.inv2 % mn
    return np.asarray(x, dtype=np.clongdouble)[g.d * n % mn] * phases_ld(2 * (rate * (n * n % mn) % mn), mn)


def chain_ld(mod: Modulus, base: tuple, labels: tuple) -> np.ndarray:
    """The reference of a fast engine's form (base, labels) in np.clongdouble, built from
    the form, each phase phases_ld of its integer index: the pulsone (k0, l0), or the tone
    (0, beta, 1[, gamma]) times exp(j*2*pi*gamma/MN), then each label, first first,
    through label_ld: O(MN) a label with b = 0, (MN)**2 a GDAFT label."""
    mn = mod.MN
    n = np.arange(mn, dtype=np.int64)
    k0, l0, *tone = base
    if tone:
        gamma = tone[1] % mn if len(tone) > 1 else 0
        ref = phases_ld(2 * ((l0 * n + gamma) % mn), mn) / np.sqrt(np.longdouble(mn))
    else:
        ref = np.zeros(mn, dtype=np.clongdouble)
        p = np.arange(mod.N, dtype=np.int64)
        ref[k0 + p * mod.M] = phases_ld(2 * mod.M * p * l0, mn) / np.sqrt(np.longdouble(mod.N))
    for g in labels:
        ref = label_ld(g, ref)
    return ref


def ambiguity_ld(x: np.ndarray, ref: np.ndarray, K, L) -> np.ndarray:
    """The literal cross-ambiguity sum in np.clongdouble at the points (K, L), 1-D arrays,
    A[k, l] = sum_n x[n] * conj(ref[(n - k) mod MN]) * exp(-j*2*pi*l*(n - k)/MN), each
    exponential phases_ld of the integer index -2*(l*((n - k) mod MN) mod MN)."""
    mn = len(ref)
    n = np.arange(mn, dtype=np.int64)
    x, ref = np.asarray(x, dtype=np.clongdouble), np.conj(np.asarray(ref, dtype=np.clongdouble))
    out = np.empty(len(K), dtype=np.clongdouble)
    for i, (k, l) in enumerate(zip(K, L)):
        lag = (n - int(k)) % mn
        out[i] = np.sum(x * ref[lag] * phases_ld(-2 * (int(l) % mn * lag % mn), mn))
    return out


def zak_ld(x: PeriodicSequence, period: int) -> np.ndarray:
    """The literal Zak sum of period P in np.clongdouble, the P x R table, R = MN/P,
    Z[r, m] = R**-0.5 * sum_p x[r + p*P] * exp(-j*2*pi*m*p/R), each exponential
    phases_ld of the integer index -2*m*p, reduced mod 2R."""
    length = x.mod.MN // period
    rows = x.samples.astype(np.clongdouble).reshape(length, period).T  # [r, p] -> x[r + p*P]
    m = np.arange(length, dtype=np.int64)
    kernel = phases_ld(-2 * np.outer(m, m), length)  # [m, p]
    return (rows[:, None, :] * kernel).sum(axis=2) / np.sqrt(np.longdouble(length))


def relative_error_ld(got: np.ndarray, want: np.ndarray) -> float:
    """The largest relative 2-norm error of a row of `got` (a vector is one row)
    against a long-double oracle `want`, in long double."""
    err = np.abs(got.astype(np.clongdouble) - want) ** 2
    return float(np.sqrt(err.sum(axis=-1) / (np.abs(want) ** 2).sum(axis=-1)).max())


def sl2_matrix(g: SL2Element) -> np.ndarray:
    """Dense matrix of a label g: its GDAFT kernel, or for a b that is not invertible
    (b = 0 too) the product of the two kernels of its shear_pair, which equals the
    matrix of sl2_apply(g, .) for b = 0 with global phase 1."""
    if gcd(g.b, g.mod.MN) == 1:
        return gdaft_kernel(g)
    first, second = shear_pair(g)
    return gdaft_kernel(second) @ gdaft_kernel(first)


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


def table_entries(engine) -> np.ndarray:
    """The table entry every point of a fast engine's grid reads, as its index into the
    raveled table.  The point (K, L) reads the entry [(k + k0) mod P, (l + l0) mod R]
    of the P x R table at (k, l) = G(K, L) = (a*K + b*L, c*K + d*L) mod MN, the index
    map of the FastEngine docstring."""
    pre, G = engine._pre, engine._G
    mn = engine.mod.MN
    period, length = pre.rowfft.shape
    K, L = np.indices(engine.shape, dtype=np.int64)
    k, l = (G.a * K + G.b * L) % mn, (G.c * K + G.d * L) % mn
    return (k + pre.k0) % period * length + (l + pre.l0) % length


def table_magnitudes(engine) -> np.ndarray:
    """|A| at every point of a fast engine's grid as the engine's identity gives it:
    Python's abs(t) of the point's table entry t (table_entries)."""
    entries = engine._pre.rowfft.ravel()[table_entries(engine)]
    return np.array([abs(t) for t in entries.ravel().tolist()]).reshape(engine.shape)


def table_abs_fields(engine) -> list[str]:
    """The abs field of every line of a fast engine's k,l,re,im,abs CSV, row-major:
    "{:.17g}" of its table_magnitudes."""
    return list(map("{:.17g}".format, table_magnitudes(engine).ravel().tolist()))
