"""Literal-definition oracle for the benchmark's output checks.

Self-contained on purpose: it uses numpy only and nothing from ddradar, so a
change to the library cannot change what the benchmark calls correct.  Every
phase is an integer index reduced mod the period before the one complex
exponential, so the oracle itself is exact to rounding.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def root_of_unity(index, period: int) -> np.ndarray:
    """exp(j*2*pi*index/period), with the integer index reduced first."""
    reduced = np.asarray(index, dtype=np.int64) % period
    return np.exp(2j * np.pi * reduced / period)


def pulsone(M: int, N: int, k0: int, l0: int) -> np.ndarray:
    """x[k0 + p*M] = exp(j*2*pi*p*l0/N)/sqrt(N), zero elsewhere."""
    x = np.zeros(M * N, dtype=np.complex128)
    p = np.arange(N, dtype=np.int64)
    x[k0 + p * M] = root_of_unity(p * l0 * M, M * N) / np.sqrt(N)
    return x


def chirp(mn: int, alpha: int, beta: int) -> np.ndarray:
    """exp(j*2*pi*(alpha*n^2 + beta*n)/MN)/sqrt(MN)."""
    n = np.arange(mn, dtype=np.int64)
    return root_of_unity(alpha * (n * n % mn) + beta * n, mn) / np.sqrt(mn)


def zadoff_chu(root: int, length: int) -> np.ndarray:
    """exp(-j*pi*root*n*(n+1)/L)/sqrt(L); n*(n+1) is even, so the phase is whole."""
    n = np.arange(length, dtype=np.int64)
    return root_of_unity(-root * (n * (n + 1) // 2 % length), length) / np.sqrt(length)


def gdaft(mn: int, g: tuple[int, int, int, int], x: np.ndarray) -> np.ndarray:
    """(W x)[n] = sum_n1 exp(j*pi*b^-1*(d*n^2 - 2*n*n1 + a*n1^2)/MN) x[n1] / sqrt(MN).

    The half-integer exponent is read in the ring: division by two is
    multiplication by the inverse of 2 mod MN (MN is odd).  Only the nonzero
    samples of x enter the sum.
    """
    a, b, _, d = g
    half_binv = pow(2, -1, mn) * pow(b, -1, mn) % mn
    n = np.arange(mn, dtype=np.int64)
    n1 = np.flatnonzero(x)
    quad = (d * (n * n % mn))[:, None] + (a * (n1 * n1 % mn))[None, :] - 2 * np.outer(n, n1) % mn
    kernel = root_of_unity(half_binv * (quad % mn), mn)
    return kernel @ x[n1] / np.sqrt(mn)


def _crt(res_m: int, res_n: int, M: int, N: int) -> int:
    """The x mod MN with x = res_m mod M and x = res_n mod N."""
    return (res_m * N * pow(N, -1, M) + res_n * M * pow(M, -1, N)) % (M * N)


def mapping_direction(M: int, N: int, src, dst) -> tuple[int, int, int, int]:
    """Determinant-1 matrix g with g*src = dst, built prime by prime.

    This is the transport the simulator documents for lines that are neither
    rectangular nor of coprime slope: src and dst are each completed to a
    determinant-1 basis mod p, and g = V * U^-1.
    """

    def complete(u1: int, u2: int, p: int) -> tuple[int, int, int, int]:
        if u1 % p:
            return u1 % p, u2 % p, 0, pow(u1, -1, p)
        return u1 % p, u2 % p, (-pow(u2, -1, p)) % p, 0

    def solve(p: int) -> tuple[int, int, int, int]:
        u1, u2, ux, uy = complete(src[0], src[1], p)
        v1, v2, vx, vy = complete(dst[0], dst[1], p)
        return (
            (v1 * uy - vx * u2) % p,
            (-v1 * ux + vx * u1) % p,
            (v2 * uy - vy * u2) % p,
            (-v2 * ux + vy * u1) % p,
        )

    gm, gn = solve(M), solve(N)
    return tuple(_crt(em, en, M, N) for em, en in zip(gm, gn))


def transport(M: int, N: int, g, x: np.ndarray) -> np.ndarray:
    """A unitary realising label g applied to x, up to a global unimodular phase.

    Direct GDAFT when b is invertible; otherwise through the shear
    S = [[1, s], [0, 1]] with both S*g and S^-1 having invertible b.
    """
    mn = M * N
    a, b, c, d = g
    if gcd(b, mn) == 1:
        return gdaft(mn, g, x)
    s = next(s for s in range(1, mn) if gcd(s, mn) == 1 and gcd(b + s * d, mn) == 1)
    sheared = ((a + s * c) % mn, (b + s * d) % mn, c, d)
    return gdaft(mn, (1, (-s) % mn, 0, 1), gdaft(mn, sheared, x))


def apply_channel(mn: int, taps, x: np.ndarray) -> np.ndarray:
    """y[n] = sum_taps h * x[(n-k) mod MN] * exp(j*2*pi*l*(n-k)/MN)."""
    n = np.arange(mn, dtype=np.int64)
    y = np.zeros(mn, dtype=np.complex128)
    for k, l, h in taps:
        offsets = (n - k) % mn
        y += h * x[offsets] * root_of_unity(l * offsets, mn)
    return y


def add_noise(y: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Seeded complex Gaussian noise whose expected energy is ||y||^2 / 10^(snr/10)."""
    mn = y.size
    var = float(np.linalg.norm(y)) ** 2 / (mn * 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
    return y + w * np.sqrt(var / 2.0)


def ambiguity_points(x: np.ndarray, y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """A_{x,y}[k, l] = sum_n x[n] conj(y[(n-k) mod L]) exp(-j*2*pi*l*((n-k) mod L)/L)."""
    length = x.size
    n = np.arange(length, dtype=np.int64)
    k = points[:, 0:1] % length
    l = points[:, 1:2] % length
    offsets = (n[None, :] - k) % length
    terms = x[None, :] * np.conj(y[offsets]) * root_of_unity(-l * offsets, length)
    return terms.sum(axis=1)


def line_hits_region(mn: int, c: int, d: int, width_k: int, width_l: int) -> bool:
    """True iff a nonzero point of the line {x*(c, d)} lies in region - region.

    That is exactly when translates of a width_k x width_l rectangle by the
    line support overlap, so a readout over it would alias.
    """
    x = np.arange(1, mn, dtype=np.int64)
    k = x * c % mn
    l = x * d % mn
    near_k = (k <= width_k - 1) | (mn - k <= width_k - 1)
    near_l = (l <= width_l - 1) | (mn - l <= width_l - 1)
    return bool(np.any(near_k & near_l))
