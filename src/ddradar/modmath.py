"""Exact modular-integer arithmetic for phase and index bookkeeping.

All phases are carried as integer indices p modulo 2*M*N representing the
unit complex number exp(j*pi*p/(M*N)).  Whole phases exp(j*2*pi*m/(M*N))
embed as even indices p = 2*m; the affine Fourier machinery introduces odd
(half-integer) indices, which is why the ring is 2*M*N and not M*N.  A coded
waveform of period L = MN*chip carries its phases likewise, mod 2L.
Keeping indices exact until the final complex evaluation makes group-law
tests bit-exact instead of tolerance-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import ConfigurationError, ModulusMismatch, NotInvertible

__all__ = [
    "Modulus",
    "crt_join",
    "is_prime",
    "mod_inv",
    "phase_mul",
    "phases_to_complex",
    "quadratic_phase",
    "reduce_mod",
    "same_modulus",
    "to_complex",
]

# 2*MN*MN must stay below 2**63 for exact int64 phase arithmetic.
_MN_CAP = 2_147_483_647


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Modulus:
    """The pair of distinct odd primes (M, N) that fixes every grid size.

    `allow_composite=True` skips the primality check; maximality and
    eigenbasis guarantees then no longer hold and the toolkit makes no
    promises beyond basic arithmetic.
    """

    M: int
    N: int
    allow_composite: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.M < 3 or self.N < 3:
            raise ConfigurationError(f"M, N must be >= 3, got ({self.M}, {self.N})")
        if self.M == self.N:
            raise ConfigurationError(f"M and N must be distinct, got M = N = {self.M}")
        if self.M * self.N > _MN_CAP:
            raise ConfigurationError(f"MN = {self.M * self.N} exceeds the 64-bit-safe cap {_MN_CAP}")
        if not self.allow_composite:
            for v in (self.M, self.N):
                if not is_prime(v):
                    raise ConfigurationError(
                        f"{v} is not an odd prime; pass allow_composite to override "
                        "(unsupported: subgroup maximality guarantees are lost)"
                    )
        if self.M % 2 == 0 or self.N % 2 == 0:
            raise ConfigurationError(f"M, N must be odd, got ({self.M}, {self.N})")

    @property
    def MN(self) -> int:
        return self.M * self.N

    @property
    def twoMN(self) -> int:
        return 2 * self.M * self.N

    @property
    def inv2(self) -> int:
        """Inverse of 2 mod MN (exists since MN is odd)."""
        return mod_inv(2, self.MN)


def same_modulus(a, b) -> None:
    """Refuse with ModulusMismatch unless operands a and b live over the same modulus."""
    if a.mod != b.mod:
        raise ModulusMismatch(f"operands use different moduli: {a.mod} vs {b.mod}")


def mod_inv(a: int, n: int) -> int:
    """Inverse of a mod n; raises NotInvertible when gcd(a, n) != 1."""
    try:
        return pow(a, -1, n)
    except ValueError as exc:
        raise NotInvertible(f"{a} has no inverse mod {n} (gcd = {gcd(a, n)})") from exc


def crt_join(a: int, b: int, mod: Modulus) -> int:
    """The x in Z_MN with x = a mod N and x = b mod M (Chinese remainder theorem)."""
    minv = mod_inv(mod.M, mod.N)
    ninv = mod_inv(mod.N, mod.M)
    return (minv * a * mod.M + ninv * b * mod.N) % mod.MN


def phase_mul(p1: int, p2: int, mod: Modulus) -> int:
    """Product of unit phases: index addition mod 2MN."""
    return (p1 + p2) % mod.twoMN


def to_complex(p: int, mod: Modulus) -> complex:
    """Evaluate phase index p as exp(j*pi*p/MN): any integer, reduced mod 2MN first."""
    return complex(phases_to_complex(p % mod.twoMN, mod.MN))


def reduce_mod(x, m: int):
    """x mod m, like x % m, for int64 arrays: x - (x // m) * m, since numpy
    divides by a scalar about twice as fast as it takes the remainder."""
    q = x // m
    q *= m
    return x - q


def phases_to_complex(p: np.ndarray, n: int) -> np.ndarray:
    """exp(j*pi*p/n) for an int64 index array p of period n: the one evaluation of
    a phase index.

    p is reduced mod 2n and gathered from the 2n roots of unity, computed once
    per n; n is MN for a phase over Z_MN and the period L = MN*chip of a coded
    waveform.  Each value is within 16*u of exp(j*pi*p/n), u = 2**-53, in
    absolute error (tests/test_modmath.py checks it against a long-double
    oracle).
    """
    idx = reduce_mod(np.asarray(p, dtype=np.int64), 2 * n)
    return np.take(_roots_of_unity(n), idx, mode="clip")  # idx is already reduced


def quadratic_phase(n: int, alpha: int, beta: int = 0, gamma: int = 0) -> np.ndarray:
    """exp(j*2*pi*(alpha*i^2 + beta*i + gamma)/n) for i = 0..n-1: every chirp's phase,
    of period n (MN for a chirp over Z_MN, L for a Zadoff-Chu code).

    Each coefficient is reduced mod n as a Python int, so any integer is
    exact, and the phase index 2*((alpha*(i*i mod n) + beta*i + gamma) mod n)
    is gathered through phases_to_complex, within its 16*u; up to the
    _MN_CAP every term stays below 2**62, so the int64 sum cannot overflow.
    """
    i = np.arange(n, dtype=np.int64)
    index = alpha % n * reduce_mod(i * i, n) + beta % n * i + gamma % n
    return phases_to_complex(2 * reduce_mod(index, n), n)


@lru_cache(maxsize=16)
def _roots_of_unity(mn: int) -> np.ndarray:
    roots = np.exp(1j * np.pi / mn * np.arange(2 * mn, dtype=np.int64))
    roots.flags.writeable = False  # shared by every caller through the cache
    return roots
