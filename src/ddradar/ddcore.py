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

from .errors import ConfigurationError, ModulusMismatch
from .modmath import Modulus

__all__ = [
    "PeriodicSequence",
    "QuasiPeriodicArray",
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

    @classmethod
    def zeros(cls, mod: Modulus) -> "PeriodicSequence":
        return cls(mod, np.zeros(mod.MN, dtype=np.complex128))

    @classmethod
    def basis(cls, mod: Modulus, n: int) -> "PeriodicSequence":
        """Standard basis vector e_n (index reduced mod MN)."""
        samples = np.zeros(mod.MN, dtype=np.complex128)
        samples[n % mod.MN] = 1.0
        return cls(mod, samples)

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))


@dataclass(frozen=True)
class QuasiPeriodicArray:
    """M x N delay-Doppler array; extension rule applied by extend(), never stored."""

    mod: Modulus
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != (self.mod.M, self.mod.N):
            raise ConfigurationError(
                f"expected shape {(self.mod.M, self.mod.N)}, got {arr.shape}"
            )
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, mod: Modulus) -> "QuasiPeriodicArray":
        return cls(mod, np.zeros((mod.M, mod.N), dtype=np.complex128))

    def extend(self, k: int, l: int) -> complex:
        """Quasi-periodic extension at any integer (k, l).

        X[k + n*M, l + m*N] = exp(j*2*pi*n*l/N) * X[k, l].
        """
        M, N = self.mod.M, self.mod.N
        n = k // M
        phase = np.exp(1j * 2 * np.pi * n * (l % N) / N)
        return complex(phase * self.values[k % M, l % N])


def _require_same_mod(a, b) -> None:
    if a.mod != b.mod:
        raise ModulusMismatch(f"operands use different moduli: {a.mod} vs {b.mod}")


def inner(x: PeriodicSequence, y: PeriodicSequence) -> complex:
    """<x, y> = sum_n x[n] * conj(y[n]) over one period."""
    _require_same_mod(x, y)
    return complex(np.vdot(y.samples, x.samples))


def inner_dd(X: QuasiPeriodicArray, Y: QuasiPeriodicArray) -> complex:
    """Delay-Doppler inner product over the fundamental M x N domain."""
    _require_same_mod(X, Y)
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
# CSV serialisation: header n,re,im, one row per sample.
# Values are printed with 17 significant digits, enough to round-trip float64.

_FMT = "%.17g"


def sequence_to_csv(x: PeriodicSequence, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("n,re,im\n")
        for n, v in enumerate(x.samples):
            fh.write(f"{n},{_FMT % v.real},{_FMT % v.imag}\n")


def sequence_from_csv(path, mod: Modulus) -> PeriodicSequence:
    samples = np.zeros(mod.MN, dtype=np.complex128)
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "n,re,im":
            raise ConfigurationError(f"bad sequence CSV header: {header!r}")
        count = 0
        for line in fh:
            n_s, re_s, im_s = line.strip().split(",")
            samples[int(n_s)] = float(re_s) + 1j * float(im_s)
            count += 1
    if count != mod.MN:
        raise ConfigurationError(f"expected {mod.MN} rows, got {count}")
    return PeriodicSequence(mod, samples)
