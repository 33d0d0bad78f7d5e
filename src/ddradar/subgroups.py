"""Maximal commutative line subgroups and their eigenbases.

A primitive vector (c, d) mod MN generates the size-MN commutative subgroup
supported on the line {(x*c, x*d) : x in Z_MN}.  Two families of common
eigenvectors have closed forms: pulsones (impulse trains with a Doppler
phase progression, for the rectangular M x N grid line) and constant-modulus
discrete chirps (for lines of slope 2*alpha with alpha invertible).  Every
other line is reached by transporting the pulsone basis with a symplectic
transform that maps the rectangular direction onto the target direction.

The crystallization check decides whether a rectangular delay-Doppler region
can be read out alias-free against a given line: translates of the region by
the line support must be pairwise disjoint on the MN x MN torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .ddcore import PeriodicSequence
from .errors import AlphaNotCoprime, ConfigurationError, IndexOutOfRange, NotPrimitive
from .modmath import Modulus, mod_inv, phases_to_complex, quadratic_phase
from .symplectic import SL2Element, chain_apply, sl2_factors, sl2_mapping_direction

__all__ = [
    "DDRegion",
    "LineSubgroup",
    "chain_waveform",
    "chirp",
    "crystallization_check",
    "eigenvector",
    "pulsone",
    "pulsone_chain",
]


@dataclass(frozen=True)
class LineSubgroup:
    """Line {(x*c, x*d)} mod MN with primitive generator (c, d)."""

    mod: Modulus
    c: int
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", self.c % self.mod.MN)
        object.__setattr__(self, "d", self.d % self.mod.MN)
        if gcd(self.c, self.d) != 1:
            raise NotPrimitive(f"generator ({self.c}, {self.d}) has gcd {gcd(self.c, self.d)}")

    def contains(self, k: int, l: int) -> bool:
        """O(1) membership: (k, l) is on the line iff k*d = l*c mod MN."""
        return (k * self.d - l * self.c) % self.mod.MN == 0

    def is_rectangular(self) -> bool:
        return self.contains(self.mod.M, self.mod.N)

    def coprime_slope(self) -> int | None:
        """Return alpha with the line equal to {(k, 2*alpha*k)}, if one exists."""
        mn = self.mod.MN
        if gcd(self.c, mn) != 1 or gcd(self.d, mn) != 1:
            return None
        return (self.d * mod_inv(self.c, mn) % mn) * self.mod.inv2 % mn


@dataclass(frozen=True)
class DDRegion:
    """Inclusive rectangle [k_min, k_max] x [l_min, l_max] in delay-Doppler."""

    k_min: int
    k_max: int
    l_min: int
    l_max: int

    def __post_init__(self) -> None:
        if self.k_min > self.k_max or self.l_min > self.l_max:
            raise ConfigurationError(f"empty region {self}")

    @property
    def width_k(self) -> int:
        return self.k_max - self.k_min + 1

    @property
    def width_l(self) -> int:
        return self.l_max - self.l_min + 1

    def validate(self, mod: Modulus) -> None:
        if self.width_k > mod.MN or self.width_l > mod.MN:
            raise ConfigurationError(f"region wider than MN = {mod.MN}: {self}")


def _check_pulsone(mod: Modulus, k0: int, l0: int) -> None:
    """Refuse with IndexOutOfRange pulsone indices outside the M x N grid."""
    if not (0 <= k0 < mod.M and 0 <= l0 < mod.N):
        raise IndexOutOfRange(f"need 0 <= k0 < M and 0 <= l0 < N, got ({k0}, {l0})")


def pulsone(mod: Modulus, k0: int, l0: int) -> PeriodicSequence:
    """Impulse train v[k0 + p*M] = (1/sqrt(N)) * exp(j*2*pi*p*l0/N), zero elsewhere.

    The (k0, l0)-indexed common eigenvector of the rectangular grid line.
    """
    _check_pulsone(mod, k0, l0)
    samples = np.zeros(mod.MN, dtype=np.complex128)
    p = np.arange(mod.N, dtype=np.int64)
    # exp(j*2*pi*p*l0/N) is the phase index 2*M*p*l0 over Z_MN: p, l0 < N, so below 2*MN*N < 2**63
    samples[k0 + p * mod.M] = phases_to_complex(2 * mod.M * p * l0, mod.MN) / np.sqrt(mod.N)
    return PeriodicSequence(mod, samples)


def _check_alpha(mod: Modulus, alpha: int) -> None:
    """Refuse with AlphaNotCoprime a chirp rate that shares a factor with MN."""
    if gcd(alpha, mod.MN) != 1:
        raise AlphaNotCoprime(f"alpha = {alpha} shares a factor with MN = {mod.MN}")


def chirp(mod: Modulus, alpha: int, beta: int = 0, gamma: int = 0) -> PeriodicSequence:
    """Constant-modulus quadratic-phase sequence exp(j*2*pi*(a*n^2+b*n+g)/MN)/sqrt(MN).

    The common eigenvector family of the slope-2*alpha line; needs
    gcd(alpha, MN) = 1.  The phase is modmath.quadratic_phase(MN, alpha,
    beta, gamma), exact for any integer coefficients.
    """
    _check_alpha(mod, alpha)
    return PeriodicSequence(mod, quadratic_phase(mod.MN, alpha, beta, gamma) / np.sqrt(mod.MN))


def pulsone_chain(line: LineSubgroup, index: int) -> tuple:
    """eigenvector(line, index) as (base, labels), the fast engine's reference form.

    The base is the pulsone (k0, l0) of the M x N grid, or (0, beta, 1) for
    the tone beta, the pulsone of the 1 x MN grid; chain_waveform(mod, base,
    labels) gives its samples, which are the eigenvector.  A coprime-slope
    line gives the tone index under lfm(alpha), the chirp (alpha, index); the
    rectangular line the pulsone with no labels; any other line the pulsone
    under the sl2_factors of a transform g mapping (M, N) onto (c, d): g alone
    when its b is 0 (a dilation and a chirp, as on the (M, 1) line) or
    invertible (one GDAFT), else a shear pair of GDAFTs (as on the (1, M) line).
    """
    mod = line.mod
    if not 0 <= index < mod.MN:
        raise IndexOutOfRange(f"eigenvector index must lie in 0..{mod.MN - 1}, got {index}")
    alpha = line.coprime_slope()
    if alpha is not None:
        return (0, index, 1), (SL2Element.lfm(mod, alpha),)
    labels = ()
    if not line.is_rectangular():
        labels = sl2_factors(sl2_mapping_direction(mod, (mod.M, mod.N), (line.c, line.d)))
    return (index % mod.M, index // mod.M), labels


def chain_waveform(mod: Modulus, base: tuple, labels: tuple) -> PeriodicSequence:
    """The samples of an engine form (base, labels): chain_apply(labels, base), first label first.

    A pulsone base (k0, l0) is pulsone(mod, k0, l0).  A tone base (0, beta, 1[,
    gamma]), of period 1, is read only under a first label lfm(A): the tone under
    it, times exp(j*2*pi*gamma/MN), is chirp(mod, A, beta, gamma) with A =
    c*inv2 mod MN, its closed form, one phase gather a sample, and the rest of
    the labels apply to that chirp.  Any other tone chain is refused with
    ConfigurationError.  Every modulus-bound waveform a command sends is built
    here from the form its fast engine reads.
    """
    if len(base) == 2:
        return chain_apply(labels, pulsone(mod, *base))
    k0, beta, period, *gamma = base
    if k0 != 0 or period != 1 or not labels or labels[0].b != 0 or labels[0].a != 1:
        raise ConfigurationError(f"a tone base {base} is built only under a first LFM label")
    return chain_apply(labels[1:], chirp(mod, labels[0].c * mod.inv2 % mod.MN, beta, *gamma))


def eigenvector(line: LineSubgroup, index: int) -> PeriodicSequence:
    """The index-th of MN orthonormal common eigenvectors of every element of the line.

    chain_waveform of pulsone_chain(line, index): on a coprime-slope line the
    chirp at fixed alpha with beta = index (gamma only contributes a global
    phase); on every other line the pulsone under its labels.  Builds only the
    requested vector.
    """
    return chain_waveform(line.mod, *pulsone_chain(line, index))


def crystallization_check(line: LineSubgroup, region: DDRegion) -> bool:
    """True iff translates of the region by the line support are pairwise disjoint.

    Equivalent formulation used here: no nonzero support point (x*c, x*d),
    0 < x < MN, falls in the difference set region - region on the torus,
    which for a rectangle only depends on the two widths: it holds (k, l)
    iff min(k, MN - k) < width_k and min(l, MN - l) < width_l.
    """
    mod = line.mod
    region.validate(mod)
    mn = mod.MN
    x = np.arange(1, mn, dtype=np.int64)
    k, l = x * line.c % mn, x * line.d % mn
    hit = (np.minimum(k, mn - k) < region.width_k) & (np.minimum(l, mn - l) < region.width_l)
    return not hit.any()
