"""Discrete Heisenberg-Weyl group of cyclic delay shifts and Doppler ramps.

An element is a triple (k, l, phase index) with k, l in Z_MN and the phase
index in Z_2MN (whole phases exp(j*2*pi*m/MN) embed as even indices 2m).
The group law picks up the cross term 2*l1*k2 in the phase index, and two
elements commute exactly when the symplectic form l1*k2 - l2*k1 vanishes
mod MN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ddcore import PeriodicSequence, QuasiPeriodicArray
from .modmath import Modulus, phase_mul, phases_to_complex, same_modulus, to_complex

__all__ = [
    "HeisenbergElement",
    "apply_dd",
    "apply_td",
    "compose",
    "inverse",
]


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element: delay shift k, Doppler shift l, central phase index."""

    mod: Modulus
    k: int
    l: int
    phase: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", self.k % self.mod.MN)
        object.__setattr__(self, "l", self.l % self.mod.MN)
        object.__setattr__(self, "phase", self.phase % self.mod.twoMN)

    @classmethod
    def identity(cls, mod: Modulus) -> "HeisenbergElement":
        return cls(mod, 0, 0, 0)


def apply_td(h: HeisenbergElement, x: PeriodicSequence) -> PeriodicSequence:
    """Time-domain action: out[n] = phase * x[n-k] * exp(j*2*pi*l*(n-k)/MN)."""
    same_modulus(h, x)
    mod = h.mod
    shifted = np.roll(x.samples, h.k)
    offsets = (np.arange(mod.MN) - h.k) % mod.MN
    ramp = phases_to_complex(2 * h.l * offsets, mod.MN)
    return PeriodicSequence(mod, to_complex(h.phase, mod) * shifted * ramp)


def apply_dd(h: HeisenbergElement, X: QuasiPeriodicArray) -> QuasiPeriodicArray:
    """Delay-Doppler action on the fundamental M x N domain.

    out[k', l'] = X[(k'-k) mod M, (l'-l) mod N]
                  * exp(j*2*pi*(l'-l)*floor((k'-k)/M)/N)
                  * exp(j*2*pi*l*(k'-k)/MN) * phase.
    """
    same_modulus(h, X)
    mod = h.mod
    M, N = mod.M, mod.N
    dk = np.arange(M, dtype=np.int64)[:, None] - h.k   # (M, 1)
    dl = np.arange(N, dtype=np.int64)[None, :] - h.l   # (1, N)
    rows = dk % M
    cols = dl % N
    floors = dk // M
    # k, l < MN: the first term is 0, or < 2*MN*(MN-1) with the second <= 0: |idx| < 2*MN**2 < 2**63
    idx = 2 * M * dl * floors + 2 * h.l * dk + h.phase
    looked_up = X.values[np.broadcast_to(rows, (M, N)), np.broadcast_to(cols, (M, N))]
    return QuasiPeriodicArray(mod, looked_up * phases_to_complex(idx, mod.MN))


def compose(h1: HeisenbergElement, h2: HeisenbergElement) -> HeisenbergElement:
    """Group law: shifts add, phases add plus the cross term 2*l1*k2."""
    same_modulus(h1, h2)
    mod = h1.mod
    phase = phase_mul(h1.phase, phase_mul(h2.phase, (2 * h1.l * h2.k) % mod.twoMN, mod), mod)
    return HeisenbergElement(mod, h1.k + h2.k, h1.l + h2.l, phase)


def inverse(h: HeisenbergElement) -> HeisenbergElement:
    """Inverse element (-k, -l, 2*l*k - phase)."""
    return HeisenbergElement(h.mod, -h.k, -h.l, 2 * h.l * h.k - h.phase)
