"""SL2(Z_MN)-labelled unitary transforms that rotate ambiguity surfaces.

Two concrete realisations cover the group: quadratic-phase multiplication
(LFM, lower-triangular label) and the generalised discrete affine Fourier
transform (GDAFT, invertible b entry)

    (W x)[n] = (1/sqrt(MN)) * sum_n1 exp(j*pi*binv*(d*n^2 - 2*n*n1 + a*n1^2)/MN) * x[n1].

The half-integer exponent is evaluated ring-exactly: since MN is odd, the
division by two is multiplication by inv2 = (MN+1)/2 in Z_MN, and every
exponent is an integer reduced mod 2MN before the single complex
exponential call.  This is the reading under which b*binv = 1 holds exactly
inside the exponent, making the shift-conjugation law and the ambiguity
remap law identities rather than approximations; the literal
real-division-by-pi reading breaks both for labels such as [[1, 1], [0, 1]].

The kernel is never formed.  Splitting the exponent term by term, the
cross term -2*inv2*binv*n*n1 = -binv*n*n1 is a DFT kernel read at the
permuted bin binv*n mod MN, so the transform is chirp, FFT, chirp:

    W x  = c_d * FFT(c_a * x)[binv*n mod MN] / sqrt(MN)
    W^H y = conj(c_a) * IFFT(conj(c_d) * y)[binv*n mod MN] * sqrt(MN)

with integer-index chirps c_a[n] = exp(j*pi*2*(inv2*binv*a*n^2 mod MN)/MN)
and c_d likewise with d, both modmath.quadratic_phase, the one quadratic
phase that LFM and the chirp waveforms also read.  Each transform costs
O(MN log MN) time and O(MN) memory.
A general determinant-1 matrix with non-invertible b is realised through a
shear decomposition into two such transforms (sl2_factors), which fixes the
operator only up to a global unimodular phase; chain_apply realises chains,
and chain_adjoint undoes them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .ddcore import PeriodicSequence
from .errors import BNotCoprime, DetNotOne, NotCoprime, ZeroSequence
from .modmath import Modulus, crt_join, mod_inv, quadratic_phase, reduce_mod, same_modulus

__all__ = [
    "AmbiguityRemap",
    "SL2Element",
    "chain_adjoint",
    "chain_apply",
    "gdaft_adjoint",
    "gdaft_apply",
    "lfm_apply",
    "papr_db",
    "remap_for",
    "sl2_factors",
    "sl2_mapping_direction",
]


@dataclass(frozen=True)
class SL2Element:
    """2x2 matrix [[a, b], [c, d]] over Z_MN with determinant 1."""

    mod: Modulus
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        mn = self.mod.MN
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % mn)
        det = (self.a * self.d - self.b * self.c) % mn
        if det != 1:
            raise DetNotOne(f"det = {det} mod {mn}, expected 1")

    @classmethod
    def identity(cls, mod: Modulus) -> "SL2Element":
        return cls(mod, 1, 0, 0, 1)

    @classmethod
    def lfm(cls, mod: Modulus, A: int) -> "SL2Element":
        """Label of the rate-A quadratic phase multiplier: [[1, 0], [2A, 1]]."""
        return cls(mod, 1, 0, 2 * A, 1)

    def matmul(self, other: "SL2Element") -> "SL2Element":
        same_modulus(self, other)
        return SL2Element(
            self.mod,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Element":
        return SL2Element(self.mod, self.d, -self.b, -self.c, self.a)

    def apply_vec(self, k: int, l: int) -> tuple[int, int]:
        """Column action: (k, l) -> (a*k + b*l, c*k + d*l) mod MN."""
        mn = self.mod.MN
        return (self.a * k + self.b * l) % mn, (self.c * k + self.d * l) % mn


def lfm_apply(A: int, x: PeriodicSequence) -> PeriodicSequence:
    """Multiply by the quadratic phase exp(j*2*pi*A*n^2/MN); requires gcd(A, MN) = 1.

    The phase is modmath.quadratic_phase(MN, A), exact for any integer A.
    """
    mod = x.mod
    if gcd(A, mod.MN) != 1:
        raise NotCoprime(f"LFM rate {A} shares a factor with MN = {mod.MN}")
    return PeriodicSequence(mod, x.samples * quadratic_phase(mod.MN, A))


def _gdaft_factors(g: SL2Element) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chirps c_a, c_d and the output permutation binv*n mod MN of the GDAFT for g.

    c_a is modmath.quadratic_phase(MN, inv2*binv*a), exp(j*pi*binv*a*n^2/MN)
    with the half read ring-exactly, and c_d likewise with d.
    """
    mod = g.mod
    if gcd(g.b, mod.MN) != 1:
        raise BNotCoprime(f"GDAFT needs gcd(b, MN) = 1, got b = {g.b}, MN = {mod.MN}")
    binv = mod_inv(g.b, mod.MN)
    half_binv = mod.inv2 * binv
    perm = reduce_mod(binv * np.arange(mod.MN, dtype=np.int64), mod.MN)
    return quadratic_phase(mod.MN, half_binv * g.a), quadratic_phase(mod.MN, half_binv * g.d), perm


def gdaft_apply(g: SL2Element, x: PeriodicSequence) -> PeriodicSequence:
    """Generalised discrete affine Fourier transform of x for label g.

    For g = [[0, 1], [-1, 0]] this reduces to the unitary DFT.  Unitary for
    every admissible g; maps impulse trains to constant-modulus waveforms
    exactly when gcd(a, N) = 1 (the quadratic Gauss sum over the train slots
    degenerates otherwise).  O(MN log MN): chirp, FFT, permuted chirp.  Like
    gdaft_adjoint, within 6*u*log2(MN) of the exact sum, relative in the
    2-norm, u = 2**-53 (a tier-1 test against a long-double oracle).
    """
    same_modulus(g, x)
    c_a, c_d, perm = _gdaft_factors(g)
    spectrum = np.fft.fft(c_a * x.samples)[perm]
    return PeriodicSequence(x.mod, c_d * spectrum / np.sqrt(x.mod.MN))


def gdaft_adjoint(g: SL2Element, x: PeriodicSequence) -> PeriodicSequence:
    """Exact inverse (conjugate transpose) of gdaft_apply for the same g.

    gdaft_apply(g.inverse(), .) agrees only up to a global unimodular phase;
    the adjoint is phase-exact, which the fast ambiguity engine relies on.
    """
    same_modulus(g, x)
    c_a, c_d, perm = _gdaft_factors(g)
    spectrum = np.fft.ifft(np.conj(c_d) * x.samples)[perm]
    return PeriodicSequence(x.mod, np.conj(c_a) * spectrum * np.sqrt(x.mod.MN))


def sl2_factors(g: SL2Element) -> tuple[SL2Element, ...]:
    """GDAFT labels whose product is g, first applied first: (g,) if gcd(b, MN) = 1.

    Otherwise (S g, S^-1) for the shear S = [[1, x0], [0, 1]] with the
    smallest x0 that makes both b entries invertible; their realisation
    matches g only up to a global unimodular phase.
    """
    mod = g.mod
    if gcd(g.b, mod.MN) == 1:
        return (g,)
    for x0 in range(1, mod.MN):
        if gcd(x0, mod.MN) == 1 and gcd(g.b + x0 * g.d, mod.MN) == 1:
            break
    else:  # unreachable for M, N >= 3 (two forbidden residues per prime factor)
        raise DetNotOne(f"no admissible shear found for {g}")
    shear = SL2Element(mod, 1, x0, 0, 1)
    return shear.matmul(g), shear.inverse()


def chain_apply(labels: tuple[SL2Element, ...], x: PeriodicSequence) -> PeriodicSequence:
    """Apply labels to x, first label first: b = 0 as lfm_apply, else gdaft_apply."""
    for g in labels:
        remap_for(g)  # refuses labels neither [[1, 0], [2A, 1]] nor with b invertible
        x = lfm_apply(g.c * g.mod.inv2 % g.mod.MN, x) if g.b == 0 else gdaft_apply(g, x)
    return x


def chain_adjoint(labels: tuple[SL2Element, ...], x: PeriodicSequence) -> PeriodicSequence:
    """Exact inverse of chain_apply: last label first, b = 0 as lfm_apply of the negated
    rate, else gdaft_adjoint, after the same refusals."""
    for g in reversed(labels):
        remap_for(g)
        x = lfm_apply(-g.c * g.mod.inv2 % g.mod.MN, x) if g.b == 0 else gdaft_adjoint(g, x)
    return x


@dataclass(frozen=True)
class AmbiguityRemap:
    """Index map and phase law relating A_{x,y} to A_{Wx,Wy}.

    A_{x,y}[k, l] = exp(j*pi*phase_index(k, l)/MN) * A_{Wx,Wy}[g.apply_vec(k, l)]
    where phase_index is the ring-exact reduction of
    -(a*c*k^2 + b*d*l^2 + 2*b*c*l*k) to an even index mod 2MN.  For the LFM
    label [[1, 0], [2A, 1]] this specialises to -2*A*k^2, i.e. the factor
    exp(-j*2*pi*A*k^2/MN) in front of A_{Wx,Wy}[k, 2A*k + l].

    W realises g alone (remap_for), or g is a product of such labels and W is
    their chain (chain_apply): the form is k'*l' - k*l for (k', l') = g(k, l),
    so the labels' phases telescope to the composite's.
    """

    g: SL2Element

    @property
    def form(self) -> tuple[int, int, int]:
        """Coefficients (a*c, b*d, 2*b*c) mod MN of the quadratic form q in the phase index."""
        g = self.g
        mn = g.mod.MN
        return g.a * g.c % mn, g.b * g.d % mn, 2 * g.b * g.c % mn

    def phase_index(self, k, l):
        """Phase index at (k, l); accepts equal-shape integer arrays."""
        mod = self.g.mod
        mn = mod.MN
        kk, ll, kl = self.form
        k = np.asarray(k, dtype=np.int64) % mn
        l = np.asarray(l, dtype=np.int64) % mn
        quad = kk * (k * k % mn) + ll * (l * l % mn)
        quad = (quad + kl * (l * k % mn)) % mn
        idx = (-2 * (mod.inv2 * quad % mn)) % mod.twoMN
        if idx.ndim == 0:
            return int(idx)
        return idx

    def target(self, k: int, l: int) -> tuple[int, int]:
        return self.g.apply_vec(k, l)


def remap_for(g: SL2Element) -> AmbiguityRemap:
    """Ambiguity remap for a label realisable as LFM (b = 0) or GDAFT (b invertible)."""
    mn = g.mod.MN
    if g.b != 0 and gcd(g.b, mn) != 1:
        raise BNotCoprime(
            f"remap law is defined for b = 0 or gcd(b, MN) = 1, got b = {g.b}"
        )
    # with b = 0, det = 1 forces d = 1/a; every c is 2A for A = c*inv2 (MN is odd)
    if g.b == 0 and g.a != 1:
        raise NotCoprime(
            f"b = 0 labels must be LFM-shaped [[1, 0], [2A, 1]], got {g}"
        )
    return AmbiguityRemap(g)


def sl2_mapping_direction(mod: Modulus, src: tuple[int, int], dst: tuple[int, int]) -> SL2Element:
    """Determinant-1 matrix g with g * src = dst (column action), built per prime factor.

    Both vectors must be nonzero mod M and mod N, which gcd-primitivity of a
    line generator guarantees.
    """

    def complete(u1: int, u2: int, p: int) -> tuple[int, int, int, int]:
        # columns (u1, u2) and (x, y) with det = u1*y - u2*x = 1 mod p
        if u1 % p != 0:
            return u1 % p, u2 % p, 0, mod_inv(u1, p)
        return u1 % p, u2 % p, (-mod_inv(u2, p)) % p, 0

    def solve(p: int) -> tuple[int, int, int, int]:
        u1, u2, ux, uy = complete(src[0], src[1], p)
        v1, v2, vx, vy = complete(dst[0], dst[1], p)
        # g = V * U^-1 with U = [[u1, ux], [u2, uy]], det U = det V = 1
        ui = ((uy, -ux), (-u2, u1))
        a = (v1 * ui[0][0] + vx * ui[1][0]) % p
        b = (v1 * ui[0][1] + vx * ui[1][1]) % p
        c = (v2 * ui[0][0] + vy * ui[1][0]) % p
        d = (v2 * ui[0][1] + vy * ui[1][1]) % p
        return a, b, c, d

    gm = solve(mod.M)
    gn = solve(mod.N)
    a, b, c, d = (crt_join(en, em, mod) for em, en in zip(gm, gn))
    return SL2Element(mod, a, b, c, d)


def papr_db(x: PeriodicSequence) -> float:
    """Peak-to-average power ratio in dB: 10*log10(max|x|^2 / mean|x|^2)."""
    power = np.abs(x.samples) ** 2
    mean = float(power.mean())
    if mean == 0.0:
        raise ZeroSequence("PAPR undefined for the zero sequence")
    return float(10.0 * np.log10(power.max() / mean))
