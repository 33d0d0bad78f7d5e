"""SL2(Z_MN)-labelled unitary transforms that rotate ambiguity surfaces.

One realisation covers the group.  A label with invertible b is the
generalised discrete affine Fourier transform (GDAFT)

    (W x)[n] = (1/sqrt(MN)) * sum_n1 exp(j*pi*binv*(d*n^2 - 2*n*n1 + a*n1^2)/MN) * x[n1].

The half-integer exponents are evaluated ring-exactly: since MN is odd, the
division by two is multiplication by inv2 = (MN+1)/2 in Z_MN, and every
exponent is an integer reduced mod 2MN before the single complex
exponential call.  This is the reading under which b*binv = 1 holds exactly
inside the exponent, making the shift-conjugation law and the ambiguity
remap law identities rather than approximations; the literal
real-division-by-pi reading breaks both for labels such as [[1, 1], [0, 1]].

The kernel is never formed.  Splitting the exponent term by term, the
cross term -2*inv2*binv*n*n1 = -binv*n*n1 is a DFT kernel read at the
permuted bin binv*n mod MN, so the transform is chirp, FFT, chirp.  Under
the Chinese remainder theorem, Z_MN = Z_M x Z_N, the same holds prime by
prime (the Weil representation splits into one factor per prime), which
realises every label in one step:

    W x   = c_gamma * DFT_S(c_alpha * x)[r*n mod MN] / sqrt(s)
    W^H y = conj(c_alpha) * IDFT_S(conj(c_gamma) * y)[r'*n mod MN] * sqrt(s)

with S the primes where b is invertible, s their product, and the
integer-index chirps c_alpha[n] = exp(j*2*pi*alpha*n^2/MN) and c_gamma
likewise, both modmath.quadratic_phase, the one quadratic phase that the
chirp waveforms also read.  alpha, r and gamma are joined by
modmath.crt_join from one part per prime p:

* b = 0 mod p: alpha = 0, the dilation r = d, and gamma = c*d/2;
* b invertible mod p: alpha = a/(2b), r = 1/b and gamma = d/(2b).

r' is r mod a prime in S, and the inverse dilation a mod a prime off S.
DFT_S takes one of three forms:

* S empty (b = 0): no transform, the gather x[d*n mod MN] (none for d = 1)
  times the chirp exp(j*pi*c*d*n^2/MN), in O(MN) with no FFT; LFM,
  quadratic-phase multiplication, is its a = 1 case, and W^H is the
  realisation of g^-1;
* S both primes: the length-MN FFT, the GDAFT, O(MN log MN);
* S one prime p (b = 0 mod the other prime q only): a length-p FFT along
  p's axis of the Good-Thomas view, whose input point is n1*q + n2*p mod MN
  and whose output point keeps its residue mod q and takes the bin as its
  residue mod p, O(MN log p).  Under the CRT exp(j*2*pi*x/MN) =
  exp(j*2*pi*x_p*(1/q mod p)/p) * exp(j*2*pi*x_q*(1/p mod q)/q), so this is
  the p-factor of the length-MN DFT.

Each realisation costs O(MN) memory.  Every label's W satisfies its remap
law (AmbiguityRemap) exactly; chain_apply realises chains, and chain_adjoint
undoes them exactly.
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


def _check_lfm_rate(mod: Modulus, A: int) -> None:
    """Refuse with NotCoprime an LFM rate that shares a factor with MN."""
    if gcd(A, mod.MN) != 1:
        raise NotCoprime(f"LFM rate {A} shares a factor with MN = {mod.MN}")


def _check_gdaft_b(mod: Modulus, b: int) -> None:
    """Refuse with BNotCoprime a GDAFT label whose b is not invertible mod MN."""
    if gcd(b, mod.MN) != 1:
        raise BNotCoprime(f"GDAFT needs gcd(b, MN) = 1, got b = {b}, MN = {mod.MN}")


def lfm_apply(A: int, x: PeriodicSequence) -> PeriodicSequence:
    """Multiply by the quadratic phase exp(j*2*pi*A*n^2/MN); requires gcd(A, MN) = 1.

    The realisation of the label lfm(A) = [[1, 0], [2A, 1]]: the phase
    modmath.quadratic_phase(MN, A), exact for any integer A.
    """
    _check_lfm_rate(x.mod, A)
    return _realise(SL2Element.lfm(x.mod, A), x)


def gdaft_apply(g: SL2Element, x: PeriodicSequence) -> PeriodicSequence:
    """Generalised discrete affine Fourier transform of x for label g; needs b invertible.

    For g = [[0, 1], [-1, 0]] this reduces to the unitary DFT.  Unitary for
    every admissible g; maps impulse trains to constant-modulus waveforms
    exactly when gcd(a, N) = 1 (the quadratic Gauss sum over the train slots
    degenerates otherwise).  O(MN log MN): chirp, FFT, permuted chirp.  Like
    gdaft_adjoint, within 6*u*log2(MN) of the exact sum, relative in the
    2-norm, u = 2**-53 (a tier-1 test against a long-double oracle).
    """
    _check_gdaft_b(g.mod, g.b)
    return _realise(g, x)


def gdaft_adjoint(g: SL2Element, x: PeriodicSequence) -> PeriodicSequence:
    """Exact inverse (conjugate transpose) of gdaft_apply for the same g."""
    _check_gdaft_b(g.mod, g.b)
    return _realise(g, x, adjoint=True)


def _realise(g: SL2Element, x: PeriodicSequence, adjoint: bool = False) -> PeriodicSequence:
    """The unitary W of the label g on x, or with `adjoint` its exact inverse W^H.

    Built prime by prime (module docstring): alpha, r and gamma are joined from
    their residues mod M and mod N, and the DFT runs along the primes S where b
    is invertible, of size s = prod(S).  W^H x = conj(c_alpha) *
    IDFT_S(conj(c_gamma) * x)[r'*n] * sqrt(s), with r' = r mod a prime in S and
    the inverse dilation a mod a prime off S; a b = 0 label is undone by the
    realisation of g^-1.  numpy's complex product is not bitwise commutative, so
    the operand order of each product is fixed: samples first for a dilation and
    a chirp, chirp first after a DFT.
    """
    same_modulus(g, x)
    if adjoint and g.b == 0:
        g, adjoint = g.inverse(), False
    mod = g.mod
    mn = mod.MN

    def part(p: int) -> tuple[int, int, int]:
        # (alpha, r, gamma) mod p, with 1/2 = (p + 1)/2
        a, b, c, d = (v % p for v in (g.a, g.b, g.c, g.d))
        if b == 0:
            return 0, a if adjoint else d, (p + 1) // 2 * c * d
        binv = mod_inv(b, p)
        return (p + 1) // 2 * binv * a, binv, (p + 1) // 2 * binv * d

    alpha, r, gamma = (crt_join(en, em, mod) for em, en in zip(part(mod.M), part(mod.N)))
    axes = [p for p in (mod.M, mod.N) if g.b % p]
    if not axes:  # a dilation and a chirp, no gather for r = 1
        samples = x.samples if r == 1 else x.samples[reduce_mod(r * np.arange(mn, dtype=np.int64), mn)]
        return PeriodicSequence(x.mod, samples * quadratic_phase(mn, gamma))
    z = quadratic_phase(mn, gamma if adjoint else alpha)
    z = (np.conj(z) if adjoint else z) * x.samples
    transform = np.fft.ifft if adjoint else np.fft.fft
    n = np.arange(mn, dtype=np.int64)
    size = axes[0] if len(axes) == 1 else mn
    if size == mn:
        spectrum = transform(z)
        del z
        spectrum = spectrum[reduce_mod(r * n, mn)]
    else:
        # Good-Thomas: the point n1*q + n2*p is [n1, n2]; after the length-p transform
        # along n1, the point k is [k mod p, n2] for the n2 with n2*p = k mod q
        p, q = size, mn // size
        spectrum = transform(z[reduce_mod(n[:p, None] * q + n[:q] * p, mn)], axis=0)
        del z
        spectrum = spectrum[reduce_mod(r % p * n, p), reduce_mod(r * mod_inv(p, q) % q * n, q)]
    del n
    last = quadratic_phase(mn, alpha if adjoint else gamma)
    if adjoint:
        return PeriodicSequence(x.mod, np.conj(last) * spectrum * np.sqrt(size))
    return PeriodicSequence(x.mod, last * spectrum / np.sqrt(size))


def chain_apply(labels: tuple[SL2Element, ...], x: PeriodicSequence) -> PeriodicSequence:
    """Apply labels to x, first label first, each through its one realisation."""
    for g in labels:
        x = _realise(g, x)
    return x


def chain_adjoint(labels: tuple[SL2Element, ...], x: PeriodicSequence) -> PeriodicSequence:
    """Exact inverse of chain_apply: each label's inverse realisation, last label first."""
    for g in reversed(labels):
        x = _realise(g, x, adjoint=True)
    return x


@dataclass(frozen=True)
class AmbiguityRemap:
    """Index map and phase law relating A_{x,y} to A_{Wx,Wy}.

    A_{x,y}[k, l] = exp(j*pi*phase_index(k, l)/MN) * A_{Wx,Wy}[g.apply_vec(k, l)]
    where phase_index is the ring-exact reduction of
    -(a*c*k^2 + b*d*l^2 + 2*b*c*l*k) to an even index mod 2MN.  For a label
    [[a, 0], [c, d]], a dilation and a chirp, this specialises to -a*c*k^2, the
    factor exp(-j*pi*a*c*k^2/MN) in front of A_{Wx,Wy}[a*k, c*k + d*l]; for the
    LFM label [[1, 0], [2A, 1]] to exp(-j*2*pi*A*k^2/MN) in front of
    A_{Wx,Wy}[k, 2A*k + l].

    W realises g in one step (chain_apply of g alone, for any label), or g is
    a product of labels and W is their chain (chain_apply): the form is
    k'*l' - k*l for (k', l') = g(k, l), so the labels' phases telescope to the
    composite's.
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
        return int(idx) if idx.ndim == 0 else idx

    def target(self, k: int, l: int) -> tuple[int, int]:
        return self.g.apply_vec(k, l)


def remap_for(g: SL2Element) -> AmbiguityRemap:
    """Ambiguity remap of any label g, which its one-step realisation satisfies exactly."""
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
