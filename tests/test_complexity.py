"""Transform work as a checked property: the FFTs a route asks numpy for, counted exactly.

The wall clock cannot gate complexity on a shared machine, but the transforms a route
runs are exact.  Each test wraps numpy.fft's fft, ifft, fft2 and ifft2, which the
library calls as np.fft.<name>, records the length and the number of transforms of
every call without changing any result, and asserts them for a route at every size.
"""

import math
from collections import Counter

import numpy as np
import pytest

from ddradar.ambiguity import FastEngine
from ddradar.modmath import Modulus
from ddradar.subgroups import LineSubgroup, eigenvector, pulsone_chain
from conftest import rand_unit_seq

SIZES = [(23, 29), (61, 67), (127, 131), (251, 257)]


@pytest.fixture
def transforms(monkeypatch):
    """A Counter of (length, count) for each numpy FFT call, filled as the library runs: a
    call of length n along one axis over an array of S elements is (n, S // n), and a 2-D
    transform is one such record for each of its two axes."""
    seen = Counter()

    def one_axis(name):
        inner = getattr(np.fft, name)

        def counted(a, n=None, axis=-1, **kwargs):
            a = np.asarray(a)
            seen[a.shape[axis] if n is None else n, a.size // a.shape[axis]] += 1
            return inner(a, n=n, axis=axis, **kwargs)
        return counted

    def two_axes(name):
        inner = getattr(np.fft, name)

        def counted(a, s=None, axes=(-2, -1), **kwargs):
            a = np.asarray(a)
            for i, axis in enumerate(axes):
                seen[a.shape[axis] if s is None else s[i], a.size // a.shape[axis]] += 1
            return inner(a, s=s, axes=axes, **kwargs)
        return counted

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, one_axis(name))
    for name in ("fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name, two_axes(name))
    return seen


def _length_mn(transforms, mn):
    """The number of length-MN transforms among the recorded calls."""
    return sum(count * calls for (n, count), calls in transforms.items() if n == mn)


def _work(transforms):
    """The transform work of the recorded calls, sum of n*log2(n) over every transform."""
    return sum(calls * count * n * math.log2(n) for (n, count), calls in transforms.items())


def _lines(M, N):
    """Each line class with the transforms of its labels, as recorded (length, count): the
    rectangular line (a pulsone, no label), a coprime slope (a chirp, whose closed form needs
    none), the (M, 1) line (b = 0: a dilation and a chirp, none), the (1, M) line (b = 0 mod N
    only: one call of N transforms of length M) and the (N, 1) line (b invertible: one GDAFT,
    one length-MN FFT)."""
    mn = M * N
    return {(M, N): Counter(), (1, 2): Counter(), (M, 1): Counter(), (1, M): Counter({(M, N): 1}),
            (N, 1): Counter({(mn, 1): 1})}


def _table(M, N, base):
    """The Zak table's transforms: M rows of length N (one call) for a pulsone base, or one
    length-MN FFT for a tone (period 1)."""
    return Counter({(N, M) if len(base) == 2 else (M * N, 1): 1})


@pytest.mark.parametrize("M, N", SIZES)
def test_eigenvector_transforms(M, N, transforms):
    """eigenvector runs exactly its label's transforms and no other: one length-MN FFT for a
    GDAFT label, one call of N length-M FFTs for the (1, M) line's one-axis label, and none
    for a pulsone, a chirp or a dilation label.  No line runs a length-MN FFT but a GDAFT's."""
    mod = Modulus(M, N)
    for line, labels in _lines(M, N).items():
        transforms.clear()
        eigenvector(LineSubgroup(mod, *line), 5)
        assert _length_mn(transforms, mod.MN) == labels[mod.MN, 1], line
        assert transforms == labels, line


@pytest.mark.parametrize("M, N", SIZES)
def test_engine_setup_transforms(M, N, transforms):
    """FastEngine's set-up runs its label's transforms to undo its chain (as eigenvector builds
    it), and then its Zak table: M rows of length N for a pulsone base (one call), or one
    length-MN FFT for a tone (period 1).  Nothing else: a dilation label, as on the (M, 1)
    line, runs none."""
    mod = Modulus(M, N)
    x = rand_unit_seq(mod, np.random.default_rng(mod.MN))
    for line, labels in _lines(M, N).items():
        base, chain = pulsone_chain(LineSubgroup(mod, *line), 5)
        transforms.clear()
        FastEngine(x, *base, transform=chain)
        assert transforms == labels + _table(M, N, base), line


def _multiples(M, N):
    """Each line class's transform work as a multiple of MN*log2(MN), for the eigenvector and
    for the set-up.  A label costs log2(s)/log2(MN), for the DFT of size s along the primes
    where its b is invertible: 0 for b = 0, log2(M)/log2(MN) on the (1, M) line, whose b is
    0 mod N only, and 1 for a GDAFT.  The Zak table costs log2(N)/log2(MN) for a pulsone and
    1 for a tone."""
    mn = M * N
    m, n = math.log2(M) / math.log2(mn), math.log2(N) / math.log2(mn)
    return {(M, N): (0, n), (1, 2): (0, 1), (M, 1): (0, n), (1, M): (m, m + n), (N, 1): (1, 1 + n)}


@pytest.mark.parametrize("M, N", SIZES)
def test_transform_work(M, N, transforms):
    """The transform work, sum of n*log2(n) over every transform a route runs, is its line
    class's stated multiple of MN*log2(MN) (_multiples), to 1e-12: at most 1 for an
    eigenvector and 2 for an engine set-up, the one-axis label under one half, since M < N.
    A route that took a dense DFT instead of an FFT, or added a transform, would change it."""
    mod = Modulus(M, N)
    unit = mod.MN * math.log2(mod.MN)
    x = rand_unit_seq(mod, np.random.default_rng(mod.MN))
    for line, (eigen, setup) in _multiples(M, N).items():
        assert eigen <= 1 and setup <= 2 and (line != (1, M) or eigen < 0.5)
        transforms.clear()
        eigenvector(LineSubgroup(mod, *line), 5)
        assert _work(transforms) == pytest.approx(eigen * unit, rel=1e-12, abs=0), line
        base, chain = pulsone_chain(LineSubgroup(mod, *line), 5)
        transforms.clear()
        FastEngine(x, *base, transform=chain)
        assert _work(transforms) == pytest.approx(setup * unit, rel=1e-12, abs=0), line
