"""Transform work as a checked property: the FFTs a route asks numpy for, counted exactly.

The wall clock cannot gate complexity on a shared machine, but the transforms a route
runs are exact.  Each test wraps numpy.fft's fft, ifft, fft2 and ifft2, which the
library calls as np.fft.<name>, records the length and the number of transforms of
every call without changing any result, and asserts them for a route at every size.
"""

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


def _lines(M, N):
    """Each line class with its count of length-MN transforms, for the eigenvector and for
    the FastEngine set-up: the rectangular line (a pulsone), a coprime slope (a chirp, whose
    tone table is one FFT), the (M, 1) line (a dilation and a chirp), the (1, M) line (b = 0
    mod N only: a shear pair of GDAFTs) and the (N, 1) line (b invertible: one GDAFT)."""
    return {(M, N): (0, 0), (1, 2): (0, 1), (M, 1): (0, 0), (1, M): (2, 2), (N, 1): (1, 1)}


@pytest.mark.parametrize("M, N", SIZES)
def test_eigenvector_transforms(M, N, transforms):
    """eigenvector runs exactly its labels' FFTs of length MN, one a GDAFT label, and no other
    transform; a pulsone, a chirp and a dilation label run none."""
    mod = Modulus(M, N)
    for line, (count, _) in _lines(M, N).items():
        transforms.clear()
        eigenvector(LineSubgroup(mod, *line), 5)
        assert _length_mn(transforms, mod.MN) == count, line
        assert transforms == Counter({(mod.MN, 1): count}), line


@pytest.mark.parametrize("M, N", SIZES)
def test_engine_setup_transforms(M, N, transforms):
    """FastEngine's set-up runs one length-MN FFT a GDAFT label to undo its chain, and then
    its Zak table: M rows of length N for a pulsone base (one call), or one length-MN FFT for
    a tone (period 1).  Nothing else: a dilation label, as on the (M, 1) line, runs none."""
    mod = Modulus(M, N)
    x = rand_unit_seq(mod, np.random.default_rng(mod.MN))
    for line, (_, count) in _lines(M, N).items():
        base, labels = pulsone_chain(LineSubgroup(mod, *line), 5)
        transforms.clear()
        FastEngine(x, *base, transform=labels)
        table = (N, M) if len(base) == 2 else (mod.MN, 1)  # a pulsone's Zak table, or a tone's
        assert _length_mn(transforms, mod.MN) == count, line
        assert transforms == Counter({(mod.MN, 1): count - (table == (mod.MN, 1))}) + Counter({table: 1}), line
