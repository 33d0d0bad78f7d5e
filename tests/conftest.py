import numpy as np
import pytest

from ddradar import Modulus, PeriodicSequence
from ddradar.heisenberg import HeisenbergElement, apply_td
from ddradar.symplectic import SL2Element
from oracles import basis_vector, shear_pair


# a long-double oracle resolves float64 rounding only where long double is wider
long_double_oracle = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="long double is not wider than float64 here (eps >= 1e-18), "
           "so the long-double oracle cannot resolve float64 rounding")


@pytest.fixture(scope="session")
def mod15() -> Modulus:
    return Modulus(3, 5)


@pytest.fixture(scope="session")
def mod1147() -> Modulus:
    return Modulus(31, 37)


def rand_unit_seq(mod: Modulus, rng: np.random.Generator) -> PeriodicSequence:
    samples = rng.standard_normal(mod.MN) + 1j * rng.standard_normal(mod.MN)
    return PeriodicSequence(mod, samples / np.linalg.norm(samples))


def mixed_chain(mod: Modulus, length: int) -> tuple:
    """A chain of 2, 3 or 4 labels, first applied first: for 2, the shear pair
    (oracles.shear_pair) of [[1, M], [1, 1 + M]], whose b = M is not invertible, two GDAFT
    labels; for 3, the GDAFT label [[1, 2], [7, 15]] and that pair; for 4, the LFM label of
    rate 2, the pair and the GDAFT label."""
    gdaft = SL2Element(mod, 1, 2, 7, 15)
    pair = shear_pair(SL2Element(mod, 1, mod.M, 1, 1 + mod.M))
    return {2: pair, 3: (gdaft, *pair), 4: (SL2Element.lfm(mod, 2), *pair, gdaft)}[length]


def dilation_label(mod: Modulus, a: int, c: int) -> SL2Element:
    """The b = 0 label [[a, 0], [c, 1/a]] for a unit a: a dilation and a chirp."""
    return SL2Element(mod, a, 0, c, pow(a, -1, mod.MN))


def op_matrix(h: HeisenbergElement) -> np.ndarray:
    """Operator-level view of a group element: its matrix on the standard basis."""
    mn = h.mod.MN
    cols = [apply_td(h, basis_vector(h.mod, j)).samples for j in range(mn)]
    return np.stack(cols, axis=1)


def roots_of_unity_sum(n: int, k: int) -> complex:
    """Independent oracle: sum of exp(j*2*pi*k*i/n) over i < n."""
    return complex(sum(np.exp(2j * np.pi * k * i / n) for i in range(n)))
