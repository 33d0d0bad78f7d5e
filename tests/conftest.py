import numpy as np
import pytest

from ddradar import Modulus, PeriodicSequence
from ddradar.heisenberg import HeisenbergElement, apply_td
from oracles import basis_vector


@pytest.fixture(scope="session")
def mod15() -> Modulus:
    return Modulus(3, 5)


@pytest.fixture(scope="session")
def mod1147() -> Modulus:
    return Modulus(31, 37)


def rand_unit_seq(mod: Modulus, rng: np.random.Generator) -> PeriodicSequence:
    samples = rng.standard_normal(mod.MN) + 1j * rng.standard_normal(mod.MN)
    return PeriodicSequence(mod, samples / np.linalg.norm(samples))


def op_matrix(h: HeisenbergElement) -> np.ndarray:
    """Operator-level view of a group element: its matrix on the standard basis."""
    mn = h.mod.MN
    cols = [apply_td(h, basis_vector(h.mod, j)).samples for j in range(mn)]
    return np.stack(cols, axis=1)


def roots_of_unity_sum(n: int, k: int) -> complex:
    """Independent oracle: sum of exp(j*2*pi*k*i/n) over i < n."""
    return complex(sum(np.exp(2j * np.pi * k * i / n) for i in range(n)))
