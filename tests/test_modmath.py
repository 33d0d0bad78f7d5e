import cmath
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddradar.ambiguity import (
    AmbiguitySurface,
    FastEngine,
    cross_ambiguity_fft,
    cross_ambiguity_naive,
    cross_ambiguity_point,
)
from ddradar.ddcore import inner, inner_dd
from ddradar.errors import ConfigurationError, ModulusMismatch, NotInvertible
from ddradar.heisenberg import HeisenbergElement, apply_dd, apply_td, compose
from ddradar.modmath import (
    Modulus,
    crt_join,
    is_prime,
    mod_inv,
    phase_mul,
    to_complex,
)
from ddradar.radarsim import (
    ScatteringEnvironment,
    apply_channel,
    form_image,
    predicted_image,
    readout_targets,
)
from ddradar.subgroups import DDRegion, LineSubgroup, pulsone
from ddradar.symplectic import SL2Element, gdaft_adjoint, gdaft_apply
from conftest import roots_of_unity_sum
from oracles import phase_from_whole, zero_array, zero_sequence


class TestModulus:
    def test_accepts_distinct_odd_primes(self):
        mod = Modulus(3, 5)
        assert mod.MN == 15 and mod.twoMN == 30

    @pytest.mark.parametrize("m, n", [(9, 5), (3, 15), (4, 5), (3, 3), (1, 5), (2, 7)])
    def test_rejects_bad_pairs(self, m, n):
        with pytest.raises(ConfigurationError):
            Modulus(m, n)

    def test_allow_composite_escape_hatch(self):
        mod = Modulus(9, 5, allow_composite=True)
        assert mod.MN == 45
        # evenness is never allowed: 2 must stay invertible mod MN
        with pytest.raises(ConfigurationError):
            Modulus(4, 5, allow_composite=True)

    def test_inv2(self):
        mod = Modulus(3, 5)
        assert (2 * mod.inv2) % mod.MN == 1


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
        for n in range(40):
            assert is_prime(n) == (n in primes)

    def test_larger(self):
        assert is_prime(1009)
        assert not is_prime(1007)  # 19 * 53


class TestGcdInverse:
    @pytest.mark.parametrize("a, b, expected", [(12, 18, 6), (0, 7, 7), (15, 4, 1), (0, 0, 0)])
    def test_gcd_examples(self, a, b, expected):
        assert gcd(a, b) == expected

    @pytest.mark.parametrize("a, n, expected", [(3, 5, 2), (1, 15, 1), (7, 15, 13)])
    def test_mod_inv_examples(self, a, n, expected):
        assert mod_inv(a, n) == expected
        # cross-check by exhaustive search
        assert expected in [x for x in range(n) if (a * x) % n == 1]

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inv(6, 15)

    @pytest.mark.parametrize("n", [15, 35])
    def test_inverse_property_exhaustive(self, n):
        for a in range(1, n):
            if gcd(a, n) == 1:
                assert (mod_inv(a, n) * a) % n == 1
            else:
                with pytest.raises(NotInvertible):
                    mod_inv(a, n)


class TestCrt:
    def test_zero(self, mod15):
        assert crt_join(0, 0, mod15) == 0

    def test_single_component(self, mod15):
        # x = M * (M^-1 mod N) carries residues (1 mod N, 0 mod M)
        x = (mod15.M * mod_inv(mod15.M, mod15.N)) % mod15.MN
        assert x == 6
        assert crt_join(1, 0, mod15) == x

    def test_x7_against_brute_force(self, mod15):
        # the unique pair satisfying the recomposition, found by scanning Z_5 x Z_3
        matches = [
            (a, b)
            for a in range(mod15.N)
            for b in range(mod15.M)
            if crt_join(a, b, mod15) == 7
        ]
        assert matches == [(7 % mod15.N, 7 % mod15.M)]

    def test_round_trip_exhaustive(self, mod15):
        for x in range(mod15.MN):
            assert crt_join(x % mod15.N, x % mod15.M, mod15) == x


class TestPhases:
    def test_identity_and_negation(self, mod15):
        assert phase_mul(0, 17, mod15) == 17
        assert phase_mul(15, 15, mod15) == 0  # (-1) * (-1) = 1
        assert phase_mul(2, 3, mod15) == 5

    def test_to_complex_special_values(self, mod15):
        assert to_complex(0, mod15) == 1
        assert abs(to_complex(mod15.MN, mod15) - (-1)) < 1e-15
        assert abs(to_complex(phase_from_whole(1, mod15), mod15) - cmath.exp(2j * cmath.pi / 15)) < 1e-15

    @given(st.integers(0, 29), st.integers(0, 29))
    def test_phase_mul_matches_complex_product(self, p1, p2):
        mod = Modulus(3, 5)
        lhs = to_complex(phase_mul(p1, p2, mod), mod)
        rhs = to_complex(p1, mod) * to_complex(p2, mod)
        assert abs(lhs - rhs) < 1e-12

    @given(st.integers(0, 10_000))
    def test_to_complex_unimodular(self, p):
        assert abs(abs(to_complex(p, Modulus(3, 5))) - 1.0) < 1e-15


class TestRootsOfUnityIdentity:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_sum_over_roots(self, n):
        for k in range(-n, 2 * n + 1):
            total = roots_of_unity_sum(n, k)
            if k % n == 0:
                assert abs(total - n) < 1e-9
            else:
                assert abs(total) < 1e-9


# every entry point that takes two operands over Z_MN, called over (3,5) and (3,7)
_A, _B = Modulus(3, 5), Modulus(3, 7)
_MIXED = {
    "cross_ambiguity_point": lambda: cross_ambiguity_point(pulsone(_A, 0, 0), pulsone(_B, 0, 0), 0, 0),
    "cross_ambiguity_naive": lambda: cross_ambiguity_naive(pulsone(_A, 0, 0), pulsone(_B, 0, 0)),
    "cross_ambiguity_fft": lambda: cross_ambiguity_fft(pulsone(_A, 0, 0), pulsone(_B, 0, 0)),
    "gdaft_apply": lambda: gdaft_apply(SL2Element(_A, 0, 1, -1, 0), pulsone(_B, 0, 0)),
    "gdaft_adjoint": lambda: gdaft_adjoint(SL2Element(_A, 0, 1, -1, 0), pulsone(_B, 0, 0)),
    "SL2Element.matmul": lambda: SL2Element.identity(_A).matmul(SL2Element.identity(_B)),
    "apply_td": lambda: apply_td(HeisenbergElement.identity(_A), zero_sequence(_B)),
    "apply_dd": lambda: apply_dd(HeisenbergElement.identity(_A), zero_array(_B)),
    "compose": lambda: compose(HeisenbergElement.identity(_A), HeisenbergElement.identity(_B)),
    "inner": lambda: inner(zero_sequence(_A), zero_sequence(_B)),
    "inner_dd": lambda: inner_dd(zero_array(_A), zero_array(_B)),
    "apply_channel": lambda: apply_channel(ScatteringEnvironment(_A, ()), pulsone(_B, 0, 0)),
    "form_image": lambda: form_image(pulsone(_A, 0, 0), pulsone(_B, 0, 0), pulsone_indices=(0, 0)),
    "predicted_image": lambda: predicted_image(
        ScatteringEnvironment(_A, ()), AmbiguitySurface(_B, "full", np.zeros((_B.MN, _B.MN)))
    ),
    "readout_targets": lambda: readout_targets(
        FastEngine(pulsone(_A, 0, 0), 0, 0, grid="full"), LineSubgroup(_B, 3, 7), DDRegion(0, 0, 0, 0)
    ),
}


@pytest.mark.parametrize("entry", _MIXED)
def test_every_guarded_entry_point_refuses_two_moduli(entry):
    with pytest.raises(ModulusMismatch):
        _MIXED[entry]()
