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
    phases_to_complex,
    quadratic_phase,
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
from conftest import long_double_oracle, roots_of_unity_sum
from oracles import phase_from_whole, phases_ld, zero_array, zero_sequence


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


class TestQuadraticPhase:
    @pytest.mark.parametrize("M, N", [(3, 5), (11, 13), (61, 67)])
    def test_matches_the_definition(self, M, N):
        mod = Modulus(M, N)
        mn = mod.MN
        for alpha, beta, gamma in [(1, 0, 0), (2, 3, 5), (-7, mn + 4, -1)]:
            # the exponent reduced mod MN in exact Python integers, then one float exponential
            expo = np.array([(alpha * i * i + beta * i + gamma) % mn for i in range(mn)])
            np.testing.assert_allclose(quadratic_phase(mn, alpha, beta, gamma),
                                       np.exp(2j * np.pi * expo / mn), atol=1e-13)
        assert quadratic_phase(mn, 0).tolist() == [1] * mn
        np.testing.assert_array_equal(quadratic_phase(mn, 1, 0), quadratic_phase(mn, 1 + mn, -mn, mn))

    @pytest.mark.parametrize("M, N", [(3, 5), (251, 257)])
    def test_any_integer_coefficient_is_its_residue(self, M, N):
        # Python-int reduction first: coefficients far beyond int64 neither overflow nor change a bit
        mod = Modulus(M, N)
        mn = mod.MN
        for alpha, beta, gamma in [(10**19 + 7, 3 * 10**20 + 11, -5), (-(10**30) - 1, -1, 10**40)]:
            np.testing.assert_array_equal(quadratic_phase(mn, alpha, beta, gamma),
                                          quadratic_phase(mn, alpha % mn, beta % mn, gamma % mn))

    def test_gathers_from_the_roots_table(self, mod15):
        got = quadratic_phase(15, 2, 1, 3)
        want = [to_complex(2 * ((2 * i * i + i + 3) % 15), mod15) for i in range(15)]
        assert got.tolist() == want


@long_double_oracle
class TestLongDoubleBound:
    """Each phase is within 16*u of exp(j*pi*p/n) in absolute error, u = 2**-53.

    Measured on x86-64 (80-bit long double): 5.8 to 8.0 u for n from 15 to
    1,022,117.  A roots table built by a running product of one root errs by
    17,487 u at n = 64,507.
    """

    U = 2.0**-53

    @pytest.mark.parametrize("n", [15, 30, 667, 4087, 64507])  # 30: a coded period MN*chip
    def test_phases_to_complex(self, n):
        p = np.arange(2 * n)
        got = phases_to_complex(p, n).astype(np.clongdouble)
        assert np.abs(got - phases_ld(p, n)).max() <= 16 * self.U

    @pytest.mark.parametrize("n, alpha, beta, gamma", [
        (667, 1, 0, 0),
        (4087, -7, 4087 + 4, -1),
        (64507, 3, 11, 5),
        (64507, 10**19 + 7, -1, 10**40),
    ])
    def test_quadratic_phase(self, n, alpha, beta, gamma):
        # the exponent in exact Python integers, as the phase index 2*(... mod n)
        p = np.array([2 * ((alpha * i * i + beta * i + gamma) % n) for i in range(n)])
        got = quadratic_phase(n, alpha, beta, gamma).astype(np.clongdouble)
        assert np.abs(got - phases_ld(p, n)).max() <= 16 * self.U

    def test_zadoff_chu_rate_is_the_definition(self):
        # exp(-j*pi*root*i*(i+1)/L) at root 5, L = 4087: the ZC rate gathers each sample's own root
        L, root = 4087, 5
        r = -root * ((L + 1) // 2) % L
        i = np.arange(L)
        got = quadratic_phase(L, r, r).astype(np.clongdouble)
        assert np.abs(got - phases_ld(-root * i * (i + 1), L)).max() <= 16 * self.U


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
