import numpy as np
import pytest

from ddradar.ddcore import QuasiPeriodicArray, dzt, idzt
from ddradar.errors import ModulusMismatch
from ddradar.heisenberg import (
    HeisenbergElement,
    apply_dd,
    apply_td,
    compose,
    inverse,
)
from ddradar.modmath import Modulus, to_complex
from conftest import op_matrix, rand_unit_seq
from oracles import basis_vector, commutator_phase, commutes, extend, zero_sequence


class TestApplyTd:
    def test_identity(self, mod15):
        rng = np.random.default_rng(0)
        x = rand_unit_seq(mod15, rng)
        out = apply_td(HeisenbergElement.identity(mod15), x)
        np.testing.assert_array_equal(out.samples, x.samples)

    def test_pure_delay(self, mod15):
        e0 = basis_vector(mod15, 0)
        out = apply_td(HeisenbergElement(mod15, 1, 0), e0)
        np.testing.assert_allclose(out.samples, basis_vector(mod15, 1).samples, atol=1e-15)

    def test_doppler_ramp_fixes_impulse_at_origin(self, mod15):
        e0 = basis_vector(mod15, 0)
        out = apply_td(HeisenbergElement(mod15, 0, 1), e0)
        np.testing.assert_allclose(out.samples, e0.samples, atol=1e-15)

    def test_unitary(self, mod15):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rand_unit_seq(mod15, rng)
            h = HeisenbergElement(mod15, int(rng.integers(15)), int(rng.integers(15)), int(rng.integers(30)))
            assert apply_td(h, x).norm() == pytest.approx(1.0, abs=1e-12)

    def test_modulus_mismatch(self, mod15):
        with pytest.raises(ModulusMismatch):
            apply_td(HeisenbergElement.identity(Modulus(3, 7)), zero_sequence(mod15))


class TestGroupLaw:
    def test_identity_element(self, mod15):
        h = HeisenbergElement(mod15, 4, 9, 7)
        assert compose(HeisenbergElement.identity(mod15), h) == h
        assert compose(h, HeisenbergElement.identity(mod15)) == h

    def test_compose_example(self, mod15):
        c = compose(HeisenbergElement(mod15, 1, 2), HeisenbergElement(mod15, 3, 4))
        assert (c.k, c.l, c.phase) == (4, 6, 12)

    def test_compose_matches_operator_product_on_basis(self, mod15):
        rng = np.random.default_rng(2)
        for _ in range(30):
            h1 = HeisenbergElement(mod15, int(rng.integers(15)), int(rng.integers(15)), int(rng.integers(30)))
            h2 = HeisenbergElement(mod15, int(rng.integers(15)), int(rng.integers(15)), int(rng.integers(30)))
            np.testing.assert_allclose(
                op_matrix(compose(h1, h2)), op_matrix(h1) @ op_matrix(h2), atol=1e-12
            )

    def test_inverse_example(self, mod15):
        inv = inverse(HeisenbergElement(mod15, 1, 1))
        assert (inv.k, inv.l, inv.phase) == (14, 14, 2)
        assert inverse(HeisenbergElement.identity(mod15)) == HeisenbergElement.identity(mod15)

    def test_inverse_axiom_and_involution(self, mod15):
        rng = np.random.default_rng(3)
        identity = HeisenbergElement.identity(mod15)
        for _ in range(100):
            h = HeisenbergElement(mod15, int(rng.integers(15)), int(rng.integers(15)), int(rng.integers(30)))
            assert compose(h, inverse(h)) == identity
            assert compose(inverse(h), h) == identity
            assert inverse(inverse(h)) == h

    def test_associativity_random_triples(self, mod15):
        rng = np.random.default_rng(4)
        for _ in range(500):
            hs = [
                HeisenbergElement(mod15, int(rng.integers(15)), int(rng.integers(15)), int(rng.integers(30)))
                for _ in range(3)
            ]
            assert compose(hs[0], compose(hs[1], hs[2])) == compose(compose(hs[0], hs[1]), hs[2])

    def test_exhaustive_closure_at_mn15(self, mod15):
        # all 225 x 225 shift pairs at phase 0: algebraic law vs operator product
        mats = np.stack(
            [op_matrix(HeisenbergElement(mod15, k, l)) for k in range(15) for l in range(15)]
        )
        pairs = [(k, l) for k in range(15) for l in range(15)]
        worst = 0.0
        for i, (k1, l1) in enumerate(pairs):
            h1 = HeisenbergElement(mod15, k1, l1)
            products = np.einsum("ij,bjk->bik", mats[i], mats)
            for j, (k2, l2) in enumerate(pairs):
                c = compose(h1, HeisenbergElement(mod15, k2, l2))
                expected = to_complex(c.phase, mod15) * mats[pairs.index((c.k, c.l))]
                worst = max(worst, float(np.max(np.abs(products[j] - expected))))
        assert worst < 1e-12


class TestCommutation:
    def test_examples(self, mod15):
        assert not commutes(HeisenbergElement(mod15, 1, 0), HeisenbergElement(mod15, 0, 1))
        assert commutes(HeisenbergElement(mod15, 3, 5), HeisenbergElement(mod15, 6, 10))
        assert commutes(HeisenbergElement(mod15, 7, 11), HeisenbergElement.identity(mod15))

    def test_commutator_phase_example(self, mod15):
        assert commutator_phase(HeisenbergElement(mod15, 1, 0), HeisenbergElement(mod15, 0, 1)) == 28

    def test_antisymmetry_and_agreement(self, mod15):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h1 = HeisenbergElement(mod15, int(rng.integers(15)), int(rng.integers(15)))
            h2 = HeisenbergElement(mod15, int(rng.integers(15)), int(rng.integers(15)))
            p12 = commutator_phase(h1, h2)
            p21 = commutator_phase(h2, h1)
            assert (p12 + p21) % 30 == 0
            assert commutes(h1, h2) == (p12 == 0)
            # compose(h1, h2) = phase * compose(h2, h1)
            c12, c21 = compose(h1, h2), compose(h2, h1)
            assert (c12.k, c12.l) == (c21.k, c21.l)
            assert c12.phase == (c21.phase + p12) % 30


class TestApplyDd:
    def test_identity(self, mod15):
        rng = np.random.default_rng(6)
        X = QuasiPeriodicArray(mod15, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        np.testing.assert_allclose(apply_dd(HeisenbergElement.identity(mod15), X).values, X.values, atol=1e-15)

    def test_conjugation_theorem_exhaustive(self, mod15):
        rng = np.random.default_rng(7)
        X = dzt(rand_unit_seq(mod15, rng))
        worst = 0.0
        for k in range(15):
            for l in range(15):
                h = HeisenbergElement(mod15, k, l)
                lhs = apply_dd(h, X).values
                rhs = dzt(apply_td(h, idzt(X))).values
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-12

    def test_delay_period_shift_matches_extend_rule(self, mod15):
        rng = np.random.default_rng(8)
        X = QuasiPeriodicArray(mod15, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        out = apply_dd(HeisenbergElement(mod15, 3, 0), X)
        expected = np.array([[extend(X, k - 3, l) for l in range(5)] for k in range(3)])
        np.testing.assert_allclose(out.values, expected, atol=1e-12)
