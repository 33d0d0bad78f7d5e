from math import gcd

import numpy as np
import pytest

from ddradar.ambiguity import cross_ambiguity_naive
from ddradar.ddcore import PeriodicSequence
from ddradar.errors import BNotCoprime, DetNotOne, IndexOutOfRange, NotCoprime, ZeroSequence
from ddradar.heisenberg import HeisenbergElement, apply_td
from ddradar.modmath import Modulus, mod_inv
from ddradar.subgroups import LineSubgroup, chirp, eigenvector, pulsone
from ddradar.symplectic import (
    AmbiguityRemap,
    SL2Element,
    chain_adjoint,
    chain_apply,
    gdaft_adjoint,
    gdaft_apply,
    lfm_apply,
    papr_db,
    remap_for,
    sl2_factors,
    sl2_mapping_direction,
)
from conftest import long_double_oracle, mixed_chain, op_matrix, rand_unit_seq
from oracles import (
    basis_vector,
    dft_label,
    eigenbasis_for_line,
    gdaft_kernel,
    gdaft_ld,
    relative_error_ld,
    sl2_apply,
    sl2_matrix,
    support_set,
    zero_sequence,
)


def random_sl2(mod, rng):
    while True:
        a, b, c, d = (int(v) for v in rng.integers(0, mod.MN, 4))
        if (a * d - b * c) % mod.MN == 1:
            return SL2Element(mod, a, b, c, d)


def random_label(mod, rng, b_invertible):
    """Determinant-1 label whose b entry is (or is not) invertible mod MN."""
    mn = mod.MN
    while True:
        a, b, c, d = (int(v) for v in rng.integers(0, mn, 4))
        if (gcd(b, mn) == 1) != b_invertible:
            continue
        if gcd(b, mn) == 1:  # solve a*d - b*c = 1 for c
            return SL2Element(mod, a, b, (a * d - 1) * mod_inv(b, mn), d)
        if gcd(a, mn) == 1:  # solve for d instead
            return SL2Element(mod, a, b, c, (1 + b * c) * mod_inv(a, mn))


GDAFT_LABELS = [(0, 1, -1, 0), (1, 1, 0, 1), (2, 1, 1, 1), (1, 2, 7, 0)]
ORACLE_SIZES = [(3, 5), (11, 13), (13, 17)]


class TestSL2Element:
    def test_det_validation(self, mod15):
        with pytest.raises(DetNotOne):
            SL2Element(mod15, 1, 0, 0, 2)

    def test_inverse_and_matmul(self, mod15):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_sl2(mod15, rng)
            assert g.matmul(g.inverse()) == SL2Element.identity(mod15)

    def test_vector_action_convention(self, mod15):
        # the LFM label sends (k, l) to (k, 2Ak + l): column convention
        g = SL2Element.lfm(mod15, 2)
        assert g.apply_vec(3, 1) == (3, (2 * 2 * 3 + 1) % 15)


class TestLfm:
    def test_constant_becomes_chirp(self, mod15):
        const = PeriodicSequence(mod15, np.full(15, 1 / np.sqrt(15), dtype=complex))
        out = lfm_apply(2, const)
        np.testing.assert_allclose(out.samples, chirp(mod15, 2, 0, 0).samples, atol=1e-12)

    def test_norm_preserved(self, mod15):
        rng = np.random.default_rng(1)
        x = rand_unit_seq(mod15, rng)
        assert lfm_apply(4, x).norm() == pytest.approx(1.0, abs=1e-12)

    def test_rate_must_be_coprime(self, mod15):
        with pytest.raises(NotCoprime):
            lfm_apply(5, zero_sequence(mod15))

    def test_conjugation_law_on_operators(self, mod15):
        A = 2
        W = np.diag(np.exp(2j * np.pi * A * np.arange(15) ** 2 / 15))
        for k in range(15):
            for l in range(15):
                lhs = W @ op_matrix(HeisenbergElement(mod15, k, l)) @ W.conj().T
                rhs = np.exp(2j * np.pi * A * k * k / 15) * op_matrix(
                    HeisenbergElement(mod15, k, (2 * A * k + l) % 15)
                )
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestGdaft:
    def test_dft_special_case(self, mod15):
        rng = np.random.default_rng(2)
        x = rand_unit_seq(mod15, rng)
        out = gdaft_apply(dft_label(mod15), x)
        np.testing.assert_allclose(out.samples, np.fft.fft(x.samples) / np.sqrt(15), atol=1e-12)

    def test_unitarity_gram(self, mod15):
        for label in GDAFT_LABELS:
            g = SL2Element(mod15, *label)
            K = np.stack(
                [gdaft_apply(g, basis_vector(mod15, j)).samples for j in range(15)],
                axis=1,
            )
            np.testing.assert_allclose(K.conj().T @ K, np.eye(15), atol=1e-12)

    def test_norm_preserved_random(self, mod15):
        rng = np.random.default_rng(3)
        g = SL2Element(mod15, 2, 1, 1, 1)
        for _ in range(100):
            assert gdaft_apply(g, rand_unit_seq(mod15, rng)).norm() == pytest.approx(1.0, abs=1e-12)

    def test_pulsone_to_constant_modulus(self, mod15):
        # holds whenever gcd(a, N) = 1; [[1, 2], [0, 1]] is such a label
        g = SL2Element(mod15, 1, 2, 0, 1)
        for k0 in range(3):
            for l0 in range(5):
                out = gdaft_apply(g, pulsone(mod15, k0, l0))
                np.testing.assert_allclose(np.abs(out.samples), 1 / np.sqrt(15), atol=1e-12)

    def test_b_not_coprime(self, mod15):
        with pytest.raises(BNotCoprime):
            gdaft_apply(SL2Element(mod15, 1, 0, 2, 1), zero_sequence(mod15))

    def test_adjoint_is_exact_inverse(self, mod15):
        rng = np.random.default_rng(4)
        x = rand_unit_seq(mod15, rng)
        for label in GDAFT_LABELS:
            g = SL2Element(mod15, *label)
            np.testing.assert_allclose(gdaft_adjoint(g, gdaft_apply(g, x)).samples, x.samples, atol=1e-12)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("M, N", ORACLE_SIZES)
    def test_gdaft_apply_and_adjoint_match_kernel(self, M, N):
        mod = Modulus(M, N)
        rng = np.random.default_rng(M * N)
        labels = [dft_label(mod)] + [random_label(mod, rng, True) for _ in range(6)]
        for g in labels:
            K = gdaft_kernel(g)
            x = rand_unit_seq(mod, rng)
            assert np.max(np.abs(gdaft_apply(g, x).samples - K @ x.samples)) < 1e-12
            assert np.max(np.abs(gdaft_adjoint(g, x).samples - K.conj().T @ x.samples)) < 1e-12

    @long_double_oracle
    @pytest.mark.parametrize("M, N", [(3, 5), (5, 7), (11, 13), (23, 29)])
    def test_gdaft_within_its_long_double_bound(self, M, N):
        """gdaft_apply and gdaft_adjoint are within 6*u*log2(MN) of the literal GDAFT sum
        in long double (oracles.gdaft_ld), relative in the 2-norm, u = 2**-53.

        Measured on x86-64 (80-bit long double): 0.23 to 2.6 u*log2(MN), the most at
        (3,5) (300 random labels and inputs, each by both routes), where the chirps'
        phases, each within 8u, weigh most against log2(MN).
        """
        mod = Modulus(M, N)
        rng = np.random.default_rng(M * N)
        bound = 6 * 2.0**-53 * np.log2(mod.MN)
        for g in [dft_label(mod)] + [random_label(mod, rng, True) for _ in range(3)]:
            x = rand_unit_seq(mod, rng)
            assert relative_error_ld(gdaft_apply(g, x).samples, gdaft_ld(g, x.samples)) <= bound, g
            assert relative_error_ld(gdaft_adjoint(g, x).samples, gdaft_ld(g, x.samples, adjoint=True)) <= bound, g

    @pytest.mark.parametrize("M, N", ORACLE_SIZES)
    def test_sl2_apply_shear_route_matches_dense_composition(self, M, N):
        mod = Modulus(M, N)
        rng = np.random.default_rng(M * N + 1)
        labels = [SL2Element.identity(mod), SL2Element(mod, 1, 0, 2, 1), SL2Element(mod, 1, M, 0, 1)]
        labels += [random_label(mod, rng, False) for _ in range(4)]
        for g in labels:
            assert gcd(g.b, mod.MN) != 1
            x = rand_unit_seq(mod, rng)
            out = sl2_apply(g, x).samples
            assert np.max(np.abs(out - sl2_matrix(g) @ x.samples)) < 1e-12

    @pytest.mark.parametrize("c, d", [(3, 5), (1, 4), (3, 1)])
    def test_eigenvector_matches_basis_and_construction(self, mod15, c, d):
        line = LineSubgroup(mod15, c, d)
        basis = eigenbasis_for_line(line)
        g = sl2_mapping_direction(mod15, (3, 5), (c, d))
        for i in range(15):
            v = eigenvector(line, i).samples
            np.testing.assert_array_equal(v, basis[i].samples)
            if (c, d) == (3, 5):
                want = pulsone(mod15, i % 3, i // 3).samples
            elif (c, d) == (1, 4):
                want = chirp(mod15, 2, i, 0).samples
            else:
                want = sl2_matrix(g) @ pulsone(mod15, i % 3, i // 3).samples
            assert np.max(np.abs(v - want)) < 1e-12

    def test_eigenvector_index_range(self, mod15):
        line = LineSubgroup(mod15, 3, 1)
        for index in (-1, 15):
            with pytest.raises(IndexOutOfRange):
                eigenvector(line, index)


class TestSl2Apply:
    def test_factors_multiply_to_g_with_invertible_b(self, mod15):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = random_sl2(mod15, rng)
            factors = sl2_factors(g)
            assert len(factors) == (1 if gcd(g.b, 15) == 1 else 2)
            assert all(gcd(f.b, 15) == 1 for f in factors)
            product = factors[0] if len(factors) == 1 else factors[1].matmul(factors[0])
            assert product == g

    def test_chain_refuses_b_zero_label_that_is_not_lfm(self, mod15):
        with pytest.raises(NotCoprime):
            chain_apply((SL2Element(mod15, 2, 0, 1, 8),), pulsone(mod15, 0, 0))

    def test_chain_names_the_lfm_rate_it_was_given(self, mod15):
        # lfm(3) is [[1, 0], [6, 1]]; its rate is 6 * inv2 = 48 before reduction mod 15
        with pytest.raises(NotCoprime, match=r"LFM rate 3 shares a factor with MN = 15"):
            chain_apply((SL2Element.lfm(mod15, 3),), pulsone(mod15, 0, 0))

    def test_identity_up_to_phase(self, mod15):
        rng = np.random.default_rng(5)
        x = rand_unit_seq(mod15, rng)
        out = sl2_apply(SL2Element.identity(mod15), x)
        assert abs(abs(np.vdot(out.samples, x.samples)) - 1) < 1e-12

    def test_b_zero_matches_lfm_up_to_phase(self, mod15):
        rng = np.random.default_rng(6)
        x = rand_unit_seq(mod15, rng)
        out = sl2_apply(SL2Element(mod15, 1, 0, 2, 1), x)
        ref = lfm_apply(1, x)
        assert abs(abs(np.vdot(ref.samples, out.samples)) - 1) < 1e-12

    def test_composition_projective(self, mod15):
        rng = np.random.default_rng(7)
        x = rand_unit_seq(mod15, rng)
        for _ in range(100):
            g1, g2 = random_sl2(mod15, rng), random_sl2(mod15, rng)
            lhs = sl2_apply(g1.matmul(g2), x)
            rhs = sl2_apply(g1, sl2_apply(g2, x))
            assert abs(abs(np.vdot(rhs.samples, lhs.samples)) - 1) < 1e-10

    def test_shear_choice_only_changes_global_phase(self, mod15):
        # realise a non-invertible-b label through two different shears
        rng = np.random.default_rng(13)
        x = rand_unit_seq(mod15, rng)
        g = SL2Element(mod15, 1, 0, 2, 1)
        outputs = []
        for x0 in (1, 2):
            shear = SL2Element(mod15, 1, x0, 0, 1)
            outputs.append(
                gdaft_apply(shear.inverse(), gdaft_apply(shear.matmul(g), x)).samples
            )
        assert abs(abs(np.vdot(outputs[1], outputs[0])) - 1) < 1e-10


class TestChainAdjoint:
    @pytest.mark.parametrize("length", [2, 3, 4])
    @pytest.mark.parametrize("M, N", [(3, 5), (11, 13)])
    def test_undoes_chain_apply(self, M, N, length):
        mod = Modulus(M, N)
        labels = mixed_chain(mod, length)
        x = rand_unit_seq(mod, np.random.default_rng(length))
        back = chain_adjoint(labels, chain_apply(labels, x))
        np.testing.assert_allclose(back.samples, x.samples, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "label, error",
        [
            ((1, 0, 0, 1), NotCoprime),  # the identity: the LFM rate 0
            ((1, 0, 6, 1), NotCoprime),  # lfm(3): the rate shares 3 with MN
            ((2, 0, 1, 8), NotCoprime),  # b = 0 but not LFM-shaped
            ((1, 3, 0, 1), BNotCoprime),  # b shares 3 with MN
        ],
    )
    def test_refuses_what_chain_apply_refuses(self, mod15, label, error):
        x = pulsone(mod15, 0, 0)
        for labels in ((SL2Element(mod15, *label),), mixed_chain(mod15, 3) + (SL2Element(mod15, *label),)):
            with pytest.raises(error):
                chain_apply(labels, x)
            with pytest.raises(error):
                chain_adjoint(labels, x)

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_composite_remap_law(self, mod15, length):
        """AmbiguityRemap of the labels' product holds for their chain, the labels' phases
        telescoped, even where the product's b is not invertible (the shear pair alone)."""
        labels = mixed_chain(mod15, length)
        g = SL2Element.identity(mod15)
        for h in labels:
            g = h.matmul(g)
        assert (gcd(g.b, 15) == 1) == (length != 2)
        rng = np.random.default_rng(12)
        x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
        base = cross_ambiguity_naive(x, y, grid="full").values
        rotated = cross_ambiguity_naive(chain_apply(labels, x), chain_apply(labels, y), grid="full").values
        remap = AmbiguityRemap(g)
        K, L = np.indices((15, 15))
        phase = np.exp(1j * np.pi / 15 * remap.phase_index(K, L))
        np.testing.assert_allclose(base, phase * rotated[remap.target(K, L)], rtol=0, atol=1e-10)


class TestNormalizationLaw:
    @pytest.mark.parametrize("label", GDAFT_LABELS)
    def test_gdaft_conjugation_matches_remap_phase(self, mod15, label):
        g = SL2Element(mod15, *label)
        K = np.stack(
            [gdaft_apply(g, basis_vector(mod15, j)).samples for j in range(15)],
            axis=1,
        )
        remap = remap_for(g)
        for k in range(15):
            for l in range(15):
                lhs = K @ op_matrix(HeisenbergElement(mod15, k, l)) @ K.conj().T
                # conjugation phase is the complex conjugate of the remap phase
                phase = np.exp(-1j * np.pi / 15 * remap.phase_index(k, l))
                np.testing.assert_allclose(
                    lhs, phase * op_matrix(HeisenbergElement(mod15, *g.apply_vec(k, l))), atol=1e-12
                )

    def test_lines_map_to_lines(self, mod15):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_sl2(mod15, rng)
            line = LineSubgroup(mod15, 1, int(rng.integers(15)))
            image = {g.apply_vec(k, l) for k, l in support_set(line)}
            gi = g.apply_vec(line.c, line.d)
            # image is again a full line through the mapped generator
            assert image == {((x * gi[0]) % 15, (x * gi[1]) % 15) for x in range(15)}
            # symplectic form still vanishes on every image pair
            pts = sorted(image)
            for k1, l1 in pts:
                for k2, l2 in pts:
                    assert (l1 * k2 - l2 * k1) % 15 == 0


class TestRemap:
    def test_identity_remap(self, mod15):
        remap = remap_for(SL2Element.identity(mod15))
        assert remap.phase_index(4, 9) == 0
        assert remap.target(4, 9) == (4, 9)

    def test_lfm_remap_against_brute_force(self, mod15):
        rng = np.random.default_rng(9)
        x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
        A = 2
        base = cross_ambiguity_naive(x, y, grid="full").values
        rotated = cross_ambiguity_naive(lfm_apply(A, x), lfm_apply(A, y), grid="full").values
        remap = remap_for(SL2Element.lfm(mod15, A))
        for k in range(15):
            for l in range(15):
                expected_phase = np.exp(-2j * np.pi * A * k * k / 15)
                assert np.exp(1j * np.pi / 15 * remap.phase_index(k, l)) == pytest.approx(
                    expected_phase, abs=1e-12
                )
                assert base[k, l] == pytest.approx(
                    expected_phase * rotated[k, (2 * A * k + l) % 15], abs=1e-10
                )

    def test_dft_remap_swaps_axes(self, mod15):
        rng = np.random.default_rng(10)
        x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
        g = dft_label(mod15)
        base = cross_ambiguity_naive(x, y, grid="full").values
        rotated = cross_ambiguity_naive(gdaft_apply(g, x), gdaft_apply(g, y), grid="full").values
        remap = remap_for(g)
        for k in range(15):
            for l in range(15):
                assert remap.target(k, l) == (l, (-k) % 15)
                phase = np.exp(1j * np.pi / 15 * remap.phase_index(k, l))
                assert base[k, l] == pytest.approx(phase * rotated[l, (-k) % 15], abs=1e-10)

    @pytest.mark.parametrize("label", [(1, 1, 0, 1), (2, 1, 1, 1), (1, 2, 7, 0)])
    def test_gdaft_remap_against_brute_force(self, mod15, label):
        rng = np.random.default_rng(11)
        x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
        g = SL2Element(mod15, *label)
        base = cross_ambiguity_naive(x, y, grid="full").values
        rotated = cross_ambiguity_naive(gdaft_apply(g, x), gdaft_apply(g, y), grid="full").values
        remap = remap_for(g)
        worst = 0.0
        for k in range(15):
            for l in range(15):
                K, L = remap.target(k, l)
                phase = np.exp(1j * np.pi / 15 * remap.phase_index(k, l))
                worst = max(worst, abs(base[k, l] - phase * rotated[K, L]))
        assert worst < 1e-10

    def test_remap_rejects_non_lfm_bzero(self, mod15):
        with pytest.raises(NotCoprime):
            remap_for(SL2Element(mod15, 2, 0, 1, 8))


class TestDirectionMapping:
    def test_maps_source_to_target(self, mod15):
        rng = np.random.default_rng(12)
        pairs = [((3, 5), (2, 1)), ((3, 5), (1, 3)), ((1, 2), (0, 1)), ((3, 5), (1, 0))]
        for src, dst in pairs:
            g = sl2_mapping_direction(mod15, src, dst)
            assert g.apply_vec(*src) == dst


class TestPapr:
    def test_constant_modulus_is_zero_db(self, mod15):
        assert papr_db(chirp(mod15, 1, 0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_pulsone_value(self, mod15):
        assert papr_db(pulsone(mod15, 0, 0)) == pytest.approx(10 * np.log10(3), abs=1e-9)

    def test_gdaft_pulsone_zero_db(self, mod15):
        out = gdaft_apply(SL2Element(mod15, 1, 2, 0, 1), pulsone(mod15, 1, 2))
        assert papr_db(out) == pytest.approx(0.0, abs=1e-9)

    def test_zero_sequence_rejected(self, mod15):
        with pytest.raises(ZeroSequence):
            papr_db(zero_sequence(mod15))
