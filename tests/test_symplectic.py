from math import gcd

import numpy as np
import pytest

from ddradar.ambiguity import cross_ambiguity_naive
from ddradar.ddcore import PeriodicSequence
from ddradar.errors import BNotCoprime, DetNotOne, IndexOutOfRange, ModulusMismatch, NotCoprime, ZeroSequence
from ddradar.heisenberg import HeisenbergElement, apply_td
from ddradar.modmath import Modulus, mod_inv
from ddradar.subgroups import LineSubgroup, chain_waveform, chirp, eigenvector, pulsone, pulsone_chain
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
    sl2_mapping_direction,
)
from conftest import dilation_label, long_double_oracle, mixed_chain, op_matrix, rand_unit_seq
from oracles import (
    basis_vector,
    chain_ld,
    dft_label,
    eigenbasis_for_line,
    gdaft_kernel,
    gdaft_ld,
    label_ld,
    relative_error_ld,
    shear_pair,
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


def dilation_labels(mod, rng, count):
    """The identity, lfm(3) (whose rate shares 3 with MN at (3,5)), [[2, 0], [1, 1/2]] and
    `count` random b = 0 labels [[a, 0], [c, 1/a]] with a a unit."""
    mn = mod.MN
    labels = [SL2Element.identity(mod), SL2Element.lfm(mod, 3), dilation_label(mod, 2, 1)]
    while len(labels) < 3 + count:
        a = int(rng.integers(1, mn))
        if gcd(a, mn) == 1:
            labels.append(dilation_label(mod, a, int(rng.integers(mn))))
    return labels


def one_axis_labels(mod, rng, count):
    """`count` random determinant-1 labels whose b is 0 mod exactly one prime, alternating
    between b = 0 mod M and b = 0 mod N: one length-N or length-M DFT each."""
    mn, labels = mod.MN, []
    while len(labels) < count:
        zero = (mod.M, mod.N)[len(labels) % 2]
        b = zero * int(rng.integers(1, mn // zero))
        a = int(rng.integers(1, mn))
        if gcd(b, mn) == zero and gcd(a, mn) == 1:  # solve a*d - b*c = 1 for d
            c = int(rng.integers(mn))
            labels.append(SL2Element(mod, a, b, c, (1 + b * c) * mod_inv(a, mn)))
    return labels


def every_line(mod):
    """One generator (c, d) of each line of Z_MN x Z_MN, in the order first met."""
    mn, seen, lines = mod.MN, set(), []
    for c in range(mn):
        for d in range(mn):
            if gcd(c, d) == 1:
                points = frozenset((x * c % mn, x * d % mn) for x in range(mn))
                if points not in seen:
                    seen.add(points)
                    lines.append((c, d))
    return lines


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

    @long_double_oracle
    @pytest.mark.parametrize("M, N", [(3, 5), (5, 7), (11, 13), (23, 29), (251, 257)])
    def test_dilation_within_its_long_double_bound(self, M, N):
        """A b = 0 label [[a, 0], [c, 1/a]], a dilation and a chirp, is within 16*u of the
        same in long double, relative in the 2-norm, u = 2**-53: chain_apply and
        chain_adjoint of one label on a random input (oracles.label_ld of the label and of
        its inverse), and the (M, 1) line's eigenvector, chain_waveform of its form
        (oracles.chain_ld).  The gather is exact, so only the chirp rounds: each
        roots-table phase within 16u, and one complex product a sample.

        Measured on x86-64 (80-bit long double): up to 6.7u on one label at (3,5), whose
        15 phases weigh most, and 2.0 to 2.3u from (5,7) to (251,257); 1.2 to 3.8u on the
        eigenvector, whose pulsone's phases round too.  A flat chirp is exact.
        """
        mod = Modulus(M, N)
        rng = np.random.default_rng(M * N)
        bound = 16 * 2.0**-53
        for g in dilation_labels(mod, rng, 3):
            x = rand_unit_seq(mod, rng)
            assert relative_error_ld(chain_apply((g,), x).samples, label_ld(g, x.samples)) <= bound, g
            assert relative_error_ld(chain_adjoint((g,), x).samples, label_ld(g.inverse(), x.samples)) <= bound, g
        base, labels = pulsone_chain(LineSubgroup(mod, M, 1), int(rng.integers(mod.MN)))
        assert [g.b for g in labels] == [0]
        assert relative_error_ld(chain_waveform(mod, base, labels).samples, chain_ld(mod, base, labels)) <= bound

    @long_double_oracle
    @pytest.mark.parametrize("M, N", [(3, 5), (5, 7), (11, 13), (23, 29), (251, 257)])
    def test_one_axis_within_its_long_double_bound(self, M, N):
        """A label whose b is 0 mod exactly one prime, one length-p DFT along the other
        prime p, is within 6*u*log2(MN) of its literal per-prime product sum in long double
        (oracles.one_axis_ld, through label_ld), relative in the 2-norm, u = 2**-53: chain_apply
        and chain_adjoint of one label on a random input, b = 0 mod M and mod N in turn.

        Measured on x86-64 (80-bit long double): 0.37 to 2.5 u*log2(MN), the most at (3,5)
        (300 random labels and inputs, each by both routes), 0.4 from (11,13) up; the
        GDAFT's bound, whose chirps and transform this route shares.
        """
        mod = Modulus(M, N)
        rng = np.random.default_rng(M * N)
        bound = 6 * 2.0**-53 * np.log2(mod.MN)
        for g in one_axis_labels(mod, rng, 2 if mod.MN > 10**4 else 4):
            x = rand_unit_seq(mod, rng)
            assert relative_error_ld(chain_apply((g,), x).samples, label_ld(g, x.samples)) <= bound, g
            assert relative_error_ld(chain_adjoint((g,), x).samples, label_ld(g, x.samples, adjoint=True)) <= bound, g

    @pytest.mark.parametrize("M, N", ORACLE_SIZES)
    def test_one_step_matches_the_dense_shear_pair(self, M, N):
        """A label whose b is not invertible, realised in one step (chain_apply of it alone),
        is the dense product of its shear pair's GDAFT kernels (oracles.sl2_matrix) up to
        one global unimodular phase, to 1e-12: exactly for b = 0, and for b = 0 mod one
        prime only, where a one-axis DFT replaces the pair."""
        mod = Modulus(M, N)
        rng = np.random.default_rng(M * N + 1)
        labels = [SL2Element.identity(mod), SL2Element(mod, 1, 0, 2, 1), SL2Element(mod, 1, M, 0, 1)]
        labels += [random_label(mod, rng, False) for _ in range(4)] + one_axis_labels(mod, rng, 2)
        for g in labels:
            assert gcd(g.b, mod.MN) != 1
            x = rand_unit_seq(mod, rng)
            out = chain_apply((g,), x).samples
            want = sl2_matrix(g) @ x.samples
            phase = 1.0 if g.b == 0 else np.vdot(out, want) / abs(np.vdot(out, want))
            assert np.max(np.abs(phase * out - want)) < 1e-12, g

    @pytest.mark.parametrize("M, N, count", [(3, 5, 4), (5, 7, 6)])
    def test_b_zero_lines_keep_the_shear_pair_eigenvectors(self, M, N, count):
        """On every line whose map g from (M, N) has b = 0, the eigenvector, now the pulsone
        under g's dilation and chirp, equals the pulsone under g's shear pair of GDAFTs
        (oracles.shear_pair), the construction that took every such line before, to 1e-14:
        the pair's global phase is 1 on each of them."""
        mod = Modulus(M, N)
        lines = [LineSubgroup(mod, c, d) for c, d in every_line(mod)]
        maps = {line: sl2_mapping_direction(mod, (M, N), (line.c, line.d)) for line in lines
                if line.coprime_slope() is None and not line.is_rectangular()}
        b_zero = [line for line, g in maps.items() if g.b == 0]
        assert len(lines) == (M + 1) * (N + 1) and len(b_zero) == count
        for line in b_zero:
            pair = shear_pair(maps[line])
            for i in range(mod.MN):
                want = chain_apply(pair, pulsone(mod, i % M, i // M)).samples
                assert np.max(np.abs(eigenvector(line, i).samples - want)) <= 1e-14, (line, i)

    @pytest.mark.parametrize("M, N, count", [(3, 5, 8), (5, 7, 12)])
    def test_one_axis_lines_keep_the_shear_pair_eigenvectors(self, M, N, count):
        """On every line whose map g from (M, N) has b = 0 mod exactly one prime, every
        index's eigenvector, the pulsone under g's one-axis DFT, equals the pulsone under g's
        shear pair of GDAFTs (oracles.shear_pair), the construction that took these lines
        before, up to one global unimodular phase for the whole line, to 1e-14."""
        mod = Modulus(M, N)
        lines = [LineSubgroup(mod, c, d) for c, d in every_line(mod)]
        maps = {line: sl2_mapping_direction(mod, (M, N), (line.c, line.d)) for line in lines
                if line.coprime_slope() is None and not line.is_rectangular()}
        one_axis = [line for line, g in maps.items() if g.b != 0 and gcd(g.b, mod.MN) != 1]
        assert len(one_axis) == count
        for line in one_axis:
            pair = shear_pair(maps[line])
            want = [chain_apply(pair, pulsone(mod, i % M, i // M)).samples for i in range(mod.MN)]
            got = [eigenvector(line, i).samples for i in range(mod.MN)]
            phase = np.vdot(got[0], want[0])
            assert abs(abs(phase) - 1) <= 1e-14, line
            for i in range(mod.MN):
                assert np.max(np.abs(phase / abs(phase) * got[i] - want[i])) <= 1e-14, (line, i)

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
        """The test-side shear pair (oracles.shear_pair, which conftest.mixed_chain uses for a
        two-label chain) is two labels with b invertible whose product is g, for every g
        whose b is not invertible: b = 0, as the (M, 1) line's map, and b = 0 mod N only,
        as the (1, M) line's.  The library realises each such g in one step, so every line's
        form (pulsone_chain) holds at most one label."""
        rng = np.random.default_rng(4)
        lines = [sl2_mapping_direction(mod15, (3, 5), cd) for cd in ((3, 1), (1, 3))]
        assert [g.b for g in lines] == [0, 5]
        labels = [g for g in lines + [random_sl2(mod15, rng) for _ in range(50)] if gcd(g.b, 15) != 1]
        assert len(labels) >= 10
        for g in labels:
            factors = shear_pair(g)
            assert all(gcd(f.b, 15) == 1 for f in factors)
            assert factors[1].matmul(factors[0]) == g
        for c, d in every_line(mod15):
            assert len(pulsone_chain(LineSubgroup(mod15, c, d), 7)[1]) <= 1, (c, d)

    def test_identity_up_to_phase(self, mod15):
        rng = np.random.default_rng(5)
        x = rand_unit_seq(mod15, rng)
        out = chain_apply((SL2Element.identity(mod15),), x)
        assert abs(abs(np.vdot(out.samples, x.samples)) - 1) < 1e-12

    def test_b_zero_matches_lfm_up_to_phase(self, mod15):
        rng = np.random.default_rng(6)
        x = rand_unit_seq(mod15, rng)
        out = chain_apply((SL2Element(mod15, 1, 0, 2, 1),), x)
        ref = lfm_apply(1, x)
        assert abs(abs(np.vdot(ref.samples, out.samples)) - 1) < 1e-12

    def test_composition_projective(self, mod15):
        rng = np.random.default_rng(7)
        x = rand_unit_seq(mod15, rng)
        for _ in range(100):
            g1, g2 = random_sl2(mod15, rng), random_sl2(mod15, rng)
            lhs = chain_apply((g1.matmul(g2),), x)
            rhs = chain_apply((g1,), chain_apply((g2,), x))
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

    @pytest.mark.parametrize("M, N", [(3, 5), (5, 7), (7, 11)])
    def test_undoes_dilation_labels(self, M, N):
        """chain_adjoint undoes b = 0 labels to 1e-12: each alone, the identity, lfm(3) and
        [[2, 0], [1, 1/2]] among them, and all of them around a 4-label mixed chain."""
        mod = Modulus(M, N)
        rng = np.random.default_rng(M * N)
        labels = dilation_labels(mod, rng, 4)
        x = rand_unit_seq(mod, rng)
        for chain in [(g,) for g in labels] + [(*labels[:3], *mixed_chain(mod, 4), *labels[3:])]:
            back = chain_adjoint(chain, chain_apply(chain, x))
            np.testing.assert_allclose(back.samples, x.samples, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M, N", [(3, 5), (5, 7), (11, 13), (23, 29)])
    def test_undoes_every_label_class(self, M, N):
        """chain_adjoint undoes one label of each class to 1e-12: b = 0, b = 0 mod M only,
        b = 0 mod N only and b invertible, each alone and all four in one chain."""
        mod = Modulus(M, N)
        rng = np.random.default_rng(M * N + 3)
        labels = [dilation_label(mod, 2, 5), *one_axis_labels(mod, rng, 2), random_label(mod, rng, True)]
        assert [(g.b % M == 0, g.b % N == 0) for g in labels] == [(True, True), (True, False), (False, True),
                                                                   (False, False)]
        x = rand_unit_seq(mod, rng)
        for chain in [(g,) for g in labels] + [tuple(labels)]:
            back = chain_adjoint(chain, chain_apply(chain, x))
            np.testing.assert_allclose(back.samples, x.samples, rtol=0, atol=1e-12, err_msg=str(chain))

    @pytest.mark.parametrize(
        "label, error",
        [
            ((1, 0, 0, 1), None),  # the identity: b = 0, the chirp of rate 0
            ((1, 0, 6, 1), None),  # lfm(3): b = 0, whose rate shares 3 with MN
            ((2, 0, 1, 8), None),  # b = 0 with a = 2: a dilation and a chirp
            ((1, 3, 0, 1), None),  # b = 0 mod 3 only: one length-5 DFT
            ((1, 0, 0, 1), ModulusMismatch),  # the identity over (5, 7), not the chain's (3, 5)
        ],
    )
    def test_refuses_what_chain_apply_refuses(self, mod15, label, error):
        """Both refuse the same labels, alone and after a chain: a label over another modulus.
        Every label over the chain's modulus is realised by both, and the adjoint undoes it."""
        x = pulsone(mod15, 0, 0)
        g = SL2Element(Modulus(5, 7) if error else mod15, *label)
        for labels in ((g,), mixed_chain(mod15, 3) + (g,)):
            if error is None:
                np.testing.assert_allclose(chain_adjoint(labels, chain_apply(labels, x)).samples, x.samples,
                                           rtol=0, atol=1e-12)
                continue
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

    @pytest.mark.parametrize("M, N", [(3, 5), (5, 7), (7, 11)])
    def test_dilation_remap_against_brute_force(self, M, N):
        """The remap law holds for b = 0 labels [[a, 0], [c, 1/a]], each realised alone by
        chain_apply as a dilation and a chirp: the identity, lfm(3), [[2, 0], [1, 1/2]] and
        random ones, on the whole grid against cross_ambiguity_naive.  The factor is
        exp(-j*pi*a*c*k^2/MN) in front of the rotated surface at (a*k, c*k + d*l)."""
        mod = Modulus(M, N)
        mn = mod.MN
        rng = np.random.default_rng(M * N + 2)
        K, L = np.indices((mn, mn))
        for g in dilation_labels(mod, rng, 6):
            x, y = rand_unit_seq(mod, rng), rand_unit_seq(mod, rng)
            base = cross_ambiguity_naive(x, y, grid="full").values
            rotated = cross_ambiguity_naive(chain_apply((g,), x), chain_apply((g,), y), grid="full").values
            remap = remap_for(g)
            assert remap.target(3, 4) == (3 * g.a % mn, (3 * g.c + 4 * g.d) % mn)
            np.testing.assert_array_equal(remap.phase_index(K, L), -2 * (mod.inv2 * g.a * g.c * K * K % mn) % (2 * mn))
            phase = np.exp(1j * np.pi / mn * remap.phase_index(K, L))
            np.testing.assert_allclose(base, phase * rotated[remap.target(K, L)], rtol=0, atol=1e-10, err_msg=str(g))


    @pytest.mark.parametrize("M, N", [(3, 5), (5, 7), (7, 11)])
    def test_one_axis_remap_against_brute_force(self, M, N):
        """The remap law holds for labels whose b is 0 mod exactly one prime, each realised
        alone by chain_apply as one length-p DFT along the prime p where b is invertible:
        the shear [[1, M], [0, 1]] and random ones of both kinds, on the whole grid against
        cross_ambiguity_naive, to 1e-12."""
        mod = Modulus(M, N)
        mn = mod.MN
        rng = np.random.default_rng(M * N + 4)
        K, L = np.indices((mn, mn))
        for g in [SL2Element(mod, 1, M, 0, 1)] + one_axis_labels(mod, rng, 6):
            x, y = rand_unit_seq(mod, rng), rand_unit_seq(mod, rng)
            base = cross_ambiguity_naive(x, y, grid="full").values
            rotated = cross_ambiguity_naive(chain_apply((g,), x), chain_apply((g,), y), grid="full").values
            remap = remap_for(g)
            phase = np.exp(1j * np.pi / mn * remap.phase_index(K, L))
            np.testing.assert_allclose(base, phase * rotated[remap.target(K, L)], rtol=0, atol=1e-12, err_msg=str(g))


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
