import math
from itertools import product

import numpy as np
import pytest

from ddradar.ambiguity import FastEngine, cross_ambiguity_fft, cross_ambiguity_naive, zc_sequence
from ddradar.cli import parse_waveform_spec
from ddradar.ddcore import PeriodicSequence, inner
from ddradar.errors import AlphaNotCoprime, ConfigurationError, IndexOutOfRange, NotPrimitive
from ddradar.heisenberg import HeisenbergElement, apply_td
from ddradar.modmath import Modulus, phases_to_complex
from ddradar.subgroups import (
    DDRegion,
    LineSubgroup,
    chain_waveform,
    chirp,
    crystallization_check,
    eigenvector,
    pulsone,
    pulsone_chain,
)
from ddradar.symplectic import SL2Element, chain_apply, papr_db, sl2_factors, sl2_mapping_direction
from conftest import rand_unit_seq
from oracles import commutes, eigenbasis_for_line, support_set


def random_primitive_lines(mod, rng, count):
    lines = []
    while len(lines) < count:
        c, d = int(rng.integers(mod.MN)), int(rng.integers(mod.MN))
        try:
            lines.append(LineSubgroup(mod, c, d))
        except NotPrimitive:
            continue
    return lines


def brute_force_crystallized(line, region):
    """Oracle: lay every translate of the region on the torus, point by point, and
    report whether any point is covered twice (translates are pairwise disjoint)."""
    mn = line.mod.MN
    cell = {(k % mn, l % mn) for k, l in product(range(region.k_min, region.k_max + 1),
                                                 range(region.l_min, region.l_max + 1))}
    covered = set()
    for sk, sl in support_set(line):
        for k, l in cell:
            point = ((k + sk) % mn, (l + sl) % mn)
            if point in covered:
                return False
            covered.add(point)
    return True


class TestLineSubgroup:
    def test_delay_axis_support(self, mod15):
        assert support_set(LineSubgroup(mod15, 1, 0)) == {(x, 0) for x in range(15)}

    def test_rectangular_support(self, mod15):
        support = support_set(LineSubgroup(mod15, 3, 5))
        assert support == {(3 * a % 15, 5 * b % 15) for a in range(5) for b in range(3)}
        assert len(support) == 15

    def test_slope_line_support(self, mod15):
        assert support_set(LineSubgroup(mod15, 1, 4)) == {(k, 4 * k % 15) for k in range(15)}

    def test_not_primitive(self, mod15):
        with pytest.raises(NotPrimitive):
            LineSubgroup(mod15, 3, 6)

    def test_contains_examples(self, mod15):
        rect = LineSubgroup(mod15, 3, 5)
        assert rect.contains(3, 5)
        assert not rect.contains(1, 0)
        assert LineSubgroup(mod15, 1, 4).contains(2, 8)

    def test_contains_matches_support_set(self, mod15):
        rng = np.random.default_rng(0)
        for line in random_primitive_lines(mod15, rng, 10):
            support = support_set(line)
            for k in range(15):
                for l in range(15):
                    assert line.contains(k, l) == ((k, l) in support)


class TestCommutativityMaximality:
    def test_line_elements_commute(self, mod15):
        rng = np.random.default_rng(1)
        for line in random_primitive_lines(mod15, rng, 10):
            pts = sorted(support_set(line))
            for k1, l1 in pts:
                for k2, l2 in pts:
                    assert commutes(HeisenbergElement(mod15, k1, l1), HeisenbergElement(mod15, k2, l2))

    def test_maximality(self, mod15):
        rng = np.random.default_rng(2)
        for line in random_primitive_lines(mod15, rng, 5):
            support = support_set(line)
            for k in range(15):
                for l in range(15):
                    if (k, l) in support:
                        continue
                    outside = HeisenbergElement(mod15, k, l)
                    assert any(
                        not commutes(outside, HeisenbergElement(mod15, ks, ls))
                        for ks, ls in support
                    )


class TestPulsone:
    def test_impulse_train_values(self, mod15):
        v = pulsone(mod15, 0, 0)
        expected = np.zeros(15, dtype=complex)
        expected[::3] = 1 / np.sqrt(5)
        np.testing.assert_allclose(v.samples, expected, atol=1e-15)

    def test_orthonormality(self, mod15):
        basis = [pulsone(mod15, k0, l0) for k0 in range(3) for l0 in range(5)]
        gram = np.array([[inner(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(15), atol=1e-12)

    def test_eigen_relation_with_eigenvalue_formula(self, mod15):
        for k0 in range(3):
            for l0 in range(5):
                v = pulsone(mod15, k0, l0)
                for a in range(5):
                    for b in range(3):
                        t = HeisenbergElement(mod15, a * 3, b * 5)
                        lam = np.exp(2j * np.pi * b * k0 / 3) * np.exp(-2j * np.pi * a * l0 / 5)
                        residual = apply_td(t, v).samples - lam * v.samples
                        assert np.max(np.abs(residual)) < 1e-10

    def test_index_out_of_range(self, mod15):
        with pytest.raises(IndexOutOfRange):
            pulsone(mod15, 3, 0)

    @pytest.mark.parametrize("M, N", [(19, 23), (61, 67)])
    def test_phases_come_from_the_ring(self, M, N):
        # exp(j*2*pi*p*l0/N) is reduced to the index 2*M*(p*l0 mod N) first, so entry
        # p of pulsone l0 is bit for bit entry p*l0 mod N of pulsone 1
        mod = Modulus(M, N)
        p = np.arange(N)
        ones = pulsone(mod, 2, 1).samples[2::M]
        for l0 in range(N):
            entries = pulsone(mod, 2, l0).samples[2::M]
            np.testing.assert_array_equal(entries, ones[p * l0 % N])
            np.testing.assert_array_equal(entries, phases_to_complex(2 * M * (p * l0 % N), mod.MN) / np.sqrt(N))


class TestChirp:
    @pytest.mark.parametrize("M, N", [(23, 29), (61, 67)])
    def test_phases_come_from_the_ring(self, M, N):
        # the exponent is reduced mod MN in exact integers, then gathered as index 2*expo
        mod = Modulus(M, N)
        mn = mod.MN
        for alpha, beta, gamma in ((1, 0, 0), (2, 5, 7), (mn - 4, mn - 1, 3)):
            expo = [(alpha * n * n + beta * n + gamma) % mn for n in range(mn)]
            want = phases_to_complex(2 * np.array(expo), mn) / np.sqrt(mn)
            np.testing.assert_array_equal(chirp(mod, alpha, beta, gamma).samples, want)

    @pytest.mark.parametrize("M, N", [(61, 67), (251, 257)])
    def test_against_mpmath(self, M, N):
        mpmath = pytest.importorskip("mpmath")
        mod = Modulus(M, N)
        mn = mod.MN
        v = chirp(mod, 3, 11, 5).samples
        worst = 0.0
        with mpmath.workdps(30):
            scale = 1 / mpmath.sqrt(mn)
            for n in map(int, np.random.default_rng(mn).choice(mn, size=1500, replace=False)):
                want = mpmath.expjpi(mpmath.mpf(2 * ((3 * n * n + 11 * n + 5) % mn)) / mn) * scale
                worst = max(worst, float(abs(mpmath.mpc(v[n]) - want)))
        assert worst <= 1e-15

    def test_quadratic_phase_values(self, mod15):
        v = chirp(mod15, 1, 0, 0)
        n = np.arange(15)
        np.testing.assert_allclose(v.samples, np.exp(2j * np.pi * n * n / 15) / np.sqrt(15), atol=1e-12)

    def test_eigen_relation_with_eigenvalue_formula(self, mod15):
        alpha, beta = 2, 7
        v = chirp(mod15, alpha, beta, 0)
        for k in range(15):
            t = HeisenbergElement(mod15, k, 2 * alpha * k % 15)
            lam = np.exp(-2j * np.pi * (alpha * k * k + beta * k) / 15)
            assert np.max(np.abs(apply_td(t, v).samples - lam * v.samples)) < 1e-10

    def test_orthonormality_over_beta(self, mod15):
        basis = [chirp(mod15, 4, beta, 0) for beta in range(15)]
        gram = np.array([[inner(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(15), atol=1e-12)

    def test_gamma_only_global_phase(self, mod15):
        a = chirp(mod15, 2, 3, 0)
        b = chirp(mod15, 2, 3, 4)
        assert abs(abs(inner(a, b)) - 1) < 1e-12

    def test_alpha_not_coprime(self, mod15):
        with pytest.raises(AlphaNotCoprime):
            chirp(mod15, 3, 0, 0)


class TestEigenbasisForLine:
    def test_rectangular_line_yields_pulsones(self, mod15):
        basis = eigenbasis_for_line(LineSubgroup(mod15, 3, 5))
        expected = [pulsone(mod15, k0, l0) for l0 in range(5) for k0 in range(3)]
        for got, want in zip(basis, expected):
            np.testing.assert_array_equal(got.samples, want.samples)

    def test_coprime_slope_line_yields_chirps(self, mod15):
        basis = eigenbasis_for_line(LineSubgroup(mod15, 1, 4))
        expected = [chirp(mod15, 2, beta, 0) for beta in range(15)]
        for got, want in zip(basis, expected):
            np.testing.assert_array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("c, d", [(2, 1), (1, 3), (3, 1), (0, 1), (1, 0), (5, 2)])
    def test_eigen_relation_all_lines(self, mod15, c, d):
        line = LineSubgroup(mod15, c, d)
        basis = eigenbasis_for_line(line)
        assert len(basis) == 15
        mat = np.stack([v.samples for v in basis], axis=1)
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(15), atol=1e-10)
        for x in range(15):
            t = HeisenbergElement(mod15, x * c % 15, x * d % 15)
            for v in basis:
                tv = apply_td(t, v).samples
                lam = np.vdot(v.samples, tv)
                assert abs(abs(lam) - 1) < 1e-10
                assert np.max(np.abs(tv - lam * v.samples)) < 1e-10

    @pytest.mark.parametrize("c, d", [(3, 5), (1, 4), (3, 1)])
    def test_bed_of_nails(self, mod15, c, d):
        line = LineSubgroup(mod15, c, d)
        support = support_set(line)
        for idx in (0, 7):
            v = eigenbasis_for_line(line)[idx]
            surf = cross_ambiguity_naive(v, v, grid="full").values
            for k in range(15):
                for l in range(15):
                    if (k, l) in support:
                        assert abs(abs(surf[k, l]) - 1) < 1e-10
                    else:
                        assert abs(surf[k, l]) < 1e-10


class TestPulsoneChain:
    def test_families(self, mod15):
        assert pulsone_chain(LineSubgroup(mod15, 3, 5), 7) == ((1, 2), ())
        assert pulsone_chain(LineSubgroup(mod15, 1, 4), 7) == ((0, 7, 1), (SL2Element.lfm(mod15, 2),))
        g = sl2_mapping_direction(mod15, (3, 5), (3, 1))
        assert pulsone_chain(LineSubgroup(mod15, 3, 1), 7) == ((1, 2), sl2_factors(g))

    def test_index_out_of_range(self, mod15):
        with pytest.raises(IndexOutOfRange):
            pulsone_chain(LineSubgroup(mod15, 3, 5), 15)


def _same_bytes(got, want, what):
    assert got.samples.tobytes() == want.samples.tobytes(), what


class TestChainWaveform:
    """chain_waveform builds every modulus-bound waveform from its engine form: bit for bit
    the closed forms and constructions each form stands for."""

    PREFIXES = ("", "lfm(4):", "gdaft(2,1,1,1):")

    @pytest.mark.parametrize("M, N", [(3, 5), (11, 13), (23, 29)])
    def test_equals_the_closed_forms(self, M, N):
        mod = Modulus(M, N)
        mn = mod.MN
        for root in (1, 2, 7, -5, -(2**64) - 1, 2**63 + 1, 10**20 + 1):  # any integer root
            if math.gcd(root, mn) == 1:
                form = parse_waveform_spec(f"zc:{root}", mod).fast
                _same_bytes(chain_waveform(mod, *form), PeriodicSequence(mod, zc_sequence(root, mn)), root)
        for prefix, vals in product(self.PREFIXES, ((2,), (2, 3), (-7, 100, -3), (mn + 4, -1, 2**70))):
            form = parse_waveform_spec(prefix + "chirp:" + ",".join(map(str, vals)), mod).fast
            labels = parse_waveform_spec(prefix + "pulsone:0,0", mod).fast[1]  # the prefix's label alone
            _same_bytes(chain_waveform(mod, *form), chain_apply(labels, chirp(mod, *vals)), (prefix, vals))
        for prefix, k0, l0 in product(self.PREFIXES, range(0, M, 2), (0, 1, N - 1)):
            form = parse_waveform_spec(f"{prefix}pulsone:{k0},{l0}", mod).fast
            _same_bytes(chain_waveform(mod, *form), chain_apply(form[1], pulsone(mod, k0, l0)), (prefix, k0, l0))

    @pytest.mark.parametrize("M, N", [(3, 5), (11, 13), (23, 29)])
    def test_eigenvectors_keep_their_construction(self, M, N):
        """Every line family's eigenvector, as it was built before chain_waveform: the chirp
        (alpha, index, 0) on a coprime-slope line, else the pulsone under its labels."""
        mod = Modulus(M, N)
        for (c, d), index in product(((M, N), (1, 2), (1, 4), (M, 1), (1, 0)), (0, 1, mod.MN - 1)):
            line = LineSubgroup(mod, c, d)
            base, labels = pulsone_chain(line, index)
            alpha = line.coprime_slope()
            want = chirp(mod, alpha, index, 0) if alpha is not None else chain_apply(labels, pulsone(mod, *base))
            _same_bytes(eigenvector(line, index), want, (c, d, index))
            _same_bytes(chain_waveform(mod, base, labels), want, (c, d, index))

    def test_refuses_a_tone_without_a_first_lfm_label(self, mod15):
        gdaft = SL2Element(mod15, 2, 1, 1, 1)
        for base, labels in (((0, 3, 1), ()), ((0, 3, 1), (gdaft,)), ((0, 3, 1, 2), (gdaft, SL2Element.lfm(mod15, 2))),
                             ((1, 3, 1), (SL2Element.lfm(mod15, 2),)), ((1, 2, 3), (SL2Element.lfm(mod15, 2),))):
            with pytest.raises(ConfigurationError):
                chain_waveform(mod15, base, labels)


class TestCrystallization:
    def test_rectangular_fits(self, mod15):
        line = LineSubgroup(mod15, 3, 5)
        assert crystallization_check(line, DDRegion(0, 2, 0, 4))
        assert not crystallization_check(line, DDRegion(0, 3, 0, 4))

    def test_region_validation(self, mod15):
        with pytest.raises(ConfigurationError):
            DDRegion(2, 1, 0, 0)
        with pytest.raises(ConfigurationError):
            crystallization_check(LineSubgroup(mod15, 3, 5), DDRegion(0, 15, 0, 0))

    def test_offset_invariance(self, mod15):
        # disjointness depends only on widths, not placement
        line = LineSubgroup(mod15, 3, 5)
        assert crystallization_check(line, DDRegion(-1, 1, -2, 2))
        assert not crystallization_check(line, DDRegion(-2, 1, -2, 2))

    @pytest.mark.parametrize("M, N, c, d", [
        pytest.param(3, 5, 3, 5, id="3-5"),
        pytest.param(3, 5, 1, 4, id="1-4"),
        pytest.param(3, 5, 1, 0, id="1-0"),
        pytest.param(3, 5, 2, 1, id="2-1"),
        pytest.param(5, 7, 5, 7, id="5x7-5-7"),
        pytest.param(5, 7, 5, 1, id="5x7-5-1"),
        pytest.param(5, 7, 1, 6, id="5x7-1-6"),
    ])
    def test_matches_brute_force_all_widths(self, M, N, c, d):
        line = LineSubgroup(Modulus(M, N), c, d)
        for wk in range(1, M * N + 1):
            for wl in range(1, M * N + 1):
                region = DDRegion(0, wk - 1, 0, wl - 1)
                assert crystallization_check(line, region) == brute_force_crystallized(line, region), (
                    wk,
                    wl,
                )


def every_line(mod):
    """Every line of Z_MN x Z_MN once, as (point set, LineSubgroup): the generators
    LineSubgroup accepts, deduplicated by point set."""
    mn = mod.MN
    x = np.arange(mn)
    lines = {}
    for c, d in product(range(mn), repeat=2):
        if math.gcd(c, d) == 1:
            lines.setdefault(frozenset(zip((x * c % mn).tolist(), (x * d % mn).tolist())), LineSubgroup(mod, c, d))
    assert len(lines) == (mod.M + 1) * (mod.N + 1)  # the lines mod M times the lines mod N
    return list(lines.items())


@pytest.mark.parametrize("M, N", [(3, 5), (5, 7)])
class TestWaveformLibrary:
    """The eigenbases of the lines as a waveform library, checked at every line."""

    def test_papr_is_the_lines_count_at_zero_delay(self, M, N):
        """Every eigenvector of a line L has PAPR 10 log10 |L ∩ ({0} x Z_MN)|."""
        mod = Modulus(M, N)
        for points, line in every_line(mod):
            want = 10 * math.log10(sum(1 for k, _ in points if k == 0))
            for index in range(mod.MN):
                assert abs(papr_db(eigenvector(line, index)) - want) < 1e-10, (line, index)

    def test_cross_ambiguity_takes_two_levels(self, M, N):
        """For x an eigenvector of L1 and y one of L2, sqrt(MN) |A_{x,y}| is 0 or
        sqrt(|L1 ∩ L2|) at every point of the full grid: every line pair, two indices each."""
        mod = Modulus(M, N)
        rng = np.random.default_rng(M * N)
        library = [(points, [eigenvector(line, i) for i in (0, int(rng.integers(1, mod.MN)))])
                   for points, line in every_line(mod)]
        for (p1, xs), (p2, ys) in product(library, repeat=2):
            level = math.sqrt(len(p1 & p2))
            for x, y in product(xs, ys):
                scaled = math.sqrt(mod.MN) * np.abs(cross_ambiguity_fft(x, y).values)
                assert np.minimum(scaled, np.abs(scaled - level)).max() < 1e-10


def _line_points(line) -> np.ndarray:
    """The line's MN points as flat indices k * MN + l."""
    mn = line.mod.MN
    x = np.arange(mn, dtype=np.int64)
    return x * line.c % mn * mn + x * line.d % mn


def _line_sharing(line, shared: tuple, rng) -> LineSubgroup:
    """A random line equal to `line` mod the primes in `shared`, a subset of (M, N), and
    not mod the others: its generator is congruent to line's mod their product."""
    mod = line.mod
    step = math.prod(shared)
    while True:
        c, d = ((v + step * int(rng.integers(mod.MN))) % mod.MN for v in (line.c, line.d))
        if math.gcd(c, d) == 1 and math.gcd(line.c * d - line.d * c, mod.MN) == step:
            return LineSubgroup(mod, c, d)


@pytest.mark.parametrize("M, N, pairs", [(23, 29, 2), (251, 257, 1)])
def test_waveform_library_sampled_at_scale(M, N, pairs):
    """Both laws of TestWaveformLibrary on sampled line pairs, through FastEngine.points at
    random grid points, points of the first line and the origin: no (MN)^2 surface is formed.
    Each pair meets at 0 only, or shares its line mod M, mod N or both; the first line is
    a random one, or one on the Doppler axis mod M, mod N or both (the rectangular line)."""
    mod = Modulus(M, N)
    mn = mod.MN
    rng = np.random.default_rng(M)
    axes = [(1, 1), (M, 1), (1, N), (M, N)]
    for n, shared in enumerate([(), (M,), (N,), (M, N)] * pairs):
        fc, fd = axes[(n + n // 4) % 4]
        while True:
            c, d = (int(v) for v in rng.integers(mn, size=2))
            if math.gcd(c * fc % mn, d * fd % mn) == 1:
                break
        first = LineSubgroup(mod, c * fc, d * fd)
        second = _line_sharing(first, shared, rng)
        i, j = (int(v) for v in rng.integers(mn, size=2))
        j = i if len(shared) == 2 else j  # one line: |A| = 1 on it, 0 elsewhere
        x = eigenvector(first, i)
        for line, index, vector in ((first, i, x), (second, j, eigenvector(second, j))):
            zero_delay = np.count_nonzero(np.arange(mn) * line.c % mn == 0)
            assert abs(papr_db(vector) - 10 * math.log10(zero_delay)) < 1e-10, (line, index)
        meet = np.intersect1d(_line_points(first), _line_points(second)).size
        assert meet == math.prod(shared)
        level = math.sqrt(meet)
        base, labels = pulsone_chain(second, j)
        engine = FastEngine(x, *base, transform=labels, grid="full")
        t = rng.integers(mn, size=200)
        K = np.concatenate(([0], rng.integers(mn, size=2000), t * first.c % mn))
        L = np.concatenate(([0], rng.integers(mn, size=2000), t * first.d % mn))
        scaled = math.sqrt(mn) * np.abs(engine.points(K, L))
        assert np.minimum(scaled, np.abs(scaled - level)).max() < 1e-10, (first, second, i, j)
