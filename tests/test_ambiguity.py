import tracemalloc

import numpy as np
import pytest

from ddradar import ambiguity
from ddradar.ambiguity import (
    UNIMODULAR_THRESHOLD,
    AmbiguitySurface,
    FastEngine,
    coded_waveform,
    cross_ambiguity_array,
    cross_ambiguity_fft,
    cross_ambiguity_naive,
    cross_ambiguity_point,
    fast_pulsone_precompute,
    fast_pulsone_query,
    fast_pulsone_surface,
    moyal_residual,
    surface_from_csv,
    surface_to_csv,
    surface_to_pgm,
    unimodular_count,
    zc_sequence,
)
from ddradar.ddcore import PeriodicSequence
from ddradar.errors import BadRoot, ConfigurationError, EmptyChip, OverBudget
from ddradar.modmath import Modulus, _roots_of_unity
from ddradar.radarsim import ScatteringEnvironment, predicted_image
from ddradar.subgroups import LineSubgroup, chirp, eigenvector, pulsone, pulsone_chain
from ddradar.symplectic import SL2Element, chain_apply, gdaft_apply, lfm_apply
from conftest import rand_unit_seq
from oracles import ambiguity_sum, basis_vector, pgm_bytes


class TestNaive:
    def test_self_value_at_origin(self, mod15):
        rng = np.random.default_rng(0)
        x = rand_unit_seq(mod15, rng)
        surf = cross_ambiguity_naive(x, x, grid="full")
        assert surf.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_pulsone_bed_of_nails(self, mod15):
        v = pulsone(mod15, 0, 0)
        surf = cross_ambiguity_naive(v, v, grid="full").values
        for k in range(15):
            for l in range(15):
                if k % 3 == 0 and l % 5 == 0:
                    assert abs(abs(surf[k, l]) - 1) < 1e-12
                else:
                    assert abs(surf[k, l]) < 1e-12

    def test_chirp_line_support(self, mod15):
        alpha = 2
        v = chirp(mod15, alpha, 0, 0)
        surf = cross_ambiguity_naive(v, v, grid="full").values
        for k in range(15):
            for l in range(15):
                if l == (2 * alpha * k) % 15:
                    assert abs(abs(surf[k, l]) - 1) < 1e-12
                else:
                    assert abs(surf[k, l]) < 1e-12

    def test_point_matches_surface(self, mod15):
        rng = np.random.default_rng(1)
        x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
        surf = cross_ambiguity_naive(x, y, grid="full").values
        for k, l in [(0, 0), (3, 7), (14, 1), (8, 8)]:
            assert cross_ambiguity_point(x, y, k, l) == pytest.approx(surf[k, l], abs=1e-12)

    def test_fundamental_grid_is_restriction(self, mod15):
        rng = np.random.default_rng(2)
        x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
        full = cross_ambiguity_naive(x, y, grid="full").values
        fund = cross_ambiguity_naive(x, y, grid="fundamental").values
        np.testing.assert_allclose(fund, full[:3, :5], atol=1e-13)

    def test_warns_on_non_unit_input(self, mod15):
        x = PeriodicSequence(mod15, 2.0 * np.ones(15, dtype=complex))
        with pytest.warns(RuntimeWarning):
            cross_ambiguity_naive(x, x, grid="fundamental")

    def test_fft_path_matches_naive(self, mod15):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
            np.testing.assert_allclose(
                cross_ambiguity_fft(x, y).values,
                cross_ambiguity_naive(x, y, grid="full").values,
                atol=1e-12,
            )


class TestLagProductKernel:
    """Both reductions of the lag-product matrix against the literal per-point sum."""

    def test_direct_and_fft_routes_across_blocks(self):
        # 143 delay rows: two full 64-row blocks and a ragged one of 15
        mod = Modulus(11, 13)
        rng = np.random.default_rng(17)
        x, y = rand_unit_seq(mod, rng), rand_unit_seq(mod, rng)
        want = ambiguity_sum(x.samples, y.samples)
        np.testing.assert_allclose(cross_ambiguity_naive(x, y, grid="full").values, want, atol=1e-10)
        np.testing.assert_allclose(cross_ambiguity_naive(x, y, grid="fundamental").values,
                                   want[:11, :13], atol=1e-10)
        np.testing.assert_allclose(cross_ambiguity_fft(x, y).values, want, atol=1e-10)

    def test_array_route_on_coded_waveform(self):
        xa = coded_waveform(zc_sequence(1, 15), np.ones(4))  # L = 60, not a modulus
        ya = coded_waveform(zc_sequence(2, 15), np.ones(4))
        np.testing.assert_allclose(cross_ambiguity_array(xa, ya), ambiguity_sum(xa, ya), atol=1e-10)

    def test_budget_refuses_before_allocating(self, monkeypatch):
        xa = coded_waveform(zc_sequence(1, 15), np.ones(4))  # L = 60
        # table 32 * 60 * 60 bytes plus output 16 * 60 * 60: one byte over is refused
        monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", 48 * 60 * 60 - 1)
        with pytest.raises(OverBudget):
            cross_ambiguity_array(xa, xa)
        monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", 48 * 60 * 60)
        assert cross_ambiguity_array(xa, xa).shape == (60, 60)


@pytest.mark.parametrize(
    "route, need",
    [
        ("fft", 16 * 15 * (15 + 64)),  # output plus one block
        ("fast", 16 * 15 * 15 + 128 * 15 * 15),  # output plus one engine block, all 15 rows
        ("predicted", 32 * 15 * 15),  # output plus one gathered surface
    ],
)
def test_every_full_grid_route_checks_the_budget(mod15, monkeypatch, route, need):
    # the direct route's check is test_budget_refuses_before_allocating
    x = pulsone(mod15, 0, 0)
    calls = {
        "fft": lambda: cross_ambiguity_fft(x, x),
        "fast": lambda: FastEngine(x, 0, 0, grid="full").surface,
        "predicted": lambda: predicted_image(
            ScatteringEnvironment(mod15, ((0, 0, 1.0),)), AmbiguitySurface(mod15, "full", np.eye(15))
        ),
    }
    monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", need - 1)
    with pytest.raises(OverBudget):
        calls[route]()
    monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", need)
    calls[route]()


class TestFastPulsone:
    def test_impulse_precompute_table(self, mod15):
        pre = fast_pulsone_precompute(basis_vector(mod15, 0), 0, 0)
        expected = np.zeros((3, 5), dtype=complex)
        expected[0, :] = 1 / np.sqrt(5)
        np.testing.assert_allclose(pre.rowfft, expected, atol=1e-15)

    def test_self_query_at_origin(self, mod15):
        v = pulsone(mod15, 1, 2)
        pre = fast_pulsone_precompute(v, 1, 2)
        assert fast_pulsone_query(pre, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_everywhere_many_inputs(self, mod15):
        rng = np.random.default_rng(5)
        kk, ll = np.meshgrid(np.arange(15), np.arange(15), indexing="ij")
        for _ in range(50):
            x = rand_unit_seq(mod15, rng)
            k0, l0 = int(rng.integers(3)), int(rng.integers(5))
            y = pulsone(mod15, k0, l0)
            naive = cross_ambiguity_naive(x, y, grid="full").values
            pre = fast_pulsone_precompute(x, k0, l0)
            np.testing.assert_allclose(fast_pulsone_query(pre, kk, ll), naive, atol=1e-10)

    def test_surface_fundamental_only(self, mod15):
        rng = np.random.default_rng(6)
        x = rand_unit_seq(mod15, rng)
        pre = fast_pulsone_precompute(x, 0, 0)
        surf = fast_pulsone_surface(pre)
        assert surf.grid == "fundamental"
        naive = cross_ambiguity_naive(x, pulsone(mod15, 0, 0), grid="fundamental").values
        np.testing.assert_allclose(surf.values, naive, atol=1e-10)

    def test_spot_checks_at_large_modulus(self, mod1147):
        rng = np.random.default_rng(7)
        x = rand_unit_seq(mod1147, rng)
        k0, l0 = 11, 23
        y = pulsone(mod1147, k0, l0)
        pre = fast_pulsone_precompute(x, k0, l0)
        for _ in range(100):
            k, l = int(rng.integers(mod1147.MN)), int(rng.integers(mod1147.MN))
            assert fast_pulsone_query(pre, k, l) == pytest.approx(
                cross_ambiguity_point(x, y, k, l), abs=1e-10
            )

    @pytest.mark.parametrize("grid", ["fundamental", "full"])
    def test_untransformed_engine_is_the_point_query(self, mod15, grid):
        rng = np.random.default_rng(17)
        x = rand_unit_seq(mod15, rng)
        pre = fast_pulsone_precompute(x, 2, 1)
        shape = (3, 5) if grid == "fundamental" else (15, 15)
        kk, ll = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
        surf = FastEngine(x, 2, 1, grid=grid).surface
        assert surf.grid == grid
        np.testing.assert_array_equal(surf.values, fast_pulsone_query(pre, kk, ll))
        if grid == "fundamental":
            np.testing.assert_array_equal(surf.values, fast_pulsone_surface(pre).values)

    def test_unknown_grid_rejected(self, mod15):
        x = pulsone(mod15, 0, 0)
        with pytest.raises(ConfigurationError):
            FastEngine(x, 0, 0, grid="diagonal")
        with pytest.raises(ConfigurationError):
            cross_ambiguity_naive(x, x, grid="diagonal")
        with pytest.raises(ConfigurationError):
            AmbiguitySurface(mod15, "diagonal", np.zeros((3, 5)))

    def test_transformed_reference_gdaft(self, mod15):
        rng = np.random.default_rng(8)
        x = rand_unit_seq(mod15, rng)
        g = SL2Element(mod15, 1, 2, 7, 0)
        ref = gdaft_apply(g, pulsone(mod15, 1, 2))
        fast = FastEngine(x, 1, 2, transform=(g,), grid="full").surface.values
        naive = cross_ambiguity_naive(x, ref, grid="full").values
        np.testing.assert_allclose(fast, naive, atol=1e-10)

    def test_transformed_reference_lfm(self, mod15):
        rng = np.random.default_rng(9)
        x = rand_unit_seq(mod15, rng)
        ref = lfm_apply(2, pulsone(mod15, 0, 3))
        fast = FastEngine(x, 0, 3, transform=(SL2Element.lfm(mod15, 2),), grid="full").surface.values
        naive = cross_ambiguity_naive(x, ref, grid="full").values
        np.testing.assert_allclose(fast, naive, atol=1e-10)


def _chain(mod, kind):
    """Label chains of every shape the engine folds over."""
    if kind == "empty":
        return ()
    if kind == "lfm":
        return (SL2Element.lfm(mod, 2),)
    if kind == "lfm-odd-c":  # rate inv2: the label's c entry is 1
        return (SL2Element.lfm(mod, mod.inv2),)
    if kind == "gdaft":
        return (SL2Element(mod, 1, 2, 7, 15),)
    labels = pulsone_chain(LineSubgroup(mod, 0, 1), 0)[1]  # transported line, shear route
    assert len(labels) == 2
    return labels


def _reference(mod, kind):
    """(base, labels) for the engine and the same reference built directly.

    Pulsone chains use the pulsone (1, 2); the other kinds are chirps, the
    tone base (0, beta, 1, gamma) under an LFM label and any prefix labels.
    """
    if kind not in ("chirp", "zc", "lfm-chirp", "gdaft-chirp"):
        labels = _chain(mod, kind)
        return (1, 2), labels, chain_apply(labels, pulsone(mod, 1, 2))
    if kind == "zc":
        rate = -2 * mod.inv2 % mod.MN  # zc(2) = chirp(rate, rate)
        ref = PeriodicSequence(mod, zc_sequence(2, mod.MN))
        return (0, rate, 1), (SL2Element.lfm(mod, rate),), ref
    base, labels, ref = (0, 3, 1, 4), (SL2Element.lfm(mod, 2),), chirp(mod, 2, 3, 4)
    if kind == "lfm-chirp":
        return base, labels + (SL2Element.lfm(mod, 7),), lfm_apply(7, ref)
    if kind == "gdaft-chirp":
        g = SL2Element(mod, 1, 2, 7, 15)
        return base, labels + (g,), gdaft_apply(g, ref)
    return base, labels, ref


@pytest.mark.parametrize("grid", ["fundamental", "full"])
@pytest.mark.parametrize(
    "kind",
    ["empty", "lfm", "lfm-odd-c", "gdaft", "shear", "chirp", "zc", "lfm-chirp", "gdaft-chirp"],
)
@pytest.mark.parametrize("M, N", [(3, 5), (11, 13), (13, 17)])
def test_engine_matches_naive_for_every_chain(M, N, kind, grid):
    mod = Modulus(M, N)
    base, labels, ref = _reference(mod, kind)
    x = rand_unit_seq(mod, np.random.default_rng(M * N))
    fast = FastEngine(x, *base, transform=labels, grid=grid).surface.values
    naive = cross_ambiguity_naive(x, ref, grid=grid).values
    np.testing.assert_allclose(fast, naive, atol=1e-10)


@pytest.mark.parametrize("chain", ["empty", "two-label"])
@pytest.mark.parametrize("M, N", [(23, 29), (31, 37)])
def test_full_grid_engine_memory(M, N, chain):
    # the output plus at most 4 MB: a few 64-row blocks of index and phase work
    mod = Modulus(M, N)
    labels = () if chain == "empty" else pulsone_chain(LineSubgroup(mod, M, 1), 0)[1]
    assert len(labels) == (0 if chain == "empty" else 2)
    x = rand_unit_seq(mod, np.random.default_rng(M))
    tracemalloc.start()
    try:
        FastEngine(x, 1, 2, transform=labels, grid="full").surface
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * mod.MN**2 + 4_000_000


@pytest.mark.parametrize("M, N", [(127, 131), (251, 257)])
def test_engine_is_exact_at_scale(M, N):
    """Sampled FastEngine points of the rectangular, a coprime-slope and a transported
    line's eigenvector, against direct sums in np.longdouble, for a random return."""
    mod = Modulus(M, N)
    mn = mod.MN
    rng = np.random.default_rng(mn)
    y = rand_unit_seq(mod, rng)
    n = np.arange(mn)
    angle = 8 * np.arctan(np.longdouble(1)) * np.arange(mn, dtype=np.longdouble) / mn
    turns = np.cos(angle) - 1j * np.sin(angle)  # exp(-j*2*pi*r/MN) in extended precision
    x = y.samples.astype(np.clongdouble)
    for c, d in ((M, N), (1, 2), (M, 1)):
        line = LineSubgroup(mod, c, d)
        index = int(rng.integers(mn))
        base, labels = pulsone_chain(line, index)
        assert len(labels) == {(M, N): 0, (1, 2): 1, (M, 1): 2}[(c, d)]
        engine = FastEngine(y, *base, transform=labels, grid="full")
        ref = np.conj(eigenvector(line, index).samples).astype(np.clongdouble)
        K, L = rng.integers(0, mn, (2, 24))
        for k, l, got in zip(K, L, engine.points(K, L)):
            lag = (n - k) % mn
            want = np.sum(x * ref[lag] * turns[l * lag % mn])
            assert abs(got - complex(want)) < 1e-10, (c, d, k, l)


class TestMoyal:
    def test_self_residual_small(self, mod15):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = rand_unit_seq(mod15, rng)
            assert moyal_residual(x, x) < 1e-10

    def test_cross_residual_orthogonal_pulsones(self, mod15):
        a, b = pulsone(mod15, 0, 0), pulsone(mod15, 1, 3)
        assert moyal_residual(a, b) < 1e-10

    def test_large_modulus(self, mod1147):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rand_unit_seq(mod1147, rng)
            assert moyal_residual(x, x) < 1e-10

    def test_unimodular_count_bound(self, mod15):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rand_unit_seq(mod15, rng)
            surf = cross_ambiguity_fft(x, x)
            assert unimodular_count(surf) <= 15

    def test_cauchy_schwarz_bound(self, mod15):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
            assert float(np.max(np.abs(cross_ambiguity_fft(x, y).values))) <= 1 + 1e-9


class TestZadoffChu:
    @pytest.mark.parametrize("L", [667, 4087])
    def test_phases_come_from_the_ring(self, L):
        # root*n*(n+1) is reduced mod 2L in exact integers, then gathered negated
        for root in (1, 2, L - 3):
            expo = [-(root * n * (n + 1)) % (2 * L) for n in range(L)]
            want = _roots_of_unity(L)[np.array(expo)] / np.sqrt(L)
            np.testing.assert_array_equal(zc_sequence(root, L), want)

    @pytest.mark.parametrize("M, N", [(61, 67), (251, 257)])
    def test_against_mpmath(self, M, N):
        mpmath = pytest.importorskip("mpmath")
        L = M * N
        z = zc_sequence(7, L)
        worst = 0.0
        with mpmath.workdps(30):
            scale = 1 / mpmath.sqrt(L)
            for n in map(int, np.random.default_rng(L).choice(L, size=1500, replace=False)):
                want = mpmath.expjpi(-mpmath.mpf(7 * n * (n + 1) % (2 * L)) / L) * scale
                worst = max(worst, float(abs(mpmath.mpc(z[n]) - want)))
        assert worst <= 1e-15

    def test_frozen_length_three(self):
        z = zc_sequence(1, 3)
        expected = np.array([1.0, np.exp(-2j * np.pi / 3), 1.0]) / np.sqrt(3)
        np.testing.assert_allclose(z, expected, atol=1e-15)

    def test_constant_amplitude(self):
        z = zc_sequence(2, 15)
        np.testing.assert_allclose(np.abs(z), 1 / np.sqrt(15), atol=1e-15)

    def test_zero_autocorrelation(self):
        for root in (1, 2, 4):
            z = zc_sequence(root, 15)
            surf = cross_ambiguity_array(z, z)
            for k in range(1, 15):
                assert abs(surf[k, 0]) < 1e-10

    def test_bad_parameters(self):
        with pytest.raises(BadRoot):
            zc_sequence(3, 15)
        with pytest.raises(BadRoot):
            zc_sequence(1, 8)


class TestCodedWaveform:
    def test_all_ones_identity_chip(self):
        y = coded_waveform(np.ones(15), np.ones(1))
        np.testing.assert_allclose(y, np.full(15, 1 / np.sqrt(15)), atol=1e-15)

    def test_zc_identity_chip_is_zc(self):
        z = zc_sequence(1, 15)
        np.testing.assert_allclose(coded_waveform(z, np.ones(1)), z, atol=1e-15)

    def test_oversampling_layout(self):
        z = np.array([1.0, 1j])
        y = coded_waveform(z, np.ones(3))
        assert y.shape == (6,)
        np.testing.assert_allclose(y[:3], y[0])
        np.testing.assert_allclose(y[3:], y[3])

    def test_empty_chip(self):
        with pytest.raises(EmptyChip):
            coded_waveform(np.ones(15), np.ones(0))


class TestSidelobeContrast:
    def test_chirp_eigenvector_vs_zc_coded(self, mod15):
        # eigenvector route: numerically zero off its support line
        alpha = 2
        v = chirp(mod15, alpha, 0, 0)
        surf = cross_ambiguity_naive(v, v, grid="full").values
        off = [
            abs(surf[k, l])
            for k in range(15)
            for l in range(15)
            if l != (2 * alpha * k) % 15
        ]
        chirp_db = 20 * np.log10(max(max(off), 1e-20))
        assert chirp_db < -180

        # coded route: rectangular chip correlations leave real sidelobes
        root, s = 1, 4
        w = coded_waveform(zc_sequence(root, 15), np.ones(s))
        wsurf = cross_ambiguity_array(w, w)
        L = 15 * s
        on_line = {
            (k, l)
            for k in range(0, L, s)
            for l in range(L)
            if l % 15 == (-root * (k // s)) % 15
        }
        zc_off = [abs(wsurf[k, l]) for k in range(L) for l in range(L) if (k, l) not in on_line]
        zc_db = 20 * np.log10(max(zc_off))
        assert zc_db > -40
        assert zc_db - chirp_db >= 60


class TestSurfaceIo:
    def test_csv_round_trip(self, mod15, tmp_path):
        rng = np.random.default_rng(14)
        x = rand_unit_seq(mod15, rng)
        surf = cross_ambiguity_naive(x, x, grid="fundamental")
        path = tmp_path / "surf.csv"
        surface_to_csv(surf, path)
        back = surface_from_csv(path, mod15, "fundamental")
        np.testing.assert_array_equal(back.values, surf.values)

    def test_pgm_format(self, mod15, tmp_path):
        surf = cross_ambiguity_naive(pulsone(mod15, 0, 0), pulsone(mod15, 0, 0), grid="full")
        path = tmp_path / "surf.pgm"
        surface_to_pgm(surf.values, path, scale="db", floor=-120.0)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n15 15\n255\n")
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8).reshape(15, 15)
        assert pixels[0, 0] == 255  # mainlobe
        assert pixels[1, 1] == 0    # numerically-zero sidelobe clamps to the floor

    def test_pgm_linear_scale(self, tmp_path):
        values = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "lin.pgm"
        surface_to_pgm(values, path, scale="linear")
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert list(pixels) == [0, 128, 255, 64]

    @pytest.mark.parametrize(
        "scale, floor", [("linear", -120.0), ("db", -120.0), ("db", -60.0), ("db", -3.5), ("db", -1e-3)]
    )
    def test_pgm_bytes_match_the_oracle(self, tmp_path, scale, floor):
        rng = np.random.default_rng(18)
        values = rng.standard_normal((37, 41)) + 1j * rng.standard_normal((37, 41))
        values[rng.random(values.shape) < 0.2] = 0.0  # zero cells: log10 gives -inf
        values[3, 4] = 1e-300  # far below every floor
        # magnitudes whose scaled pixel is about k + 1/2: any change in the order of
        # the operations moves some of them across a rounding tie
        steps = (np.arange(255) + 0.5) / 255
        ties = steps if scale == "linear" else 10 ** ((floor - floor * steps) / 20)
        ties = np.append(3.0 * ties, 3.0).reshape(16, 16)
        for surface in (values, values.T, ties, np.zeros((5, 7), dtype=complex)):
            path = tmp_path / "s.pgm"
            surface_to_pgm(surface, path, scale=scale, floor=floor)
            assert path.read_bytes() == pgm_bytes(surface, scale, floor)

    def test_pgm_memory_is_magnitudes_plus_pixels(self, tmp_path):
        values = np.random.default_rng(19).standard_normal((400, 400)) + 0j
        for scale in ("linear", "db"):
            tracemalloc.start()
            try:
                surface_to_pgm(values, tmp_path / "s.pgm", scale=scale)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= values.size * (8 + 1) + 250_000

    def test_pgm_rejects_bad_floor(self, tmp_path):
        with pytest.raises(ConfigurationError):
            surface_to_pgm(np.ones((2, 2)), tmp_path / "x.pgm", scale="db", floor=10.0)

    @pytest.mark.parametrize("floor", [float("nan"), float("-inf"), float("inf"), 0.0])
    def test_pgm_rejects_floor_that_is_not_finite_negative(self, tmp_path, floor):
        path = tmp_path / "x.pgm"
        with pytest.raises(ConfigurationError):
            surface_to_pgm(np.ones((2, 2)), path, scale="db", floor=floor)
        assert not path.exists()


class TestRingExactPhases:
    """At (31, 37) every l*n product is reduced mod MN before its exponential."""

    def test_naive_grid_matches_point_sums(self, mod1147):
        rng = np.random.default_rng(15)
        x, y = rand_unit_seq(mod1147, rng), rand_unit_seq(mod1147, rng)
        surf = cross_ambiguity_naive(x, y, grid="full").values
        worst = max(
            abs(surf[k, l] - cross_ambiguity_point(x, y, k, l))
            for k, l in rng.integers(mod1147.MN, size=(300, 2))
        )
        assert worst <= 1e-15

    def test_fft_rows_match_point_sums(self, mod1147):
        rng = np.random.default_rng(16)
        x, y = rand_unit_seq(mod1147, rng), rand_unit_seq(mod1147, rng)
        surf = cross_ambiguity_fft(x, y).values
        worst = max(
            abs(surf[k, l] - cross_ambiguity_point(x, y, k, l))
            for k, l in rng.integers(mod1147.MN, size=(300, 2))
        )
        assert worst <= 1e-15
