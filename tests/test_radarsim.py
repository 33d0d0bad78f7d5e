import json

import numpy as np
import pytest

from ddradar.ambiguity import (
    FastEngine,
    cross_ambiguity_fft,
    cross_ambiguity_naive,
)
from ddradar.ddcore import PeriodicSequence
from ddradar.errors import (
    ConfigurationError,
    GridMismatch,
    NotCrystallized,
    ValidationError,
    ZeroSignal,
)
from ddradar.modmath import Modulus
from ddradar.radarsim import (
    ScatteringEnvironment,
    add_noise,
    apply_channel,
    form_image,
    predicted_image,
    readout_targets,
    scene_from_json,
    scene_to_json,
)
from ddradar.subgroups import DDRegion, LineSubgroup, chirp, crystallization_check, pulsone
from ddradar.symplectic import SL2Element, gdaft_apply
from conftest import rand_unit_seq
from oracles import basis_vector, table_magnitudes, zero_sequence

FOUR_TAPS = ((0, 0, 1.0), (1, 2, 0.5 - 0.25j), (2, 1, -0.8j), (2, 4, 0.3 + 0.6j))


class TestApplyChannel:
    def test_empty_environment(self, mod15):
        rng = np.random.default_rng(0)
        out = apply_channel(ScatteringEnvironment(mod15, ()), rand_unit_seq(mod15, rng))
        np.testing.assert_array_equal(out.samples, 0)

    def test_identity_tap(self, mod15):
        rng = np.random.default_rng(1)
        x = rand_unit_seq(mod15, rng)
        out = apply_channel(ScatteringEnvironment(mod15, ((0, 0, 1.0),)), x)
        np.testing.assert_allclose(out.samples, x.samples, atol=1e-15)

    def test_single_shift_tap_on_impulse(self, mod15):
        out = apply_channel(
            ScatteringEnvironment(mod15, ((2, 3, 1.0),)), basis_vector(mod15, 0)
        )
        np.testing.assert_allclose(out.samples, basis_vector(mod15, 2).samples, atol=1e-15)

    def test_linearity(self, mod15):
        rng = np.random.default_rng(2)
        x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
        env = ScatteringEnvironment(mod15, FOUR_TAPS)
        combined = apply_channel(env, PeriodicSequence(mod15, 2 * x.samples + 3j * y.samples))
        parts = 2 * apply_channel(env, x).samples + 3j * apply_channel(env, y).samples
        np.testing.assert_allclose(combined.samples, parts, atol=1e-12)
        # superposition across taps
        total = sum(
            apply_channel(ScatteringEnvironment(mod15, (tap,)), x).samples for tap in FOUR_TAPS
        )
        np.testing.assert_allclose(apply_channel(env, x).samples, total, atol=1e-12)

    def test_energy_bound(self, mod15):
        rng = np.random.default_rng(3)
        x = rand_unit_seq(mod15, rng)
        env = ScatteringEnvironment(mod15, FOUR_TAPS)
        bound = sum(abs(h) for _, _, h in FOUR_TAPS)
        assert apply_channel(env, x).norm() <= bound + 1e-12

    def test_duplicate_taps_rejected(self, mod15):
        with pytest.raises(ConfigurationError):
            ScatteringEnvironment(mod15, ((1, 2, 1.0), (1, 2, 0.5)))


class TestAddNoise:
    def test_none_means_noiseless(self, mod15):
        rng = np.random.default_rng(4)
        y = rand_unit_seq(mod15, rng)
        assert add_noise(y, None, seed=0) is y
        assert add_noise(y, float("inf"), seed=0) is y

    def test_deterministic_for_seed(self, mod15):
        rng = np.random.default_rng(5)
        y = rand_unit_seq(mod15, rng)
        a = add_noise(y, 10.0, seed=42)
        b = add_noise(y, 10.0, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = add_noise(y, 10.0, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_empirical_snr(self, mod15):
        rng = np.random.default_rng(6)
        y = rand_unit_seq(mod15, rng)
        energy = y.norm() ** 2
        noise_energy = 0.0
        trials = 1000
        for seed in range(trials):
            w = add_noise(y, 12.0, seed=seed).samples - y.samples
            noise_energy += np.linalg.norm(w) ** 2
        snr_db = 10 * np.log10(energy / (noise_energy / trials))
        assert snr_db == pytest.approx(12.0, abs=0.5)

    def test_zero_signal_rejected(self, mod15):
        with pytest.raises(ZeroSignal):
            add_noise(zero_sequence(mod15), 10.0, seed=0)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf"), -4000.0, 4000.0])
    def test_unusable_snr_rejected(self, mod15, snr_db):
        y = rand_unit_seq(mod15, np.random.default_rng(7))
        with pytest.raises(ValidationError):
            add_noise(y, snr_db, seed=0)


class TestFormImage:
    def test_self_image_is_self_ambiguity(self, mod15):
        v = pulsone(mod15, 0, 0)
        img = form_image(v, v, grid="full", pulsone_indices=(0, 0))
        np.testing.assert_allclose(
            img.surface.values, cross_ambiguity_naive(v, v, grid="full").values, atol=1e-13
        )

    def test_single_tap_value_exact(self, mod15):
        h = 0.7 - 0.2j
        env = ScatteringEnvironment(mod15, ((2, 3, h),))
        x = pulsone(mod15, 0, 0)
        img = form_image(apply_channel(env, x), x, grid="full", pulsone_indices=(0, 0))
        assert img.surface.values[2, 3] == pytest.approx(h, abs=1e-12)

    def test_fast_matches_naive(self, mod15):
        rng = np.random.default_rng(7)
        env = ScatteringEnvironment(mod15, FOUR_TAPS)
        x = pulsone(mod15, 1, 4)
        y = add_noise(apply_channel(env, x), 15.0, seed=3)
        fast = form_image(y, x, grid="full", pulsone_indices=(1, 4))
        naive = cross_ambiguity_naive(y, x, grid="full", warn_nonunit=False)
        np.testing.assert_allclose(fast.surface.values, naive.values, atol=1e-10)

    def test_fast_with_transform_matches_naive(self, mod15):
        rng = np.random.default_rng(8)
        g = SL2Element(mod15, 1, 2, 0, 1)
        ref = gdaft_apply(g, pulsone(mod15, 0, 1))
        env = ScatteringEnvironment(mod15, FOUR_TAPS)
        y = apply_channel(env, ref)
        fast = form_image(y, ref, grid="full", pulsone_indices=(0, 1), transform=(g,))
        naive = cross_ambiguity_naive(y, ref, grid="full", warn_nonunit=False)
        np.testing.assert_allclose(fast.surface.values, naive.values, atol=1e-10)


    @pytest.mark.parametrize("case", ["chirp-as-pulsone", "wrong-transform", "not-unit"])
    def test_reference_its_base_does_not_describe_refused(self, mod15, case):
        g = SL2Element(mod15, 1, 2, 0, 1)
        x = gdaft_apply(g, pulsone(mod15, 0, 1))
        kwargs = {"pulsone_indices": (0, 1), "transform": (g,)}
        if case == "chirp-as-pulsone":
            x, kwargs = chirp(mod15, 2), {"pulsone_indices": (0, 0)}
        elif case == "wrong-transform":
            kwargs["transform"] = (SL2Element(mod15, 1, 4, 0, 1),)
        else:  # <x, ref> is still 1: the added part is orthogonal to ref
            x = PeriodicSequence(mod15, x.samples + 0.5 * gdaft_apply(g, pulsone(mod15, 2, 3)).samples)
        with pytest.raises(ConfigurationError):
            form_image(x, x, grid="full", **kwargs)


class TestPredictedImage:
    def test_empty_environment(self, mod15):
        v = pulsone(mod15, 0, 0)
        pred = predicted_image(ScatteringEnvironment(mod15, ()), cross_ambiguity_fft(v, v))
        np.testing.assert_array_equal(pred.values, 0)

    def test_origin_tap_reproduces_self_ambiguity(self, mod15):
        rng = np.random.default_rng(9)
        x = rand_unit_seq(mod15, rng)
        ax = cross_ambiguity_fft(x, x)
        pred = predicted_image(ScatteringEnvironment(mod15, ((0, 0, 1.0),)), ax)
        np.testing.assert_allclose(pred.values, ax.values, atol=1e-13)

    def test_oracle_matches_form_image(self, mod15):
        rng = np.random.default_rng(10)
        for _ in range(10):
            taps = tuple(
                (int(rng.integers(15)), int(rng.integers(15)), complex(*rng.standard_normal(2)))
                for _ in range(3)
            )
            try:
                env = ScatteringEnvironment(mod15, taps)
            except ConfigurationError:
                continue
            x = rand_unit_seq(mod15, rng)
            img = cross_ambiguity_naive(apply_channel(env, x), x, grid="full", warn_nonunit=False)
            pred = predicted_image(env, cross_ambiguity_fft(x, x))
            np.testing.assert_allclose(img.values, pred.values, atol=1e-10)

    def test_ring_exact_at_large_modulus(self, mod1147):
        # tap phases exp(j*2*pi*l_t*(k - k_t)/MN) from indices reduced mod MN
        rng = np.random.default_rng(11)
        mn = mod1147.MN
        k0, l0 = int(rng.integers(mod1147.M)), int(rng.integers(mod1147.N))
        coords = rng.choice(mn * mn, size=4, replace=False)
        taps = tuple(
            (int(c // mn), int(c % mn), complex(*rng.standard_normal(2))) for c in coords
        )
        env = ScatteringEnvironment(mod1147, taps)
        x = pulsone(mod1147, k0, l0)
        img = form_image(apply_channel(env, x), x, grid="full", pulsone_indices=(k0, l0))
        pred = predicted_image(env, FastEngine(x, k0, l0, grid="full").surface)
        assert np.max(np.abs(img.surface.values - pred.values)) <= 1e-14

    def test_requires_full_grid(self, mod15):
        v = pulsone(mod15, 0, 0)
        fund = cross_ambiguity_naive(v, v, grid="fundamental")
        with pytest.raises(GridMismatch):
            predicted_image(ScatteringEnvironment(mod15, ()), fund)


class TestReadout:
    def test_noiseless_single_tap(self, mod15):
        env = ScatteringEnvironment(mod15, ((1, 3, 0.9 + 0.1j),))
        x = pulsone(mod15, 0, 0)
        img = form_image(apply_channel(env, x), x, grid="full", pulsone_indices=(0, 0))
        line = LineSubgroup(mod15, 3, 5)
        hits = readout_targets(img, line, DDRegion(0, 2, 0, 4))
        assert len(hits) == 1
        k, l, v = hits[0]
        assert (k, l) == (1, 3)
        assert v == pytest.approx(0.9 + 0.1j, abs=1e-9)

    def test_four_tap_exact_recovery(self, mod15):
        env = ScatteringEnvironment(mod15, FOUR_TAPS)
        x = pulsone(mod15, 0, 0)
        img = form_image(apply_channel(env, x), x, grid="full", pulsone_indices=(0, 0))
        hits = readout_targets(img, LineSubgroup(mod15, 3, 5), DDRegion(0, 2, 0, 4), threshold=0.2)
        assert [(k, l) for k, l, _ in hits] == sorted((k, l) for k, l, _ in FOUR_TAPS)
        for (k, l, got), (_, _, want) in zip(hits, sorted(FOUR_TAPS)):
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf"), -1.0, 0.0])
    def test_non_finite_threshold_rejected(self, mod15, threshold):
        env = ScatteringEnvironment(mod15, FOUR_TAPS)
        x = pulsone(mod15, 0, 0)
        img = form_image(apply_channel(env, x), x, grid="full", pulsone_indices=(0, 0))
        with pytest.raises(ValidationError):
            readout_targets(img, LineSubgroup(mod15, 3, 5), DDRegion(0, 2, 0, 4), threshold)

    def test_not_crystallized_guard(self, mod15):
        env = ScatteringEnvironment(mod15, ((0, 0, 1.0),))
        x = pulsone(mod15, 0, 0)
        img = form_image(apply_channel(env, x), x, grid="full", pulsone_indices=(0, 0))
        with pytest.raises(NotCrystallized):
            readout_targets(img, LineSubgroup(mod15, 3, 5), DDRegion(0, 3, 0, 4))

    def test_fundamental_image_refused(self, mod15):
        v = pulsone(mod15, 1, 2)
        fundamental = form_image(v, v, grid="fundamental", pulsone_indices=(1, 2))
        with pytest.raises(GridMismatch):
            readout_targets(fundamental.surface, LineSubgroup(mod15, 3, 5), DDRegion(0, 2, 0, 4))

    @pytest.mark.parametrize("threshold", [None, 0.2])
    def test_fundamental_image_reads_the_full_grid_targets(self, mod15, threshold):
        # the engine answers every grid point, whatever grid it walks
        env = ScatteringEnvironment(mod15, FOUR_TAPS)
        x = pulsone(mod15, 0, 0)
        y = add_noise(apply_channel(env, x), 25.0, seed=1)
        line, region = LineSubgroup(mod15, 3, 5), DDRegion(0, 2, 0, 4)
        fundamental = form_image(y, x, grid="fundamental", pulsone_indices=(0, 0))
        full = form_image(y, x, grid="full", pulsone_indices=(0, 0))
        got = readout_targets(fundamental, line, region, threshold)
        assert got == readout_targets(full, line, region, threshold)
        assert got == readout_targets(full.surface, line, region, threshold)
        assert [(k, l) for k, l, _ in got] == sorted((k, l) for k, l, _ in FOUR_TAPS)

    @pytest.mark.parametrize("source", ["surface", "engine"])
    def test_matches_the_sorted_set_of_region_keys(self, source):
        """On random crystallized regions, with negative bounds and bounds past MN,
        the list is the one a sorted set of (k mod MN, l mod MN) keys gives, with the
        magnitudes the image's CSV writes: an engine's of its table entries
        (oracles.table_magnitudes), an array's of its values."""
        mod = Modulus(5, 7)
        mn = mod.MN
        rng = np.random.default_rng(12)
        engine = FastEngine(rand_unit_seq(mod, rng), 1, 2, grid="full")
        values = engine.surface.values
        img = engine if source == "engine" else engine.surface
        mags = table_magnitudes(engine) if source == "engine" else [[abs(v) for v in row] for row in values.tolist()]
        lines = [LineSubgroup(mod, c, d) for c, d in ((5, 7), (1, 2), (5, 1), (1, 0), (0, 1))]
        checked = wrapped = negative = 0
        while checked < 80:
            line = lines[int(rng.integers(len(lines)))]
            wk, wl = (int(w) for w in rng.choice([1, 2, 3, 5, 7, mn - 1, mn], 2))
            k_min, l_min = (int(v) for v in rng.integers(-2 * mn, 2 * mn, 2))
            region = DDRegion(k_min, k_min + wk - 1, l_min, l_min + wl - 1)
            if not crystallization_check(line, region):
                continue
            checked += 1
            wrapped += (region.k_min // mn != region.k_max // mn) or (region.l_min // mn != region.l_max // mn)
            negative += region.k_min < 0 or region.l_min < 0
            keys = sorted({(k % mn, l % mn) for k in range(region.k_min, region.k_max + 1)
                           for l in range(region.l_min, region.l_max + 1)})
            found = [(k, l, complex(values[k, l]), float(mags[k][l])) for k, l in keys]
            for threshold in (None, 0.1):
                cut = 0.5 * max(a for *_, a in found) if threshold is None else threshold
                want = [(k, l, v) for k, l, v, a in found if a >= cut]
                got = readout_targets(img, line, region, threshold)
                assert got == want
                assert all(type(k) is int and type(l) is int and type(v) is complex for k, l, v in got)
        assert wrapped >= 10 and negative >= 10

    def test_bounds_beyond_int64_read_their_residues(self, mod15):
        engine = FastEngine(rand_unit_seq(mod15, np.random.default_rng(4)), 0, 0, grid="full")
        line = LineSubgroup(mod15, 1, 4)
        big = 10**21  # 10 mod 15, and -big is 5 mod 15
        for region, residues in [(DDRegion(big, big + 1, 0, 0), DDRegion(10, 11, 0, 0)),
                                 (DDRegion(-big, -big, -big - 14, -big), DDRegion(5, 5, -9, 5))]:
            for threshold in (None, 1e-3):
                want = readout_targets(engine, line, residues, threshold)
                assert want and readout_targets(engine, line, region, threshold) == want

    def test_monte_carlo_detection(self, mod15):
        # 20 dB SNR, four unit-magnitude taps, absolute threshold 0.5
        taps = ((0, 0, 1.0), (1, 2, 1j), (2, 1, -1.0), (2, 4, -1j))
        env = ScatteringEnvironment(mod15, taps)
        x = pulsone(mod15, 0, 0)
        line = LineSubgroup(mod15, 3, 5)
        region = DDRegion(0, 2, 0, 4)
        clean = apply_channel(env, x)
        tap_coords = sorted((k, l) for k, l, _ in taps)
        all_detected = 0
        no_false_alarm = 0
        for seed in range(100):
            y = add_noise(clean, 20.0, seed=seed)
            img = form_image(y, x, grid="full", pulsone_indices=(0, 0))
            hits = readout_targets(img, line, region, threshold=0.5)
            got = [(k, l) for k, l, _ in hits]
            if set(tap_coords) <= set(got):
                all_detected += 1
            if set(got) <= set(tap_coords):
                no_false_alarm += 1
        assert all_detected == 100
        assert no_false_alarm >= 95


class TestSceneJson:
    def test_round_trip(self, mod15, tmp_path):
        env = ScatteringEnvironment(mod15, FOUR_TAPS)
        path = tmp_path / "scene.json"
        scene_to_json(env, path)
        back = scene_from_json(path)
        assert back.mod == mod15
        assert back.taps == env.taps

    def test_documented_schema(self, mod15, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"M": 3, "N": 5, "taps": [{"k": 2, "l": 3, "re": 1.0, "im": 0.0}]}')
        env = scene_from_json(path)
        assert env.taps == ((2, 3, 1.0 + 0.0j),)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"M": 3, "N": 5}')
        with pytest.raises(ConfigurationError):
            scene_from_json(path)

    def test_non_finite_tap_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"M": 3, "N": 5, "taps": [{"k": 0, "l": 0, "re": NaN, "im": 0.0}]}')
        with pytest.raises(ConfigurationError):
            scene_from_json(path)
