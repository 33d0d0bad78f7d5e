import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest

from ddradar import ambiguity
from ddradar.ambiguity import cross_ambiguity_naive, surface_from_csv, zc_sequence
from ddradar.cli import main
from ddradar.ddcore import PeriodicSequence, sequence_from_csv
from ddradar.modmath import Modulus
from ddradar.radarsim import ScatteringEnvironment, add_noise, apply_channel, readout_targets
from ddradar.subgroups import DDRegion, LineSubgroup, chirp, eigenvector, pulsone
from ddradar.symplectic import SL2Element, gdaft_apply, lfm_apply


def run(args):
    return main([str(a) for a in args])


def write_scene(path, taps):
    doc = {"M": 3, "N": 5, "taps": [{"k": k, "l": l, "re": re, "im": im} for k, l, re, im in taps]}
    path.write_text(json.dumps(doc))


FOUR_TAPS = [(0, 0, 1.0, 0.0), (1, 2, 0.5, -0.25), (2, 1, 0.0, -0.8), (2, 4, 0.3, 0.6)]


class TestWaveformCommand:
    def test_pulsone_csv_values(self, tmp_path, capsys):
        assert run(["waveform", "pulsone", "--M", 3, "--N", 5, "--k0", 0, "--l0", 0,
                    "--out", tmp_path]) == 0
        seq = sequence_from_csv(tmp_path / "waveform.csv", Modulus(3, 5))
        expected = np.zeros(15, dtype=complex)
        expected[::3] = 1 / np.sqrt(5)
        np.testing.assert_allclose(seq.samples, expected, atol=1e-15)
        assert "papr_db=4.77121254" in capsys.readouterr().out

    def test_chirp_zero_papr(self, tmp_path, capsys):
        assert run(["waveform", "chirp", "--M", 3, "--N", 5, "--alpha", 1, "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("papr_db=")
        assert abs(float(out.split("=")[1])) < 1e-9

    def test_gdaft_of_pulsone_constant_modulus(self, tmp_path):
        assert run(["waveform", "gdaft-of", "pulsone", "--sl2", "1,2,0,1", "--M", 3, "--N", 5,
                    "--k0", 0, "--l0", 0, "--out", tmp_path]) == 0
        papr = float((tmp_path / "papr.txt").read_text().split("=")[1])
        assert abs(papr) < 1e-9

    def test_self_ambiguity_pgm(self, tmp_path):
        assert run(["waveform", "pulsone", "--M", 3, "--N", 5, "--out", tmp_path,
                    "--self-ambiguity", "--scale", "db", "--floor", -120]) == 0
        blob = (tmp_path / "selfambiguity.pgm").read_bytes()
        assert blob.startswith(b"P5\n15 15\n255\n")
        assert blob[len(b"P5\n15 15\n255\n")] == 255  # peak at the origin

    def test_composite_modulus_exit_code(self, tmp_path):
        assert run(["waveform", "pulsone", "--M", 9, "--N", 5, "--out", tmp_path]) == 4

    def test_allow_composite_escape(self, tmp_path):
        assert run(["waveform", "pulsone", "--M", 9, "--N", 5, "--allow-composite",
                    "--out", tmp_path]) == 0

    def test_usage_error_exit_code(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["waveform", "nonsense", "--M", 3, "--N", 5, "--out", tmp_path])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flags, build",
        [
            (["pulsone", "--k0", 2, "--l0", 4], lambda m: pulsone(m, 2, 4)),
            (["chirp", "--alpha", 1, "--beta", 2, "--gamma", 3], lambda m: chirp(m, 1, 2, 3)),
            (["zc", "--root", 2], lambda m: PeriodicSequence(m, zc_sequence(2, 15))),
            (["lfm-of", "zc", "--lfm", 2, "--root", 1],
             lambda m: lfm_apply(2, PeriodicSequence(m, zc_sequence(1, 15)))),
            (["gdaft-of", "chirp", "--sl2", "1,2,0,1", "--alpha", 2],
             lambda m: gdaft_apply(SL2Element(m, 1, 2, 0, 1), chirp(m, 2, 0, 0))),
        ],
    )
    def test_flags_build_the_named_waveform(self, tmp_path, flags, build):
        assert run(["waveform", *flags, "--M", 3, "--N", 5, "--out", tmp_path]) == 0
        seq = sequence_from_csv(tmp_path / "waveform.csv", Modulus(3, 5))
        np.testing.assert_array_equal(seq.samples, build(Modulus(3, 5)).samples)

    @pytest.mark.parametrize(
        "flags",
        [["chirp"], ["gdaft-of", "pulsone"], ["lfm-of", "zc"], ["gdaft-of", "--sl2", "1,2,0,1"]],
    )
    def test_missing_parameter_is_usage_error(self, tmp_path, flags):
        with pytest.raises(SystemExit) as err:
            run(["waveform", *flags, "--M", 3, "--N", 5, "--out", tmp_path / "out"])
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_malformed_sl2_is_usage_error(self, tmp_path):
        assert run(["waveform", "gdaft-of", "pulsone", "--sl2", "1,2,x,1", "--M", 3, "--N", 5,
                    "--out", tmp_path / "out"]) == 2
        assert run(["waveform", "gdaft-of", "pulsone", "--sl2", "1,2,1,1", "--M", 3, "--N", 5,
                    "--out", tmp_path / "out"]) == 4


class TestAmbiguityCommand:
    def test_naive_and_fast_agree_after_rounding(self, tmp_path):
        a, b = tmp_path / "naive", tmp_path / "fast"
        for engine, out in (("naive", a), ("fast", b)):
            assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "pulsone:0,0", "--y", "pulsone:0,0",
                        "--engine", engine, "--grid", "fundamental", "--out", out]) == 0
        mod = Modulus(3, 5)
        va = surface_from_csv(a / "ambiguity.csv", mod, "fundamental").values
        vb = surface_from_csv(b / "ambiguity.csv", mod, "fundamental").values
        np.testing.assert_array_equal(np.round(va, 12), np.round(vb, 12))

    def test_chirp_pgm_shows_line(self, tmp_path):
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "chirp:2", "--y", "chirp:2",
                    "--grid", "full", "--out", tmp_path]) == 0
        blob = (tmp_path / "ambiguity.pgm").read_bytes()
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8).reshape(15, 15)
        for k in range(15):
            assert pixels[k, (4 * k) % 15] == 255
        assert np.count_nonzero(pixels) == 15

    def test_zc_coded_pgm_has_sidelobes(self, tmp_path):
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc-coded:1,4", "--y", "zc-coded:1,4",
                    "--grid", "full", "--out", tmp_path]) == 0
        blob = (tmp_path / "ambiguity.pgm").read_bytes()
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8).reshape(60, 60)
        # off the chip-aligned delays there is visible energy (partial-chip correlation)
        assert pixels[1].max() > 100

    def test_malformed_spec_is_usage_error(self, tmp_path):
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "pulsone:a,b",
                    "--y", "pulsone:0,0", "--out", tmp_path]) == 2
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "nonsense:1",
                    "--y", "pulsone:0,0", "--out", tmp_path]) == 2

    def test_over_budget_refused_before_output(self, tmp_path, monkeypatch):
        # one byte short of the direct sums of period 60 alone, far over the O(MN) arrays of the modulus
        monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", ambiguity._direct_sums(60, 60, 60)[0] - 1)
        out = tmp_path / "out"
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc-coded:1,4", "--y", "zc-coded:2,4",
                    "--grid", "full", "--out", out]) == 3
        assert not out.exists()

    def test_fast_full_grid_over_budget_refused_before_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", 1000)
        out = tmp_path / "out"
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc:1", "--y", "chirp:2",
                    "--engine", "fast", "--grid", "full", "--out", out]) == 3
        assert not out.exists()
        assert "budget" in capsys.readouterr().err

    @pytest.mark.skipif(resource is None, reason="needs POSIX address-space limits")
    def test_huge_zc_coded_pair_refused_under_a_memory_cap(self, tmp_path):
        # period 15000: about 11 GB by the direct route, refused before any of it is allocated;
        # the child runs under a 1.5 GiB address-space cap in case the refusal ever breaks
        cap = 3 * 2**29

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "ddradar", "ambiguity", "--M", "3", "--N", "5",
             "--x", "zc-coded:1,1000", "--y", "zc-coded:2,1000", "--out", str(out)],
            capture_output=True, text=True, timeout=120, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "budget" in proc.stderr
        assert not out.exists()

    def test_fast_engine_rejects_non_pulsone(self, tmp_path):
        # zc-coded waveforms are the only ones not tied to the modulus
        out = tmp_path / "out"
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc-coded:1,4", "--y", "zc-coded:2,4",
                    "--engine", "fast", "--out", out]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["chirp:1", "zc:1"])
    @pytest.mark.parametrize("grid", ["fundamental", "full"])
    def test_fast_engine_matches_naive_for_chirp_and_zc(self, tmp_path, spec, grid):
        mod = Modulus(3, 5)
        values = {}
        for engine in ("naive", "fast"):
            assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "pulsone:1,2", "--y", spec,
                        "--engine", engine, "--grid", grid, "--out", tmp_path / engine]) == 0
            values[engine] = surface_from_csv(tmp_path / engine / "ambiguity.csv", mod, grid).values
        np.testing.assert_allclose(values["fast"], values["naive"], atol=1e-10)

    def test_fast_engine_accepts_transformed_pulsone(self, tmp_path):
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc:1",
                    "--y", "gdaft(1,2,0,1):pulsone:0,0", "--engine", "fast",
                    "--grid", "full", "--out", tmp_path]) == 0
        naive_dir = tmp_path / "naive"
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc:1",
                    "--y", "gdaft(1,2,0,1):pulsone:0,0", "--engine", "naive",
                    "--grid", "full", "--out", naive_dir]) == 0
        mod = Modulus(3, 5)
        vf = surface_from_csv(tmp_path / "ambiguity.csv", mod, "full").values
        vn = surface_from_csv(naive_dir / "ambiguity.csv", mod, "full").values
        np.testing.assert_allclose(vf, vn, atol=1e-10)


class TestSimulateCommand:
    def test_four_tap_recovery(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--line", "3,5", "--region", "0:2,0:4",
                    "--threshold", 0.2, "--out", out]) == 0
        doc = json.loads((out / "targets.json").read_text())
        got = {(t["k"], t["l"]): t["re"] + 1j * t["im"] for t in doc["targets"]}
        want = {(k, l): re + 1j * im for k, l, re, im in FOUR_TAPS}
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-9)
        assert doc["engine"] == "fast"

    def test_explicit_waveform_and_noise(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scene(scene, [(1, 3, 1.0, 0.0)])
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--waveform", "pulsone:0,0", "--snr-db", 20,
                    "--seed", 7, "--line", "3,5", "--region", "0:2,0:4", "--threshold", 0.5,
                    "--out", out]) == 0
        doc = json.loads((out / "targets.json").read_text())
        assert [(t["k"], t["l"]) for t in doc["targets"]] == [(1, 3)]

    def test_mismatched_waveform_leaves_ghosts(self, tmp_path):
        # coded-sequence waveform whose ambiguity line does not match the
        # declared readout geometry: the image shows spurious responses
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--waveform", "zc:1", "--line", "3,5",
                    "--region", "0:2,0:4", "--threshold", 0.3, "--out", out]) == 0
        doc = json.loads((out / "targets.json").read_text())
        got = {(t["k"], t["l"]) for t in doc["targets"]}
        tap_coords = {(k, l) for k, l, _, _ in FOUR_TAPS}
        assert got - tap_coords, "expected ghost detections off the true taps"

    def test_over_budget_refused_before_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", 1000)
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--line", "3,5", "--region", "0:2,0:4",
                    "--out", out]) == 3
        assert not out.exists()
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["3,5", "3,1", "5,1", "1,4", "1,3"])
    @pytest.mark.parametrize("waveform", ["eigen", "pulsone:1,2", "chirp:2,3,4", "zc:2"])
    def test_every_line_and_spec_uses_fast_engine(self, tmp_path, line, waveform):
        # rectangular, dilation-label, GDAFT-label, chirp and two-label (shear pair) lines;
        # every modulus-bound spec
        scene = tmp_path / "scene.json"
        write_scene(scene, [(0, 0, 1.0, 0.0)])
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--line", line, "--waveform", waveform,
                    "--region", "0:0,0:0", "--out", out]) == 0
        assert json.loads((out / "targets.json").read_text())["engine"] == "fast"

    def test_not_crystallized_exit_code(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scene(scene, [(0, 0, 1.0, 0.0)])
        assert run(["simulate", "--scene", scene, "--line", "3,5", "--region", "0:3,0:4",
                    "--out", tmp_path / "run"]) == 3

    def test_chirp_line_waveform(self, tmp_path):
        # Doppler-strip region crystallized against the slope line; both taps inside
        scene = tmp_path / "scene.json"
        write_scene(scene, [(0, 0, 1.0, 0.0), (0, 7, 0.0, 1.0)])
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--line", "1,4", "--region", "0:0,0:14",
                    "--threshold", 0.5, "--out", out]) == 0
        doc = json.loads((out / "targets.json").read_text())
        assert doc["engine"] == "fast"
        got = {(t["k"], t["l"]): t["re"] + 1j * t["im"] for t in doc["targets"]}
        assert got.keys() == {(0, 0), (0, 7)}
        assert got[(0, 0)] == pytest.approx(1.0, abs=1e-9)
        assert got[(0, 7)] == pytest.approx(1j, abs=1e-9)

    @pytest.mark.parametrize("snr", ["-inf", "nan", "-4000"])
    def test_unusable_snr_rejected_before_output(self, tmp_path, capsys, snr):
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, f"--snr-db={snr}", "--line", "3,5",
                    "--region", "0:2,0:4", "--out", out]) == 4
        assert not out.exists()
        assert "snr" in capsys.readouterr().err.lower()

    def test_infinite_snr_writes_strict_json(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--snr-db=inf", "--line", "3,5",
                    "--region", "0:2,0:4", "--out", out]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((out / "targets.json").read_text(), parse_constant=reject)
        assert doc["snr_db"] is None

    def test_empty_scene_yields_no_targets(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        write_scene(scene, [])
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--line", "3,5", "--region", "0:2,0:4",
                    "--out", out]) == 0
        assert json.loads((out / "targets.json").read_text())["targets"] == []
        assert "recovered 0 target(s)" in capsys.readouterr().out

    def test_eigen_index_range_checked(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        for index in (-1, 15):
            with pytest.raises(SystemExit) as err:
                run(["simulate", "--scene", scene, "--line", "3,1", "--region", "0:0,0:0",
                     "--eigen-index", index, "--out", tmp_path / "run"])
            assert err.value.code == 2

    def test_transported_eigenvector_recovers_tap(self, tmp_path):
        # line (3,1) is neither rectangular nor a coprime slope: its eigenvector
        # is a transformed pulsone, and a single tap reads back exactly
        scene = tmp_path / "scene.json"
        write_scene(scene, [(1, 0, 0.6, -0.2)])
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--line", "3,1", "--eigen-index", 7,
                    "--region", "0:1,0:0", "--out", out]) == 0
        doc = json.loads((out / "targets.json").read_text())
        assert [(t["k"], t["l"]) for t in doc["targets"]] == [(1, 0)]
        assert doc["targets"][0]["re"] == pytest.approx(0.6, abs=1e-9)
        assert doc["targets"][0]["im"] == pytest.approx(-0.2, abs=1e-9)


    @pytest.mark.parametrize("line", ["3,1", "5,1", "1,3"])  # a dilation label, one GDAFT, a shear pair
    def test_transported_line_uses_fast_engine(self, tmp_path, line):
        scene = tmp_path / "scene.json"
        taps = [(0, 0, 1.0, 0.0), (1, 2, 0.5, -0.25), (2, 1, 0.0, -0.8)]
        write_scene(scene, taps)
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--line", line, "--eigen-index", 7,
                    "--region", "0:2,0:2", "--snr-db", 30, "--seed", 4, "--out", out]) == 0
        doc = json.loads((out / "targets.json").read_text())
        assert doc["engine"] == "fast"
        mod = Modulus(3, 5)
        lsub = LineSubgroup(mod, *(int(v) for v in line.split(",")))
        x = eigenvector(lsub, 7)
        env = ScatteringEnvironment(mod, [(k, l, re + 1j * im) for k, l, re, im in taps])
        y = add_noise(apply_channel(env, x), 30.0, 4)
        img = cross_ambiguity_naive(y, x, grid="full", warn_nonunit=False)
        want = readout_targets(img, lsub, DDRegion(0, 2, 0, 2))
        assert [(t["k"], t["l"]) for t in doc["targets"]] == [(k, l) for k, l, _ in want]
        for t, (_, _, v) in zip(doc["targets"], want):
            assert abs(complex(t["re"], t["im"]) - v) < 1e-10

    @pytest.mark.parametrize("flags", [["--eigen-index", i] for i in range(15)]
                             + [["--eigen-index", 2, "--threshold", 0.5], ["--snr-db", 40, "--seed", 3]])
    def test_targets_are_the_image_points_that_clear_the_cut(self, tmp_path, flags):
        """One magnitude per image: targets.json lists exactly the region points whose
        image.csv abs field clears the cut, half the region's largest field or
        --threshold, each with its image.csv value.  The weaker tap's gain is half
        the stronger's, so the default cut falls on its magnitude, to within rounding."""
        scene = tmp_path / "ties.json"
        write_scene(scene, [(11, 0, 1.0, 0.0), (4, 0, 0.5, 0.0)])
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--line", "1,4", "--region", "0:14,0:0", *flags,
                    "--out", out]) == 0
        rows = [line.split(",") for line in (out / "image.csv").read_text().split()[1:]]
        region = {(int(k), 0): (float(re), float(im), float(a)) for k, l, re, im, a in rows if l == "0"}
        cut = 0.5 * max(a for _, _, a in region.values()) if "--threshold" not in flags else float(flags[-1])
        targets = json.loads((out / "targets.json").read_text())["targets"]
        assert [(t["k"], t["l"]) for t in targets] == sorted(p for p, (_, _, a) in region.items() if a >= cut)
        assert all((t["re"], t["im"]) == region[t["k"], t["l"]][:2] for t in targets)

    @pytest.mark.parametrize(
        "content",
        [
            None,
            '{"M": 3, ',
            '{"M": 3, "N": 5, "taps": [{"k": 0, "l": 0, "re": "x", "im": 0}]}',
            '{"M": 3, "N": 5, "taps": [{"k": 1.7, "l": 2.9, "re": 1.0, "im": 0.0}]}',
            '{"M": 3.9, "N": 5, "taps": [{"k": 1, "l": 2, "re": 1.0, "im": 0.0}]}',
        ],
        ids=["missing", "malformed-json", "non-numeric-tap", "non-integer-tap", "non-integer-M"],
    )
    def test_unreadable_scene_rejected_before_output(self, tmp_path, capsys, content):
        scene = tmp_path / "scene.json"
        if content is not None:
            scene.write_text(content)
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, "--line", "3,5", "--region", "0:2,0:4",
                    "--out", out]) == 4
        assert not out.exists()
        assert str(scene) in capsys.readouterr().err


class TestDbFloorFlag:
    @pytest.mark.parametrize("floor", ["nan", "-inf", "inf", "0", "-1e308"])  # 255 * -1e308 overflows
    @pytest.mark.parametrize(
        "argv",
        [
            ["waveform", "pulsone", "--M", 3, "--N", 5, "--self-ambiguity"],
            ["ambiguity", "--M", 3, "--N", 5, "--x", "pulsone:0,0", "--y", "pulsone:0,0"],
            ["simulate", "--line", "3,5", "--region", "0:2,0:4"],
        ],
        ids=["waveform", "ambiguity", "simulate"],
    )
    def test_rejected_before_output(self, tmp_path, capsys, argv, floor):
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        if argv[0] == "simulate":
            argv = argv + ["--scene", scene]
        out = tmp_path / "run"
        assert run([*argv, "--scale", "db", f"--floor={floor}", "--out", out]) == 4
        assert not out.exists()
        assert "floor" in capsys.readouterr().err


class TestThresholdFlag:
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1", "0"])
    def test_non_finite_rejected_before_output(self, tmp_path, capsys, threshold):
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        out = tmp_path / "run"
        assert run(["simulate", "--scene", scene, f"--threshold={threshold}", "--line", "3,5",
                    "--region", "0:2,0:4", "--out", out]) == 4
        assert not out.exists()
        assert "threshold" in capsys.readouterr().err


def compare_trees(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


class TestDeterminism:

    def test_waveform_byte_identical(self, tmp_path):
        for out in (tmp_path / "r1", tmp_path / "r2"):
            assert run(["waveform", "gdaft-of", "pulsone", "--sl2", "1,2,0,1", "--M", 3, "--N", 5,
                        "--self-ambiguity", "--seed", 5, "--out", out]) == 0
        compare_trees(tmp_path / "r1", tmp_path / "r2")

    def test_ambiguity_byte_identical(self, tmp_path):
        for out in (tmp_path / "r1", tmp_path / "r2"):
            assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "chirp:1", "--y", "chirp:1",
                        "--grid", "full", "--scale", "db", "--out", out]) == 0
        compare_trees(tmp_path / "r1", tmp_path / "r2")

    def test_simulate_byte_identical_with_noise(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        for out in (tmp_path / "r1", tmp_path / "r2"):
            assert run(["simulate", "--scene", scene, "--snr-db", 20, "--seed", 11,
                        "--line", "3,5", "--region", "0:2,0:4", "--out", out]) == 0
        compare_trees(tmp_path / "r1", tmp_path / "r2")


class TestIntegersBeyondInt64:
    """Outside integers are reduced before numpy sees them: the outputs of their residues."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["waveform", "zc", "--root", "{root}", "--self-ambiguity"],
            ["ambiguity", "--x", "zc:{root}", "--y", "pulsone:0,0"],
            ["ambiguity", "--x", "pulsone:1,2", "--y", "zc:{root}", "--engine", "fast", "--grid", "full"],
            ["ambiguity", "--x", "zc-coded:{root},2", "--y", "zc-coded:1,2"],
        ],
        ids=["waveform", "naive", "fast", "zc-coded"],
    )
    def test_zc_root(self, tmp_path, argv):
        for root in (10**20 + 1, 11):  # 10**20 + 1 is 11 mod 15
            args = [a.format(root=root) for a in argv]
            assert run([*args, "--M", 3, "--N", 5, "--out", tmp_path / str(root)]) == 0
        compare_trees(tmp_path / str(10**20 + 1), tmp_path / "11")

    def test_region_bounds(self, tmp_path):
        scene = tmp_path / "scene.json"
        write_scene(scene, [(10, 0, 1.0, 0.0), (11, 0, 0.0, 0.5)])
        big = 10**21  # 10 mod 15
        for name, region in (("big", f"{big}:{big + 1},0:0"), ("small", "10:11,0:0")):
            assert run(["simulate", "--scene", scene, "--line", "1,4", "--region", region,
                        "--out", tmp_path / name]) == 0
        doc = json.loads((tmp_path / "big" / "targets.json").read_text())
        assert [(t["k"], t["l"]) for t in doc["targets"]] == [(10, 0), (11, 0)]
        compare_trees(tmp_path / "big", tmp_path / "small")


class TestNegativeBounds:
    """A negative --line or --region bound parses only in the `=` form, and is its
    residue mod MN; with a space, argparse reads the value as an option (exit 2)."""

    @pytest.mark.parametrize(
        "flag, negative, residue, other",
        [("--region", "-1:1,0:4", "14:16,0:4", ["--line", "3,5"]),
         ("--line", "-3,5", "12,5", ["--region", "0:2,0:4"])],
        ids=["region", "line"],
    )
    def test_equals_form_writes_the_residues_bytes(self, tmp_path, capsys, flag, negative, residue, other):
        scene = tmp_path / "scene.json"
        write_scene(scene, FOUR_TAPS)
        argv = ["simulate", "--scene", scene, *other, "--out"]
        assert run([*argv, tmp_path / "equals", f"{flag}={negative}"]) == 0
        assert run([*argv, tmp_path / "residue", flag, residue]) == 0
        compare_trees(tmp_path / "equals", tmp_path / "residue")
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            run([*argv, tmp_path / "space", flag, negative])
        assert err.value.code == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "space").exists()


class TestConsoleEntrypoint:
    def test_module_invocation(self, tmp_path):
        # the child imports ddradar from this checkout's src, installed or not
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ddradar", "waveform", "pulsone", "--M", "3", "--N", "5",
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("papr_db=")
