"""Every refusal reaches its documented error: CLI exit codes 2, 3 and 4, and library raises.

Each CLI case must leave no --out directory and print no traceback; each
library case raises its error class before allocating or writing anything.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not POSIX
    resource = None

import numpy as np
import pytest

from ddradar import ambiguity
from ddradar.ambiguity import (
    AmbiguitySurface,
    FastEngine,
    coded_waveform,
    fast_pulsone_precompute,
    write_surface,
)
from ddradar.cli import main
from ddradar.ddcore import PeriodicSequence, QuasiPeriodicArray, complex_from_csv, complex_to_csv
from ddradar.errors import BadSeed, BNotCoprime, ConfigurationError, EnergyOverflow, IndexOutOfRange
from ddradar.floatfmt import FIELD_BYTES, Workspace, format_g17
from ddradar.modmath import Modulus
from ddradar.radarsim import ScatteringEnvironment, add_noise, apply_channel
from ddradar.subgroups import pulsone
from ddradar.symplectic import SL2Element, remap_for

MOD = ["--M", "3", "--N", "5"]
SELF_AMBIGUITY_NEED = 144 * 15 + max(16384 + (2 + 8) * 15 + 15 * (2 * 53 + 2 * (8 + 145)),
                                     8192 + 80 * 15 * 15 + 9 * 15)
# MN = 2,147,483,643, just under the cap: 32 GiB of samples, refused before the first O(MN) array
BIG_MOD = ["--M", "3", "--N", "715827881", "--allow-composite"]
BIG_SCENE = {"M": 3, "N": 715827881, "taps": [{"k": 0, "l": 0, "re": 1.0, "im": 0.0}]}
SCENE = {"M": 3, "N": 5, "taps": [{"k": 0, "l": 0, "re": 1.0, "im": 0.0}]}
# finite gains whose return or image overflows float64
HUGE_SCENE = {"M": 3, "N": 5, "taps": [{"k": 0, "l": 0, "re": 1e308, "im": 1e308}]}
LARGE_SCENE = {"M": 3, "N": 5, "taps": [{"k": 0, "l": 0, "re": 1e306, "im": 0.0}]}
SUMMED_SCENE = {"M": 3, "N": 5, "taps": [{"k": k, "l": 0, "re": 1.7e308, "im": 0.0} for k in (0, 3, 6)]}
# a finite return whose energy ||y||^2 overflows float64
ENERGETIC_SCENE = {"M": 3, "N": 5, "taps": [{"k": 0, "l": 0, "re": 1e308, "im": 0.0}]}


def _sim(*flags, scene="scene.json"):
    return ["simulate", "--scene", scene, *flags]


@pytest.mark.parametrize(
    "argv, code, budget",
    [
        # usage errors
        (_sim("--line", "1,2,3", "--region", "0:0,0:0"), 2, None),
        (_sim("--line", "3,5", "--region", "0:0"), 2, None),
        (["ambiguity", *MOD, "--x", "gdaft(1,2,3):pulsone:0,0", "--y", "pulsone:0,0"], 2, None),
        (["ambiguity", *MOD, "--x", "lfm(1:pulsone:0,0", "--y", "pulsone:0,0"], 2, None),
        (["ambiguity", *MOD, "--x", "lfm(1)", "--y", "pulsone:0,0"], 2, None),
        (["ambiguity", *MOD, "--x", "lfm(x):pulsone:0,0", "--y", "pulsone:0,0"], 2, None),
        (["ambiguity", *MOD, "--x", "chirp:1,2,3,4", "--y", "pulsone:0,0"], 2, None),
        (["ambiguity", *MOD, "--x", "zc:abc", "--y", "pulsone:0,0"], 2, None),
        (["ambiguity", *MOD, "--x", "zc-coded:1,2", "--y", "pulsone:0,0"], 2, None),
        (_sim("--line", "3,5", "--region", "0:0,0:0", "--waveform", "zc-coded:1,2"), 2, None),
        # the self-ambiguity needs 28,487 bytes at (3, 5): 144 bytes per MN, and the larger
        # of its two writers, held one after the other: waveform.csv's 22,714 (16 KiB, 15
        # index texts of 2 bytes and their int64 indices, and 15 lines of 53 bytes, twice,
        # with 2 floats and their format_g17 bytes each) or its streamed PGM's 26,327: the
        # file's 8 KiB buffer, one index-only block of all 15 rows at 80 bytes a point (no
        # value is formed for a PGM alone), and 9 bytes for each of the 15 table entries
        (["waveform", "pulsone", *MOD, "--self-ambiguity"], 3, SELF_AMBIGUITY_NEED - 1),
        # a pair of zc-coded waveforms of period 1.5e16, refused before they are built
        (["ambiguity", *MOD, "--x", "zc-coded:1,1000000000000000", "--y", "zc-coded:1,1000000000000000"],
         3, None),
        (["ambiguity", *MOD, "--x", "zc-coded:1,1", "--y", "zc-coded:1,1000000000000000",
          "--engine", "fast"], 3, None),
        # a return, or an image, that is not finite
        (_sim("--line", "3,5", "--region", "0:0,0:0", scene="huge.json"), 4, None),
        (_sim("--line", "1,0", "--region", "0:0,0:0", scene="huge.json"), 4, None),
        (_sim("--line", "1,4", "--region", "0:0,0:0", scene="huge.json"), 4, None),
        (_sim("--line", "3,5", "--region", "0:0,0:0", scene="large.json"), 4, None),
        (_sim("--line", "3,5", "--region", "0:0,0:0", scene="summed.json"), 4, None),
        # noise from a negative seed, and against an energy that overflows
        (_sim("--line", "3,5", "--region", "0:0,0:0", "--snr-db", "10", "--seed", "-1"), 4, None),
        (_sim("--line", "3,5", "--region", "0:0,0:0", "--snr-db", "5", scene="energetic.json"), 4, None),
        # zc-coded periods that differ, refused before the budget is checked, at any budget
        (["ambiguity", *MOD, "--x", "zc-coded:1,1000000000000000", "--y", "zc-coded:1,1"], 4, 1),
        (["ambiguity", *MOD, "--x", "zc-coded:1,1000000000000000", "--y", "zc-coded:1,1"], 4, None),
    ],
)
def test_cli_refusal(tmp_path, monkeypatch, capsys, argv, code, budget):
    monkeypatch.chdir(tmp_path)
    scenes = {"scene": SCENE, "huge": HUGE_SCENE, "large": LARGE_SCENE, "summed": SUMMED_SCENE,
              "energetic": ENERGETIC_SCENE}
    for name, doc in scenes.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    if budget is not None:
        monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", budget)
    try:
        got = main([*argv, "--out", "out"])
    except SystemExit as exc:  # parser.error
        got = exc.code
    assert got == code
    assert not (tmp_path / "out").exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("gain", ['"1.5"', '" 2 "', '"1_0"', "true", "1" + "0" * 400],
                         ids=["text", "padded-text", "underscored-text", "bool", "int-beyond-float"])
def test_scene_gain_that_is_no_json_number_refused(tmp_path, monkeypatch, capsys, gain):
    """A tap gain must be a JSON number that a float holds; anything else exits 4 before --out exists."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.json").write_text('{"M": 3, "N": 5, "taps": [{"k": 0, "l": 0, "re": %s, "im": 0.0}]}' % gain)
    assert main([*_sim("--line", "3,5", "--region", "0:0,0:0"), "--out", "out"]) == 4
    assert not (tmp_path / "out").exists()
    assert "Traceback" not in capsys.readouterr().err


def _child(argv, cwd, preexec_fn=None):
    """`python -m ddradar argv --out out` in a new process, on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "ddradar", *argv, "--out", "out"], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn)


def test_overflowing_energy_prints_no_warning(tmp_path):
    """The refusal names the energy, and numpy's overflow warning stays off stderr."""
    (tmp_path / "energetic.json").write_text(json.dumps(ENERGETIC_SCENE))
    argv = _sim("--line", "3,5", "--region", "0:0,0:0", "--snr-db", "5", scene="energetic.json")
    done = _child(argv, tmp_path)
    assert done.returncode == 4
    assert "energy" in done.stderr
    assert "RuntimeWarning" not in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(resource is None, reason="needs POSIX address-space limits")
@pytest.mark.parametrize(
    "argv",
    [
        ["waveform", "pulsone", *BIG_MOD],
        ["ambiguity", *BIG_MOD, "--x", "pulsone:0,0", "--y", "pulsone:0,0", "--engine", "fast"],
        _sim("--allow-composite", "--line", "3,715827881", "--region", "0:0,0:0", scene="big.json"),
    ],
    ids=["waveform", "ambiguity-fast", "simulate"],
)
def test_o_mn_arrays_refused_under_a_memory_cap(tmp_path, argv):
    """Each command checks its O(MN) arrays against the budget before it allocates the first.

    The child runs under a 2 GiB address-space cap, so a missed check ends in
    a MemoryError rather than in 32 GiB of samples.
    """
    (tmp_path / "big.json").write_text(json.dumps(BIG_SCENE))
    cap = 2**31
    done = _child(argv, tmp_path, lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert done.returncode == 3, done.stderr
    assert "budget" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


DISK_COMMANDS = {
    "waveform": (["waveform", "pulsone", *MOD], (15,), None),
    "self-ambiguity": (["waveform", "pulsone", *MOD, "--self-ambiguity"], (15,), (15, 15)),
    "ambiguity": (["ambiguity", *MOD, "--x", "zc:1", "--y", "chirp:2", "--grid", "full"], (15, 15), (15, 15)),
    "ambiguity-fast": (["ambiguity", *MOD, "--x", "zc:1", "--y", "chirp:2", "--engine", "fast"], (3, 5), (3, 5)),
    "zc-coded": (["ambiguity", *MOD, "--x", "zc-coded:1,2", "--y", "zc-coded:2,2"], (30, 30), (30, 30)),
    "simulate": (_sim("--line", "3,5", "--region", "0:2,0:4"), (15, 15), (15, 15)),
}


@pytest.mark.parametrize("command", DISK_COMMANDS)
def test_files_over_the_free_disk_refused(tmp_path, monkeypatch, capsys, command):
    """A command whose files need one byte more than the disk has free exits 3 before
    --out exists, naming both; with exactly the need free it writes them, within it."""
    argv, csv, pgm = DISK_COMMANDS[command]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.json").write_text(json.dumps(SCENE))
    need = ambiguity._written(csv, pgm)[0]
    usage = shutil.disk_usage(tmp_path)
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=need - 1))
    assert main([*argv, "--out", "out/run"]) == 3
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert f"{need:,} bytes" in err and f"{need - 1:,} bytes free" in err and "Traceback" not in err
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=need))
    assert main([*argv, "--out", "out/run"]) == 0
    written = [p for p in (tmp_path / "out" / "run").iterdir() if p.suffix in (".csv", ".pgm")]
    assert len(written) == 1 + (pgm is not None)
    assert sum(p.stat().st_size for p in written) <= need


@pytest.mark.parametrize("shape", [(2500,), (15, 15)], ids=["vector", "grid"])
def test_widest_csv_fits_the_disk_term(tmp_path, shape):
    """A CSV whose re and im fields all take the widest text, 25 bytes with the comma,
    never exceeds the disk term, which counts every line as wide as its last."""
    value = -1.2345678901234567e-308
    complex_to_csv(np.full(shape, complex(value, value)), tmp_path / "w.csv")
    need = ambiguity._written(shape, None)[0]
    lines = (tmp_path / "w.csv").read_bytes().splitlines(keepends=True)
    assert {len(line.split(b",")[len(shape)]) for line in lines[1:]} == {24}
    assert len(lines[-1]) == (need - 64) // math.prod(shape) - (len(shape) == 2)  # abs takes no sign
    assert (tmp_path / "w.csv").stat().st_size <= need


@pytest.mark.parametrize("out", ["afile", "afile/run", "alink"], ids=["file", "under-a-file", "dangling-link"])
@pytest.mark.parametrize("command", DISK_COMMANDS)
def test_out_on_a_file_refused(tmp_path, monkeypatch, capsys, command, out):
    """An --out that is, or lies under, a file, or is a dangling symlink, is a usage
    error: exit 2 naming it, with nothing written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.json").write_text(json.dumps(SCENE))
    (tmp_path / "afile").write_text("kept")
    (tmp_path / "alink").symlink_to("nowhere")
    assert main([*DISK_COMMANDS[command][0], "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"--out {out}: " in err and "not a directory" in err and "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "alink", "scene.json"]


def test_self_ambiguity_within_budget_still_written(tmp_path, monkeypatch):
    monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", SELF_AMBIGUITY_NEED)
    assert main(["waveform", "pulsone", *MOD, "--self-ambiguity", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "selfambiguity.pgm").exists()


def _missing_row_csv():
    complex_to_csv(np.ones(14, dtype=complex), "short.csv")  # in the test's tmp_path
    return complex_from_csv("short.csv", (15,))


def _format_more_than_the_workspace():
    fields = np.zeros((5, 1, FIELD_BYTES), dtype=np.uint8)
    format_g17(np.ones((5, 1)), fields, Workspace(4))


MOD15 = Modulus(3, 5)
X15 = pulsone(MOD15, 0, 0)
# three delays of the pulsone's period M: their finite returns add up past float64
OVERFLOWING_ENV = ScatteringEnvironment(MOD15, ((0, 0, 1.7e308), (3, 0, 1.7e308), (6, 0, 1.7e308)))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: Modulus(65537, 65539, allow_composite=True), ConfigurationError, "cap"),
        (_missing_row_csv, ConfigurationError, "expected 15 rows, got 14"),
        (lambda: fast_pulsone_precompute(X15, 0, 0, period=2), ConfigurationError, "does not divide"),
        (lambda: fast_pulsone_precompute(X15, 3, 0), IndexOutOfRange, "outside 3 x 5"),
        (lambda: coded_waveform(np.zeros(3), np.ones(2)), ConfigurationError, "identically zero"),
        (lambda: write_surface(np.ones((3, 5)), None, "never.pgm", scale="log"), ConfigurationError,
         "unknown scale"),
        (_format_more_than_the_workspace, ValueError, "cannot format 5"),
        (lambda: remap_for(SL2Element(MOD15, 1, 3, 0, 1)), BNotCoprime, "b = 3"),
        (lambda: PeriodicSequence(MOD15, np.zeros(14)), ConfigurationError, r"expected shape \(15,\)"),
        (lambda: QuasiPeriodicArray(MOD15, np.zeros((5, 3))), ConfigurationError,
         r"expected shape \(3, 5\)"),
        (lambda: AmbiguitySurface(MOD15, "full", np.zeros((3, 5))), ConfigurationError,
         r"expected shape \(15, 15\)"),
        (lambda: apply_channel(OVERFLOWING_ENV, X15), ConfigurationError, "not finite"),
        (lambda: FastEngine(PeriodicSequence(MOD15, np.full(15, 1e306)), 0, 0), ConfigurationError,
         "not finite"),
        (lambda: FastEngine(PeriodicSequence(MOD15, np.full(15, np.nan)), 0, 0), ConfigurationError,
         "not finite"),
        (lambda: add_noise(X15, 10.0, -1), BadSeed, "must not be negative"),
        (lambda: add_noise(PeriodicSequence(MOD15, np.full(15, 1e160)), 5.0, 0), EnergyOverflow,
         "energy"),
    ],
    ids=["mn-cap", "csv-missing-rows", "period", "pulsone-indices", "zero-coded-waveform",
         "pgm-scale", "workspace", "remap-b", "sequence-shape", "dd-array-shape", "surface-shape",
         "return-not-finite", "image-too-large", "image-nan", "negative-seed", "energy-overflow"],
)
def test_library_refusal(tmp_path, monkeypatch, call, error, match):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error, match=match):
        call()
    assert not (tmp_path / "never.pgm").exists()
