"""The streamed full-grid writers against the materialised route, byte for byte.

`simulate` and `ambiguity --engine fast` form their surface in row blocks and
write each block as it is formed; the materialised route forms the whole
surface first (the `surface` of the engine, from form_image or built
directly), then writes it with surface_to_csv and surface_to_pgm and reads
the targets off the array.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ddradar import ambiguity, ddcore
from ddradar.ambiguity import FastEngine, surface_to_csv, surface_to_pgm
from ddradar.cli import _build_parser, main, parse_waveform_spec
from ddradar.ddcore import PeriodicSequence
from ddradar.modmath import Modulus
from ddradar.radarsim import add_noise, apply_channel, form_image, readout_targets, scene_from_json
from ddradar.subgroups import DDRegion, LineSubgroup, crystallization_check, eigenvector, pulsone_chain

SIZES = [(3, 5), (11, 13), (13, 17)]  # row counts 15, 143, 221: none a multiple of a block
SPECS = ["eigen", "pulsone:1,2", "chirp:2,3,4", "zc:2", "lfm(2):pulsone:0,1",
         "gdaft(1,1,0,1):chirp:2", "lfm(7):zc:1"]


def run(args):
    return main([str(a) for a in args])


def _lines(M, N):
    """Rectangular, two-label, one-label and chirp (slope 4 = 2*2) lines."""
    return {"rect": (M, N), "two-label": (M, 1), "one-label": (N, 1), "chirp": (1, 4)}


def _region(mod, line):
    """The first crystallized region of an M x N block, a Doppler strip, a delay strip, 2 x 2, 1 x 1."""
    mn = mod.MN
    for wk, wl in ((mod.M, mod.N), (1, mn), (mn, 1), (2, 2), (1, 1)):
        region = DDRegion(0, wk - 1, 0, wl - 1)
        if crystallization_check(line, region):
            return region
    raise AssertionError("a one-point region is always crystallized")


def _scene(path, mod, region, seed):
    rng = np.random.default_rng(seed)
    cells = rng.choice(region.width_k * region.width_l, size=min(3, region.width_k * region.width_l),
                       replace=False)
    taps = [{"k": int(c // region.width_l), "l": int(c % region.width_l),
             "re": float(rng.uniform(0.6, 1.0)), "im": float(rng.uniform(-0.5, 0.5))} for c in cells]
    path.write_text(json.dumps({"M": mod.M, "N": mod.N, "taps": taps}))


def _materialised_simulate(out, scene, spec_text, line, region, index, snr_db, seed, scale):
    """The files of `simulate`, from the whole image held as one array."""
    env = scene_from_json(scene)
    mod = env.mod
    if spec_text == "eigen":
        seq, (base, labels) = eigenvector(line, index), pulsone_chain(line, index)
    else:
        spec = parse_waveform_spec(spec_text, mod)
        seq, (base, labels) = spec.seq, spec.fast
    y = add_noise(apply_channel(env, seq), snr_db, seed)
    img = form_image(y, seq, grid="full", pulsone_indices=base, transform=labels)
    out.mkdir()
    surface_to_csv(img.surface, out / "image.csv")
    surface_to_pgm(img.surface.values, out / "image.pgm", scale=scale)
    targets = readout_targets(img.surface, line, region)
    doc = {"M": mod.M, "N": mod.N, "waveform": spec_text, "engine": "fast",
           "snr_db": snr_db, "seed": seed,
           "targets": [{"k": k, "l": l, "re": v.real, "im": v.imag} for k, l, v in targets]}
    with open(out / "targets.json", "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _assert_same_files(a, b, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("line_kind", ["rect", "two-label", "one-label", "chirp"])
@pytest.mark.parametrize("M, N", SIZES)
def test_streamed_simulate_writes_the_materialised_bytes(tmp_path, M, N, line_kind, spec):
    mod = Modulus(M, N)
    line = LineSubgroup(mod, *_lines(M, N)[line_kind])
    region = _region(mod, line)
    scene = tmp_path / "scene.json"
    _scene(scene, mod, region, M * N + len(spec))
    # both scales and both noise settings at every size and on every line
    which = SPECS.index(spec) + list(_lines(M, N)).index(line_kind)
    scale = ("linear", "db")[which % 2]
    snr_db, seed = ((None, 0), (20.0, which))[(which // 2) % 2]
    index = (7 * which) % mod.MN
    argv = ["simulate", "--scene", scene, "--line", f"{line.c},{line.d}", "--waveform", spec,
            "--region", f"0:{region.k_max},0:{region.l_max}", "--eigen-index", index,
            "--scale", scale, "--seed", seed, "--out", tmp_path / "streamed"]
    if snr_db is not None:
        argv += ["--snr-db", snr_db]
    assert run(argv) == 0
    _materialised_simulate(tmp_path / "whole", scene, spec, line, region, index, snr_db, seed, scale)
    _assert_same_files(tmp_path / "streamed", tmp_path / "whole",
                       ["image.csv", "image.pgm", "targets.json"])


@pytest.mark.parametrize("y", SPECS[1:])
@pytest.mark.parametrize("M, N", SIZES)
def test_streamed_fast_full_grid_writes_the_materialised_bytes(tmp_path, M, N, y):
    mod = Modulus(M, N)
    scale = ("linear", "db")[len(y) % 2]
    x = "gdaft(2,1,1,1):zc:1"
    assert run(["ambiguity", "--M", M, "--N", N, "--x", x, "--y", y, "--engine", "fast",
                "--grid", "full", "--scale", scale, "--out", tmp_path / "streamed"]) == 0
    xs, ys = parse_waveform_spec(x, mod), parse_waveform_spec(y, mod)
    base, labels = ys.fast
    values = FastEngine(xs.seq, *base, transform=labels, grid="full").surface.values
    whole = tmp_path / "whole"
    whole.mkdir()
    surface_to_csv(values, whole / "ambiguity.csv")
    surface_to_pgm(values, whole / "ambiguity.pgm", scale=scale)
    _assert_same_files(tmp_path / "streamed", whole, ["ambiguity.csv", "ambiguity.pgm"])


@pytest.mark.parametrize("shape", [(13, 11), (143,)])
def test_csv_from_row_blocks_matches_the_array(tmp_path, monkeypatch, shape):
    # 7 lines formatted at a time, so row blocks start and end inside those groups
    monkeypatch.setattr(ddcore, "_CSV_BLOCK_ROWS", 7)
    rng = np.random.default_rng(8)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ddcore.complex_to_csv(values, tmp_path / "whole.csv")

    def blocks_in_one_buffer(stops):
        buf = np.empty_like(values)
        start = 0
        for stop in stops:
            buf[: stop - start] = values[start:stop]
            yield buf[: stop - start]
            start = stop

    n = shape[0]
    ddcore.complex_to_csv(blocks_in_one_buffer([0, 1, 1, 5, n - 1, n]), tmp_path / "blocks.csv", shape)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_simulate_holds_no_complex_image(tmp_path):
    # at (23, 29) the complex image alone would be 16 * 667^2 = 7.1 MB; the
    # streamed command holds 9 bytes per point (magnitudes and pixels) and blocks
    mod = Modulus(23, 29)
    line = LineSubgroup(mod, 23, 29)
    region = DDRegion(0, 22, 0, 28)
    scene = tmp_path / "scene.json"
    _scene(scene, mod, region, 5)
    argv = ["simulate", "--scene", scene, "--line", "23,29", "--region", "0:22,0:28", "--snr-db", 30]
    # a first run fills the process-wide caches: parser, formatter tables, roots of unity
    assert run(argv + ["--out", tmp_path / "warm"]) == 0
    tracemalloc.start()
    try:
        code = run(argv + ["--out", tmp_path / "run"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 9 * mod.MN**2 + 2_000_000


def test_simulate_formats_each_engine_block_in_one_pass(tmp_path, monkeypatch):
    # the engine's blocks are the writer's: one format_g17 call per block, none re-cut
    mod = Modulus(23, 29)
    scene = tmp_path / "scene.json"
    _scene(scene, mod, DDRegion(0, 22, 0, 28), 5)
    blocks = formats = 0
    engine_blocks, format_g17 = ambiguity.FastEngine.blocks, ddcore.format_g17

    def counted_blocks(self):
        nonlocal blocks
        for block in engine_blocks(self):
            blocks += 1
            yield block

    def counted_format(*args):
        nonlocal formats
        formats += 1
        return format_g17(*args)

    monkeypatch.setattr(ambiguity.FastEngine, "blocks", counted_blocks)
    monkeypatch.setattr(ddcore, "format_g17", counted_format)
    argv = ["simulate", "--scene", scene, "--line", "23,29", "--region", "0:22,0:28"]
    assert run(argv + ["--out", tmp_path / "run"]) == 0
    assert formats == blocks
    assert blocks == math.ceil(mod.MN / ddcore._block_rows(mod.MN, mod.MN))


@pytest.mark.parametrize("shape", [(15, 15), (667, 667), (29, 667), (667, 29), (2500,)],
                         ids=["15x15", "667x667", "29x667", "667x29", "2500"])
def test_block_bytes_cover_the_csv_writer(tmp_path, shape):
    """The budget's CSV share is at least the writer's tracemalloc peak, and less than twice it."""
    rows = ddcore._block_rows(shape[0], shape[1] if len(shape) == 2 else 1)
    rng = np.random.default_rng(9)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def peak():
        blocks = (values[start : start + rows] for start in range(0, shape[0], rows))
        tracemalloc.start()
        try:
            ddcore.complex_to_csv(blocks, tmp_path / "s.csv", shape)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # builds the formatter's cached tables
    writer = ddcore._block_bytes(shape) - ddcore._block_bytes(shape, csv=False)
    assert writer / 2 < peak() <= writer


@pytest.mark.parametrize("M, N", [(11, 13), (61, 67)])
def test_block_bytes_cover_an_engine_block(M, N):
    """One FastEngine block, its buffer and its query's index arrays, fits the budget's engine share."""
    mod = Modulus(M, N)
    y = PeriodicSequence(mod, np.random.default_rng(M).standard_normal(mod.MN) + 0j)
    for c, d in ((M, N), (1, 4), (M, 1), (1, 0)):  # 0, 1, 2 and 2 labels, the last with a 2-D phase
        base, labels = pulsone_chain(LineSubgroup(mod, c, d), 5)
        engine = FastEngine(y, *base, transform=labels, grid="full")
        engine.points(0, 0)  # the roots table, built once per MN
        tracemalloc.start()
        try:
            next(engine.blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ddcore._block_bytes(engine.shape, csv=False), (c, d)


@pytest.mark.parametrize("refusal", ["not-crystallized", "over-budget"])
def test_refused_simulate_leaves_no_output(tmp_path, monkeypatch, capsys, refusal):
    mod = Modulus(3, 5)
    scene = tmp_path / "scene.json"
    _scene(scene, mod, DDRegion(0, 2, 0, 4), 3)
    # the streamed image: 9 bytes per point plus one block of the 15 x 15 grid, whose
    # 225 points cost the engine 128 bytes each and the CSV writer 16 KiB, 15 index
    # words and 446 bytes a line (two copies of 14 text words, 3 floats and workspace)
    need = 9 * 15 * 15 + 128 * 15 * 15 + 16384 + 8 * 15 + 15 * 15 * (2 * 8 * 14 + 3 * (8 + 66))
    argv = ["simulate", "--scene", scene, "--line", "3,5", "--region", "0:2,0:4"]
    if refusal == "not-crystallized":
        argv[-1] = "0:3,0:4"
    else:
        monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", need - 1)
    out = tmp_path / "run"
    assert run(argv + ["--out", out]) == 3
    assert not out.exists()
    assert ("aliases" if refusal == "not-crystallized" else "budget") in capsys.readouterr().err
    if refusal == "over-budget":
        monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", need)
        assert run(argv + ["--out", out]) == 0


class TestParserReuse:
    def test_one_parser_serves_every_subcommand(self, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        scene = tmp_path / "scene.json"
        _scene(scene, Modulus(3, 5), DDRegion(0, 2, 0, 4), 1)
        runs = [
            ["waveform", "zc", "--M", 3, "--N", 5, "--root", 2],
            ["ambiguity", "--M", 3, "--N", 5, "--x", "zc:1", "--y", "pulsone:0,0", "--engine", "fast"],
            ["simulate", "--scene", scene, "--line", "3,5", "--region", "0:2,0:4"],
            ["waveform", "pulsone", "--M", 3, "--N", 5, "--k0", 1],
        ]
        for i, argv in enumerate(runs):
            assert run(argv + ["--out", tmp_path / f"r{i}"]) == 0
        assert (tmp_path / "r1" / "ambiguity.csv").exists()
        assert (tmp_path / "r2" / "targets.json").exists()
        # a default of one command does not leak into the next
        assert (tmp_path / "r3" / "waveform.csv").read_text().splitlines()[1].startswith("0,0,")

    @pytest.mark.parametrize(
        "argv",
        [
            ["nonsense"],
            ["ambiguity", "--M", 3, "--N", 5, "--x", "zc:1"],
            ["waveform", "chirp", "--M", 3, "--N", 5],  # no --alpha
        ],
        ids=["unknown-command", "missing-option", "parser-error"],
    )
    def test_usage_errors_still_exit_2(self, tmp_path, argv):
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                run(argv + ["--out", tmp_path / "refused"])
            assert err.value.code == 2
        assert not (tmp_path / "refused").exists()
        assert run(["waveform", "zc", "--M", 3, "--N", 5, "--out", tmp_path / "after"]) == 0


class TestLazyReference:
    def test_fast_engine_builds_no_reference_samples(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr("ddradar.cli.chain_apply", lambda labels, base: built.append(labels) or base)
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc:1", "--y", "gdaft(1,1,0,1):pulsone:1,2",
                    "--engine", "fast", "--out", tmp_path / "fast"]) == 0
        assert built == [()]  # x only, with no labels
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc:1", "--y", "gdaft(1,1,0,1):pulsone:1,2",
                    "--out", tmp_path / "naive"]) == 0
        assert len(built) == 3 and len(built[2]) == 1  # the naive route reads y's samples

    def test_seq_is_built_once_on_first_use(self):
        spec = parse_waveform_spec("lfm(2):chirp:1", Modulus(3, 5))
        assert "seq" not in vars(spec)
        assert spec.seq is spec.seq

    @pytest.mark.parametrize(
        "y, code",
        [
            ("zc:5", 4),  # root shares a factor with MN
            ("chirp:3", 4),  # chirp rate shares a factor with MN
            ("lfm(3):pulsone:0,0", 4),  # LFM rate shares a factor with MN
            ("lfm(18):zc:1", 4),
            ("gdaft(1,3,0,1):pulsone:0,0", 4),  # b not invertible mod MN
            ("gdaft(1,1,1,1):pulsone:0,0", 4),  # determinant 0
            ("lfm(2):zc-coded:1,2", 2),  # no transform applies to zc-coded
        ],
    )
    def test_parse_time_refusals_keep_their_exit_codes(self, tmp_path, y, code):
        for engine in ("fast", "naive"):
            out = tmp_path / engine
            assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "pulsone:0,0", "--y", y,
                        "--engine", engine, "--out", out]) == code
            assert not out.exists()


def test_point_queries_match_row_blocks():
    # a lone point is the value its row block holds, bit for bit
    mod = Modulus(11, 13)
    spec = parse_waveform_spec("chirp:2,3,4", mod)
    rng = np.random.default_rng(3)
    x = spec.seq
    engine = ambiguity.FastEngine(x, *spec.fast[0], transform=spec.fast[1], grid="full")
    whole = engine.surface.values
    for k, l in rng.integers(-2 * mod.MN, 2 * mod.MN, size=(50, 2)):
        got = engine.points(np.array([k]), np.array([l]))[0]
        assert got == whole[k % mod.MN, l % mod.MN]
    assert math.isclose(abs(engine.points(0, 0)), abs(whole[0, 0]))
