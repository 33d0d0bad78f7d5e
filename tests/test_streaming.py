"""The streamed full-grid writers against the materialised route, byte for byte.

`simulate` and `ambiguity --engine fast` form their surface in row blocks and
write each block as it is formed; the materialised route forms the whole
surface first (the `surface` of the engine, from form_image or built
directly), then writes it with surface_to_csv, and its PGM with the byte
oracle oracles.pgm_bytes, and reads the targets off the array.  An engine's
magnitudes are those of its table entries (oracles.table_magnitudes), so its
abs column and PGM are compared with those; its k,l,re,im columns with the
array's file.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddradar import ambiguity, cli, ddcore, subgroups
from ddradar.ambiguity import (
    AmbiguitySurface,
    FastEngine,
    coded_waveform,
    cross_ambiguity_array,
    cross_ambiguity_fft,
    cross_ambiguity_naive,
    surface_to_csv,
    write_surface,
    zc_sequence,
)
from ddradar.cli import _build_parser, main, parse_waveform_spec
from ddradar.ddcore import PeriodicSequence, QuasiPeriodicArray, idzt
from ddradar.modmath import Modulus, _roots_of_unity
from ddradar.radarsim import (
    ScatteringEnvironment,
    _write_json,
    add_noise,
    apply_channel,
    form_image,
    predicted_image,
    readout_targets,
    scene_from_json,
)
from ddradar.subgroups import DDRegion, LineSubgroup, crystallization_check, eigenvector, pulsone, pulsone_chain
from oracles import pgm_bytes, table_abs_fields, table_entries, table_magnitudes
from conftest import mixed_chain

SIZES = [(3, 5), (11, 13), (13, 17)]  # row counts 15, 143, 221: none a multiple of a block
SPECS = ["eigen", "pulsone:1,2", "chirp:2,3,4", "zc:2", "lfm(2):pulsone:0,1",
         "gdaft(1,1,0,1):chirp:2", "lfm(7):zc:1"]


def run(args):
    return main([str(a) for a in args])


def _need(*terms):
    """The bytes of the memory model's terms, as ambiguity.check_budget adds them."""
    return sum(need for need, _ in terms)


def _traced_peak(call):
    """The tracemalloc peak of call(), run once first to fill the process-wide caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _lines(M, N):
    """Rectangular, (1, M) (its map's b is 0 mod N only: one length-M DFT, the label whose
    product a shear pair of two GDAFTs once realised, hence its name), one-label (one GDAFT)
    and chirp (slope 4 = 2*2) lines."""
    return {"rect": (M, N), "two-label": (1, M), "one-label": (N, 1), "chirp": (1, 4)}


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
    _engine_csv(out / "image.csv", img)
    (out / "image.pgm").write_bytes(pgm_bytes(table_magnitudes(img), scale, -120.0))
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


def _engine_csv(path, engine):
    """Rewrite the array route's CSV at `path` as the engine's: the same k,l,re,im
    columns, and the abs field of each line's table entry."""
    header, *lines = path.read_bytes().splitlines()
    rows = [line.rsplit(b",", 1)[0] + b"," + field.encode() for line, field in zip(lines, table_abs_fields(engine))]
    path.write_bytes(b"\n".join([header, *rows, b""]))


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
    engine = FastEngine(xs.seq, *base, transform=labels, grid="full")
    whole = tmp_path / "whole"
    whole.mkdir()
    surface_to_csv(engine.surface.values, whole / "ambiguity.csv")
    _engine_csv(whole / "ambiguity.csv", engine)
    (whole / "ambiguity.pgm").write_bytes(pgm_bytes(table_magnitudes(engine), scale, -120.0))
    _assert_same_files(tmp_path / "streamed", whole, ["ambiguity.csv", "ambiguity.pgm"])


# waveform flags and the spec they build
WAVEFORMS = {
    "pulsone": (["pulsone", "--k0", 1, "--l0", 2], "pulsone:1,2"),
    "chirp": (["chirp", "--alpha", 2, "--beta", 1, "--gamma", 3], "chirp:2,1,3"),
    "zc": (["zc", "--root", 2], "zc:2"),
    "gdaft-of": (["gdaft-of", "pulsone", "--sl2", "1,1,0,1"], "gdaft(1,1,0,1):pulsone:0,0"),
    "lfm-of": (["lfm-of", "chirp", "--alpha", 2, "--lfm", 4], "lfm(4):chirp:2,0,0"),
}


@pytest.mark.parametrize("kind", WAVEFORMS)
@pytest.mark.parametrize("M, N", SIZES)
def test_streamed_self_ambiguity_writes_the_materialised_bytes(tmp_path, M, N, kind):
    mod = Modulus(M, N)
    flags, text = WAVEFORMS[kind]
    scale = ("linear", "db")[(M + len(kind)) % 2]
    assert run(["waveform", *flags, "--M", M, "--N", N, "--self-ambiguity", "--scale", scale,
                "--out", tmp_path / "streamed"]) == 0
    spec = parse_waveform_spec(text, mod)
    engine = FastEngine(spec.seq, *spec.fast[0], transform=spec.fast[1], grid="full")
    streamed = (tmp_path / "streamed" / "selfambiguity.pgm").read_bytes()
    assert streamed == pgm_bytes(table_magnitudes(engine), scale, -120.0)
    # the FFT route, the library's other full-grid surface, to within one grey level
    fft = pgm_bytes(cross_ambiguity_fft(spec.seq, spec.seq).values, scale, -120.0)
    header = len(f"P5\n{mod.MN} {mod.MN}\n255\n")
    got, want = (np.frombuffer(b[header:], dtype=np.uint8).astype(int) for b in (streamed, fft))
    assert np.abs(got - want).max() <= 1


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
            yield buf[: stop - start], None
            start = stop

    n = shape[0]
    ddcore.complex_to_csv(blocks_in_one_buffer([0, 1, 1, 5, n - 1, n]), tmp_path / "blocks.csv", shape)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_simulate_holds_no_complex_image(tmp_path):
    # at (23, 29) the complex image alone would be 16 * 667^2 = 7.1 MB, its float64
    # magnitudes 3.6 MB and its pixels 0.4 MB; the streamed command holds one block
    # and its O(MN) arrays
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
    full = (mod.MN, mod.MN)
    assert peak <= _need(ambiguity._mn_arrays(mod), ambiguity._value_block(*full),
                         ambiguity._streamed_pgm(*full, mod.MN), ambiguity._csv_block(full, mod.MN))


def test_simulate_formats_each_engine_block_in_one_pass(tmp_path, monkeypatch):
    # the engine's blocks are the writer's: one format_g17 call per block, none re-cut,
    # and one for the abs fields of the table's 667 entries
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
    assert formats == blocks + 1
    assert blocks == math.ceil(mod.MN / ddcore._block_rows(mod.MN, mod.MN))


@pytest.mark.parametrize("shape, kind",
                         [(shape, "random") for shape in ((15, 15), (667, 667), (29, 667), (667, 29), (2500,))]
                         + [(shape, kind) for shape in ((31, 37), (127, 131)) for kind in ("pulsone", "real")]
                         + [((15, 15), "sparse"), ((29, 667), "sparse"), ((2500,), "tiny")]
                         + [(shape, "large") for shape in ((15, 15), (29, 667), (2500,))]
                         + [(shape, "wide") for shape in ((29, 667), (2500,))]
                         + [(shape, "engine") for shape in ((143, 143), (667, 667), (127, 131))]
                         + [((667, 667), "zero-engine")],
                         ids=["15x15", "667x667", "29x667", "667x29", "2500", "pulsone-31x37", "real-31x37",
                              "pulsone-127x131", "real-127x131", "sparse-15x15", "sparse-29x667", "tiny-2500",
                              "large-15x15", "large-29x667", "large-2500", "wide-29x667", "wide-2500",
                              "engine-143x143", "engine-667x667",
                              "engine-127x131", "zero-engine-667x667"])
def test_block_bytes_cover_the_csv_writer(tmp_path, shape, kind):
    """The CSV term is at least the writer's tracemalloc peak, and less than twice it,
    for random values and for values the formatter sets aside as special: mostly
    exact zeros (a pulsone's waveform.csv, a real vector's imaginary parts, a grid
    that is zero but at one point), values below its table, which Python formats,
    magnitudes of 10 or more, whose point falls among the digits, or of three-digit
    exponents, whose fields are edited decade by decade like those.  A fast
    engine's term, with its table's MN entries, covers the writer of its full grid,
    which formats an abs field per entry, at (11,13) and (23,29), and of a zero full
    grid, whose re, im and abs fields are all set aside; and of its fundamental grid,
    with as many points as entries, which formats each point's magnitude with its line."""
    rng = np.random.default_rng(9)
    mags = table = None
    if kind in ("pulsone", "real"):  # a vector of MN values
        mod = Modulus(*shape)
        shape = (mod.MN,)
        values = pulsone(mod, 1, 0).samples if kind == "pulsone" else rng.standard_normal(shape) + 0j
    elif kind == "sparse":
        values = np.zeros(shape, dtype=complex)
        values[1, 2] = 1.0
    elif kind == "tiny":
        values = 1e-300 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    elif kind == "large":  # an image of tap gains of 10 or more
        values = rng.uniform(10, 1e6, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
    elif kind == "wide":  # decades -150 to -146
        values = 1e-150 * rng.uniform(1, 1e4, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
    elif kind.endswith("engine"):  # the values, and the table entries, of each of its blocks
        mod = {(143, 143): Modulus(11, 13), (667, 667): Modulus(23, 29)}.get(shape) or Modulus(*shape)
        x = np.zeros(mod.MN) + 0j if kind == "zero-engine" else rng.standard_normal(mod.MN) + 1j
        grid = "full" if shape[0] == mod.MN else "fundamental"
        engine = FastEngine(PeriodicSequence(mod, x), 0, 1, grid=grid)
        values, mags = engine.surface.values, engine.magnitudes
        table = np.concatenate([entries.copy() for _, entries in engine.blocks()])
    else:
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows = ddcore._block_rows(shape[0], shape[1] if len(shape) == 2 else 1)

    def blocks():
        for start in range(0, shape[0], rows):  # pairs, as FastEngine.blocks() yields them
            yield values[start : start + rows], None if table is None else table[start : start + rows]

    def peak():
        tracemalloc.start()
        try:
            ddcore.complex_to_csv(blocks(), tmp_path / "s.csv", shape, mags)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # builds the formatter's cached tables
    writer = ambiguity._csv_block(shape, 0 if mags is None else mags.size)[0]
    assert writer / 2 < peak() <= writer


@pytest.mark.parametrize("M, N", [(11, 13), (61, 67)])
def test_block_bytes_cover_an_engine_block(M, N):
    """One FastEngine block, its arrays and its query's index arrays, fits the engine's share of a PGM
    or surface term, and one index-only block fits the PGM's: at (61, 67) a full-grid block is one row,
    as large as the column terms every block shares.  Both hold for the first block and for the second
    formed while the first is held, as the writers hold it."""
    mod = Modulus(M, N)
    y = PeriodicSequence(mod, np.random.default_rng(M).standard_normal(mod.MN) + 0j)
    for c, d in ((M, N), (1, 4), (1, M), (1, 0)):  # no label, an LFM, two one-axis labels, the last with a 2-D phase
        base, labels = pulsone_chain(LineSubgroup(mod, c, d), 5)
        engine = FastEngine(y, *base, transform=labels, grid="full")
        engine.points(0, 0)  # the roots table, built once per MN
        points = ddcore._block_rows(*engine.shape) * engine.shape[1]
        for walk, bytes_per_point in ((engine.blocks, ambiguity._ENGINE_POINT_BYTES),
                                      (engine.entry_blocks, ambiguity._INDEX_POINT_BYTES)):
            tracemalloc.start()
            try:
                blocks = walk()
                first = next(blocks)
                peaks = [tracemalloc.get_traced_memory()[1]]
                tracemalloc.reset_peak()
                second = next(blocks)  # the first block still held
                peaks.append(tracemalloc.get_traced_memory()[1])
                del first, second, blocks
            finally:
                tracemalloc.stop()
            assert max(peaks) <= bytes_per_point * points, (c, d, walk.__name__, peaks)


def _peak_and_need(monkeypatch, tmp_path, argv):
    """A command's tracemalloc peak, with the 2MN roots of unity built in it, and the need it checked."""
    needs = []
    check = ambiguity._check_budget
    monkeypatch.setattr(ambiguity, "_check_budget", lambda need, what: needs.append(need) or check(need, what))
    assert run(argv + ["--out", tmp_path / "warm"]) == 0  # builds the formatter's cached tables
    _roots_of_unity.cache_clear()
    tracemalloc.start()
    try:
        assert run(argv + ["--out", tmp_path / "run"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(needs) == 2 and needs[0] == needs[1]  # one check per command
    return peak, needs[1]


@pytest.mark.parametrize("M, N", [(127, 131), (251, 257)])
def test_mn_bytes_cover_a_command(tmp_path, monkeypatch, M, N):
    """Every command's need covers its peak, waveform.csv's block included, and the
    fundamental-grid fast ambiguity, the heavier, needs less than twice its peak.
    With the writers stubbed and a one-point readout region, the peak is the
    command's O(MN) arrays, at most _MN_BYTES per MN and, for the heaviest, over
    half of it, an eigenvector simulate on the (1, M) line among them; a strip of MN
    points, every one a hit, adds at most its readout term."""
    mod = ["--M", M, "--N", N]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"M": M, "N": N, "taps": [{"k": 3, "l": 5, "re": 0.5, "im": 0.2}]}))
    commands = [
        ["waveform", "pulsone", *mod],
        ["waveform", "gdaft-of", "chirp", "--alpha", 2, "--sl2", "1,1,0,1", *mod],
        ["ambiguity", *mod, "--x", "gdaft(2,1,1,1):zc:1", "--y", "gdaft(1,1,0,1):chirp:2", "--engine", "fast"],
    ]
    for i, argv in enumerate(commands):
        peak, need = _peak_and_need(monkeypatch, tmp_path / str(i), argv)
        assert peak <= need, argv
    assert need < 2 * peak

    def simulate(region, *threshold):
        return ["simulate", "--scene", scene, "--line", f"{M},1", "--region", region,
                "--waveform", "gdaft(2,3,1,2):chirp:2,1,3", "--snr-db", 20, *threshold]

    # its full-grid image is never written, so neither its memory nor its disk is short
    monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", 2**40)
    monkeypatch.setattr(cli, "check_disk", lambda *args: None)
    monkeypatch.setattr(cli, "sequence_to_csv", lambda *args: None)
    monkeypatch.setattr(cli, "write_surface", lambda *args, **kwargs: None)
    # and an eigenvector simulate on the (1, M) line, whose map has b = 0 mod N only
    eigen = ["simulate", "--scene", scene, "--line", f"1,{M}", "--region", "0:0,0:0", "--snr-db", 20]
    peaks = [_peak_and_need(monkeypatch, tmp_path / f"stub{i}", argv)[0]
             for i, argv in enumerate(commands + [simulate("0:0,0:0"), eigen])]
    assert max(peaks) <= ambiguity._MN_BYTES * M * N < 2 * max(peaks)
    # every point of the strip a hit, in targets.json
    argv = simulate(f"0:{M * N - 1},0:0", "--threshold", 1e-300)
    strip = _peak_and_need(monkeypatch, tmp_path / "strip", argv)[0]
    assert strip <= _need(ambiguity._mn_arrays(Modulus(M, N)), ambiguity._readout(M * N, M * N)) < 2 * strip


@pytest.mark.parametrize(
    "route, M, N",
    [(route, *size) for route in ("direct", "fft", "surface", "prediction") for size in ((23, 29), (31, 37))]
    + [("direct-array", 11, 13), ("direct-array", 23, 29)]
    + [(route, *size) for route in ("pgm-full", "pgm-fundamental") for size in ((23, 29), (31, 37))],
)
def test_each_term_covers_its_route(tmp_path, route, M, N):
    """Each library route's tracemalloc peak is at most its term of the memory model, and over half of it."""
    mod = Modulus(M, N)
    mn = mod.MN
    rng = np.random.default_rng(M)
    x = PeriodicSequence(mod, rng.standard_normal(mn) + 1j * rng.standard_normal(mn))
    y = pulsone(mod, 0, 1)
    coded = coded_waveform(zc_sequence(1, M), np.ones(N))  # period MN, on no modulus
    fresh = [FastEngine(x, 0, 1, grid="full") for _ in range(2)]  # one per call: a surface is cached
    surface = AmbiguitySurface(mod, "full", rng.standard_normal((mn, mn)) + 0j)
    env = ScatteringEnvironment(mod, ((0, 0, 1.0), (3, 2, 0.5j)))
    if route.startswith("pgm"):
        # the PGM holds one engine block: every chain's within the term, and the
        # heaviest query's, a one-axis label with a 2-D phase (the last), over half of it
        grid = route[4:]
        for c, d in ((M, N), (1, 4), (1, M), (1, 0)):
            base, labels = pulsone_chain(LineSubgroup(mod, c, d), 5)
            engine = FastEngine(x, *base, transform=labels, grid=grid)
            need = ambiguity._streamed_pgm(*engine.shape, mn)[0]
            peak = _traced_peak(lambda: write_surface(engine, None, tmp_path / "s.pgm"))
            assert peak <= need, (c, d)
        assert need < 2 * peak
        return
    routes = {
        "direct": (lambda: cross_ambiguity_naive(x, y, grid="fundamental", warn_nonunit=False),
                   ambiguity._direct_sums(mn, M, N)),
        "direct-array": (lambda: cross_ambiguity_array(coded, coded), ambiguity._direct_sums(mn, mn, mn)),
        "fft": (lambda: cross_ambiguity_fft(x, y), ambiguity._lag_rows(mn, mn, mn)),
        "surface": (lambda: fresh.pop().surface, ambiguity._surface(mn, mn)),
        "prediction": (lambda: predicted_image(env, surface), ambiguity._prediction(mn)),
    }
    call, (need, _) = routes[route]
    peak = _traced_peak(call)
    assert peak <= need < 2 * peak


@pytest.mark.parametrize("M, N", [(23, 29), (31, 37)])
def test_readout_term_covers_its_region(tmp_path, M, N):
    """readout_targets' peak on a region of MN points, with the targets.json of its hits,
    is at most the readout term, and over half of it when a threshold below every
    magnitude makes every point a hit, on the (1, M) line, whose composite G has b and c
    nonzero, the heaviest query; the other lines, and fewer hits, hold less.  (Its crystallization check, about
    42 bytes per MN, is counted among the O(MN) arrays, whatever the region.)"""
    mod = Modulus(M, N)
    mn = mod.MN
    y = PeriodicSequence(mod, np.random.default_rng(M).standard_normal(mn) + 0j)
    strip = DDRegion(0, 0, 0, mn - 1)
    for (c, d), region, threshold in [((1, M), strip, 1e-300), ((1, M), strip, None), ((1, 0), strip, None),
                                      ((M, N), DDRegion(0, M - 1, 0, N - 1), None)]:
        line = LineSubgroup(mod, c, d)
        base, labels = pulsone_chain(line, 5)
        engine = FastEngine(y, *base, transform=labels, grid="full")
        hits = []

        def readout():  # the targets and their JSON document, as simulate writes them
            hits.clear()  # the last call's
            hits.extend(readout_targets(engine, line, region, threshold))
            _write_json({"targets": [{"k": k, "l": l, "re": v.real, "im": v.imag} for k, l, v in hits]},
                        tmp_path / "targets.json")

        peak = _traced_peak(readout)
        need = ambiguity._readout(region.width_k * region.width_l, mn)[0]
        assert peak <= need, (c, d, threshold)
        if threshold is not None:
            assert len(hits) == mn
            assert need < 2 * peak


@pytest.mark.parametrize("kind", [["pulsone", "--k0", 1], ["gdaft-of", "pulsone", "--sl2", "1,1,0,1"]],
                         ids=["pulsone", "gdaft-of"])
@pytest.mark.parametrize("M, N", [(23, 29), (31, 37)])
def test_self_ambiguity_need_covers_its_peak(tmp_path, monkeypatch, M, N, kind):
    """The self-ambiguity's need, its O(MN) arrays and its streamed PGM, is at least its peak and under twice it."""
    peak, need = _peak_and_need(monkeypatch, tmp_path, ["waveform", *kind, "--M", M, "--N", N, "--self-ambiguity"])
    assert peak <= need < 2 * peak


@pytest.mark.parametrize("refusal", ["not-crystallized", "over-budget"])
def test_refused_simulate_leaves_no_output(tmp_path, monkeypatch, capsys, refusal):
    mod = Modulus(3, 5)
    scene = tmp_path / "scene.json"
    _scene(scene, mod, DDRegion(0, 2, 0, 4), 3)
    # 144 bytes per MN for the O(MN) arrays, 416 per point of the 15-point readout
    # region, and the streamed image: one block of the 15 x 15 grid, whose 225
    # points cost the engine block, with their table entries, 128 bytes each (48 for
    # the values, and 80 for the PGM's index-only block and pixels), the PGM's file
    # buffer 8 KiB, and its 15 table entries a magnitude and a pixel, 9; and the
    # CSV writer 16 KiB, 15-entry index texts of 3 and 2 bytes with their int64
    # indices, a 25-byte abs field per table entry, and 493 bytes a line (two copies
    # of an 81-byte line: "14," and "14" slots, three 25-byte fields and a newline;
    # its gathered abs field; re and im and their format_g17 bytes)
    need = (144 * 15 + 416 * 15 + (48 + 80) * 15 * 15 + 8192 + 9 * 15 + 16384 + (3 + 8 + 2 + 8) * 15 + 25 * 15
            + 15 * 15 * (2 * 81 + 25 + 2 * (8 + 145)))
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


@pytest.mark.parametrize("x, y, period", [("zc:1", "chirp:2", 15), ("zc-coded:1,4", "zc-coded:2,4", 60)],
                         ids=["naive", "zc-coded"])
def test_direct_sum_ambiguity_checks_one_summed_need(tmp_path, monkeypatch, capsys, x, y, period):
    # the O(MN) arrays, the direct sums, and the writer's PGM and CSV, all checked at once
    shape = (period, period)
    need = _need(ambiguity._mn_arrays(Modulus(3, 5)), ambiguity._direct_sums(period, *shape),
                 ambiguity._streamed_pgm(*shape), ambiguity._csv_block(shape))
    argv = ["ambiguity", "--M", 3, "--N", 5, "--x", x, "--y", y, "--grid", "full"]
    out = tmp_path / "out"
    monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", need - 1)
    assert run(argv + ["--out", out]) == 3
    assert not out.exists()
    assert "budget" in capsys.readouterr().err
    monkeypatch.setattr(ambiguity, "MEMORY_BUDGET_BYTES", need)
    assert run(argv + ["--out", out]) == 0


def test_sequence_csv_index_texts_are_not_python_strings(tmp_path):
    """waveform.csv at (251,257) holds the writer's buffers, its index texts and the int64
    indices they are made from, all counted in the CSV term: about 25 bytes per MN, not 72."""
    mod = Modulus(251, 257)
    x = PeriodicSequence(mod, np.random.default_rng(4).standard_normal(mod.MN) + 0.5j)
    ddcore.sequence_to_csv(x, tmp_path / "warm.csv")  # builds the formatter's cached tables
    tracemalloc.start()
    try:
        ddcore.sequence_to_csv(x, tmp_path / "w.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ambiguity._csv_block((mod.MN,))[0]
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def _spiked_engine(M, N, seed):
    """A fundamental-grid engine whose |A| is the Zak table of x: small everywhere but one
    point of its last row, so every block but the last is below the surface's peak."""
    mod = Modulus(M, N)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
    X[M - 1, seed % N] = 50.0
    return FastEngine(idzt(QuasiPeriodicArray(mod, X)), 0, 0)


def _missed_engine(M, N, seed):
    """A fundamental-grid tone engine whose largest table entry, FFT(x)/sqrt(MN) at a
    column of N or more, has no preimage on the grid, whose points have L below N."""
    mn = M * N
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
    X[N + seed % (mn - N)] = 50.0
    return FastEngine(PeriodicSequence(Modulus(M, N), np.fft.ifft(X) * np.sqrt(mn)), 0, 0, 1)


def _flat_engine(M, N, seed, grid):
    """An engine whose every table entry is 1/sqrt(MN): x is 1/sqrt(M) on 0..M-1, one
    sample in each row of the Zak table, so each row's FFT is flat."""
    mod = Modulus(M, N)
    x = np.zeros(mod.MN, dtype=complex)
    x[:M] = 1 / np.sqrt(M)
    return FastEngine(PeriodicSequence(mod, x), seed % M, seed % N, grid=grid)


@pytest.mark.parametrize("M, N", [(5, 11), (11, 13)])
def test_peak_is_the_largest_block_magnitude(tmp_path, monkeypatch, M, N):
    """The PGM's peak is the largest table magnitude over the entries the grid reads
    (oracles.table_magnitudes), on every line family, on both grids, in one block and
    in blocks of two rows, for a line's eigenvector and a noisy return of it.  A PGM
    alone forms no value: it calls no fast_pulsone_query, and reads each block's
    entries alone (FastEngine.entry_blocks).  With a CSV, every grid forms each of its
    nk x nl values once, a fundamental grid of several blocks included, and the PGM
    is the same."""
    mod = Modulus(M, N)
    rng = np.random.default_rng(M)
    noise = 0.3 * (rng.standard_normal(mod.MN) + 1j * rng.standard_normal(mod.MN))
    formed = []
    query = ambiguity.fast_pulsone_query

    def counted(*args):
        values = query(*args)
        formed.append(np.size(values))
        return values

    monkeypatch.setattr(ambiguity, "fast_pulsone_query", counted)
    for c, d in _lines(M, N).values():
        line = LineSubgroup(mod, c, d)
        index = int(rng.integers(mod.MN))
        base, labels = pulsone_chain(line, index)
        x = eigenvector(line, index)
        for y in (x, PeriodicSequence(mod, x.samples + noise)):
            for grid in ("full", "fundamental"):
                for rows, csv in [(rows, csv) for rows in (None, 2) for csv in (None, tmp_path / "s.csv")]:
                    engine = FastEngine(y, *base, transform=labels, grid=grid)
                    nk, nl = engine.shape
                    formed.clear()
                    with pytest.MonkeyPatch.context() as mp:
                        if rows is not None:
                            mp.setattr(ddcore, "_CSV_BLOCK_ROWS", rows * nl)
                        write_surface(engine, csv, tmp_path / "s.pgm")
                    assert sum(formed) == (0 if csv is None else nk * nl), (c, d, grid, rows, csv)
                    want = pgm_bytes(table_magnitudes(engine), "linear", -120.0)
                    assert (tmp_path / "s.pgm").read_bytes() == want, (c, d, grid, rows, csv)


@pytest.mark.parametrize("M, N", [(5, 11), (11, 13)])
def test_readout_forms_values_for_its_hits_alone(M, N):
    """On an engine, readout_targets forms values, through fast_pulsone_query, for its
    hits alone: as many as it returns, each the value its grid point holds in the
    engine's surface, bit for bit.  On every line family, on a crystallized region,
    for a line's eigenvector and a noisy return of it, at the default threshold and
    an absolute one."""
    mod = Modulus(M, N)
    rng = np.random.default_rng(N)
    noise = 0.3 * (rng.standard_normal(mod.MN) + 1j * rng.standard_normal(mod.MN))
    formed = []
    query = ambiguity.fast_pulsone_query

    def counted(*args):
        values = query(*args)
        formed.append(np.size(values))
        return values

    for c, d in _lines(M, N).values():
        line = LineSubgroup(mod, c, d)
        region = _region(mod, line)
        index = int(rng.integers(mod.MN))
        base, labels = pulsone_chain(line, index)
        x = eigenvector(line, index)
        for y in (x, PeriodicSequence(mod, x.samples + noise)):
            engine = FastEngine(y, *base, transform=labels, grid="full")
            values = engine.surface.values
            for threshold in (None, 0.3):
                formed.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ambiguity, "fast_pulsone_query", counted)
                    hits = readout_targets(engine, line, region, threshold)
                assert sum(formed) == len(hits) > 0, (c, d, threshold)
                assert all(v == values[k, l] for k, l, v in hits), (c, d, threshold)


@pytest.mark.parametrize("M, N", [(3, 5), (11, 13)])
def test_engine_abs_fields_are_their_table_entries(tmp_path, M, N):
    """Every abs field of an engine-fed CSV is "{:.17g}" of abs(t) for its table entry t
    (oracles.table_abs_fields), for a noisy return on every line family and both grids,
    a flat table and a fundamental grid that misses the table's largest entry.  Each is
    within 2**-50 relative of hypot(re, im) of its own line, the 7u of the FastEngine
    docstring, and within 1e-10 of the direct sums.  The PGM's peak is the largest
    magnitude over the grid's entries, not the table's."""
    mod = Modulus(M, N)
    rng = np.random.default_rng(M * N)
    noise = 0.3 * (rng.standard_normal(mod.MN) + 1j * rng.standard_normal(mod.MN))
    cases = []  # (engine, return, reference)
    for c, d in _lines(M, N).values():
        line = LineSubgroup(mod, c, d)
        index = int(rng.integers(mod.MN))
        base, labels = pulsone_chain(line, index)
        x = eigenvector(line, index)
        y = PeriodicSequence(mod, x.samples + noise)
        cases += [(FastEngine(y, *base, transform=labels, grid=grid), y, x) for grid in ("full", "fundamental")]
    cases += [(_flat_engine(M, N, 7, grid), None, None) for grid in ("full", "fundamental")]
    cases.append((_missed_engine(M, N, 7), None, None))
    for i, (engine, y, x) in enumerate(cases):
        write_surface(engine, tmp_path / "s.csv", tmp_path / "s.pgm")
        fields = [line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines()[1:]]
        assert [f[4] for f in fields] == table_abs_fields(engine), i
        re, im, mags = (np.array([float(f[j]) for f in fields]) for j in (2, 3, 4))
        assert np.all(np.abs(mags - np.hypot(re, im)) <= 2.0**-50 * mags), i
        if x is not None:
            naive = cross_ambiguity_naive(y, x, grid=engine.grid, warn_nonunit=False).values.ravel()
            assert np.abs(mags - np.abs(naive)).max() < 1e-10, i
        pixels = np.frombuffer((tmp_path / "s.pgm").read_bytes()[-len(fields):], dtype=np.uint8)
        assert pixels[np.argmax(mags)] == 255, i
    missed = cases[-1][0]
    assert table_magnitudes(missed).max() < missed.magnitudes.max()


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([(3, 5), (5, 11), (11, 13)]),
    source=st.sampled_from(["engine", "spiked", "flat", "missed", "ties", "zeros"]),
    spec=st.sampled_from(SPECS[1:]),
    grid=st.sampled_from(["fundamental", "full"]),
    scale_floor=st.sampled_from([("linear", -120.0), ("db", -120.0), ("db", -300.0)]),
    block_rows=st.sampled_from([1, 5, 4096]),
    seed=st.integers(0, 2**16),
)
def test_streamed_pgm_matches_the_oracle(tmp_path_factory, size, source, spec, grid, scale_floor,
                                        block_rows, seed):
    """The PGM of an engine's or an array's row blocks is pgm_bytes of the whole surface's
    magnitudes: an engine's are those of its table entries (oracles.table_magnitudes)."""
    M, N = size
    mod = Modulus(M, N)
    scale, floor = scale_floor
    rng = np.random.default_rng(seed)
    if source == "engine":  # a noisy return against every kind of reference
        ref = parse_waveform_spec(spec, mod)
        x = PeriodicSequence(mod, rng.standard_normal(mod.MN) + 1j * rng.standard_normal(mod.MN))
        surface = FastEngine(x, *ref.fast[0], transform=ref.fast[1], grid=grid)
    elif source == "spiked":
        surface = _spiked_engine(M, N, seed)
    elif source == "missed":
        surface = _missed_engine(M, N, seed)
    elif source == "flat":  # every table entry the peak
        surface = _flat_engine(M, N, seed, grid)
    elif source == "ties":  # magnitudes whose pre-round value is about k + 1/2, the peak at a random point
        steps = (np.arange(255) + 0.5) / 255
        mags = 3.0 * rng.choice(steps if scale == "linear" else 10 ** ((floor - floor * steps) / 20), M * N)
        mags[rng.integers(M * N)] = 3.0
        surface = values = mags.reshape(M, N) + 0j
    else:
        surface = values = np.zeros((M, N), dtype=complex)
    if isinstance(surface, FastEngine):
        values = table_magnitudes(surface)
    path = tmp_path_factory.mktemp("pgm") / "s.pgm"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ddcore, "_CSV_BLOCK_ROWS", block_rows * values.shape[1])
        ambiguity.write_surface(surface, None, path, scale=scale, floor=floor)
    assert path.read_bytes() == pgm_bytes(values, scale, floor)


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
        built, bases = [], []
        # every modulus-bound sample a command sends is built by subgroups.chain_waveform from these three
        monkeypatch.setattr(subgroups, "chain_apply", lambda labels, base: built.append(labels) or base)
        for name in ("pulsone", "chirp"):  # every base, built only when its samples are (zc:1 is a chirp)
            real = getattr(subgroups, name)
            monkeypatch.setattr(subgroups, name,
                                lambda *a, _real=real, _name=name: bases.append(_name) or _real(*a))
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc:1", "--y", "gdaft(1,1,0,1):pulsone:1,2",
                    "--engine", "fast", "--out", tmp_path / "fast"]) == 0
        assert built == [()]  # x only, with no labels
        assert bases == ["chirp"]  # x's base, not y's
        assert run(["ambiguity", "--M", 3, "--N", 5, "--x", "zc:1", "--y", "gdaft(1,1,0,1):pulsone:1,2",
                    "--out", tmp_path / "naive"]) == 0
        assert len(built) == 3 and len(built[2]) == 1  # the naive route reads y's samples
        assert bases == ["chirp", "chirp", "pulsone"]

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


# the reference of each engine the block protocol is checked on: a base and its labels
CHAINS = {
    "no-label": lambda mod: pulsone_chain(LineSubgroup(mod, mod.M, mod.N), 5),
    "one-label": lambda mod: pulsone_chain(LineSubgroup(mod, 1, 4), 5),
    "two-labels": lambda mod: ((1, 2), mixed_chain(mod, 2)),  # a shear pair of GDAFTs
    "one-axis-2d-phase": lambda mod: pulsone_chain(LineSubgroup(mod, 1, 0), 5),  # a one-axis label, a 2-D phase
    "tone": lambda mod: ((0, 3, 1), ()),  # period 1, no label: the entries are l's alone
    "chirp": lambda mod: parse_waveform_spec("chirp:2,3,4", mod).fast,  # a tone under an LFM label
}


def test_point_queries_match_row_blocks(monkeypatch):
    """Each block of FastEngine.blocks() is a pair (values, entries) of the block's
    shape, on every kind of chain and both grids: its entries are the raveled table
    indices of the docstring's index map (oracles.table_entries), and its values are
    points() on the same rows, bit for bit.  Each index-only block of entry_blocks(),
    the tone's included, is an int64 array of the same shape equal to both, as are
    entries() on the same rows.  Blocks are independent: every block of a listed
    walk, all kept at once, equals the streamed walk's, block for block.  `surface`
    is the blocks' values stacked, and a lone point, at any integers, is the value and
    the entry its row block holds."""
    mod = Modulus(11, 13)
    rng = np.random.default_rng(3)
    x = PeriodicSequence(mod, rng.standard_normal(mod.MN) + 1j * rng.standard_normal(mod.MN))
    for chain, grid in [(chain, grid) for chain in CHAINS for grid in ("fundamental", "full")]:
        base, labels = CHAINS[chain](mod)
        engine = ambiguity.FastEngine(x, *base, transform=labels, grid=grid)
        nk, nl = engine.shape
        want = table_entries(engine)
        stacked = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ddcore, "_CSV_BLOCK_ROWS", 4 * nl)  # blocks of 4 rows, the last short
            kept = list(engine.blocks())  # no block may alias a later one
            for (values, entries), alone, (kept_values, kept_entries) in zip(
                    engine.blocks(), engine.entry_blocks(), kept, strict=True):
                np.testing.assert_array_equal(kept_values, values, err_msg=f"{chain} {grid}")
                np.testing.assert_array_equal(kept_entries, entries, err_msg=f"{chain} {grid}")
                rows = np.arange(len(stacked) * 4, len(stacked) * 4 + len(values))
                assert values.shape == entries.shape == alone.shape == (min(4, nk - rows[0]), nl), (chain, grid)
                assert entries.dtype == alone.dtype == np.int64
                np.testing.assert_array_equal(entries, want[rows], err_msg=f"{chain} {grid}")
                np.testing.assert_array_equal(alone, want[rows], err_msg=f"{chain} {grid}")
                np.testing.assert_array_equal(engine.entries(rows[:, None], np.arange(nl)), want[rows],
                                              err_msg=f"{chain} {grid}")
                np.testing.assert_array_equal(values, engine.points(rows[:, None], np.arange(nl)),
                                              err_msg=f"{chain} {grid}")
                stacked.append(values.copy())
            whole = engine.surface.values
        assert len(stacked) == math.ceil(nk / 4)
        np.testing.assert_array_equal(whole, np.concatenate(stacked), err_msg=f"{chain} {grid}")
        assert math.isclose(abs(engine.points(0, 0)), abs(whole[0, 0]))
    for k, l in rng.integers(-2 * mod.MN, 2 * mod.MN, size=(50, 2)):  # the last engine's: the chirp's full grid
        assert engine.points(np.array([k]), np.array([l]))[0] == whole[k % mod.MN, l % mod.MN]
        assert engine.entries(k, l) == want[k % mod.MN, l % mod.MN]
