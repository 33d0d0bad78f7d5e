"""The benchmark's four CLI workloads: seeded inputs, argv, and output checks.

Each workload turns (seed, command number) into one `ddradar` command line
plus the oracle values its outputs must reproduce.  Parameters that set the
cost of a command (grid size, line family, engine) are fixed per workload;
the scene, gains, eigen-index, line, label and root vary with every command,
so no command repeats an earlier one and a cache keyed on them cannot help.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np

import oracle

# A CSV value or a readout tap must match the oracle this closely.
VALUE_TOL = 1e-10
# Readout gains against the scene: exact without noise; at 40 dB SNR the
# noise on one image point has a standard deviation of about 1e-3.
NOISELESS_GAIN_TOL = 1e-9
NOISY_GAIN_TOL = 2e-2
SNR_DB = 40.0
RANDOM_POINTS = 48
LINE_POINTS = 16
# (M, N) per workload: about 1-3 s per command on a 2-vCPU machine, so that a
# short run still holds several commands.
SIZES = {
    "sim-rect": (19, 23),
    "sim-chirp": (23, 29),
    "sim-transported": (13, 17),
    "amb-transformed": (47, 53),
}


@dataclass
class Case:
    """One command and what its outputs must contain."""

    argv: list
    csv_name: str
    pgm_name: str
    shape: tuple  # (rows, cols) of the CSV grid
    points: np.ndarray  # sampled (k, l), shape (P, 2)
    expected: np.ndarray  # oracle values at `points`
    taps: list | None = None  # scene taps (k, l, h) that targets.json must recover
    gain_tol: float = NOISELESS_GAIN_TOL


def _units(mn: int) -> np.ndarray:
    r = np.arange(1, mn)
    return r[np.gcd(r, mn) == 1]


def _scene(rng, M: int, N: int, width_k: int, width_l: int, count: int, path: Path) -> list:
    """`count` distinct taps inside the readout region, gains of modulus 0.6..1.

    The smallest gain stays above half the largest, so the default readout
    threshold (half the region peak) keeps every tap.
    """
    cells = rng.choice(width_k * width_l, size=count, replace=False)
    gains = rng.uniform(0.6, 1.0, count) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))
    taps = [(int(c // width_l), int(c % width_l), complex(h)) for c, h in zip(cells, gains)]
    doc = {
        "M": M,
        "N": N,
        "taps": [{"k": k, "l": l, "re": h.real, "im": h.imag} for k, l, h in taps],
    }
    path.write_text(json.dumps(doc), encoding="ascii")
    return taps


def _image_points(rng, mn: int, taps, line) -> np.ndarray:
    """Every tap, random points of the full grid, and points on tap-translated lines.

    The last kind is where the image of a line eigenvector is nonzero outside
    the region, so it checks the phases, not only the zeros.
    """
    pts = [(k, l) for k, l, _ in taps]
    pts += [tuple(p) for p in rng.integers(0, mn, size=(RANDOM_POINTS, 2))]
    for _ in range(LINE_POINTS):
        k, l, _ = taps[rng.integers(len(taps))]
        x = int(rng.integers(1, mn))
        pts.append(((k + x * line[0]) % mn, (l + x * line[1]) % mn))
    return np.array(pts, dtype=np.int64)


def _simulate_case(rng, workdir: Path, M, N, line, region, eigvec, taps_count, noisy) -> Case:
    mn = M * N
    width_k, width_l = region
    scene = workdir / "scene.json"
    taps = _scene(rng, M, N, width_k, width_l, taps_count, scene)
    y = oracle.apply_channel(mn, taps, eigvec)
    argv = [
        "simulate", "--scene", str(scene), "--line", f"{line[0]},{line[1]}",
        "--region", f"0:{width_k - 1},0:{width_l - 1}",
    ]
    gain_tol = NOISELESS_GAIN_TOL
    if noisy:
        noise_seed = int(rng.integers(0, 2**31))
        y = oracle.add_noise(y, SNR_DB, noise_seed)
        argv += ["--snr-db", str(SNR_DB), "--seed", str(noise_seed)]
        gain_tol = NOISY_GAIN_TOL
    points = _image_points(rng, mn, taps, line)
    return Case(
        argv=argv,
        csv_name="image.csv",
        pgm_name="image.pgm",
        shape=(mn, mn),
        points=points,
        expected=oracle.ambiguity_points(y, eigvec, points),
        taps=taps,
        gain_tol=gain_tol,
    )


def sim_rect(rng, workdir: Path) -> Case:
    """Pulsone eigenvector of the rectangular line, noisy, M x N region."""
    M, N = SIZES["sim-rect"]
    index = int(rng.integers(0, M * N))
    x = oracle.pulsone(M, N, index % M, index // M)
    case = _simulate_case(rng, workdir, M, N, (M, N), (M, N), x, 6, noisy=True)
    case.argv += ["--eigen-index", str(index)]
    return case


CHIRP_REGION = (8, 8)


def sim_chirp(rng, workdir: Path) -> Case:
    """Chirp eigenvector of a coprime-slope line (1, 2*alpha), noiseless."""
    M, N = SIZES["sim-chirp"]
    mn = M * N
    while True:
        alpha = int(rng.choice(_units(mn)))
        if not oracle.line_hits_region(mn, 1, 2 * alpha % mn, *CHIRP_REGION):
            break
    index = int(rng.integers(0, mn))
    x = oracle.chirp(mn, alpha, index)
    line = (1, 2 * alpha % mn)
    case = _simulate_case(rng, workdir, M, N, line, CHIRP_REGION, x, 4, noisy=False)
    case.argv += ["--eigen-index", str(index)]
    return case


def _transported_line(rng, M: int, N: int) -> tuple[int, int]:
    """A primitive line that is neither rectangular nor of coprime slope,
    and against which the M x N region does not alias."""
    mn = M * N
    while True:
        c, d = (int(v) for v in rng.integers(0, mn, size=2))
        if gcd(c, d) != 1 or (M * d - N * c) % mn == 0:
            continue
        if gcd(c, mn) == 1 and gcd(d, mn) == 1:
            continue
        if not oracle.line_hits_region(mn, c, d, M, N):
            return c, d


def sim_transported(rng, workdir: Path) -> Case:
    """Pulsone basis transported onto another line by a symplectic label, noiseless."""
    M, N = SIZES["sim-transported"]
    line = _transported_line(rng, M, N)
    index = int(rng.integers(0, M * N))
    g = oracle.mapping_direction(M, N, (M, N), line)
    x = oracle.transport(M, N, g, oracle.pulsone(M, N, index % M, index // M))
    case = _simulate_case(rng, workdir, M, N, line, (M, N), x, 4, noisy=False)
    case.argv += ["--eigen-index", str(index)]
    return case


AMB_POINTS = 256


def amb_transformed(rng, workdir: Path) -> Case:
    """Fast engine, fundamental grid, ZC against a GDAFT-transformed pulsone."""
    M, N = SIZES["amb-transformed"]
    mn = M * N
    units = _units(mn)
    root = int(rng.choice(units))
    a, b = (int(v) for v in rng.choice(units, size=2))
    c = int(rng.integers(0, mn))
    d = (1 + b * c) * pow(a, -1, mn) % mn
    k0, l0 = int(rng.integers(0, M)), int(rng.integers(0, N))
    x = oracle.zadoff_chu(root, mn)
    y = oracle.gdaft(mn, (a, b, c, d), oracle.pulsone(M, N, k0, l0))
    points = np.stack([rng.integers(0, M, AMB_POINTS), rng.integers(0, N, AMB_POINTS)], axis=1)
    return Case(
        argv=[
            "ambiguity", "--M", str(M), "--N", str(N), "--x", f"zc:{root}",
            "--y", f"gdaft({a},{b},{c},{d}):pulsone:{k0},{l0}", "--engine", "fast",
            "--grid", "fundamental",
        ],
        csv_name="ambiguity.csv",
        pgm_name="ambiguity.pgm",
        shape=(M, N),
        points=points,
        expected=oracle.ambiguity_points(x, y, points),
    )


WORKLOADS = {
    "sim-rect": sim_rect,
    "sim-chirp": sim_chirp,
    "sim-transported": sim_transported,
    "amb-transformed": amb_transformed,
}


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def _check_csv(case: Case, path: Path) -> list:
    rows, cols = case.shape
    wanted = {}
    for i, (k, l) in enumerate(case.points):
        wanted.setdefault(int(k) * cols + int(l), []).append(i)
    problems = []
    count = 0
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "k,l,re,im,abs":
            return [f"{path.name}: bad header {header!r}"]
        for count, line in enumerate(fh, start=1):
            hits = wanted.get(count - 1)
            if hits is None:
                continue
            k_s, l_s, re_s, im_s, abs_s = line.split(",")
            value = complex(float(re_s), float(im_s))
            for i in hits:
                k, l = case.points[i]
                if (int(k_s), int(l_s)) != (k, l):
                    problems.append(f"{path.name}: row for ({k}, {l}) reads ({k_s}, {l_s})")
                elif abs(value - case.expected[i]) > VALUE_TOL or abs(float(abs_s) - abs(value)) > VALUE_TOL:
                    problems.append(
                        f"{path.name}: ({k}, {l}) = {value} but the oracle gives {case.expected[i]}"
                    )
    if count != rows * cols:
        problems.append(f"{path.name}: {count} rows, expected {rows * cols}")
    return problems


def _check_pgm(case: Case, path: Path) -> list:
    rows, cols = case.shape
    with open(path, "rb") as fh:
        head = fh.read(64)
    expected = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    if not head.startswith(expected) or path.stat().st_size != len(expected) + rows * cols:
        return [f"{path.name}: not a {cols}x{rows} 8-bit PGM"]
    return []


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def _check_targets(case: Case, path: Path) -> list:
    doc = json.loads(path.read_text(encoding="ascii"), parse_constant=_reject_constant)
    mn = case.shape[0]
    got = {(t["k"], t["l"]): complex(t["re"], t["im"]) for t in doc["targets"]}
    want = {(k, l): h for k, l, h in case.taps}
    if set(got) != set(want) or len(doc["targets"]) != len(want):
        return [f"targets.json: recovered {sorted(got)}, scene has {sorted(want)}"]
    if doc["M"] * doc["N"] != mn:
        return [f"targets.json: M*N = {doc['M'] * doc['N']}, expected {mn}"]
    problems = []
    image = {(int(k), int(l)): v for (k, l), v in zip(case.points, case.expected)}
    for key, value in got.items():
        if abs(value - image[key]) > VALUE_TOL:
            problems.append(f"targets.json: {key} = {value}, the oracle image gives {image[key]}")
        if abs(value - want[key]) > case.gain_tol:
            problems.append(f"targets.json: {key} = {value}, the scene tap is {want[key]}")
    return problems


def check_outputs(case: Case, outdir: Path) -> list:
    """Compare one command's files with the oracle; an unreadable file is a problem too."""
    try:
        problems = _check_csv(case, outdir / case.csv_name)
        problems += _check_pgm(case, outdir / case.pgm_name)
        if case.taps is not None:
            problems += _check_targets(case, outdir / "targets.json")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems


def csv_bytes(case: Case, outdir: Path) -> int:
    return (outdir / case.csv_name).stat().st_size
