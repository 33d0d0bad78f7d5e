"""Run a fixed list of ddradar commands and record what each one did, as JSON.

    python scripts/cli_manifest.py --out manifest.json
    python scripts/cli_manifest.py --sizes 3,5 --out manifest.json
    python scripts/cli_manifest.py --tree ../other-checkout --out other.json

For every command the manifest holds its argv, exit code, stdout, stderr and
the SHA-256 of each file it wrote under --out, and, for each surface CSV (its
header k,l,re,im,abs), the SHA-256 of its k,l,re,im columns alone, so that two
manifests tell a change of the abs column from a change of the values.  The list covers, at each
size (M,N) (by default (3,5), (11,13) and (23,29)):

* every waveform kind, with --self-ambiguity in linear and dB scale;
* ambiguity with the naive and the fast engine on both grids, for every
  base and transform prefix (the naive full grid only below (23,29)), and
  the fast engine in dB scale on both grids;
* simulate on the rectangular, a transported, a coprime-slope and the
  (1,4) line, noiseless and noisy, and in dB scale at floors -120 and -300
  on the noisy rectangular and the transported line;
* simulate of a tie, taps of gains 1 and 0.5 on the (1,4) line's strip of MN
  points, at eigen-indices 2 and 12 and at --threshold 0.5, where the weaker
  tap's magnitude is the cut to within rounding;
* simulate with tap gains from 10 to 1e4, on the rectangular line in linear
  scale and on the transported line in dB scale, so the image holds values
  of 10 or more;
* the known refusals: usage errors, aliasing regions, bad scenes, seeds,
  SNRs and thresholds, and gains whose return or energy overflows.

Unless --sizes is given, it also runs the fast engine on the fundamental grid
at (67,71), whose 67 rows are written in two blocks (57 and 10 rows), for a
pulsone, a tone and a two-label reference, in linear and dB scale, and one
command of each benchmark workload (bench/workloads.py) at its own size.
Each command runs in a new Python process on the tree's src/, with BLAS
threads pinned to 1, in a scratch directory whose path is replaced by <work>
in what is recorded.  Two manifests of the same list compare with `diff`;
they are not goldens, since FFT and BLAS bytes differ across numpy versions
and CPUs.  Exit code 0 means every command ran, whatever its own exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SITE = sysconfig.get_paths()["purelib"]  # where numpy's warnings name their source
DEFAULT_SIZES = ((3, 5), (11, 13), (23, 29))
WAVEFORMS = (
    ["pulsone", "--k0", "1", "--l0", "2"],
    ["chirp", "--alpha", "2", "--beta", "1", "--gamma", "3"],
    ["zc", "--root", "2"],
    ["gdaft-of", "pulsone", "--sl2", "1,1,0,1"],
    ["lfm-of", "chirp", "--alpha", "2", "--lfm", "4"],
)
BASES = ("pulsone:1,2", "chirp:2,1,3", "zc:1")
PREFIXES = ("", "lfm(2):", "gdaft(1,1,0,1):", "gdaft(2,3,1,2):")
# a fundamental grid of more than one block (ddcore._block_rows), which no default size reaches
BLOCKS_SIZE = (67, 71)
BLOCKS_REFERENCES = ("pulsone:1,2", "zc:1", "gdaft(2,3,1,2):chirp:2,1,3")
SURFACE_HEADER = b"k,l,re,im,abs\n"
LAST_FIELD = re.compile(rb",[^,\n]*$", re.MULTILINE)  # a line's last comma and what follows it


def _scene(M: int, N: int, taps) -> dict:
    return {"M": M, "N": N, "taps": [{"k": k, "l": l, "re": re, "im": im} for k, l, re, im in taps]}


def scenes(M: int, N: int) -> dict:
    """Scene files by name: ordinary taps, gains of 10 or more, and gains near the float64 limit."""
    return {
        "scene": _scene(M, N, [(0, 0, 1.0, 0.0), (1, 2, 0.5, -0.25), (M - 1, N - 1, 0.0, 0.75)]),
        "large": _scene(M, N, [(0, 0, 30.0, 0.0), (1, 2, -250.5, 12.25), (M - 1, N - 1, 1e4, 0.5)]),
        "huge": _scene(M, N, [(0, 0, 1e308, 1e308)]),
        "energetic": _scene(M, N, [(0, 0, 1e308, 0.0)]),
        "fraction": {"M": M, "N": N, "taps": [{"k": 1.7, "l": 0, "re": 1.0, "im": 0.0}]},
        # a weaker tap of half the stronger's gain: the default readout cut falls on its magnitude
        "ties": _scene(M, N, [(M * N - 4, 0, 1.0, 0.0), (4, 0, 0.5, 0.0)]),
    }


def commands(M: int, N: int) -> list:
    """The command list at one size, without --out."""
    mod = ["--M", str(M), "--N", str(N)]
    mn = M * N
    out = []
    for kind in WAVEFORMS:
        out.append(["waveform", *kind, *mod])
        out.append(["waveform", *kind, *mod, "--self-ambiguity"])
        out.append(["waveform", *kind, *mod, "--self-ambiguity", "--scale", "db", "--floor", "-200"])
    for prefix in PREFIXES:
        for base in BASES:
            for engine in ("naive", "fast"):
                for grid in ("fundamental", "full"):
                    if engine == "naive" and grid == "full" and mn > 200:
                        continue  # direct sums over the full grid grow as (MN)^3
                    out.append(["ambiguity", *mod, "--x", "zc:1", "--y", prefix + base,
                                "--engine", engine, "--grid", grid])
    out.append(["ambiguity", *mod, "--x", "zc-coded:1,2", "--y", "zc-coded:2,2"])
    out.append(["ambiguity", *mod, "--x", "pulsone:0,0", "--y", "zc:1", "--engine", "fast",
                "--grid", "full", "--scale", "db"])
    out.append(["ambiguity", *mod, "--x", "zc:1", "--y", "gdaft(2,3,1,2):chirp:2,1,3", "--engine", "fast",
                "--grid", "fundamental", "--scale", "db"])
    lines = {
        "rectangular": (f"{M},{N}", f"0:{M - 1},0:{N - 1}"),
        "transported": (f"{M},1", "0:0,0:0"),
        "coprime": ("1,2", "0:0,0:0"),
        "one-four": ("1,4", "0:0,0:0"),
    }
    for line, region in lines.values():
        sim = ["simulate", "--scene", "scene.json", "--line", line, "--region", region]
        out.append(sim)
        out.append(sim + ["--snr-db", "20", "--seed", "7"])
        out.append(sim + ["--waveform", "chirp:2,1", "--threshold", "0.25"])
    for floor in ("-120", "-300"):  # the dB image of a noisy rectangular and of a transported line
        rectangular, transported = lines["rectangular"], lines["transported"]
        out.append(["simulate", "--scene", "scene.json", "--line", rectangular[0], "--region", rectangular[1],
                    "--snr-db", "20", "--seed", "7", "--scale", "db", "--floor", floor])
        out.append(["simulate", "--scene", "scene.json", "--line", transported[0], "--region", transported[1],
                    "--scale", "db", "--floor", floor])
    # the (1,4) line crystallizes the strip 0:MN-1,0:0 at every odd MN
    ties = ["simulate", "--scene", "ties.json", "--line", "1,4", "--region", f"0:{mn - 1},0:0"]
    out += [ties + ["--eigen-index", "2"], ties + ["--eigen-index", "12"],
            ties + ["--eigen-index", "2", "--threshold", "0.5"]]
    out.append(["simulate", "--scene", "large.json", "--line", lines["rectangular"][0],
                "--region", lines["rectangular"][1]])
    out.append(["simulate", "--scene", "large.json", "--line", lines["transported"][0],
                "--region", lines["transported"][1], "--scale", "db"])
    sim = ["simulate", "--scene", "scene.json", "--line", f"{M},{N}"]
    refusals = [
        sim + ["--region", "0:0"],  # usage
        sim + ["--region", f"0:{M},0:{N - 1}"],  # aliases
        sim + ["--region", "0:0,0:0", "--threshold", "-1"],
        sim + ["--region", "0:0,0:0", "--snr-db", "nan"],
        sim + ["--region", "0:0,0:0", "--snr-db", "-inf"],
        sim + ["--region", "0:0,0:0", "--snr-db", "10", "--seed", "-1"],
        sim + ["--region", "0:0,0:0", "--scale", "db", "--floor", "0"],
        sim + ["--region", "0:0,0:0", "--eigen-index", str(mn)],
        sim + ["--region", "0:0,0:0", "--waveform", "zc-coded:1,2"],
        ["simulate", "--scene", "missing.json", "--line", "1,0", "--region", "0:0,0:0"],
        ["simulate", "--scene", "fraction.json", "--line", "1,0", "--region", "0:0,0:0"],
        ["simulate", "--scene", "huge.json", "--line", f"{M},{N}", "--region", "0:0,0:0"],
        ["simulate", "--scene", "energetic.json", "--line", f"{M},{N}", "--region", "0:0,0:0",
         "--snr-db", "5"],
        ["ambiguity", *mod, "--x", "lfm(1)", "--y", "pulsone:0,0"],
        ["ambiguity", *mod, "--x", f"lfm({M}):pulsone:0,0", "--y", "pulsone:0,0"],
        ["ambiguity", *mod, "--x", "gdaft(1,3,0,1):pulsone:0,0", "--y", "pulsone:0,0"],
        ["ambiguity", *mod, "--x", "zc-coded:1,1", "--y", "zc-coded:1,1", "--engine", "fast"],
        ["ambiguity", *mod, "--x", "zc-coded:1,1000000000000000", "--y", "zc-coded:1,1"],
        ["waveform", "chirp", *mod],
        ["waveform", "zc", "--root", str(M), *mod],
        ["waveform", "pulsone", "--M", "4", "--N", str(N)],
    ]
    return out + refusals


def block_commands(M: int, N: int) -> list:
    """The fast engine's fundamental grid against each of BLOCKS_REFERENCES, in linear and dB scale."""
    mod = ["--M", str(M), "--N", str(N)]
    return [["ambiguity", *mod, "--x", "zc:1", "--y", y, "--engine", "fast", "--grid", "fundamental", *scale]
            for y in BLOCKS_REFERENCES for scale in ([], ["--scale", "db"])]


def bench_commands(work: Path) -> list:
    """One command of each benchmark workload at its own size, inputs written to `work`."""
    sys.path.insert(0, str(HERE.parent / "bench"))
    import numpy as np
    import workloads

    out = []
    for i, (name, make) in enumerate(sorted(workloads.WORKLOADS.items())):
        folder = work / f"bench-{name}"
        folder.mkdir()
        case = make(np.random.default_rng([2024, i]), folder)
        out.append((folder, case.argv))
    return out


def run(tree: Path, cwd: Path, argv: list, work: Path) -> dict:
    """One command in a new process: exit code, output and the files it wrote."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = cwd / "out"
    done = subprocess.run([sys.executable, "-m", "ddradar", *argv, "--out", "out"], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=1200)
    files, values = {}, {}
    if out.exists():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            name, data = path.relative_to(out).as_posix(), path.read_bytes()
            files[name] = hashlib.sha256(data).hexdigest()
            if data.startswith(SURFACE_HEADER):
                values[name] = hashlib.sha256(LAST_FIELD.sub(b"", data)).hexdigest()
            path.unlink()
        for path in sorted(out.rglob("*"), reverse=True):
            path.rmdir()
        out.rmdir()

    def clean(text: str) -> str:
        return text.replace(str(work), "<work>").replace(str(tree), "<tree>").replace(SITE, "<site>")

    return {"argv": [clean(str(a)) for a in argv], "exit": done.returncode,
            "stdout": clean(done.stdout), "stderr": clean(done.stderr), "files": files,
            "k,l,re,im": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=str(HERE.parent), help="source checkout whose src/ runs")
    parser.add_argument("--out", required=True, help="manifest JSON to write")
    parser.add_argument("--sizes", nargs="+", default=None,
                        help="M,N pairs (default 3,5 11,13 23,29, plus (67,71) and the benchmark workloads)")
    args = parser.parse_args(argv)
    tree = Path(args.tree).resolve()
    sizes = DEFAULT_SIZES if args.sizes is None else [tuple(int(v) for v in s.split(",")) for s in args.sizes]
    manifest = []
    with tempfile.TemporaryDirectory(prefix="ddradar-manifest-") as tmp:
        work = Path(tmp).resolve()
        for M, N in sizes:
            folder = work / f"{M}x{N}"
            folder.mkdir()
            for name, doc in scenes(M, N).items():
                (folder / f"{name}.json").write_text(json.dumps(doc), encoding="ascii")
            for command in commands(M, N):
                manifest.append(run(tree, folder, command, work))
        if args.sizes is None:
            folder = work / "x".join(map(str, BLOCKS_SIZE))
            folder.mkdir()
            for command in block_commands(*BLOCKS_SIZE):
                manifest.append(run(tree, folder, command, work))
            for folder, command in bench_commands(work):
                manifest.append(run(tree, folder, command, work))
    Path(args.out).write_text(json.dumps({"commands": manifest}, indent=1, sort_keys=True) + "\n",
                              encoding="ascii")
    print(f"{len(manifest)} commands recorded in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
