"""Command-line front end: waveforms, ambiguity surfaces, scene simulation.

Exit codes: 0 success, 2 usage error (among them an --out that is, or lies
under, a file or a dangling symlink), 3 refused precondition (aliasing
readout, fast engine on zc-coded waveforms, over the memory budget or the free
disk), 4 numeric validation failure (composite modulus, non-coprime
parameters, zc-coded periods that differ).  All file outputs land under
--out with fixed names; waveform, ambiguity and simulate create --out only
once every refusal check has passed, and every command that writes a surface
from the fast engine (waveform's self-ambiguity, simulate's image, ambiguity
--engine fast) forms it block by block as it writes it.  Every command is
deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .ambiguity import (
    FastEngine,
    _check_scale,
    _check_zc_root,
    _csv_block,
    _direct_sums,
    _grid_shape,
    _mn_arrays,
    _readout,
    _streamed_pgm,
    _value_block,
    check_budget,
    check_disk,
    coded_waveform,
    cross_ambiguity_array,
    cross_ambiguity_naive,
    write_surface,
    zc_sequence,
)
from .ddcore import sequence_to_csv
from .errors import ConfigurationError, EngineUnsupported, PreconditionError, ValidationError
from .modmath import Modulus
from .radarsim import _write_json, add_noise, apply_channel, readout_targets, scene_from_json
from .subgroups import DDRegion, LineSubgroup, _check_alpha, _check_pulsone, chain_waveform, eigenvector, pulsone_chain
from .symplectic import SL2Element, _check_gdaft_b, _check_lfm_rate, papr_db

__all__ = ["main"]


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{what} must be 'a,b', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{what} must be integers, got {text!r}") from exc


def _parse_region(text: str) -> DDRegion:
    try:
        k_part, l_part = text.split(",")
        k_min, k_max = (int(v) for v in k_part.split(":"))
        l_min, l_max = (int(v) for v in l_part.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"region must be 'kmin:kmax,lmin:lmax', got {text!r}"
        ) from exc
    return DDRegion(k_min, k_max, l_min, l_max)


class WaveformSpec:
    """Parsed waveform description.

    `seq` is built by `build` on first use (parsing refuses bad parameters but
    builds nothing): for a zc-coded waveform, which is not bound to the
    modulus, a plain array of `period` samples (`period` is None otherwise).
    Every modulus-bound waveform is described once, by `fast` = (base,
    labels), its form for the O(1)-per-point ambiguity engine (FastEngine(x,
    *base, transform=labels)), which never reads `seq`: a pulsone (k0, l0), or
    a tone (0, beta, 1[, gamma]) under an LFM label for chirp and zc, followed
    by the prefix's label; its `seq` is the PeriodicSequence
    subgroups.chain_waveform(mod, *fast).
    """

    def __init__(self, label, build, fast=None, period=None):
        self.label = label
        self._build = build
        self.fast = fast
        self.period = period

    @functools.cached_property
    def seq(self):
        return self._build()


def parse_waveform_spec(text: str, mod: Modulus) -> WaveformSpec:
    """Grammar: [lfm(A):|gdaft(a,b,c,d):] base, with base one of
    pulsone:k0,l0 | chirp:alpha[,beta[,gamma]] | zc:root | zc-coded:root,chip.

    Each modulus-bound kind only checks its parameters and forms its engine
    form `fast`; its samples are chain_waveform(mod, *fast).  zc:root is the
    chirp (rate, rate) with rate = -root*inv2 mod MN, bit for bit its
    Zadoff-Chu sequence.
    """
    spec = text.strip()
    labels = ()
    lfm_rate = 1  # a prefix's LFM rate, checked below: the fast engine never builds `seq`
    if spec.startswith("lfm(") or spec.startswith("gdaft("):
        head, _, rest = spec.partition(":")
        if not rest or not head.endswith(")"):
            raise argparse.ArgumentTypeError(f"malformed transform prefix in {text!r}")
        inner = head[head.index("(") + 1 : -1]
        try:
            if head.startswith("lfm"):
                lfm_rate = int(inner)
                labels = (SL2Element.lfm(mod, lfm_rate),)
            else:
                a, b, c, d = (int(v) for v in inner.split(","))  # ValueError unless four integers
                _check_gdaft_b(mod, b)
                labels = (SL2Element(mod, a, b, c, d),)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"malformed transform {head!r}") from exc
        spec = rest

    kind, _, args = spec.partition(":")
    try:
        if kind == "pulsone":
            fast = (_parse_pair(args, "pulsone indices"), labels)
            _check_pulsone(mod, *fast[0])
        elif kind in ("chirp", "zc"):
            vals = [int(v) for v in args.split(",")] if args else []
            if kind == "zc":  # zc(root) = chirp(rate, rate)
                root = int(args)
                _check_zc_root(root, mod.MN)
                vals = [-root * mod.inv2 % mod.MN] * 2
            elif not 1 <= len(vals) <= 3:
                raise argparse.ArgumentTypeError(f"chirp needs alpha[,beta[,gamma]]: {text!r}")
            _check_alpha(mod, vals[0])
            alpha, beta, gamma = vals + [0] * (3 - len(vals))
            fast = ((0, beta % mod.MN, 1, gamma), (SL2Element.lfm(mod, alpha),) + labels)
        elif kind == "zc-coded":
            root, chip_len = _parse_pair(args, "zc-coded parameters")
            if labels:
                raise argparse.ArgumentTypeError("transforms do not apply to zc-coded waveforms")
            _check_zc_root(root, mod.MN)
            if chip_len < 0:
                raise ValueError(f"negative chip length {chip_len}")
            # built after the command's budget check (coded_waveform refuses chip_len 0)
            return WaveformSpec(text, lambda: coded_waveform(zc_sequence(root, mod.MN), np.ones(chip_len)),
                                period=mod.MN * chip_len)
        else:
            raise argparse.ArgumentTypeError(f"unknown waveform kind {kind!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed waveform parameters in {text!r}") from exc
    _check_lfm_rate(mod, lfm_rate)
    return WaveformSpec(text, lambda: chain_waveform(mod, *fast), fast)


def _out_dir(args, csv: tuple, pgm: tuple | None) -> Path:
    """--out, made once the command's CSV of shape `csv` and its `pgm` PGM fit on its disk."""
    check_disk(args.out, csv, pgm)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# waveform


def cmd_waveform(args, parser) -> int:
    mod = Modulus(args.M, args.N, allow_composite=args.allow_composite)
    _check_scale(args.scale, args.floor)
    kind = args.kind
    prefix = ""
    if kind in ("gdaft-of", "lfm-of"):
        if args.base is None:
            parser.error(f"{kind} needs a base waveform kind")
        if kind == "gdaft-of" and args.sl2 is None:
            parser.error("gdaft-of needs --sl2 a,b,c,d")
        if kind == "lfm-of" and args.lfm is None:
            parser.error("lfm-of needs --lfm A")
        prefix = f"gdaft({args.sl2}):" if kind == "gdaft-of" else f"lfm({args.lfm}):"
        kind = args.base

    if kind == "pulsone":
        base = f"pulsone:{args.k0},{args.l0}"
    elif kind == "chirp":
        if args.alpha is None:
            parser.error("chirp needs --alpha")
        base = f"chirp:{args.alpha},{args.beta},{args.gamma}"
    else:
        base = f"zc:{args.root}"
    # waveform.csv, then the self-ambiguity streamed into its PGM: the first is closed
    # before the second starts, so only the larger counts
    full = (mod.MN, mod.MN) if args.self_ambiguity else None
    writer = max(_csv_block((mod.MN,)), _streamed_pgm(*full, mod.MN)) if full else _csv_block((mod.MN,))
    check_budget(_mn_arrays(mod), writer)
    spec = parse_waveform_spec(prefix + base, mod)
    line = f"papr_db={papr_db(spec.seq):.12g}"
    engine = None
    if args.self_ambiguity:
        engine = FastEngine(spec.seq, *spec.fast[0], transform=spec.fast[1], grid="full")

    out = _out_dir(args, (mod.MN,), full)
    sequence_to_csv(spec.seq, out / "waveform.csv")
    print(line)
    (out / "papr.txt").write_text(line + "\n", encoding="ascii")
    if engine is not None:
        write_surface(engine, None, out / "selfambiguity.pgm", scale=args.scale, floor=args.floor)
    return 0


# ---------------------------------------------------------------------------
# ambiguity


def cmd_ambiguity(args, parser) -> int:
    mod = Modulus(args.M, args.N, allow_composite=args.allow_composite)
    _check_scale(args.scale, args.floor)
    # parsing builds no waveform
    x = parse_waveform_spec(args.x, mod)
    y = parse_waveform_spec(args.y, mod)
    coded = x.period is not None or y.period is not None
    if coded:
        if x.period is None or y.period is None:
            parser.error("zc-coded waveforms can only be paired with zc-coded waveforms")
        if args.engine == "fast":
            raise EngineUnsupported("fast engine does not apply to zc-coded waveforms")
        if x.period != y.period:
            raise ConfigurationError(f"zc-coded periods differ: {x.period} and {y.period}")
        period, shape = x.period, (x.period, x.period)
    else:
        period, shape = mod.MN, _grid_shape(mod, args.grid)
    # one check of the whole command: its O(MN) arrays, the fast engine's value blocks
    # or the direct sums, and the writers, which gather a fast engine's magnitudes from
    # its table of MN entries
    route, table_size = (_value_block(*shape), mod.MN) if args.engine == "fast" else (_direct_sums(period, *shape), 0)
    check_budget(_mn_arrays(mod), route, _streamed_pgm(*shape, table_size), _csv_block(shape, table_size))
    if coded:
        surface = cross_ambiguity_array(x.seq, y.seq)
    elif args.engine == "fast":
        surface = FastEngine(x.seq, *y.fast[0], transform=y.fast[1], grid=args.grid)
    else:
        surface = cross_ambiguity_naive(x.seq, y.seq, grid=args.grid).values

    out = _out_dir(args, shape, shape)
    write_surface(surface, out / "ambiguity.csv", out / "ambiguity.pgm", scale=args.scale, floor=args.floor)
    print(f"ambiguity surface {shape[0]}x{shape[1]} written to {out}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args, parser) -> int:
    _check_scale(args.scale, args.floor)
    env = scene_from_json(args.scene, allow_composite=args.allow_composite)
    mod = env.mod
    line = LineSubgroup(mod, *_parse_pair(args.line, "--line"))
    region = _parse_region(args.region)
    # before the first O(MN) array; every refusal comes before --out exists, and the
    # image is formed only as it is written
    check_budget(_mn_arrays(mod), _readout(region.width_k * region.width_l, mod.MN), _value_block(mod.MN, mod.MN),
                 _streamed_pgm(mod.MN, mod.MN, mod.MN), _csv_block((mod.MN, mod.MN), mod.MN))

    if args.waveform == "eigen":
        if not 0 <= args.eigen_index < mod.MN:
            parser.error(f"--eigen-index out of range 0..{mod.MN - 1}")
        spec = WaveformSpec("eigen", lambda: eigenvector(line, args.eigen_index),
                            pulsone_chain(line, args.eigen_index))
    else:
        spec = parse_waveform_spec(args.waveform, mod)
        if spec.period is not None:
            parser.error("simulate needs a modulus-bound waveform, not zc-coded")

    y = apply_channel(env, spec.seq)
    y = add_noise(y, args.snr_db, args.seed)
    base, labels = spec.fast
    engine = FastEngine(y, *base, transform=labels, grid="full")
    targets = readout_targets(engine, line, region, threshold=args.threshold)

    out = _out_dir(args, (mod.MN, mod.MN), (mod.MN, mod.MN))
    write_surface(engine, out / "image.csv", out / "image.pgm", scale=args.scale, floor=args.floor)
    doc = {
        "M": mod.M,
        "N": mod.N,
        "waveform": spec.label,
        "engine": "fast",
        # +inf is noiseless, recorded like an omitted --snr-db
        "snr_db": None if args.snr_db == math.inf else args.snr_db,
        "seed": args.seed,
        "targets": [
            {"k": k, "l": l, "re": v.real, "im": v.imag} for k, l, v in targets
        ],
    }
    _write_json(doc, out / "targets.json")
    print(f"recovered {len(targets)} target(s); outputs in {out}")
    return 0


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)  # built once per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddradar",
        description="Discrete delay-Doppler radar toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_mod=True):
        if with_mod:
            p.add_argument("--M", type=int, required=True, help="delay-axis prime")
            p.add_argument("--N", type=int, required=True, help="Doppler-axis prime")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="deterministic seed")
        p.add_argument("--allow-composite", action="store_true",
                       help="skip primality checks (unsupported: maximality guarantees are lost)")
        p.add_argument("--scale", choices=("linear", "db"), default="linear",
                       help="PGM magnitude scaling")
        p.add_argument("--floor", type=float, default=-120.0, help="dB floor for --scale db")

    wf = sub.add_parser("waveform", help="generate a waveform, report PAPR")
    wf.add_argument("kind", choices=("pulsone", "chirp", "zc", "gdaft-of", "lfm-of"))
    wf.add_argument("base", nargs="?", choices=("pulsone", "chirp", "zc"),
                    help="base kind for gdaft-of / lfm-of")
    add_common(wf)
    wf.add_argument("--k0", type=int, default=0)
    wf.add_argument("--l0", type=int, default=0)
    wf.add_argument("--alpha", type=int, default=None)
    wf.add_argument("--beta", type=int, default=0)
    wf.add_argument("--gamma", type=int, default=0)
    wf.add_argument("--root", type=int, default=1, help="Zadoff-Chu root")
    wf.add_argument("--sl2", default=None, help="a,b,c,d entries for gdaft-of")
    wf.add_argument("--lfm", type=int, default=None, help="rate A for lfm-of")
    wf.add_argument("--self-ambiguity", action="store_true",
                    help="also write the full-grid self-ambiguity PGM")
    wf.set_defaults(func=cmd_waveform)

    amb = sub.add_parser("ambiguity", help="cross-ambiguity surface of two waveforms")
    add_common(amb)
    amb.add_argument("--x", required=True, help="waveform spec, e.g. pulsone:0,0")
    amb.add_argument("--y", required=True, help="waveform spec (reference)")
    amb.add_argument("--engine", choices=("naive", "fast"), default="naive")
    amb.add_argument("--grid", choices=("fundamental", "full"), default="fundamental")
    amb.set_defaults(func=cmd_ambiguity)

    sim = sub.add_parser("simulate", help="scene -> image -> target readout")
    add_common(sim, with_mod=False)
    sim.add_argument("--scene", required=True, help="scene JSON file")
    sim.add_argument("--waveform", default="eigen",
                     help="waveform spec or 'eigen' for an eigenvector of --line")
    sim.add_argument("--line", required=True, help="line generator c,d")
    sim.add_argument("--region", required=True, help="readout region kmin:kmax,lmin:lmax")
    sim.add_argument("--eigen-index", type=int, default=0)
    sim.add_argument("--snr-db", type=float, default=None,
                     help="add noise at this SNR; omit for noiseless")
    sim.add_argument("--threshold", type=float, default=None,
                     help="absolute readout threshold; default half the region peak")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (argparse.ArgumentTypeError, NotADirectoryError) as exc:  # NotADirectoryError: check_disk's --out
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ValidationError) as exc:  # two disjoint classes of DDRadarError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, PreconditionError) else 4


if __name__ == "__main__":
    raise SystemExit(main())
