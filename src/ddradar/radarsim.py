"""End-to-end discrete radar: channel, noise, image formation, target readout.

A scattering environment is a sparse set of delay-Doppler taps (k, l, h).
Illumination applies each tap as a delay shift plus Doppler ramp; the radar
image is the cross-ambiguity of the return against the transmitted waveform,
which equals the tap map blurred by the phase-scaled self-ambiguity of the
waveform.  With a bed-of-nails waveform and a crystallized region, the taps
can be read back exactly.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySurface, FastEngine, _prediction, check_budget
from .ddcore import PeriodicSequence
from .errors import (
    BadSeed,
    BadSNR,
    ConfigurationError,
    EnergyOverflow,
    GridMismatch,
    NotCrystallized,
    ValidationError,
    ZeroSignal,
)
from .modmath import Modulus, phases_to_complex, same_modulus
from .subgroups import DDRegion, LineSubgroup, crystallization_check

__all__ = [
    "ScatteringEnvironment",
    "add_noise",
    "apply_channel",
    "form_image",
    "predicted_image",
    "readout_targets",
    "scene_from_json",
    "scene_to_json",
]


@dataclass(frozen=True)
class ScatteringEnvironment:
    """Sparse delay-Doppler channel: taps (k, l, h) with distinct coordinates and finite h."""

    mod: Modulus
    taps: tuple

    def __post_init__(self) -> None:
        mn = self.mod.MN
        normed = tuple((k % mn, l % mn, complex(h)) for k, l, h in self.taps)
        coords = [(k, l) for k, l, _ in normed]
        if len(set(coords)) != len(coords):
            raise ConfigurationError(f"duplicate tap coordinates in {coords}")
        if not all(cmath.isfinite(h) for _, _, h in normed):
            raise ConfigurationError("tap gains must be finite")
        object.__setattr__(self, "taps", normed)


def apply_channel(env: ScatteringEnvironment, x: PeriodicSequence) -> PeriodicSequence:
    """y[n] = sum_taps h * x[(n-k) mod MN] * exp(j*2*pi*l*(n-k)/MN).

    A return that is not finite, from gains near the float64 limit, is
    refused with ConfigurationError.
    """
    same_modulus(env, x)
    mn = env.mod.MN
    n = np.arange(mn, dtype=np.int64)
    out = np.zeros(mn, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # gains near the float64 limit: refused below
        for k, l, h in env.taps:
            offsets = (n - k) % mn
            # l and the offsets are below MN, so 2*l*offsets < 2*MN**2 < 2**63
            out += h * x.samples[offsets] * phases_to_complex(2 * l * offsets, mn)
    # on the float64 view: isfinite over the complex128 array itself raised the
    # peak RSS of a (23,29) simulate run by about 0.2 MB, over the view it did not
    if not np.isfinite(out.view(np.float64)).all():
        raise ConfigurationError("the channel return is not finite: tap gains too large")
    return PeriodicSequence(env.mod, out)


def add_noise(y: PeriodicSequence, snr_db: float | None, seed: int) -> PeriodicSequence:
    """Add circularly-symmetric complex Gaussian noise at the requested SNR.

    Per-sample variance solves 10*log10(||y||^2 / E||w||^2) = snr_db, so the
    quoted SNR is total signal energy over expected total noise energy.
    Deterministic for a fixed seed, which must not be negative (BadSeed);
    snr_db = None (or +inf) returns y as is.  A signal whose energy ||y||^2
    overflows float64 is refused with EnergyOverflow, whatever the SNR; NaN,
    -inf and SNRs whose noise variance is not a finite float are refused
    with BadSNR.
    """
    if snr_db is None or snr_db == math.inf:
        return y
    if seed < 0:
        raise BadSeed(f"the noise seed must not be negative, got {seed}")
    try:
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            energy = y.norm() ** 2
    except OverflowError:  # a finite norm whose square overflows
        energy = math.inf
    if not math.isfinite(energy):
        raise EnergyOverflow("the signal energy ||y||^2 overflows float64: no SNR can be set against it")
    if energy == 0.0:
        raise ZeroSignal("cannot set an SNR against a zero-energy signal")
    mn = y.mod.MN
    try:
        var = energy / (mn * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        var = math.inf
    if not math.isfinite(var):
        raise BadSNR(f"snr_db = {snr_db} does not give a finite noise variance")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
    w *= np.sqrt(var / 2.0)
    return PeriodicSequence(y.mod, y.samples + w)


def form_image(
    y: PeriodicSequence,
    x: PeriodicSequence,
    grid: str = "full",
    *,
    pulsone_indices: tuple,
    transform: tuple = (),
) -> FastEngine:
    """Radar image of the return y against the reference x: the FastEngine of A_{y,x}.

    The reference x is built from a base by the label chain `transform`
    (empty for the plain base); pulsone_indices is that base as the fast
    engine takes it, (k0, l0[, period[, gamma]]) (see pulsone_chain).  A
    reference that is not unit-norm, or that base and labels do not
    describe (|<x, ref> - 1| over 1e-9), is refused with ConfigurationError.
    The engine reads any point in O(1) on either grid: points(K, L) for a
    readout, blocks() or `surface` for the `grid`.  Every modulus-bound
    waveform has such a form; for an arbitrary reference, the image is
    cross_ambiguity_naive(y, x, grid=grid, warn_nonunit=False).
    """
    same_modulus(y, x)
    overlap = FastEngine(x, *pulsone_indices, transform=transform).points(0, 0)  # <x, ref>
    if abs(x.norm() - 1.0) > 1e-9 or abs(overlap - 1.0) > 1e-9:
        raise ConfigurationError(
            f"pulsone_indices and transform do not describe x: <x, ref> = {overlap:.6g}"
        )
    return FastEngine(y, *pulsone_indices, transform=transform, grid=grid)


def predicted_image(env: ScatteringEnvironment, a_x: AmbiguitySurface) -> AmbiguitySurface:
    """Independent oracle for form_image: taps blurred by the self-ambiguity.

    pred[k, l] = sum_taps h * exp(j*2*pi*l_tap*(k - k_tap)/MN)
                 * A_x[(k - k_tap) mod MN, (l - l_tap) mod MN].
    """
    if a_x.grid != "full":
        raise GridMismatch("predicted_image needs the full-grid self-ambiguity")
    same_modulus(env, a_x)
    mn = env.mod.MN
    check_budget(_prediction(mn))
    idx = np.arange(mn)
    out = np.zeros((mn, mn), dtype=np.complex128)
    for k_t, l_t, h in env.taps:
        rows = (idx - k_t) % mn
        cols = (idx - l_t) % mn
        phases = phases_to_complex(2 * l_t * rows, mn)  # l_t, rows < MN: below 2*MN**2 < 2**63
        # each tap's product overwrites its gathered copy, h * phases first as in
        # h * phases * copy: under FMA a complex product is not bitwise commutative
        gathered = a_x.values[np.ix_(rows, cols)]
        out += np.multiply((h * phases)[:, None], gathered, out=gathered)
        del gathered  # before the next tap's gather: two MN x MN arrays at a time
    return AmbiguitySurface(env.mod, "full", out)


def readout_targets(
    img,
    line: LineSubgroup,
    region: DDRegion,
    threshold: float | None = None,
) -> list[tuple[int, int, complex]]:
    """Read taps off a crystallized region of the image.

    `img` is a FastEngine (form_image), whose point query reads the
    region's points without forming the image, or a full-grid
    AmbiguitySurface such as cross_ambiguity_naive's image of an arbitrary
    reference; both give the same values.  Refuses (NotCrystallized)
    when region translates by the line support overlap, since the image
    would alias.  `threshold` is an absolute magnitude cut and must be
    finite and positive (ValidationError otherwise); None means half the
    strongest magnitude in the region.  A region whose strongest magnitude
    is 0 holds no targets.  Coordinates are returned reduced mod MN, sorted
    by (k, l).  Each magnitude is the one the image's CSV writes as its abs
    field (write_surface): an engine's is that of the point's table entry,
    read by one img.entries query of the region from img.magnitudes, with
    no value formed; an array's is np.hypot(re, im) of its value, bit for
    bit Python's abs(complex).  Values are read, by img.points, for the
    hits alone.
    """
    if threshold is not None and not (math.isfinite(threshold) and threshold > 0):
        raise ValidationError(f"readout threshold must be finite and positive, got {threshold}")
    same_modulus(img, line)
    if not crystallization_check(line, region):
        raise NotCrystallized(
            f"region {region} aliases under the ({line.c}, {line.d}) line support"
        )
    mn = line.mod.MN
    # the region's residues per axis, distinct because validate() bounds each
    # width by MN; their outer product, row-major, is the (k, l) sort.  The
    # bounds are reduced first, so any integers fit int64
    ks = np.sort((region.k_min % mn + np.arange(region.width_k, dtype=np.int64)) % mn)
    ls = np.sort((region.l_min % mn + np.arange(region.width_l, dtype=np.int64)) % mn)
    if isinstance(img, FastEngine):
        mags = img.magnitudes.take(img.entries(ks[:, None], ls[None, :])).ravel()
    else:
        values = img.points(ks[:, None], ls[None, :]).ravel()
        mags = np.hypot(values.real, values.imag)  # bit for bit abs(complex)
    peak = mags.max()
    if peak == 0.0:
        return []
    if threshold is None:
        threshold = 0.5 * peak
    hits = np.flatnonzero(mags >= threshold)
    hit_k, hit_l = ks[hits // ls.size], ls[hits % ls.size]
    return [(int(k), int(l), complex(v)) for k, l, v in zip(hit_k, hit_l, img.points(hit_k, hit_l))]


# ---------------------------------------------------------------------------
# Scene files: JSON of the form
# {"M": 3, "N": 5, "taps": [{"k": 2, "l": 3, "re": 1.0, "im": 0.0}]}


def _write_json(doc: dict, path) -> None:
    """Write doc as strict JSON (a NaN or infinity is a ValueError): keys sorted, indent 2,
    ASCII, and a final newline.  Every JSON file the toolkit writes goes through here.
    The text goes to the file as it is formed: json.dumps would hold all of it, and
    all its chunks, at once."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def scene_to_json(env: ScatteringEnvironment, path) -> None:
    doc = {
        "M": env.mod.M,
        "N": env.mod.N,
        "taps": [
            {"k": k, "l": l, "re": h.real, "im": h.imag} for k, l, h in env.taps
        ],
    }
    _write_json(doc, path)


def scene_from_json(path, allow_composite: bool = False) -> ScatteringEnvironment:
    """Read a scene file; an unreadable file or a malformed scene is a ConfigurationError.

    M, N and every tap's k and l must be JSON integers: 1.7 or 3.0 is refused, not truncated.
    Every re and im must be a JSON number: "1.5", true and null are refused, not converted.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        ints = [doc["M"], doc["N"]] + [t[i] for t in doc["taps"] for i in "kl"]
        if any(type(v) is not int for v in ints):
            raise ValueError("M, N, k and l must be JSON integers")
        if any(type(t[i]) not in (int, float) for t in doc["taps"] for i in ("re", "im")):
            raise ValueError("re and im must be JSON numbers")
        mod = Modulus(doc["M"], doc["N"], allow_composite=allow_composite)
        taps = [(t["k"], t["l"], float(t["re"]) + 1j * float(t["im"])) for t in doc["taps"]]
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigurationError(f"unreadable or malformed scene file {path}: {exc}") from exc
    return ScatteringEnvironment(mod, tuple(taps))
