"""The CLI's contract, drawn from its grammar: README's exit codes and output rules.

Every command, run in-process on drawn argv and scene files at small primes,
exits 0, 2, 3 or 4; raises nothing else and issues no RuntimeWarning; leaves
no --out directory after a nonzero exit; and on exit 0 writes strict JSON and
no `nan` or `inf` CSV field.  The memory budget is drawn too, so the memory model's
refusals are drawn with the rest.  Huge moduli appear only where the O(MN)
check refuses them before anything is allocated.  Each known reproducer of a
mended CLI fault is an explicit example.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddradar import ambiguity
from ddradar.cli import main


def _rare(draw, usual, odd):
    """A draw from `usual` or, in a command that may hold odd values, sometimes from `odd`."""
    return draw(odd if draw(ODD) and draw(st.booleans()) else usual)


# small prime pairs, or moduli refused before anything is allocated: composite,
# equal, too small, over the cap, and MN = 2,147,483,643 under --allow-composite
SMALL = st.sampled_from([(3, 5), (5, 3), (3, 7), (5, 7)])
ODD_MODULI = st.sampled_from([(4, 5), (3, 3), (1, 5), (65537, 65539), (3, 715827881)])
INDICES = st.integers(0, 14)  # below every small MN
PULSONE = st.integers(0, 2)  # below every small M and N
ODD_INTS = st.sampled_from([-1, -20, 10**30, -(10**30), 2**63])
RATES = st.sampled_from([1, 2, 4, 8, 11, 13, 10**20 + 1])  # coprime with every small MN
ODD_RATES = st.sampled_from([0, 3, 5, 7, 15])
SL2 = st.sampled_from(["1,1,0,1", "1,2,0,1", "2,1,1,1", "3,2,1,1"])  # det 1, b invertible mod MN
ODD_SL2 = st.sampled_from(["1,3,0,1", "1,1,1,1", "1,2,3", "a,b,c,d"])
# whether the command being drawn may hold odd values; half of them do, the rest run
ODD = st.shared(st.booleans(), key="odd")


def _int(draw, usual=INDICES, odd=ODD_INTS):
    return str(_rare(draw, usual, odd))


@st.composite
def _spec(draw):
    """A waveform spec: a base, its parameters and an optional transform prefix, any of them malformed."""
    prefix = _rare(draw, st.sampled_from(["", "", "lfm(2):", "gdaft({}):"]),
                   st.sampled_from(["lfm(x):", "gdaft(1,2):", "lfm(3):", "lfm(5):"]))
    base = _rare(draw, st.sampled_from(["pulsone:{},{}", "chirp:{}", "chirp:{},{},{}", "zc:{}", "zc-coded:{},{}"]),
                 st.sampled_from(["nonsense:1", "pulsone:1", "chirp:", "zc:abc"]))
    fields = {
        "pulsone:{},{}": lambda: [_int(draw, PULSONE), _int(draw, PULSONE)],
        "chirp:{}": lambda: [_int(draw, RATES, ODD_RATES)],
        "chirp:{},{},{}": lambda: [_int(draw, RATES, ODD_RATES), _int(draw), _int(draw)],
        "zc:{}": lambda: [_int(draw, RATES, ODD_RATES)],
        # a chip that is short, or empty, negative or far too long
        "zc-coded:{},{}": lambda: [_int(draw, RATES, ODD_RATES), _int(draw, st.sampled_from([1, 2]),
                                                                     st.sampled_from([0, -1, 10**15]))],
    }.get(base, list)()
    return prefix.format(_rare(draw, SL2, ODD_SL2)) + base.format(*fields)


def _common(draw, with_mod=True):
    argv = []
    if with_mod:
        argv += ["--M", "{M}", "--N", "{N}"]
    if _rare(draw, st.just(False), st.booleans()):
        argv.append("--allow-composite")
    if draw(st.booleans()):
        argv += ["--scale", "db", "--floor=" + _rare(draw, st.sampled_from(["-120", "-60"]),
                                                     st.sampled_from(["0", "nan", "-inf", "1e309", "x"]))]
    return argv


@st.composite
def _waveform(draw):
    kind = draw(st.sampled_from(["pulsone", "chirp", "zc", "gdaft-of", "lfm-of"]))
    argv = ["waveform", kind]
    if kind.endswith("-of"):
        argv.append(draw(st.sampled_from(["pulsone", "chirp", "zc"])))
        argv += ["--sl2", _rare(draw, SL2, ODD_SL2)] if kind == "gdaft-of" else ["--lfm", _int(draw, RATES, ODD_RATES)]
    argv += _common(draw)
    for flag, usual in (("--k0", PULSONE), ("--l0", PULSONE), ("--beta", INDICES), ("--gamma", INDICES)):
        if draw(st.booleans()):
            argv += [flag, _int(draw, usual)]
    argv += ["--alpha", _int(draw, RATES, ODD_RATES), "--root", _int(draw, RATES, ODD_RATES)]
    if draw(st.booleans()):
        argv.append("--self-ambiguity")
    return argv, None


@st.composite
def _ambiguity(draw):
    argv = ["ambiguity", *_common(draw), "--x", draw(_spec()), "--y", draw(_spec())]
    argv += ["--engine", draw(st.sampled_from(["naive", "fast"])), "--grid", draw(st.sampled_from(["fundamental", "full"]))]
    return argv, None


@st.composite
def _simulate(draw):
    k_l = st.one_of(INDICES, st.sampled_from([1.7, 3.0, 10**21, "3", -5]))
    gains = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e306, 1e308, -1.7e308, "1.5", True, None, 10**400]))
    taps = [{"k": _rare(draw, INDICES, k_l), "l": _rare(draw, INDICES, k_l),
             "re": _rare(draw, st.floats(-2.0, 2.0), gains), "im": _rare(draw, st.floats(-2.0, 2.0), gains)}
            for _ in range(draw(st.integers(0, 3)))]
    argv = ["simulate", "--scene", "scene.json", *_common(draw, with_mod=False)]
    lines = st.sampled_from(["{M},{N}", "{M},1", "{N},1", "1,4", "1,2", "1,0", "0,1"])
    argv += ["--line=" + _rare(draw, lines, st.sampled_from(["0,0", "1,2,3", "10,15", "-3,5"]))]
    regions = st.sampled_from(["0:0,0:0", "0:{M1},0:{N1}", "1:2,3:4", "0:0,0:{MN1}", "0:{MN1},0:0"])
    argv += ["--region=" + _rare(draw, regions, st.sampled_from(["0:0", "5:1,0:0", "0:100,0:100", "-3:-2,0:0"]))]
    argv += ["--waveform", draw(st.one_of(st.just("eigen"), _spec()))]
    if draw(st.booleans()):
        argv += ["--eigen-index", _int(draw)]
    if draw(st.booleans()):
        argv += ["--snr-db=" + _rare(draw, st.sampled_from(["20", "inf"]), st.sampled_from(["nan", "-inf", "-400"]))]
        argv += ["--seed=" + _int(draw)]
    if draw(st.booleans()):
        argv += ["--threshold=" + _rare(draw, st.just("0.25"), st.sampled_from(["-1", "0", "nan", "inf"]))]
    return argv, taps


@st.composite
def _command(draw):
    """(argv, scene file text or None), the modulus and its sides filled in."""
    M, N = _rare(draw, SMALL, ODD_MODULI)
    kind = draw(st.sampled_from([_ambiguity, _simulate, _waveform]))
    argv, taps = draw(kind())
    sides = {"M": M, "N": N, "M1": M - 1, "N1": N - 1, "MN1": M * N - 1}
    argv = [a.format(**sides) for a in argv]
    return argv, None if taps is None else json.dumps({"M": M, "N": N, "taps": taps})


def _scene(taps, M=3, N=5):
    return json.dumps({"M": M, "N": N, "taps": [{"k": k, "l": l, "re": re, "im": im} for k, l, re, im in taps]})


SIM = ["simulate", "--scene", "scene.json", "--line", "3,5", "--region", "0:0,0:0"]
ONE_TAP = _scene([(0, 0, 1.0, 0.0)])
BIG = ["--M", "3", "--N", "715827881", "--allow-composite"]


def _tree(root):
    """Every path under root, with its bytes when it is a file."""
    return {path: path.is_file() and path.read_bytes() for path in root.rglob("*")}


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(command=_command(), budget=st.builds(lambda odd, low: low if odd else 2**30, ODD,
                                            st.sampled_from([200_000, 40_000, 2**30])))
# mended reproducers: a missing or malformed scene file, and non-numeric or fractional fields
@example(command=(["simulate", "--scene", "missing.json", "--line", "3,5", "--region", "0:0,0:0"], None),
         budget=2**30)
@example(command=(SIM, '{"M": 3, '), budget=2**30)
@example(command=(SIM, _scene([(0, 0, "x", 0.0)])), budget=2**30)
@example(command=(SIM, _scene([(1.7, 2.9, 1.0, 0.0)])), budget=2**30)
@example(command=(SIM, _scene([(0, 0, 1.0, 0.0)], M=3.9)), budget=2**30)
# a tap gain that is not a JSON number, or an integer no float holds
@example(command=(SIM, _scene([(0, 0, "1.5", 0.0)])), budget=2**30)
@example(command=(SIM, _scene([(0, 0, " 2 ", 0.0)])), budget=2**30)
@example(command=(SIM, _scene([(0, 0, "1_0", 0.0)])), budget=2**30)
@example(command=(SIM, _scene([(0, 0, True, 0.0)])), budget=2**30)
@example(command=(SIM, _scene([(0, 0, 10**400, 0.0)])), budget=2**30)
# a negative threshold, a negative seed, and gains whose return, image or energy overflows
@example(command=(SIM + ["--threshold", "-1"], ONE_TAP), budget=2**30)
@example(command=(SIM + ["--snr-db", "10", "--seed", "-1"], ONE_TAP), budget=2**30)
@example(command=(SIM, _scene([(0, 0, 1e308, 1e308)])), budget=2**30)
@example(command=(SIM, _scene([(0, 0, 1e306, 0.0)])), budget=2**30)
@example(command=(SIM + ["--snr-db", "5"], _scene([(0, 0, 1e308, 0.0)])), budget=2**30)
# a zc-coded pair far over the budget, an LFM rate sharing a factor with MN, O(MN) arrays near the cap
@example(command=(["ambiguity", "--M", "3", "--N", "5", "--x", "zc-coded:1,1000", "--y", "zc-coded:2,1000"], None),
         budget=2**30)
@example(command=(["ambiguity", "--M", "3", "--N", "5", "--x", "zc-coded:1,1000000000000000",
                   "--y", "zc-coded:1,1"], None), budget=2**30)
@example(command=(["ambiguity", "--M", "3", "--N", "5", "--x", "lfm(3):pulsone:0,0", "--y", "pulsone:0,0"], None),
         budget=2**30)
@example(command=(["waveform", "pulsone", *BIG], None), budget=2**30)
@example(command=(["ambiguity", *BIG, "--x", "pulsone:0,0", "--y", "pulsone:0,0", "--engine", "fast"], None),
         budget=2**30)
# an --out that is, or lies under, a file (here the scene file)
@example(command=(["waveform", "pulsone", "--M", "3", "--N", "5", "--out", "scene.json"], ONE_TAP), budget=2**30)
@example(command=(SIM + ["--out", "scene.json/run"], ONE_TAP), budget=2**30)
def test_cli_contract(tmp_path_factory, command, budget):
    argv, scene = command
    own_out = "--out" in argv
    argv = argv if own_out else [*argv, "--out", "out"]
    work = tmp_path_factory.mktemp("contract")
    if scene is not None:
        (work / "scene.json").write_text(scene)
    before = _tree(work)
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.chdir(work)
        mp.setattr(ambiguity, "MEMORY_BUDGET_BYTES", budget)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
    out = work / argv[argv.index("--out") + 1]
    if not own_out:
        assert out.exists() == (code == 0)
    elif code:  # an --out of the command's own, perhaps an existing file: nothing is written
        assert _tree(work) == before
    else:
        assert out.is_dir()
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path.name} holds {c}"))
    for path in out.glob("*.csv"):
        for field in (b"nan", b"inf"):
            assert field not in path.read_bytes(), path.name
