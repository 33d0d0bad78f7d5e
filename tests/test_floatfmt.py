"""The vectorised "{:.17g}" formatter and the CSV writer built on it, byte for byte
against Python's own formatting."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddradar import ddcore
from ddradar.ddcore import complex_to_csv
from ddradar.floatfmt import FIELD_BYTES, format_g17
from oracles import complex_to_csv_rows


def kernel_texts(values) -> tuple[list, int]:
    """Each value's text as the kernel lays it out, and the count Python formatted."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    fields = np.zeros((flat.shape[0], 1, FIELD_BYTES), np.uint8)
    fields[..., 0] = ord(",")  # the comma is the caller's
    python = format_g17(flat, fields)
    text = fields.tobytes().translate(None, b"\0").decode("ascii")
    return text.split(",")[1:], python


def assert_formats_like_python(values) -> int:
    values = np.asarray(values, dtype=np.float64)
    got, python = kernel_texts(values)
    want = ["{:.17g}".format(v) for v in values.tolist()]
    assert got == want
    return python


def neighbours(x: np.ndarray, steps: int) -> np.ndarray:
    out = [x]
    up, down = x.copy(), x.copy()
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
        out += [up, down]
    return np.concatenate(out)


class TestFormatG17:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=80))
    def test_float64_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert_formats_like_python(np.concatenate((values, -values)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=80))
    def test_finite_floats(self, values):
        assert_formats_like_python(values)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        assert_formats_like_python(neighbours(powers, 8))
        assert kernel_texts([9.9999999999999997e-29])[0] == ["9.9999999999999997e-29"]

    def test_powers_of_two_and_the_exact_tie(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_formats_like_python(np.concatenate((powers, 3 * powers[:-1])))
        # 2**-25 = 2.98023223876953125e-08 is a tie at 17 digits: Python rounds it
        assert kernel_texts([2.0**-25]) == (["2.9802322387695312e-08"], 1)

    def test_values_that_round_up_a_decade(self):
        values = [float(f"9.99999999999999{d}e{e}") for e in range(-300, 300) for d in (49, 95, 99)]
        assert_formats_like_python(values)
        # these doubles lie just below the power of ten and round up to it, so their D
        # carries to 1e17 or log10 puts them a decade up: Python formats them
        below = [1e-243, 1e-79, 1e-14, 1e98, 1e153]
        assert kernel_texts(below) == (["1e-243", "1e-79", "1e-14", "1e+98", "1e+153"], 5)

    def test_fixed_and_scientific_boundaries(self):
        # fixed notation for decades -4..16, trailing zeros kept inside the integer part
        values = [1e-5, 1e-4, 0.5, 1.0, 10.0, 120.0, 1e15, 1e16, 1e17, 123456789012345680.0,
                  48012848914213000.0, 1.5e16, 1.25, 100.5, 2.5e-5, 0.1, 0.3]
        assert_formats_like_python(np.concatenate((values, np.negative(values))))

    def test_specials(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  1e-280, 1e280, 1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
        python = assert_formats_like_python(values)
        # Python formats the non-finite values, magnitudes outside [1e-280, 1e280) and
        # 1e-280, whose D leaves [1e16, 1e17)
        assert python == 12

    def test_ordinary_values_never_reach_python(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(20000) * np.exp(rng.uniform(-50, 5, 20000))
        assert assert_formats_like_python(values) == 0

    def test_no_runtime_warning(self):
        values = np.array([[0.0, -0.0, np.nan], [np.inf, 1e308, 5e-324], [1.0, -1e-300, 0.3]])
        fields = np.zeros(values.shape + (FIELD_BYTES,), np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            format_g17(values, fields)


def trailing_zero_values(zeros: int, decade: int, rng) -> list:
    """Doubles x > 0 whose "{:.17g}" text has the decade E = decade and whose
    digits 2 to 17 end in exactly `zeros` zeros, found by trying decimals of that form."""
    found = []
    for _ in range(2000):
        head = int(rng.integers(1, 10)) * 10 ** (16 - zeros)
        if zeros < 16:  # digits 2 .. 17 - zeros, the last of them not 0
            head += int(rng.integers(0, 10 ** (15 - zeros))) * 10 + int(rng.integers(1, 10))
        x = float(f"{head}e{decade + zeros - 16}")
        mantissa, _, exponent = "{:.16e}".format(x).partition("e")
        digits = mantissa[2:]  # digits 2 to 17
        if int(exponent) == decade and len(digits) - len(digits.rstrip("0")) == zeros:
            found.append(x)
        if len(found) == 3:
            return found
    raise AssertionError(f"no double with {zeros} trailing zeros at decade {decade}")


class TestTrailingZeros:
    """Digits 2-17 ending in 0000 groups are formatted by the kernel itself."""

    DECADES = [-4, -3, -2, -1, 0, -8, -22, -100, 17, 22, 150]

    @pytest.fixture(scope="class")
    def values(self) -> np.ndarray:
        rng = np.random.default_rng(12)
        found = [x for zeros in (4, 8, 12, 16) for decade in self.DECADES
                 for x in trailing_zero_values(zeros, decade, rng)]
        return np.array(found + [-x for x in found])

    def test_texts_and_no_python(self, values):
        texts = ["{:.17g}".format(x) for x in values.tolist()]
        # the search found every kind: fixed and scientific, each number of zeros
        assert any(t.startswith("0.000") for t in texts) and any("e-100" in t for t in texts)
        assert any(t in ("1", "2", "3", "4", "5", "6", "7", "8", "9") for t in texts)
        assert assert_formats_like_python(values) == 0

    def test_among_zeros(self, values):
        """Mostly ±0, as in a noiseless image, with these values among them: a zero's
        groups are dropped by its index, apart from the search for trailing 0000 groups."""
        mixed = np.zeros(10 * values.size)
        mixed[1::20] = -0.0
        mixed[::10] = values
        assert assert_formats_like_python(mixed) == 0

    def test_every_column(self, tmp_path, values):
        """In the re, im and abs columns of a surface CSV, byte for byte, none by Python."""
        grid = np.concatenate((values + 0j, 1j * values)).reshape(-1, 4)
        assert complex_to_csv(grid, tmp_path / "new.csv") == 0
        complex_to_csv_rows(grid, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestIntegerPart:
    """Decades 1 to 16, whose point falls among the 17 digits, laid out by the kernel."""

    @pytest.fixture(scope="class")
    def values(self) -> np.ndarray:
        rng = np.random.default_rng(23)
        found = []
        for e in range(1, 17):
            power = 10.0**e
            found += [power, 1.2 * power, rng.uniform(power, 10 * power)]  # 10, 120, ...; 1e16
            found += trailing_zero_values(4, e, rng)[:1] + trailing_zero_values(16 - e, e, rng)[:1]
        found += [100.5, 1000.25, 12.5, 123456.78125, 4503599627370495.5]  # exact fractions
        return np.array(found + [-x for x in found])

    def test_every_decade_by_the_kernel(self, values):
        texts = ["{:.17g}".format(x) for x in values.tolist()]
        assert {len(t.lstrip("-").partition(".")[0]) for t in texts} == set(range(2, 18))  # E = 1..16
        assert all("e" not in t for t in texts)
        assert {"10", "-120", "10000000000000000", "100.5", "-1000.25"} <= set(texts)
        assert assert_formats_like_python(values) == 0

    def test_every_column(self, tmp_path, values):
        """In the re, im and abs columns of a surface CSV, byte for byte, none by Python."""
        grid = np.concatenate((values + 0j, 1j * values)).reshape(-1, 4)
        assert complex_to_csv(grid, tmp_path / "new.csv") == 0
        complex_to_csv_rows(grid, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# One or more floats of every layout a field can take, by the path that lays it
# out: the common path's long heads (fixed notation below 0.001, or negative
# below 0.1) and short heads (scientific with a two-digit exponent, E = 0, the
# other fixed-notation values, zeros), and the fields edited afterwards or
# formatted by Python
COMMON_KINDS = [0.00012345678901234567, -0.0012, 0.012345, -0.012345678901234567, 0.5, -0.5,
                1.2345678901234567e-17, -9.5e-05, 6.02e23, -1e-99, 1.5, -7.0, 1.0, 0.0, -0.0]
RARE_KINDS = [12.5, -123456.789, 1e16, -4503599627370495.5,  # 1 <= E <= 16
              1.2345678901234567e-150, -3e-101, 4.5e200, -1e100, -1.7976931348623157e279,  # |E| >= 100
              2.0**-25, 1e-300, np.nan, np.inf, -np.inf]  # Python's


def _complex(re, im) -> np.ndarray:
    """re + 1j * im, with no product to turn an infinite part into a NaN."""
    z = np.empty(np.broadcast(re, im).shape, np.complex128)
    z.real, z.imag = re, im
    return z


def _engine_blocks(values: np.ndarray, sizes):
    """`values` as engine blocks of the given row counts, in turn, and a magnitude
    table with fewer entries than points: each distinct value's np.hypot, which is
    Python's abs, indexed by each point's entry."""
    bits, entries = np.unique(values.view(np.int64).reshape(-1, 2), axis=0, return_inverse=True)
    entries = entries.reshape(values.shape)
    distinct = np.ascontiguousarray(bits).view(np.complex128).ravel()
    mags = np.hypot(distinct.real, distinct.imag)
    cuts = np.cumsum([0] + list(sizes))
    blocks = [(values[a:b], entries[a:b]) for a, b in zip(cuts[:-1], cuts[1:]) if a < values.shape[0]]
    return blocks, mags


class TestFieldLayout:
    """Adjacent fields of different layouts, and a line position that changes layout
    from one block to the next, byte for byte against the oracle: written as an
    array and as engine blocks whose abs fields are gathered from a magnitude table."""

    KINDS = COMMON_KINDS + RARE_KINDS

    @pytest.fixture
    def pairs(self) -> np.ndarray:
        """Every ordered pair of kinds as (re, im), one line each, each re kind a row."""
        return _complex(*np.meshgrid(self.KINDS, self.KINDS, indexing="ij"))

    def _assert_same_bytes(self, tmp_path, values, blocks=None, mags=None):
        complex_to_csv_rows(values, tmp_path / "oracle.csv")
        if blocks is None:
            complex_to_csv(values, tmp_path / "new.csv")
        else:
            complex_to_csv(iter(blocks), tmp_path / "new.csv", values.shape, mags)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_every_pair_of_kinds_as_an_array(self, tmp_path, pairs):
        """re next to im in every order, and im next to the abs each pair makes."""
        self._assert_same_bytes(tmp_path, pairs)
        self._assert_same_bytes(tmp_path, pairs.T)
        self._assert_same_bytes(tmp_path, pairs.ravel())  # "n,re,im" lines

    def test_every_pair_of_kinds_as_engine_blocks(self, tmp_path, monkeypatch, pairs):
        """Blocks of 3, 1, 2 and 3 rows, cycling, through buffers of 3 rows: a short pass
        between full ones, whose unused lines are laid again by the next."""
        monkeypatch.setattr(ddcore, "_CSV_BLOCK_ROWS", 3 * pairs.shape[1])
        values = np.concatenate((pairs, pairs[::-1]))  # each value twice: fewer table entries than points
        blocks, mags = _engine_blocks(values, [3, 1, 2, 3] * values.shape[0])
        self._assert_same_bytes(tmp_path, values, blocks, mags)

    @pytest.mark.parametrize("engine", [False, True], ids=["array", "engine"])
    def test_rare_then_common_at_one_position(self, tmp_path, monkeypatch, engine):
        """Blocks of two rows alternate: every field of one block edited or Python's,
        every field of the next one common, so each line position holds a rare field
        and then a common one, whose text is shorter where the rare one was longest."""
        width = len(RARE_KINDS)
        rare = _complex(RARE_KINDS, RARE_KINDS[::-1])
        common = _complex(np.resize(COMMON_KINDS, width), np.resize(COMMON_KINDS[::-1], width))
        values = np.stack([rare, np.roll(rare, 1), common, np.roll(common, 1)] * 3)
        monkeypatch.setattr(ddcore, "_CSV_BLOCK_ROWS", 2 * width)
        blocks, mags = _engine_blocks(values, [2] * 6) if engine else (None, None)
        self._assert_same_bytes(tmp_path, values, blocks, mags)


class TestCsvBytes:
    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (37, 61), (1, 5000)],
        ids=["1x1", "ragged-last-block", "one-long-row"],
    )
    def test_matrix_matches_oracle(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.exp(
            rng.uniform(-40, 3, shape)
        )
        values.flat[::7] = 0.0
        values.real.flat[1::11] = -0.0
        values.imag.flat[2::13] = -0.0
        self._assert_same_bytes(tmp_path, values)

    def test_vector_matches_oracle(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(3001) + 1j * rng.standard_normal(3001)
        values[:4] = [0, -0.0, 2.0**-25, complex(1e300, -5e-324)]
        self._assert_same_bytes(tmp_path, values)

    def test_strided_input(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))
        self._assert_same_bytes(tmp_path, values[::3, ::2])
        self._assert_same_bytes(tmp_path, values.T)
        self._assert_same_bytes(tmp_path, values[5, ::3])

    def test_all_zeros(self, tmp_path):
        self._assert_same_bytes(tmp_path, np.zeros((13, 17), dtype=np.complex128))
        self._assert_same_bytes(tmp_path, np.zeros(15, dtype=np.complex128))

    def test_empty(self, tmp_path):
        self._assert_same_bytes(tmp_path, np.zeros(0, dtype=np.complex128))

    def test_specials_in_every_column(self, tmp_path):
        values = np.array([[complex(np.inf, np.nan), complex(np.nan, 1.0), complex(-np.inf, 0.0)],
                           [complex(1e-300, 1e300), complex(-0.0, -0.0), complex(5e-324, 9e15)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._assert_same_bytes(tmp_path, values)

    def test_returns_count_formatted_by_python(self, tmp_path):
        values = np.array([2.0**-25, 1.0, complex(np.nan, 0.5)])
        assert complex_to_csv(values, tmp_path / "new.csv") == 2

    @staticmethod
    def _assert_same_bytes(tmp_path, values):
        complex_to_csv(values, tmp_path / "new.csv")
        complex_to_csv_rows(values, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_edited_fields_import_no_numpy_ma(tmp_path):
    """The first CSV of a process with a value of 10 or more and a three-digit exponent,
    both edited decade by decade, imports no numpy.ma (np.unique would: 16 ms and about
    1 MB of modules held), in a fresh interpreter whose only CSV it is."""
    values = np.array([[12.5 + 1e-120j, 1e-120 + 12.5j]])
    script = ("import sys\nimport numpy as np\nfrom ddradar.ddcore import complex_to_csv\n"
              "print('numpy.ma' in sys.modules)\n"
              f"complex_to_csv(np.array({values.tolist()!r}), sys.argv[1])\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
               OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "new.csv")], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    before, after = run.stdout.split()
    if before == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"
    complex_to_csv_rows(values, tmp_path / "oracle.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_hypot_is_python_abs_bit_for_bit():
    """The abs column uses np.hypot because it is Python's abs(complex) exactly."""
    rng = np.random.default_rng(9)
    z = (rng.standard_normal(200000) + 1j * rng.standard_normal(200000)) * np.exp(
        rng.uniform(-700, 700, 200000)
    )
    z = z[np.isfinite(z)]
    z[:3] = [0, complex(-0.0, 3.0), complex(5e-324, -5e-324)]
    want = np.array([abs(v) for v in z.tolist()])
    got = np.hypot(z.real, z.imag)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
