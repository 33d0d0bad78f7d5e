import tracemalloc

import numpy as np
import pytest

from ddradar import ddcore, floatfmt
from ddradar.ddcore import (
    QuasiPeriodicArray,
    complex_to_csv,
    dzt,
    idzt,
    inner,
    inner_dd,
    sequence_from_csv,
    sequence_to_csv,
)
from ddradar.errors import ConfigurationError, ModulusMismatch
from ddradar.modmath import Modulus
from conftest import rand_unit_seq
from oracles import (
    basis_vector,
    basis_vrs,
    complex_to_csv_rows,
    dzt_direct,
    extend,
    idzt_direct,
    zero_array,
    zero_sequence,
)


class TestInner:
    def test_unit_basis(self, mod15):
        e0 = basis_vector(mod15, 0)
        e1 = basis_vector(mod15, 1)
        assert inner(e0, e0) == 1
        assert inner(e0, e1) == 0

    def test_positivity_and_symmetry(self, mod15):
        rng = np.random.default_rng(0)
        x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
        self_ip = inner(x, x)
        assert self_ip.imag == pytest.approx(0.0, abs=1e-15)
        assert self_ip.real >= 0
        assert inner(x, y) == pytest.approx(np.conj(inner(y, x)), abs=1e-15)

    def test_modulus_mismatch(self, mod15):
        other = Modulus(3, 7)
        with pytest.raises(ModulusMismatch):
            inner(zero_sequence(mod15), zero_sequence(other))


class TestDzt:
    def test_impulse_at_zero(self, mod15):
        X = dzt(basis_vector(mod15, 0))
        expected = np.zeros((3, 5), dtype=complex)
        expected[0, :] = 1 / np.sqrt(5)
        np.testing.assert_allclose(X.values, expected, atol=1e-15)

    def test_impulse_at_m(self, mod15):
        # e_3 sits at delay row 0, decimation slot p = 1
        X = dzt(basis_vector(mod15, 3))
        l = np.arange(5)
        np.testing.assert_allclose(X.values[0], np.exp(-2j * np.pi * l / 5) / np.sqrt(5), atol=1e-15)
        np.testing.assert_allclose(X.values[1:], 0, atol=1e-15)

    def test_fft_path_matches_direct_oracle(self, mod15):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rand_unit_seq(mod15, rng)
            np.testing.assert_allclose(dzt(x).values, dzt_direct(x).values, atol=1e-12)
            X = dzt(x)
            np.testing.assert_allclose(idzt(X).samples, idzt_direct(X).samples, atol=1e-12)

    def test_round_trips(self, mod15):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rand_unit_seq(mod15, rng)
            np.testing.assert_allclose(idzt(dzt(x)).samples, x.samples, atol=1e-12)
        for _ in range(20):
            vals = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
            X = QuasiPeriodicArray(mod15, vals)
            np.testing.assert_allclose(dzt(idzt(X)).values, X.values, atol=1e-12)

    def test_zero_array(self, mod15):
        np.testing.assert_array_equal(idzt(zero_array(mod15)).samples, 0)

    def test_unitarity(self, mod15):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rand_unit_seq(mod15, rng), rand_unit_seq(mod15, rng)
            assert inner(x, y) == pytest.approx(inner_dd(dzt(x), dzt(y)), abs=1e-12)


class TestExtend:
    def test_rules(self, mod15):
        rng = np.random.default_rng(4)
        X = QuasiPeriodicArray(mod15, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        for k in range(3):
            for l in range(5):
                assert extend(X, k, l) == X.values[k, l]
                assert extend(X, k + 3, l) == pytest.approx(np.exp(2j * np.pi * l / 5) * X.values[k, l], abs=1e-12)
                assert extend(X, k, l + 5) == pytest.approx(X.values[k, l], abs=1e-12)

    def test_quasi_periodicity_over_window(self, mod15):
        # exhaustive over a 3MN x 3MN window centred at the origin
        rng = np.random.default_rng(5)
        X = QuasiPeriodicArray(mod15, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        for k in range(-22, 23):
            for l in range(-22, 23):
                assert extend(X, k + 3, l) == pytest.approx(
                    np.exp(2j * np.pi * (l % 5) / 5) * extend(X, k, l), abs=1e-12
                )
                assert extend(X, k, l + 5) == pytest.approx(extend(X, k, l), abs=1e-12)

    def test_delay_shift_phase_reduced_in_the_ring(self, mod15):
        # n = 5e12 + 1 delay periods is n = 1 mod N: the same phase exactly, not a float near it
        rng = np.random.default_rng(6)
        X = QuasiPeriodicArray(mod15, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        for l in range(5):
            assert extend(X, 3 * (5 * 10**12 + 1) + 1, l) == extend(X, 4, l)


class TestBasisVrs:
    def test_first_window(self, mod15):
        v = basis_vrs(0, 0, mod15)
        np.testing.assert_allclose(v.samples[:3], 1 / np.sqrt(3), atol=1e-15)
        np.testing.assert_allclose(v.samples[3:], 0, atol=1e-15)

    def test_orthonormality(self, mod15):
        vs = [basis_vrs(r, s, mod15) for r in range(5) for s in range(3)]
        gram = np.array([[inner(a, b) for b in vs] for a in vs])
        np.testing.assert_allclose(gram, np.eye(15), atol=1e-12)

    def test_dzt_closed_form(self, mod15):
        for r in range(5):
            for s in range(3):
                X = dzt(basis_vrs(r, s, mod15)).values
                k = np.arange(3)[:, None]
                l = np.arange(5)[None, :]
                expected = (
                    np.exp(2j * np.pi * s * k / 3)
                    * np.exp(-2j * np.pi * (r - k // 3) * l / 5)
                    / np.sqrt(15)
                )
                np.testing.assert_allclose(X, expected, atol=1e-12)


class TestCsv:
    def test_sequence_round_trip(self, mod15, tmp_path):
        rng = np.random.default_rng(6)
        x = rand_unit_seq(mod15, rng)
        path = tmp_path / "seq.csv"
        sequence_to_csv(x, path)
        back = sequence_from_csv(path, mod15)
        np.testing.assert_array_equal(back.samples, x.samples)

    def test_bad_header_rejected(self, mod15, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(ConfigurationError):
            sequence_from_csv(path, mod15)

    @pytest.mark.parametrize(
        "line, edit",
        [
            (5, lambda f: "2,2" + f[3:]),  # index past the shape
            (5, lambda f: "-1,2" + f[3:]),  # a negative index would wrap
            (5, lambda f: "1.0,2" + f[3:]),  # non-integer index
            (3, lambda f: f[:4] + "x" + f[4:]),  # non-numeric value
            (6, lambda f: "0,0" + f[3:]),  # a repeat of line 1 in place of (1, 2): the count still holds
            (2, lambda f: f.rsplit(",", 1)[0] + "\n"),  # one field short
            (2, lambda f: f[:-1] + ",0\n"),  # one field over
        ],
        ids=["past-shape", "negative", "non-integer", "non-numeric", "repeated", "short", "long"],
    )
    def test_unreadable_line_rejected(self, tmp_path, line, edit):
        path = tmp_path / "m.csv"
        values = np.arange(6).reshape(2, 3) * (1 + 0.5j)
        complex_to_csv(values, path)
        np.testing.assert_array_equal(ddcore.complex_from_csv(path, (2, 3)), values)
        lines = path.read_text().splitlines(keepends=True)
        lines[line] = edit(lines[line])
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError):
            ddcore.complex_from_csv(path, (2, 3))

    @pytest.mark.parametrize("line, match", [(0, "header"), (3, "data line 3")])
    def test_non_ascii_byte_rejected(self, tmp_path, line, match):
        path = tmp_path / "m.csv"
        complex_to_csv(np.arange(6).reshape(2, 3) * (1 + 0.5j), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line] = "é".encode("utf-8") + lines[line]
        path.write_bytes(b"".join(lines))
        with pytest.raises(ConfigurationError, match=match):
            ddcore.complex_from_csv(path, (2, 3))


def _every_kernel_path(shape, seed: int) -> np.ndarray:
    """Random values of many magnitudes, with specials spread through both float columns:
    zeros of both signs, NaN, infinities, the smallest subnormal, 1e300, the tie 2**-25,
    values >= 10 and values whose 17 digits end in 0000 (both the general mantissa)."""
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.exp(
        rng.uniform(-30, 8, shape)
    )
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, 2.0**-25,
                12.5, -1234.5678, 1e15, 0.5, 0.0625, -3.0, 1.5e-7]
    flat = values.reshape(-1)
    flat.real[::7] = np.resize(specials, flat[::7].size)
    flat.imag[3::11] = np.resize(specials[::-1], flat[3::11].size)
    return values


class TestCsvBlocks:
    # (61, 37) is 2257 lines and (2500,) 2500, written from blocks of 3 rows and
    # 333 values.  Every constant below 37 makes one matrix row wider than a
    # block, so the writer holds one row; 100 and 2048 cut the incoming blocks
    # into views of 2 and 55 rows (100 and 2048 values); the default takes
    # every incoming block in one pass
    @pytest.mark.parametrize("block_rows", [1, 7, 36, 100, 2048, ddcore._CSV_BLOCK_ROWS])
    @pytest.mark.parametrize("shape, step", [((61, 37), 3), ((2500,), 333)], ids=["matrix", "vector"])
    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch, shape, step, block_rows):
        values = _every_kernel_path(shape, sum(shape))
        complex_to_csv_rows(values, tmp_path / "oracle.csv")
        monkeypatch.setattr(ddcore, "_CSV_BLOCK_ROWS", block_rows)
        blocks = (values[start : start + step] for start in range(0, shape[0], step))
        complex_to_csv(blocks, tmp_path / "blocks.csv", shape)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_memory_is_one_block_not_the_surface(self, tmp_path):
        """A 667 x 667 surface streamed in 12-row blocks peaks no higher than a
        12 x 667 one, give or take less than one block's kernel workspace."""
        cols = 667

        def peak(rows: int) -> int:
            def blocks():
                rng = np.random.default_rng(2)
                for start in range(0, rows, 12):
                    n = min(12, rows - start)
                    yield rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))

            tracemalloc.start()
            try:
                complex_to_csv(blocks(), tmp_path / f"{rows}.csv", (rows, cols))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        workspace = floatfmt.Workspace(3 * ddcore._CSV_BLOCK_ROWS)  # three floats per line
        one_block = workspace._words.nbytes + workspace._masks.nbytes
        peak(12)  # builds the formatter's cached tables, which the runs below share
        assert peak(cols) - peak(12) < one_block
