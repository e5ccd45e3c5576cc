"""Unit and integration tests for the baseline SZ pipeline."""

import numpy as np
import pytest

from repro.sz import ErrorBound, SZCompressor
from repro.sz.pipeline import decode_integer_stream, decode_integer_streams, encode_integer_stream


class TestIntegerStream:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        residuals = rng.integers(-100, 100, size=5000)
        sections, meta = encode_integer_stream(residuals, "huffman", "zlib")
        decoded = decode_integer_stream(sections, meta)
        assert np.array_equal(decoded, residuals)

    def test_outliers_round_trip(self):
        residuals = np.array([0, 1, -2, 10**6, -(10**7), 3], dtype=np.int64)
        sections, meta = encode_integer_stream(residuals, "huffman", "zlib", radius=100)
        assert meta["outliers"] == 2
        assert np.array_equal(decode_integer_stream(sections, meta), residuals)

    @pytest.fixture()
    def two_outliers(self):
        residuals = np.array([0, 1, -2, 10**6, 4, -(10**7), 3, 2], dtype=np.int64)
        sections, meta = encode_integer_stream(residuals, "huffman", "zlib", radius=100)
        assert meta["outliers"] == 2
        return sections, meta

    @staticmethod
    def _tampered(sections, name, values):
        import zlib

        sections = dict(sections)
        sections[f"residual.{name}"] = zlib.compress(np.asarray(values, dtype=np.int64).tobytes())
        return sections

    @pytest.mark.parametrize(
        "name, values",
        [
            ("outlier_positions", [0, 1]),  # not the escape positions
            ("outlier_positions", [3, 10**6]),  # outside the stream
            ("outlier_positions", [3]),  # one escape left without a value
            ("outlier_values", [7]),  # one value for two positions
        ],
        ids=["wrong-positions", "out-of-range", "missing-position", "short-values"],
    )
    def test_outlier_sections_must_match_the_escapes(self, two_outliers, name, values):
        sections, meta = two_outliers
        with pytest.raises(ValueError):
            decode_integer_stream(self._tampered(sections, name, values), meta)

    def test_outlier_position_must_stay_in_its_own_stream(self):
        import zlib

        first, meta_a = encode_integer_stream(np.array([1, 2, 3]), "huffman", "zlib", prefix="a")
        second, meta_b = encode_integer_stream(np.array([10**6, 4, 5]), "huffman", "zlib", prefix="b")
        sections = {**first, **second}
        decoded = decode_integer_streams(sections, [meta_a, meta_b])
        assert [r.tolist() for r in decoded] == [[1, 2, 3], [10**6, 4, 5]]
        # stream b's escape, claimed by stream a: position 3 is one past a's end
        sections["a.outlier_positions"] = zlib.compress(np.array([3], dtype=np.int64).tobytes())
        sections["a.outlier_values"] = sections.pop("b.outlier_values")
        del sections["b.outlier_positions"]
        with pytest.raises(ValueError, match="outside its stream"):
            decode_integer_streams(sections, [{**meta_a, "outliers": 1}, {**meta_b, "outliers": 0}])

    def test_zlib_mode(self):
        residuals = np.arange(-50, 50)
        sections, meta = encode_integer_stream(residuals, "zlib", "zlib")
        assert meta["entropy"] == "zlib"
        assert np.array_equal(decode_integer_stream(sections, meta), residuals)

    def test_raw_mode(self):
        residuals = np.arange(-5, 5)
        sections, meta = encode_integer_stream(residuals, "raw", "raw")
        assert np.array_equal(decode_integer_stream(sections, meta), residuals)

    def test_huffman_fallback_when_alphabet_huge(self):
        rng = np.random.default_rng(1)
        residuals = rng.integers(-10**6, 10**6, size=70000)
        sections, meta = encode_integer_stream(residuals, "huffman", "zlib", radius=2**40)
        assert meta["entropy"] == "zlib"  # too many distinct symbols for Huffman
        assert np.array_equal(decode_integer_stream(sections, meta), residuals)


class TestSZCompressor:
    @pytest.mark.parametrize("predictor", ["lorenzo", "interpolation", "regression"])
    def test_error_bound_2d(self, cesm_small, predictor):
        data = cesm_small["FLUT"].data
        comp = SZCompressor(error_bound=ErrorBound.relative(1e-3), predictor=predictor)
        result = comp.compress(data)
        recon = comp.decompress(result.payload)
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= result.abs_error_bound * (1 + 1e-9)
        assert result.ratio > 1.0

    @pytest.mark.parametrize("predictor", ["lorenzo", "interpolation"])
    def test_error_bound_3d(self, hurricane_small, predictor):
        data = hurricane_small["Pf"].data
        comp = SZCompressor(error_bound=ErrorBound.relative(1e-3), predictor=predictor)
        result = comp.compress(data)
        recon = comp.decompress(result.payload)
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= result.abs_error_bound * (1 + 1e-9)

    def test_absolute_error_bound(self):
        rng = np.random.default_rng(0)
        data = (rng.normal(size=(40, 40)) * 10).astype(np.float32)
        comp = SZCompressor(error_bound=ErrorBound.absolute(0.05))
        result = comp.compress(data)
        recon = comp.decompress(result.payload)
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= 0.05 * (1 + 1e-9)

    def test_tighter_bound_lower_ratio(self, cesm_small):
        data = cesm_small["CLDTOT"].data
        loose = SZCompressor(error_bound=ErrorBound.relative(1e-2)).compress(data)
        tight = SZCompressor(error_bound=ErrorBound.relative(1e-4)).compress(data)
        assert loose.ratio > tight.ratio

    def test_result_accounting(self, cesm_small):
        data = cesm_small["LWCF"].data
        result = SZCompressor().compress(data)
        assert result.original_nbytes == data.nbytes
        assert result.compressed_nbytes == len(result.payload)
        assert np.isclose(result.bit_rate, 8 * result.compressed_nbytes / data.size)
        assert "residual.symbols" in result.section_sizes
        assert "ratio" in result.summary() or "x" in result.summary()

    def test_smooth_data_compresses_well(self):
        x = np.linspace(0, 2 * np.pi, 256)
        data = np.sin(x)[None, :] * np.cos(x)[:, None]
        result = SZCompressor(error_bound=ErrorBound.relative(1e-3)).compress(data.astype(np.float32))
        assert result.ratio > 10

    def test_dtype_preserved(self, cesm_small):
        data = cesm_small["FLNT"].data
        comp = SZCompressor()
        recon = comp.decompress(comp.compress(data).payload)
        assert recon.dtype == data.dtype
        assert recon.shape == data.shape

    def test_wrong_format_rejected(self, cesm_small):
        comp = SZCompressor()
        result = comp.compress(cesm_small["FLNT"].data)
        from repro.zfp import ZFPLikeCompressor

        with pytest.raises(ValueError):
            ZFPLikeCompressor().decompress(result.payload)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SZCompressor(predictor="unknown")
        with pytest.raises(ValueError):
            SZCompressor(entropy="unknown")
        with pytest.raises(TypeError):
            SZCompressor(error_bound=1e-3)

    def test_4d_rejected(self):
        with pytest.raises(ValueError):
            SZCompressor().compress(np.zeros((2, 2, 2, 2), dtype=np.float32))

    def test_1d_supported(self):
        rng = np.random.default_rng(5)
        data = np.cumsum(rng.normal(size=4096)).astype(np.float32)
        comp = SZCompressor(error_bound=ErrorBound.relative(1e-3))
        result = comp.compress(data)
        recon = comp.decompress(result.payload)
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= result.abs_error_bound * (1 + 1e-9)
