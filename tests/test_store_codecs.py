"""Unit tests for the chunk-codec registry."""

import inspect

import numpy as np
import pytest

from repro.store import ArchiveReader, ArchiveWriter, TemporalSpec
from repro.store.codecs import (
    Codec,
    CrossFieldChunkCodec,
    LosslessChunkCodec,
    SZChunkCodec,
    ZFPChunkCodec,
    available_codecs,
    check_codec_params,
    codec_class,
    get_codec,
    register_codec,
)
from repro.sz.errors import ErrorBound


class TestRegistry:
    def test_builtin_codecs_registered(self):
        assert {"sz", "zfp", "cross-field", "lossless"} <= set(available_codecs())

    def test_get_codec_by_name(self):
        codec = get_codec("sz", error_bound=ErrorBound.absolute(0.5))
        assert isinstance(codec, SZChunkCodec)
        assert codec.error_bound == ErrorBound.absolute(0.5)

    def test_get_codec_passes_instances_through(self):
        instance = LosslessChunkCodec()
        assert get_codec(instance) is instance

    def test_unknown_codec(self):
        with pytest.raises(ValueError, match="unknown codec"):
            get_codec("snappy")
        with pytest.raises(ValueError, match="unknown codec"):
            codec_class("snappy")

    def test_register_rejects_non_codec(self):
        with pytest.raises(TypeError):
            register_codec(dict)

    def test_register_requires_name(self):
        class Nameless(Codec):
            def encode(self, chunk, anchors=None):
                return b""

            def decode(self, payload, anchors=None):
                return np.zeros(1)

            def params(self):
                return {}

        with pytest.raises(ValueError, match="name"):
            register_codec(Nameless)

    def test_register_custom_codec(self):
        class NegatedCodec(LosslessChunkCodec):
            name = "test-negated"

            def encode(self, chunk, anchors=None):
                return super().encode(-np.asarray(chunk))

            def decode(self, payload, anchors=None):
                return -super().decode(payload)

        register_codec(NegatedCodec)
        try:
            codec = get_codec("test-negated")
            data = np.arange(12, dtype=np.float32).reshape(3, 4)
            assert np.array_equal(codec.decode(codec.encode(data)), data)
        finally:
            from repro.store import codecs as codecs_module

            codecs_module._REGISTRY.pop("test-negated")

    def test_legacy_two_arg_decode_codec_still_reads(self, tmp_path):
        # a codec with the two-argument decode(payload, anchors) works through
        # every reader path: the reader passes nothing beyond the anchors,
        # on multi-chunk, single-chunk and deep-verify reads alike
        from repro.store import ArchiveReader, ArchiveWriter

        class LegacyCodec(LosslessChunkCodec):
            name = "test-legacy"

            def decode(self, payload, anchors=None):
                return super().decode(payload)

        register_codec(LegacyCodec)
        try:
            data = np.arange(64, dtype=np.float32).reshape(8, 8)
            path = tmp_path / "legacy.xfa"
            with ArchiveWriter(path, codec="test-legacy") as writer:
                writer.add_field("x", data)
            with ArchiveReader(path, jobs=2) as reader:
                assert np.array_equal(reader.read_field("x"), data)
                region = reader.read_region("x", (slice(1, 3), slice(2, 5)))
                assert np.array_equal(region, data[1:3, 2:5])
                assert reader.verify(deep=True)["ok"]
        finally:
            from repro.store import codecs as codecs_module

            codecs_module._REGISTRY.pop("test-legacy")

    def test_mixed_case_names_are_retrievable(self):
        class MixedCase(LosslessChunkCodec):
            name = "Test-MixedCase"

        register_codec(MixedCase)
        try:
            assert isinstance(get_codec("Test-MixedCase"), MixedCase)
            assert isinstance(get_codec("test-mixedcase"), MixedCase)
        finally:
            from repro.store import codecs as codecs_module

            codecs_module._REGISTRY.pop("test-mixedcase")

    def test_params_are_json_serialisable(self):
        import json

        for name in ("sz", "zfp", "cross-field", "lossless"):
            codec = get_codec(name)
            json.dumps(codec.params())


#: every built-in codec, constructed with no default left in place
NON_DEFAULT_PARAMS = {
    "sz": dict(
        error_bound=ErrorBound.absolute(0.5),
        predictor="regression",
        entropy="zlib",
        backend="raw",
        quant_radius=1000,
    ),
    "zfp": dict(
        error_bound=ErrorBound.absolute(0.5),
        block_size=3,
        entropy="raw",
        backend="raw",
        layout="interleaved",
    ),
    "cross-field": dict(
        error_bound=ErrorBound.absolute(0.5),
        epochs=2,
        n_patches=8,
        entropy="zlib",
        backend="raw",
        allow_fallback=False,
        seed=3,
    ),
    "lossless": dict(backend="raw"),
    "temporal-delta": dict(
        error_bound=ErrorBound.absolute(0.5), base="zfp", base_params={"block_size": 3}
    ),
}


@pytest.mark.parametrize("name", sorted(NON_DEFAULT_PARAMS))
@pytest.mark.parametrize("defaults", [True, False], ids=["defaults", "non-default"])
class TestParamsContract:
    """The manifest records ``params()``: it must name every constructor
    parameter and nothing else, and rebuild the same codec."""

    def codec(self, name, defaults):
        return get_codec(name) if defaults else get_codec(name, **NON_DEFAULT_PARAMS[name])

    def test_params_keys_are_the_constructor_parameters(self, name, defaults):
        params = self.codec(name, defaults).params()
        check_codec_params(name, params)
        accepted = set(inspect.signature(codec_class(name).__init__).parameters) - {"self"}
        assert set(params) == accepted

    def test_get_codec_reproduces_params(self, name, defaults):
        params = self.codec(name, defaults).params()
        assert get_codec(name, **params).params() == params


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["sz", "zfp"])
    def test_lossy_round_trip_within_bound(self, cesm_small, name):
        data = cesm_small["FLNT"].data[:32, :32]
        eb = ErrorBound.absolute(0.1)
        codec = get_codec(name, error_bound=eb)
        recon = codec.decode(codec.encode(data))
        assert recon.shape == data.shape
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= 0.1 * (1 + 1e-9)

    def test_lossless_round_trip_exact(self, rng):
        for dtype in (np.float32, np.float64):
            data = rng.normal(size=(7, 13)).astype(dtype)
            codec = get_codec("lossless")
            recon = codec.decode(codec.encode(data))
            assert recon.dtype == data.dtype
            assert np.array_equal(recon, data)

    def test_lossless_rejects_foreign_payload(self, rng):
        data = rng.normal(size=(8, 8)).astype(np.float32)
        payload = get_codec("sz", error_bound=ErrorBound.absolute(0.1)).encode(data)
        with pytest.raises(ValueError, match="format"):
            get_codec("lossless").decode(payload)

    def test_cross_field_round_trip_within_bound(self, cesm_small):
        target = cesm_small["CLDTOT"].data[:32, :32]
        anchors = [cesm_small[n].data[:32, :32].astype(np.float64) for n in ("CLDLOW", "CLDMED")]
        codec = get_codec("cross-field", error_bound=ErrorBound.absolute(0.01), epochs=2, n_patches=16)
        payload = codec.encode(target, anchors=anchors)
        recon = codec.decode(payload, anchors=anchors)
        assert np.max(np.abs(recon.astype(np.float64) - target.astype(np.float64))) <= 0.01 * (1 + 1e-9)

    def test_cross_field_requires_anchors(self, cesm_small):
        codec = get_codec("cross-field")
        assert codec.requires_anchors
        with pytest.raises(ValueError, match="anchor"):
            codec.encode(cesm_small["CLDTOT"].data[:16, :16])

    @pytest.mark.parametrize("params", [{"epochs": 0}, {"n_patches": -3}])
    def test_cross_field_rejects_untrainable_params(self, params):
        """Training parameters the CFNN cannot train with fail when the codec
        is built, not when its first chunk is encoded."""
        with pytest.raises(ValueError):
            get_codec("cross-field", **params)

    def test_add_field_rejects_untrainable_params_before_encoding(self, tmp_path, cesm_small):
        with ArchiveWriter(tmp_path / "a.xfa", chunk_shape=(16, 16)) as writer:
            writer.add_field("CLDLOW", cesm_small["CLDLOW"].data[:32, :32], codec="sz")
            with pytest.raises(ValueError, match="epochs"):
                writer.add_field(
                    "CLDTOT", cesm_small["CLDTOT"].data[:32, :32],
                    codec="cross-field", anchors=["CLDLOW"], epochs=0,
                )
            assert "CLDTOT" not in writer.manifest

    def test_error_bound_accepts_dict_form(self):
        codec = get_codec("sz", error_bound={"mode": "abs", "value": 0.25})
        assert codec.error_bound == ErrorBound.absolute(0.25)

    def test_params_round_trip_reconstructs_codec(self, cesm_small):
        data = cesm_small["LWCF"].data[:32, :32]
        original = get_codec("sz", error_bound=ErrorBound.absolute(0.05), entropy="zlib")
        clone = get_codec("sz", **original.params())
        payload = original.encode(data)
        assert np.array_equal(clone.decode(payload), original.decode(payload))
        assert clone.params() == original.params()


class TestFloat32Bound:
    """The absolute bound holds on what the reader returns: float32, no ulp slack."""

    @staticmethod
    def _steps():
        # |x| reaches ~9, where half a float32 ulp (4.8e-7) exceeds the
        # quantizer's relative margin of a 1e-5 bound (1e-8)
        rng = np.random.default_rng(0)
        base = np.cumsum(rng.normal(size=(16, 24)), axis=1).astype(np.float32)
        return [
            base + 0.05 * t + 0.01 * rng.normal(size=base.shape).astype(np.float32)
            for t in range(2)
        ]

    @pytest.mark.parametrize("codec", ["sz", "cross-field", "temporal-delta", "zfp"])
    def test_absolute_bound_holds_after_the_cast(self, tmp_path, codec):
        bound = 1e-5
        previous, data = self._steps()
        assert data.dtype == np.float32
        path = tmp_path / "a.xfa"
        with ArchiveWriter(path, error_bound=ErrorBound.absolute(bound)) as writer:
            if codec == "temporal-delta":
                for step in (previous, data):
                    writer.add_timestep({"T": step}, temporal=TemporalSpec(anchor_every=2))
                name = "T@1"
            elif codec == "cross-field":
                writer.add_field("A", previous)
                writer.add_field("T", data, codec=codec, anchors=("A",), epochs=1, n_patches=4)
                name = "T"
            else:
                writer.add_field("T", data, codec=codec)
                name = "T"
        with ArchiveReader(path) as reader:
            assert reader.field(name).codec == codec
            assert reader.field(name).abs_error_bound == bound
            recon = reader.read_field(name)
        assert recon.dtype == np.float32
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= bound
