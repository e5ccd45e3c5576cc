"""A chunk whose CRC holds but whose codec cannot decode it is corruption.

Each case writes one field ``x`` of a single chunk through a codec whose
``encode`` is patched to emit a payload the matching ``decode`` rejects.  The
archive CRC covers those bytes, so only the codec notices.  The reader must
raise :class:`~repro.store.manifest.ArchiveCorruptionError` naming the field
and chunk, and the service must answer 500 as ``docs/service.md`` documents —
not 404 (a bare ``KeyError``), 422 (a bare ``ValueError``) or an escaping
``zlib.error`` / ``AttributeError`` — in process and over HTTP.
"""

import json
import urllib.error
import urllib.request
import zlib

import numpy as np
import pytest

from repro.encoding.container import CompressedBlob
from repro.encoding.huffman import _V2_HEADER
from repro.serve.http import serve_in_thread
from repro.serve.service import ArchiveService
from repro.store import ArchiveReader, ArchiveWriter
from repro.store.codecs import LosslessChunkCodec, SZChunkCodec
from repro.store.manifest import ArchiveCorruptionError
from repro.store.shared_cache import SharedChunkCache
from repro.sz import ErrorBound, SZCompressor
from repro.zfp import ZFPLikeCompressor


def _lossless_blob(chunk, sections):
    blob = CompressedBlob(
        metadata={
            "format": LosslessChunkCodec.format_name,
            "shape": list(chunk.shape),
            "dtype": str(chunk.dtype),
            "backend": "zlib",
        },
        sections=sections,
    )
    return blob.to_bytes()


def _missing_data_section(self, chunk, anchors=None):
    return _lossless_blob(chunk, {})


def _data_not_zlib(self, chunk, anchors=None):
    return _lossless_blob(chunk, {"data": b"not zlib data"})


def _metadata_is_a_list(self, chunk, anchors=None):
    return CompressedBlob(metadata=[1, 2]).to_bytes()


def _corrupt_hfv2_symbols(self, chunk, anchors=None):
    blob = CompressedBlob.from_bytes(SZCompressor(self.error_bound).compress(chunk).payload)
    # a checkpoint interval of zero is a header no encoder writes
    symbols = _V2_HEADER.pack(b"HFV2", 0, 64, 64, 0) + bytes(8)
    blob.sections["residual.symbols"] = zlib.compress(symbols)
    return blob.to_bytes()


#: case id -> (codec, chunk shape, replacement encode)
CASES = {
    "lossless-missing-data": (LosslessChunkCodec, (4, 4), _missing_data_section),
    "sz-corrupt-hfv2": (SZChunkCodec, (8, 8), _corrupt_hfv2_symbols),
    "lossless-not-zlib": (LosslessChunkCodec, (4, 4), _data_not_zlib),
    "metadata-json-list": (LosslessChunkCodec, (4, 4), _metadata_is_a_list),
}


@pytest.fixture(params=sorted(CASES))
def corrupt_archive(request, tmp_path, monkeypatch):
    """One field ``x``, one chunk, CRC-valid and undecodable."""
    codec, shape, encode = CASES[request.param]
    path = tmp_path / "a.xfa"
    data = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
    monkeypatch.setattr(codec, "encode", encode)
    with ArchiveWriter(path, chunk_shape=shape) as writer:
        writer.add_field("x", data, codec=codec.name)
    monkeypatch.undo()
    return path


def test_service_answers_500_naming_field_and_chunk(corrupt_archive):
    with ArchiveService({"a": corrupt_archive}, cache=SharedChunkCache()) as service:
        response = service.dispatch("GET", "/archives/a/fields/x/region")
    assert response.status == 500
    assert "field 'x' chunk 0" in response.body.decode()


def test_reader_raises_typed_error(corrupt_archive):
    with ArchiveReader(corrupt_archive) as reader:
        with pytest.raises(ArchiveCorruptionError, match="field 'x' chunk 0: ") as caught:
            reader.read_field("x")
        report = reader.verify(deep=True)
    assert caught.value.__cause__ is not None  # the codec's own error stays attached
    assert not report["ok"]
    assert report["errors"] == [str(caught.value)]


@pytest.mark.parametrize(
    "decode",
    [
        SZCompressor(ErrorBound.absolute(1e-3)).decompress,
        ZFPLikeCompressor(ErrorBound.absolute(1e-3)).decompress,
        LosslessChunkCodec().decode,
    ],
    ids=["sz", "zfp", "lossless"],
)
def test_non_object_metadata_is_a_value_error(decode):
    with pytest.raises(ValueError, match="not an object"):
        decode(CompressedBlob(metadata=[1, 2]).to_bytes())


def test_http_server_answers_500(corrupt_archive):
    service = ArchiveService({"a": corrupt_archive}, cache=SharedChunkCache())
    server, thread = serve_in_thread(service)
    try:
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(server.url + "/archives/a/fields/x/region", timeout=10)
        status, body = caught.value.code, caught.value.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()
    assert status == 500
    assert "field 'x' chunk 0" in json.loads(body)["detail"]
