"""repro: cross-field enhanced error-bounded lossy compression for scientific data.

Reproduction of "Enhancing Lossy Compression Through Cross-Field Information for
Scientific Applications" (SC 2024).  The package provides:

- :mod:`repro.sz` — an SZ3-style prediction-based error-bounded compressor
  (Lorenzo / regression / interpolation predictors, dual quantization, Huffman
  and lossless entropy stages) used as the baseline.
- :mod:`repro.core` — the paper's contribution: the cross-field neural network
  (CFNN), the hybrid prediction model, and the cross-field compressor that
  plugs them into the SZ pipeline.
- :mod:`repro.nn` — a pure-NumPy neural network substrate (convolutions,
  depthwise-separable convolutions, channel attention, Adam, training loop).
- :mod:`repro.data` — field containers, finite differences, SDRBench IO and
  synthetic multi-field datasets emulating SCALE-LETKF, CESM-ATM and Hurricane.
- :mod:`repro.metrics` — PSNR, SSIM, compression ratio, rate-distortion curves
  and cross-field correlation measures.
- :mod:`repro.parallel` — the chunk execution engine behind parallel archive
  writes and reads (chunks compress independently thanks to dual quantization).
- :mod:`repro.zfp` — a ZFP-style transform-based compressor for ablations.
- :mod:`repro.store` — a chunked random-access archive store (``XFA1``) with a
  codec registry over all compressors and the ``repro`` command line interface.
- :mod:`repro.pipeline` — the config-driven end-to-end pipeline unifying all of
  the above: :class:`~repro.pipeline.config.PipelineConfig` (JSON round-trip),
  :class:`~repro.pipeline.pipeline.CompressionPipeline`, and the scenario
  registry behind ``repro run``.
- :mod:`repro.experiments` — runners that regenerate every table and figure of
  the paper's evaluation section.

The ``docs/`` tree documents the architecture (``docs/architecture.md``), the
pipeline and its configuration schema (``docs/pipeline.md``), and the on-disk
archive format (``docs/xfa1-format.md``).

Quickstart
----------
>>> from repro.data import make_dataset
>>> from repro.core import CrossFieldCompressor
>>> from repro.sz import SZCompressor, ErrorBound
>>> ds = make_dataset("hurricane", shape=(16, 48, 48))
>>> baseline = SZCompressor(error_bound=ErrorBound.relative(1e-3))
>>> result = baseline.compress(ds["Wf"].data)
>>> round(result.ratio, 1) > 1.0
True
"""

from repro._version import __version__

__all__ = ["__version__"]
