"""Compression of accumulated batches at fog layer 1.

"As data is collected and transmitted to an upper level delayed, there are
some options to accumulate a reasonable amount of data and compute
compression, in order to obviously reduce the amount of data transfer."
(Section V.A.)

The paper used the Zip format and measured 1,360,043,206 bytes compressing
down to 295,428,463 bytes (≈78 % reduction).  Two implementations are
provided:

* :class:`DeflateCompression` — actually compresses the batch's wire
  encoding with ``zlib`` (the DEFLATE algorithm Zip uses) and reports the
  measured compressed size.
* :class:`CalibratedCompression` — applies a fixed compression ratio,
  defaulting to the paper's measured factor, for analytic estimates where
  generating and compressing terabytes of synthetic payload would be
  pointless.
"""

from __future__ import annotations

import zlib

from repro.common.errors import ConfigurationError
from repro.aggregation.base import AggregationResult, AggregationTechnique
from repro.sensors.catalog import PAPER_COMPRESSION_RATIO
from repro.sensors.readings import ReadingBatch


class DeflateCompression(AggregationTechnique):
    """Compresses the batch's encoded payload with DEFLATE (zlib).

    The logical readings pass through unchanged (the receiver decompresses
    and recovers them); the result's ``encoded_bytes`` is the size actually
    transmitted.
    """

    name = "deflate_compression"

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise ConfigurationError("zlib compression level must be in [0, 9]")
        self.level = level

    def apply(self, batch: ReadingBatch) -> AggregationResult:
        payload = batch.encode()
        compressed = zlib.compress(payload, self.level)
        measured_ratio = (len(compressed) / len(payload)) if payload else 1.0
        return self._result(
            batch,
            batch,
            encoded_bytes=len(compressed),
            uncompressed_bytes=len(payload),
            measured_ratio=round(measured_ratio, 4),
            level=self.level,
        )

    @staticmethod
    def decompress(payload: bytes) -> bytes:
        """Inverse transform, provided for round-trip tests."""
        return zlib.decompress(payload)


class CalibratedCompression(AggregationTechnique):
    """Applies a fixed compression ratio to the batch's byte volume.

    Used by the analytic traffic estimator to reproduce the paper's Fig. 7
    numbers: the ratio defaults to the paper's measured Zip factor
    (≈0.217, i.e. ≈78 % reduction).
    """

    name = "calibrated_compression"

    def __init__(self, ratio: float = PAPER_COMPRESSION_RATIO) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ConfigurationError("compression ratio must be in (0, 1]")
        self.ratio = ratio

    def apply(self, batch: ReadingBatch) -> AggregationResult:
        compressed_bytes = int(round(batch.total_bytes * self.ratio))
        return self._result(
            batch,
            batch,
            encoded_bytes=compressed_bytes,
            ratio=self.ratio,
        )
