"""Frame bytes of the golden workload, pinned.

Codec work that claims "fixed cost only, bytes unchanged" is checked here:
every fog layer-1 node's acquired batch of the committed golden workload
(``ShardedWorkload.golden()``, the workload behind ``ingest_golden.json``),
and the whole city's rows as one frame (long enough for the dictionary-coded
column layouts), are encoded as plain and extended frames and compared against
``data/frame_golden.json``.  What is pinned is the frame *before* deflate —
header fields and the raw body — so the fixture does not depend on the zlib
build; the compressed form is checked by decoding it back.  Regenerate
deliberately with:

    REPRO_UPDATE_FRAME_GOLDEN=1 PYTHONPATH=src python -m pytest tests/common/test_frame_golden.py
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.common import serialization as ser
from repro.core.architecture import F2CDataManagement
from repro.runtime.shards import ShardedWorkload, WorkerSpec, build_shard_rounds
from repro.sensors.catalog import BARCELONA_CATALOG
from repro.sensors.generator import ReadingGenerator
from repro.sensors.readings import ReadingColumns

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "frame_golden.json"
LAYOUTS = ("extended", "binary-v2")


def _acquired_batches():
    """The golden workload's drained fog L1 batches, canonical node order."""
    workload = ShardedWorkload.golden()
    system = F2CDataManagement(catalog=BARCELONA_CATALOG)
    generator = ReadingGenerator(
        BARCELONA_CATALOG, devices_per_type=workload.devices_per_type, seed=workload.seed
    )
    spec = WorkerSpec(shard_index=0, workers=1, workload=workload, catalog=BARCELONA_CATALOG)
    for timestamp, readings in build_shard_rounds(spec, system, generator):
        system.api_pipeline.ingest_rows(readings, now=timestamp)
    batches = [node.drain_for_upward().columns for node in system.fog1_nodes()]
    city = ReadingColumns()
    for columns in batches:
        city.extend_columns(columns)
    return batches + [city]


def _encode(columns: ReadingColumns, layout: str) -> bytes:
    return columns.encode_frame_extended() if layout == "extended" else columns.encode_frame()


def _before_deflate(frame: bytes) -> bytes:
    """The frame with its body inflated and its size/CRC fields left out."""
    start = len(ser.BINARY_FRAME_MAGIC)
    version, flags, n, _, raw_len, _, _ = ser._HEADER_V2.unpack_from(frame, start)
    stored = frame[start + ser._HEADER_V2.size:]
    if flags & ser._FLAG_DICT_COMPRESSED:
        stored = ser._inflate_body(stored, raw_len, ser._v2_codec()[2].copy())
    flags &= ser._FLAG_EXTENDED
    assert len(stored) == raw_len
    return bytes([version, flags]) + n.to_bytes(4, "little") + bytes(stored)


def _digests(batches):
    digests = {}
    for layout in LAYOUTS:
        sha = hashlib.sha256()
        size = 0
        for columns in batches:
            raw = _before_deflate(_encode(columns, layout))
            sha.update(len(raw).to_bytes(4, "little") + raw)
            size += len(raw)
        digests[layout] = {"frames": len(batches), "bytes_before_deflate": size, "sha256": sha.hexdigest()}
    return digests


@pytest.fixture(scope="module")
def batches():
    return _acquired_batches()


def test_golden_workload_frames_match_the_committed_bytes(batches):
    actual = _digests(batches)
    if os.environ.get("REPRO_UPDATE_FRAME_GOLDEN") == "1":
        GOLDEN_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert actual == json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_decoded_frames_re_encode_to_the_same_bytes(batches, layout):
    # Decoding adopts the binary decoders' typed columns as they are; if one
    # came back as anything but what the encoder was given, the second
    # encoding would differ from the first.
    for columns in batches:
        frame = _encode(columns, layout)
        decoded = ReadingColumns.decode_frame(frame)
        if layout != "extended":
            decoded.tags, decoded.fog_node_ids = columns.tags, columns.fog_node_ids
        assert _encode(decoded, layout) == frame
        assert [type(column) for column in (decoded.timestamps, decoded.sizes, decoded.sequences)] == [
            type(ReadingColumns().compact().timestamps), type(ReadingColumns().compact().sizes), list
        ]


def test_canonical_json_encoder_is_json_dumps():
    entries = [
        None, "fog1/district-01/section-01", {}, {"b": 1, "a": {"d": [1.5, None, True], "c": "é☃"}},
        {"quality_score": 0.9, "collected_at": 900.0, "city": "barcelona", "category": "noise"},
    ]
    for entry in entries:
        assert ser._canonical_json(entry) == json.dumps(entry, sort_keys=True, separators=(",", ":"))
