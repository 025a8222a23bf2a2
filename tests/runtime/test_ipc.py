"""Unit tests for the worker ↔ supervisor IPC layer.

Covers the length-prefixed stream framing (clean round trips, EOF
semantics, resync-able vs fatal corruption), the typed message codecs
(including the batch message's node table and in-frame tag/fog columns,
and the BATCH shapes it rejects), and the
``dropped_frames`` accounting of :class:`MessageReader` — the
``dropped_payloads``-style counter for the process boundary.
"""

import base64
import io
import json
import os
import pathlib
import struct

import pytest

from repro.common.serialization import (
    FrameStreamReader,
    FrameStreamWriter,
    StreamFrameError,
    encode_stream_frame,
)
from repro.runtime import ipc
from repro.sensors.readings import Reading, ReadingColumns


REJECTED_FRAMES = pathlib.Path(__file__).parent / ".." / "common" / "data" / "rejected_frames.json"


def _reader_over(data: bytes) -> FrameStreamReader:
    return FrameStreamReader(io.BytesIO(data).read)


def _columns(n=3, tags=True) -> ReadingColumns:
    columns = ReadingColumns()
    shared_tag = {"city": "barcelona", "quality_score": 1.0, "fog_node": "fog1/d-01/s-01"}
    for i in range(n):
        columns.append_row(
            f"sensor-{i:03d}",
            "temperature",
            "energy",
            20.0 + i,
            float(i),
            "fog1/d-01/s-01" if i % 2 == 0 else None,
            22,
            i,
            shared_tag if (tags and i % 2 == 0) else ({"solo": i} if tags else None),
        )
    return columns


def _assert_same_columns(decoded: ReadingColumns, columns: ReadingColumns) -> None:
    assert decoded.sensor_ids == columns.sensor_ids
    assert decoded.sensor_types == columns.sensor_types
    assert decoded.categories == columns.categories
    assert decoded.values == columns.values
    assert list(decoded.timestamps) == list(columns.timestamps)
    assert list(decoded.sizes) == list(columns.sizes)
    assert list(decoded.sequences) == list(columns.sequences)
    assert decoded.fog_node_ids == columns.fog_node_ids
    assert decoded.tags == columns.tags
    assert decoded.total_bytes == columns.total_bytes


def _batch_with_frame(sync_index, nodes, frame: bytes) -> bytes:
    """A BATCH in the wire shape with an arbitrary column frame in it."""
    out = bytearray([ipc.MSG_BATCH]) + struct.pack("<IH", sync_index, len(nodes))
    for node_id, rows in nodes:
        raw = node_id.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<I", rows)
    return bytes(out + struct.pack("<I", len(frame)) + frame)


def rejected_batches():
    """BATCH payloads no supervisor may absorb, keyed by a short name.

    The retired shape — a version-1 frame followed by JSON tag and fog-id
    sidecars, as an old worker wrote it — and the current shape carrying a
    plain (non-extended) frame, whose rows would arrive without tags or
    fog nodes.
    """
    fixture = json.loads(REJECTED_FRAMES.read_text(encoding="utf-8"))["v1_batch"]
    columns = ReadingColumns()
    nodes = [("a", _columns(2)), ("b", _columns(3))]
    for _, node_columns in nodes:
        columns.extend_columns(node_columns)
    plain = _batch_with_frame(
        0, [(node_id, len(c)) for node_id, c in nodes], columns.encode_frame()
    )
    return {
        "v1-frame-with-sidecars": base64.b64decode(fixture["base64"]),
        "non-extended-frame": plain,
    }


class TestStreamFraming:
    def test_round_trip_through_bytesio(self):
        payloads = [b"", b"a", b"hello world" * 100, bytes(range(256))]
        buffer = io.BytesIO()
        writer = FrameStreamWriter(buffer.write)
        for payload in payloads:
            writer.write_frame(payload)
        buffer.seek(0)
        reader = FrameStreamReader(buffer.read)
        assert [reader.read_frame() for _ in payloads] == payloads
        assert reader.read_frame() is None  # clean EOF, repeatable
        assert reader.read_frame() is None

    def test_round_trip_through_os_pipe(self):
        read_fd, write_fd = os.pipe()
        try:
            writer = FrameStreamWriter(lambda data: os.write(write_fd, data))
            # Stays under the pipe buffer so writes complete before reads.
            payloads = [b"x" * 10, b"y" * 1000]
            for payload in payloads:
                writer.write_frame(payload)
            os.close(write_fd)
            write_fd = None
            reader = FrameStreamReader(lambda n: os.read(read_fd, n))
            assert [reader.read_frame() for _ in payloads] == payloads
            assert reader.read_frame() is None
        finally:
            os.close(read_fd)
            if write_fd is not None:
                os.close(write_fd)

    def test_partial_writes_are_retried(self):
        buffer = io.BytesIO()

        def trickle(data) -> int:  # writes one byte at a time
            buffer.write(bytes(data[:1]))
            return 1

        FrameStreamWriter(trickle).write_frame(b"payload")
        assert _reader_over(buffer.getvalue()).read_frame() == b"payload"

    @pytest.mark.parametrize("cut", [1, 3, 4, 8, 11, 12, 15])
    def test_every_truncation_is_rejected(self, cut):
        encoded = encode_stream_frame(b"abcd")
        assert len(encoded) == 16
        reader = _reader_over(encoded[:cut])
        with pytest.raises(StreamFrameError) as excinfo:
            reader.read_frame()
        assert not excinfo.value.resynced

    def test_truncation_mid_second_frame_still_yields_first(self):
        stream = encode_stream_frame(b"first") + encode_stream_frame(b"second")[:-2]
        reader = _reader_over(stream)
        assert reader.read_frame() == b"first"
        with pytest.raises(StreamFrameError):
            reader.read_frame()

    def test_bad_magic_is_fatal(self):
        encoded = bytearray(encode_stream_frame(b"abcd"))
        encoded[1] = ord("X")
        with pytest.raises(StreamFrameError) as excinfo:
            _reader_over(bytes(encoded)).read_frame()
        assert not excinfo.value.resynced

    def test_payload_corruption_resyncs(self):
        # A flipped payload bit fails the CRC but the span was consumed
        # whole: the next frame must still be readable.
        first = bytearray(encode_stream_frame(b"abcd"))
        first[-1] ^= 0x01
        stream = bytes(first) + encode_stream_frame(b"intact")
        reader = _reader_over(stream)
        with pytest.raises(StreamFrameError) as excinfo:
            reader.read_frame()
        assert excinfo.value.resynced
        assert reader.read_frame() == b"intact"

    def test_oversized_length_is_rejected_without_allocation(self):
        reader = FrameStreamReader(
            io.BytesIO(encode_stream_frame(b"abcd")).read, max_frame_bytes=2
        )
        with pytest.raises(StreamFrameError) as excinfo:
            reader.read_frame()
        assert not excinfo.value.resynced

    def test_interleaved_partial_writes_are_rejected(self):
        # A half-written record spliced with another writer's record: the
        # framing must never surface either payload as valid.
        a = encode_stream_frame(b"A" * 40)
        b = encode_stream_frame(b"B" * 40)
        spliced = a[: len(a) // 2] + b
        reader = _reader_over(spliced)
        with pytest.raises(StreamFrameError):
            while reader.read_frame() is not None:
                pass


class TestMessageCodecs:
    def test_ready_round_trip(self):
        assert ipc.decode_message(ipc.encode_ready()) == (ipc.MSG_READY, {})

    def test_ready_trailing_bytes_rejected(self):
        with pytest.raises(ipc.IpcProtocolError):
            ipc.decode_message(ipc.encode_ready() + b"x")

    def test_batch_round_trip_preserves_rows_and_node_boundaries(self):
        nodes = [("fog1/d-01/s-01", _columns(3)), ("fog1/d-01/s-02", _columns(5)),
                 ("fog1/d-02/s-01", _columns(1))]
        msg_type, body = ipc.decode_message(ipc.encode_batch(7, nodes))
        assert msg_type == ipc.MSG_BATCH
        assert body["sync_index"] == 7
        # The node table comes back in the order it was sent.
        assert list(body["batches"]) == [node_id for node_id, _ in nodes]
        for node_id, columns in nodes:
            _assert_same_columns(body["batches"][node_id], columns)

    def test_batch_tag_sharing_survives_the_boundary(self):
        # Rows that shared one tag dict (the acquisition loop's memo) must
        # come back sharing one dict — same memory shape, not just equality
        # — inside a node and across the nodes of one batch.
        first, second = _columns(n=6), _columns(n=4)
        second.tags[1] = first.tags[0]
        _, body = ipc.decode_message(
            ipc.encode_batch(0, [("a", first), ("b", second)])
        )
        tags_a, tags_b = body["batches"]["a"].tags, body["batches"]["b"].tags
        assert tags_a[0] is tags_a[2] is tags_a[4]
        assert tags_a[1] is not tags_a[3]  # distinct dicts stay distinct
        assert tags_b[1] is tags_a[0]
        # Equal but separately built dicts are not merged.
        assert tags_b[0] == tags_a[0] and tags_b[0] is not tags_a[0]

    def test_batch_none_tags_and_fogs(self):
        columns = _columns(tags=False)
        _, body = ipc.decode_message(ipc.encode_batch(0, [("node", columns)]))
        assert body["batches"]["node"].tags == columns.tags
        assert body["batches"]["node"].fog_node_ids == columns.fog_node_ids

    def test_empty_batches_round_trip(self):
        _, body = ipc.decode_message(ipc.encode_batch(1, []))
        assert body == {"sync_index": 1, "batches": {}}
        nodes = [("a", ReadingColumns()), ("b", _columns(2)), ("c", ReadingColumns())]
        _, body = ipc.decode_message(ipc.encode_batch(1, nodes))
        assert [len(columns) for columns in body["batches"].values()] == [0, 2, 0]

    def test_batch_from_acquired_reading_batches(self):
        # The real producer: fog L1 nodes' drained acquired batches.
        from repro.core.nodes import FogNodeLevel1
        from repro.sensors.readings import ReadingBatch

        drained = []
        for name in ("x", "y"):
            node = FogNodeLevel1(node_id=f"fog1/{name}", section_id=name)
            readings = [
                Reading(
                    sensor_id=f"{name}-{i}", sensor_type="temperature", category="energy",
                    value=float(i), timestamp=1.0, size_bytes=30,
                )
                for i in range(5)
            ]
            node.ingest(ReadingBatch(readings), now=1.0)
            drained.append((node.node_id, node.drain_for_upward().columns))
        _, body = ipc.decode_message(ipc.encode_batch(0, drained))
        for node_id, columns in drained:
            decoded = body["batches"][node_id]
            assert decoded.tags == columns.tags
            assert decoded.fog_node_ids == [node_id] * len(columns)

    def test_batch_shape_helper_matches_the_encoder(self):
        # The BATCH frame is the extended frame, byte for byte.
        nodes = [("a", _columns(2)), ("b", _columns(3))]
        columns = ReadingColumns()
        for _, node_columns in nodes:
            columns.extend_columns(node_columns)
        assert _batch_with_frame(
            4, [(node_id, len(c)) for node_id, c in nodes], columns.encode_frame_extended()
        ) == ipc.encode_batch(4, nodes)

    def test_retired_v1_batch_fails_on_its_frame_version(self):
        with pytest.raises(ipc.IpcProtocolError, match="version: 1"):
            ipc.decode_message(rejected_batches()["v1-frame-with-sidecars"])

    def test_non_extended_frame_fails_for_its_missing_identity_columns(self):
        with pytest.raises(ipc.IpcProtocolError, match="does not carry tags and fog ids"):
            ipc.decode_message(rejected_batches()["non-extended-frame"])

    def test_json_frame_batch_is_rejected(self):
        fixture = json.loads(REJECTED_FRAMES.read_text(encoding="utf-8"))["json_section_frame"]
        frame = base64.b64decode(fixture["base64"])
        payload = _batch_with_frame(0, [("a", fixture["rows"])], frame)
        with pytest.raises(ipc.IpcProtocolError, match="column frame is invalid"):
            ipc.decode_message(payload)

    def test_batch_trailing_bytes_rejected(self):
        payload = ipc.encode_batch(0, [("node", _columns())])
        with pytest.raises(ipc.IpcProtocolError, match="trailing bytes"):
            ipc.decode_message(payload + b"\x00")

    def test_batch_truncations_rejected(self):
        payload = ipc.encode_batch(0, [("a", _columns(2)), ("b", _columns(3))])
        for cut in range(1, len(payload)):
            with pytest.raises(ipc.IpcProtocolError):
                ipc.decode_message(payload[:cut])

    def test_batch_truncated_node_table_rejected(self):
        # A table that claims more entries than it holds runs into the frame
        # bytes: whatever it reads there, the message is rejected.
        payload = bytearray(ipc.encode_batch(0, [("a", _columns(2)), ("b", _columns(3))]))
        assert payload[5:7] == b"\x02\x00"
        payload[5:7] = b"\x03\x00"
        with pytest.raises(ipc.IpcProtocolError):
            ipc.decode_message(bytes(payload))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_batch_counts_must_sum_to_the_frame_rows(self, delta):
        payload = bytearray(ipc.encode_batch(0, [("a", _columns(2)), ("b", _columns(3))]))
        # header (1 + 4 + 2), then per entry: u16 length, id, u32 count.
        first_count = 7 + 2 + 1
        assert payload[first_count:first_count + 4] == b"\x02\x00\x00\x00"
        payload[first_count] += delta
        with pytest.raises(ipc.IpcProtocolError, match="node table counts"):
            ipc.decode_message(bytes(payload))

    def test_batch_duplicate_node_id_rejected(self):
        payload = ipc.encode_batch(0, [("a", _columns(2)), ("a", _columns(3))])
        with pytest.raises(ipc.IpcProtocolError, match="repeats a node id"):
            ipc.decode_message(payload)

    def test_batch_undecodable_node_id_rejected(self):
        payload = bytearray(ipc.encode_batch(0, [("a", _columns(2))]))
        assert payload[9:10] == b"a"
        payload[9] = 0xFF
        with pytest.raises(ipc.IpcProtocolError, match="UTF-8"):
            ipc.decode_message(bytes(payload))

    def test_sync_done_round_trip(self):
        transfers = [
            {"timestamp": 900.0, "source": "sensors/a", "target": "fog1/a",
             "size_bytes": 123, "message_count": 4},
        ]
        msg_type, body = ipc.decode_message(ipc.encode_sync_done(2, transfers))
        assert msg_type == ipc.MSG_SYNC_DONE
        assert body == {"sync_index": 2, "edge_transfers": transfers}

    def test_final_round_trip(self):
        stats = {"fog1/a": {"stored_readings": 5, "stored_bytes": 110}}
        counters = {"dropped_payloads": 0}
        msg_type, body = ipc.decode_message(ipc.encode_final(stats, counters))
        assert msg_type == ipc.MSG_FINAL
        assert body == {"fog1_stats": stats, "counters": counters}

    def test_error_round_trip(self):
        msg_type, body = ipc.decode_message(ipc.encode_error("boom\ntraceback"))
        assert msg_type == ipc.MSG_ERROR
        assert body["text"] == "boom\ntraceback"

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            bytes([99]),
            bytes([ipc.MSG_BATCH]),
            bytes([ipc.MSG_SYNC_DONE]) + b"\x00",
            bytes([ipc.MSG_SYNC_DONE]) + b"\x00\x00\x00\x00not json",
            bytes([ipc.MSG_FINAL]) + b"[]",
            bytes([ipc.MSG_FINAL]) + b'{"fog1_stats": 1, "counters": {}}',
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ipc.IpcProtocolError):
            ipc.decode_message(payload)

    @pytest.mark.parametrize(
        "transfers",
        [
            ["bogus"],
            [{"timestamp": "nan", "source": "a", "target": "b", "size_bytes": 1}],
            [{"timestamp": 1.0, "source": "a", "target": "b", "size_bytes": -1}],
            [{"timestamp": 1.0, "source": "a", "target": "b"}],
            [{"timestamp": 1.0, "source": 3, "target": "b", "size_bytes": 1}],
            [{"timestamp": 1.0, "source": "a", "target": "b", "size_bytes": 1,
              "message_count": -2}],
            [{"timestamp": True, "source": "a", "target": "b", "size_bytes": 1}],
            [{"timestamp": 1.0, "source": "a", "target": "b", "size_bytes": True}],
            [{"timestamp": 1.0, "source": "a", "target": "b", "size_bytes": 1,
              "message_count": True}],
            [{"timestamp": 1.0, "source": "a", "target": "b", "size_bytes": 1,
              "message_count": False}],
        ],
    )
    def test_malformed_edge_transfers_fail_decoding_not_the_merge(self, transfers):
        # A well-framed SYNC_DONE with bad records must die here (dropped +
        # counted → shard re-run), never reach the supervisor's merge step.
        with pytest.raises(ipc.IpcProtocolError):
            ipc.decode_message(ipc.encode_sync_done(0, transfers))

    @pytest.mark.parametrize(
        "stats,counters",
        [
            ({"fog1/a": 5}, {}),
            ({}, {"dropped_payloads": "many"}),
            ({}, {"dropped_payloads": True}),
            ({}, {"dropped_payloads": False}),
        ],
    )
    def test_malformed_final_bodies_rejected(self, stats, counters):
        with pytest.raises(ipc.IpcProtocolError):
            ipc.decode_message(ipc.encode_final(stats, counters))

    def test_boolean_counts_are_dropped_and_counted_by_the_reader(self):
        # JSON ``true`` is a Python int; as a message count or a FINAL
        # counter it is still a malformed message, skipped and counted.
        stream = io.BytesIO()
        writer = ipc.MessageWriter(stream.write)
        transfer = {"timestamp": 1.0, "source": "a", "target": "b", "size_bytes": 1}
        writer.send(ipc.encode_sync_done(0, [dict(transfer, message_count=True)]))
        writer.send(ipc.encode_final({}, {"dropped_payloads": True}))
        writer.send(ipc.encode_final({}, {"dropped_payloads": 1}))
        reader = ipc.MessageReader(io.BytesIO(stream.getvalue()).read)
        assert reader.read_message() == (
            ipc.MSG_FINAL, {"fog1_stats": {}, "counters": {"dropped_payloads": 1}},
        )
        assert reader.read_message() is None
        assert reader.dropped_frames == 2


class TestMessageReaderAccounting:
    """``dropped_ipc_frames``-style accounting at the reader."""

    @staticmethod
    def _stream(*frames: bytes) -> bytes:
        return b"".join(encode_stream_frame(frame) for frame in frames)

    def test_clean_stream_drops_nothing(self):
        data = self._stream(ipc.encode_ready(), ipc.encode_error("x"))
        reader = ipc.MessageReader(io.BytesIO(data).read)
        assert reader.read_message()[0] == ipc.MSG_READY
        assert reader.read_message()[0] == ipc.MSG_ERROR
        assert reader.read_message() is None
        assert reader.dropped_frames == 0

    def test_crc_corrupt_record_is_dropped_and_counted(self):
        first = bytearray(encode_stream_frame(ipc.encode_ready()))
        first[-1] ^= 0x40  # payload bit flip: framing CRC fails, resyncs
        data = bytes(first) + encode_stream_frame(ipc.encode_error("ok"))
        reader = ipc.MessageReader(io.BytesIO(data).read)
        msg_type, body = reader.read_message()
        assert (msg_type, body["text"]) == (ipc.MSG_ERROR, "ok")
        assert reader.dropped_frames == 1

    def test_valid_frame_with_invalid_message_is_dropped_and_counted(self):
        data = self._stream(bytes([99]) + b"junk", ipc.encode_ready())
        reader = ipc.MessageReader(io.BytesIO(data).read)
        assert reader.read_message()[0] == ipc.MSG_READY
        assert reader.dropped_frames == 1

    def test_structural_corruption_counts_then_raises(self):
        data = self._stream(ipc.encode_ready())[:-3]  # truncated record
        reader = ipc.MessageReader(io.BytesIO(data).read)
        with pytest.raises(StreamFrameError):
            reader.read_message()
        assert reader.dropped_frames == 1

    def test_never_partial_ingest_under_batch_corruption(self):
        # A corrupted batch record must vanish whole: the reader yields the
        # surrounding intact messages only.
        good = ipc.encode_batch(0, [("node", _columns())])
        corrupted = bytearray(encode_stream_frame(good))
        corrupted[30] ^= 0x10
        data = (
            encode_stream_frame(ipc.encode_ready())
            + bytes(corrupted)
            + encode_stream_frame(ipc.encode_sync_done(0, []))
        )
        reader = ipc.MessageReader(io.BytesIO(data).read)
        assert reader.read_message()[0] == ipc.MSG_READY
        assert reader.read_message()[0] == ipc.MSG_SYNC_DONE
        assert reader.read_message() is None
        assert reader.dropped_frames == 1

    @pytest.mark.parametrize("shape", sorted(rejected_batches()))
    def test_rejected_batch_shape_is_dropped_and_counted(self, shape):
        data = self._stream(
            ipc.encode_ready(), rejected_batches()[shape], ipc.encode_sync_done(0, [])
        )
        reader = ipc.MessageReader(io.BytesIO(data).read)
        assert reader.read_message()[0] == ipc.MSG_READY
        assert reader.read_message()[0] == ipc.MSG_SYNC_DONE
        assert reader.read_message() is None
        assert reader.dropped_frames == 1
