"""Supervisor fault-path tests over scripted worker streams.

The integration tests kill real workers; these tests instead hand the
supervisor hand-crafted byte streams (real worker output, then corrupted,
truncated, reordered or replaced), pinning down every detection branch:
damage before READY, mid-sync stream corruption, explicit worker ERROR
messages, skipped sync points, death between a BATCH and its SYNC_DONE,
death before FINAL — and the
``dropped_ipc_frames`` accounting the supervisor surfaces for records it
had to throw away.
"""

import hashlib
import io
import json
import pathlib
import sys

import pytest

from repro.common import serialization
from repro.common.errors import ConfigurationError
from repro.common.serialization import FrameStreamReader, encode_stream_frame
from repro.runtime import ipc
from repro.runtime.shards import ShardedWorkload, WorkerSpec, run_shard
from repro.runtime.supervisor import ShardSupervisor, WorkerFailure
from repro.sensors.catalog import BARCELONA_CATALOG
from tests.runtime.test_ipc import rejected_batches

GOLDEN_PATH = pathlib.Path(__file__).parent / ".." / "integration" / "data" / "ingest_golden.json"


def worker_stream(shard_index: int, workers: int) -> bytes:
    """The exact byte stream a healthy worker writes for the golden plan."""
    buffer = io.BytesIO()
    writer = ipc.MessageWriter(buffer.write)
    run_shard(
        WorkerSpec(
            shard_index=shard_index, workers=workers,
            workload=ShardedWorkload.golden(), catalog=BARCELONA_CATALOG,
        ),
        writer.send,
    )
    return buffer.getvalue()


class _ScriptedChannel:
    def __init__(self, data: bytes) -> None:
        self.reader = ipc.MessageReader(io.BytesIO(data).read)
        self.go_signals = 0

    def send_go(self) -> None:
        self.go_signals += 1

    def close(self) -> None:
        pass

    def join(self) -> None:
        pass


class ScriptedSupervisor(ShardSupervisor):
    """A supervisor whose shard (re)spawns pop from per-shard script lists."""

    def __init__(self, scripts, **kwargs):
        super().__init__(workers=len(scripts), inline=True, **kwargs)
        self._scripts = [list(per_shard) for per_shard in scripts]

    def _spawn(self, shard):
        shard.channel = _ScriptedChannel(self._scripts[shard.spec.shard_index].pop(0))
        shard.started = False


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def healthy_streams():
    return [worker_stream(i, 2) for i in range(2)]


def _first_record_span(stream: bytes) -> int:
    reader = io.BytesIO(stream)
    FrameStreamReader(reader.read).read_frame()
    return reader.tell()


#: SHA-256 of the golden-plan worker byte streams, per (workers, shard).
#: Pinned on the encoder that interned and packed row by row, so the
#: C-level encoder is held to the same bytes: READY, BATCH frames,
#: SYNC_DONE and FINAL, framing included.
WORKER_STREAM_SHA256 = {
    (1, 0): "9e5cccd9917be9524c19f303f9cd078bc14dc24f14062f803e9e9ae30c66d47a",
    (2, 0): "dede06e5d5b8b83f5319dd7b337d1bdc3f7238f7d88fdfe9ea42037f857c3e25",
    (2, 1): "801b7e30c9699028c49ed4fc0877b10a68a0fd0f521809a9466dc34c83895a3e",
}


def _batch_payloads(stream: bytes):
    reader = FrameStreamReader(io.BytesIO(stream).read)
    payloads = []
    while (payload := reader.read_frame()) is not None:
        if payload[0] == ipc.MSG_BATCH:
            payloads.append(payload)
    return payloads


class TestWorkerStreamBytes:
    @pytest.mark.parametrize("workers,shard_index", sorted(WORKER_STREAM_SHA256))
    def test_worker_stream_is_byte_identical(self, workers, shard_index):
        stream = worker_stream(shard_index, workers)
        assert hashlib.sha256(stream).hexdigest() == WORKER_STREAM_SHA256[workers, shard_index]


class TestBatchDecodeStructure:
    """What decoding a BATCH keeps shared, and how it parses identity tables.

    The stores hold every decoded tag dict and fog id for the life of the
    deployment, so keys, string values and fog ids must be the interned
    objects every other frame decodes to.  Each identity table is parsed
    from one joined text in one scan (the scanner starts once at each
    entry); the per-entry ``json.loads`` reference runs for no table of a
    healthy stream.
    """

    @pytest.fixture(scope="class")
    def decoded(self, healthy_streams):
        return [
            ipc.decode_message(payload)[1]["batches"]
            for stream in healthy_streams
            for payload in _batch_payloads(stream)
        ]

    def test_tag_dicts_from_two_frames_share_keys_and_string_values(self, decoded):
        assert len(decoded) == 2
        first, second = (next(iter(batches.values())).tags[0] for batches in decoded)
        assert first is not second
        first_keys = {key: key for key in first}
        assert set(first_keys) == set(second)
        shared_values = 0
        for key in second:
            assert first_keys[key] is key
            assert sys.intern(key) is key
            value = second[key]
            if type(value) is str:
                assert sys.intern(value) is value
                if first[key] == value:
                    assert first[key] is value
                    shared_values += 1
        assert shared_values >= 2  # at least "city" and "category"

    def test_fog_ids_are_interned(self, decoded):
        fog_ids = [
            fog_id
            for batches in decoded
            for columns in batches.values()
            for fog_id in columns.fog_node_ids
        ]
        assert fog_ids and all(sys.intern(fog_id) is fog_id for fog_id in fog_ids)

    def test_identity_tables_parse_in_one_scan_each(self, healthy_streams, monkeypatch):
        calls = {"scans": 0, "entries": 0, "per_entry": 0, "loads": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        for name, owner, attribute in (
            ("scans", serialization, "_scan_json_table"),
            ("entries", serialization, "_scan_entry"),
            ("per_entry", serialization, "_decode_json_entries"),
            ("loads", serialization.json, "loads"),
        ):
            monkeypatch.setattr(owner, attribute, counted(name, getattr(owner, attribute)))
        payloads = [payload for stream in healthy_streams for payload in _batch_payloads(stream)]
        tables = {"tags": 0, "fog ids": 0}
        for payload in payloads:
            batches = ipc.decode_message(payload)[1]["batches"]
            tags = {id(tag) for columns in batches.values() for tag in columns.tags}
            fog_ids = {fog_id for columns in batches.values() for fog_id in columns.fog_node_ids}
            tables["tags"] += len(tags)
            tables["fog ids"] += len(fog_ids)
        assert calls["per_entry"] == 0 and calls["loads"] == 0
        assert calls["scans"] == 2 * len(payloads)  # one tag table + one fog-id table per frame
        assert calls["entries"] == tables["tags"] + tables["fog ids"]


class TestScriptedHappyPath:
    def test_scripted_streams_reproduce_golden(self, healthy_streams, golden):
        supervisor = ScriptedSupervisor([[s] for s in healthy_streams])
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.dropped_ipc_frames == 0
        assert result.worker_restarts == 0


class TestFrameFormatArgument:
    """``frame_format`` names the one BATCH layout or is an error."""

    @pytest.mark.parametrize("frame_format", [None, "binary-v2"])
    def test_the_binary_layout_is_accepted(self, frame_format, healthy_streams, golden):
        supervisor = ScriptedSupervisor([[s] for s in healthy_streams], frame_format=frame_format)
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.dropped_ipc_frames == 0

    @pytest.mark.parametrize("frame_format", ["binary", "json", "msgpack"])
    def test_any_other_layout_is_a_configuration_error(self, frame_format):
        with pytest.raises(ConfigurationError, match=repr(frame_format)):
            ShardSupervisor(workers=2, inline=True, frame_format=frame_format)


class TestPreReadyFailures:
    """Every damage mode before READY restarts the worker."""

    def test_eof_before_ready(self, healthy_streams, golden):
        supervisor = ScriptedSupervisor(
            [[b"", healthy_streams[0]], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.worker_restarts == 1
        assert result.failure_state.is_node_failed("worker-0")

    def test_corrupt_stream_before_ready(self, healthy_streams, golden):
        supervisor = ScriptedSupervisor(
            [[healthy_streams[0]], [b"\xde\xad\xbe\xef", healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.worker_restarts == 1
        assert result.dropped_ipc_frames >= 1

    def test_error_message_before_ready(self, healthy_streams, golden):
        dying = encode_stream_frame(ipc.encode_error("worker setup exploded"))
        supervisor = ScriptedSupervisor(
            [[dying, healthy_streams[0]], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert "exploded" in result.worker_faults[0]["reason"]

    def test_unexpected_message_before_ready(self, healthy_streams, golden):
        weird = encode_stream_frame(ipc.encode_sync_done(0, []))
        supervisor = ScriptedSupervisor(
            [[weird + healthy_streams[0], healthy_streams[0]], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.worker_restarts == 1


class TestMidProtocolFailures:
    def test_truncated_stream_mid_sync_restarts_and_matches_golden(
        self, healthy_streams, golden
    ):
        # Cut the worker's stream off in the middle of its batch flow.
        cut = len(healthy_streams[0]) // 2
        supervisor = ScriptedSupervisor(
            [[healthy_streams[0][:cut], healthy_streams[0]], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.worker_restarts == 1

    def test_error_message_mid_sync_restarts(self, healthy_streams, golden):
        ready_span = _first_record_span(healthy_streams[0])
        erroring = (
            healthy_streams[0][:ready_span]
            + encode_stream_frame(ipc.encode_error("acquisition crashed"))
        )
        supervisor = ScriptedSupervisor(
            [[erroring, healthy_streams[0]], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert any("crashed" in fault["reason"] for fault in result.worker_faults)

    def test_well_framed_malformed_sync_done_is_a_fault_not_a_crash(
        self, healthy_streams, golden
    ):
        # CRC-valid framing around a semantically bogus SYNC_DONE body: the
        # message fails decoding, is counted as a dropped record, and the
        # shard is re-run — the supervisor must not crash in its merge step.
        ready_span = _first_record_span(healthy_streams[0])
        bogus_body = bytes([ipc.MSG_SYNC_DONE]) + b"\x00\x00\x00\x00" + json.dumps(
            {"edge_transfers": ["bogus"]}
        ).encode()
        malformed = healthy_streams[0][:ready_span] + encode_stream_frame(bogus_body)
        supervisor = ScriptedSupervisor(
            [[malformed, healthy_streams[0]], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.worker_restarts == 1
        assert result.dropped_ipc_frames >= 1

    def test_final_with_unknown_node_id_is_a_fault_not_a_crash(
        self, healthy_streams, golden
    ):
        # Structurally valid FINAL whose stats name a node that does not
        # exist: caught at the merge and answered with a shard re-run.
        final_payload = ipc.encode_final({"fog1/not-a-section": {}}, {})
        # Replace the healthy stream's FINAL with the bogus one.  The
        # healthy FINAL is the last record; find its start by scanning.
        stream = healthy_streams[0]
        reader_buf = io.BytesIO(stream)
        frame_reader = FrameStreamReader(reader_buf.read)
        last_start = 0
        while True:
            position = reader_buf.tell()
            if frame_reader.read_frame() is None:
                break
            last_start = position
        doctored = stream[:last_start] + encode_stream_frame(final_payload)
        supervisor = ScriptedSupervisor(
            [[doctored, stream], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.worker_restarts == 1
        assert any("unknown node" in fault["reason"] for fault in result.worker_faults)

    def test_skipped_sync_point_is_a_fault(self, healthy_streams, golden):
        ready_span = _first_record_span(healthy_streams[0])
        skipping = (
            healthy_streams[0][:ready_span]
            + encode_stream_frame(ipc.encode_sync_done(5, []))
        )
        supervisor = ScriptedSupervisor(
            [[skipping, healthy_streams[0]], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert any("skipped sync point" in fault["reason"] for fault in result.worker_faults)

    def test_death_before_final_replays_and_discards(self, healthy_streams, golden):
        # Everything up to (but not including) FINAL, then EOF: the restart
        # replays all sync points, which must be discarded by index.
        final_payload = ipc.encode_final({}, {})
        final_span = len(encode_stream_frame(final_payload))
        # The healthy stream's last record is FINAL; chop a suffix larger
        # than any FINAL record to guarantee it is gone.
        truncated = healthy_streams[0][: len(healthy_streams[0]) - final_span]
        supervisor = ScriptedSupervisor(
            [[truncated, healthy_streams[0]], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.worker_restarts == 1


class TestDeathBetweenBatchAndSyncDone:
    """A BATCH that arrived whole is still not absorbed without its SYNC_DONE."""

    @pytest.mark.parametrize("workers", [1, 2, 4], ids=lambda w: f"workers{w}")
    def test_worker_killed_mid_barrier_is_rerun_to_the_golden_digest(self, workers, golden):
        durability = json.loads(
            GOLDEN_PATH.with_name("durability_golden.json").read_text(encoding="utf-8")
        )
        streams = [worker_stream(i, workers) for i in range(workers)]
        victim = workers - 1
        # Cut the victim's stream right after its BATCH record: the whole
        # sync point reached the supervisor, the SYNC_DONE closing it never
        # does.
        buffer = io.BytesIO(streams[victim])
        frames = FrameStreamReader(buffer.read)
        while ipc.decode_message(frames.read_frame())[0] != ipc.MSG_BATCH:
            pass
        killed = streams[victim][: buffer.tell()]
        assert ipc.decode_message(frames.read_frame())[0] == ipc.MSG_SYNC_DONE
        scripts = [[stream] for stream in streams]
        scripts[victim] = [killed, streams[victim]]
        result = ScriptedSupervisor(scripts).run()
        assert result.worker_restarts == 1
        assert result.failure_state.is_node_failed(f"worker-{victim}")
        assert "exited mid-protocol" in result.worker_faults[0]["reason"]
        # Nothing of the dead worker's barrier was absorbed, and the re-run's
        # was absorbed once.
        assert result.total_readings_absorbed == golden["storage"]["cloud"]["ingested_readings"]
        assert result.golden_report() == golden
        assert result.cloud_digest() == durability["golden_workload_cloud_sha256"]


class TestDroppedFrameAccounting:
    def test_corrupted_batch_record_forces_shard_rerun_not_silent_loss(
        self, healthy_streams, golden
    ):
        """A CRC-corrupt BATCH must never be silently skipped.

        The reader resyncs past the record, but its readings are gone; if
        the supervisor completed the sync anyway the run would 'succeed'
        with divergent cloud contents.  Any dropped record in a worker's
        stream is therefore a shard failure: re-run from seed, end golden.
        """
        stream = healthy_streams[0]
        ready_span = _first_record_span(stream)
        corrupted = bytearray(stream)
        # Flip a bit inside the payload of the first record after READY —
        # a BATCH message on the golden plan.
        corrupted[ready_span + 13] ^= 0x01
        supervisor = ScriptedSupervisor(
            [[bytes(corrupted), stream], [healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.worker_restarts == 1
        assert result.dropped_ipc_frames >= 1
        assert any("records lost" in fault["reason"] for fault in result.worker_faults)

    @pytest.mark.parametrize("shape", sorted(rejected_batches()))
    def test_rejected_batch_shape_forces_shard_rerun(self, shape, healthy_streams, golden):
        """A well-framed BATCH the decoder refuses is a loss, not a gap.

        The worker's BATCH record is swapped for one the supervisor must
        not absorb — the retired version-1 frame with JSON sidecars, or a
        frame without the identity columns.  The record is dropped and
        counted, the sync point is incomplete, and the shard re-runs from
        seed to the golden digest.
        """
        stream = healthy_streams[0]
        buffer = io.BytesIO(stream)
        frames = FrameStreamReader(buffer.read)
        start = 0
        while True:
            payload = frames.read_frame()
            if ipc.decode_message(payload)[0] == ipc.MSG_BATCH:
                break
            start = buffer.tell()
        swapped = (
            stream[:start]
            + encode_stream_frame(rejected_batches()[shape])
            + stream[buffer.tell():]
        )
        result = ScriptedSupervisor([[swapped, stream], [healthy_streams[1]]]).run()
        assert result.golden_report() == golden
        assert result.worker_restarts == 1
        assert result.dropped_ipc_frames == 1
        assert any("records lost" in fault["reason"] for fault in result.worker_faults)

    def test_resynced_corruption_is_counted_and_survived(self, healthy_streams, golden):
        # Flip one payload bit inside the *second* worker's READY record:
        # the framing CRC rejects it, the reader resyncs, and the supervisor
        # counts the loss.  The READY never arrives, so the worker is
        # restarted — and the final report is still golden.
        corrupted = bytearray(healthy_streams[1])
        corrupted[14] ^= 0x01  # inside the first record's payload
        supervisor = ScriptedSupervisor(
            [[healthy_streams[0]], [bytes(corrupted), healthy_streams[1]]]
        )
        result = supervisor.run()
        assert result.golden_report() == golden
        assert result.dropped_ipc_frames >= 1

    def test_restart_budget_exhaustion(self, healthy_streams):
        supervisor = ScriptedSupervisor(
            [[b"", b"", b""], [healthy_streams[1]]], max_restarts=1
        )
        with pytest.raises(WorkerFailure):
            supervisor.run()
