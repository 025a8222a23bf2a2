"""Unit tests for the durable segment log (repro.storage.segments).

Covers the on-disk contract in isolation: a record is a sync point (parts
accumulate in memory, ``commit`` writes them as one record), multi-part
round trips, reopen-time index rebuild from record envelopes and node
tables, truncated/corrupt tail repair (drop-and-count, never a partial
record), skipping of CRC-valid records the layout does not understand
(foreign envelopes, version-1 records, inconsistent node tables),
O(#segments) TTL drops and compaction.  The end-to-end crash/replay digest
proofs live in tests/integration/test_durability.py.
"""

from __future__ import annotations

import os
import struct
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError, ValidationError
from repro.common.serialization import encode_stream_frame
from repro.sensors.readings import ReadingColumns
from repro.storage.segments import (
    _ENVELOPE,
    _PART,
    SEGMENT_LOG_SUFFIX,
    SEGMENT_RECORD_VERSION,
    DurableTierLogs,
    SegmentLog,
)
from tests.conftest import make_reading


def columns_of(
    count: int = 3,
    start: float = 0.0,
    step: float = 60.0,
    fog_node_id: str = "fog1/d-01/s-01",
    prefix: str = "sensor",
) -> ReadingColumns:
    """Columns with per-row tags and fog attribution, like acquired data."""
    return ReadingColumns.from_readings(
        make_reading(
            sensor_id=f"{prefix}-{index}",
            value=20.0 + index,
            timestamp=start + index * step,
            fog_node_id=fog_node_id,
            tags={"section": "s-01", "row": str(index)},
        )
        for index in range(count)
    )


def rows_of(columns: ReadingColumns):
    return list(
        zip(
            columns.timestamps,
            columns.sensor_ids,
            columns.values,
            columns.categories,
            columns.fog_node_ids,
            columns.tags,
        )
    )


def children_of(log: SegmentLog):
    """The delivering children of every live record, record by record."""
    return [[child for child, _, _ in segment.parts] for segment in log.segments]


def record_payload(parts, frame: bytes, rows=None, version=SEGMENT_RECORD_VERSION) -> bytes:
    """A hand-built record payload: envelope, node table, then *frame*."""
    total = sum(part_rows for _, part_rows, _ in parts) if rows is None else rows
    payload = _ENVELOPE.pack(version, len(parts), total, 0.0, 100.0)
    for child_id, part_rows, sync_time in parts:
        child = child_id.encode("utf-8")
        payload += _PART.pack(len(child), part_rows, sync_time) + child
    return payload + frame


def append_raw(log_path: str, payload: bytes) -> int:
    record = encode_stream_frame(payload)
    with open(log_path, "ab") as fh:
        fh.write(record)
    return len(record)


@pytest.fixture()
def log_path(tmp_path):
    return str(tmp_path / ("cloud" + SEGMENT_LOG_SUFFIX))


class TestAppendAndIndex:
    def test_the_segment_exists_after_commit(self, log_path):
        log = SegmentLog(log_path, node_id="cloud")
        columns = columns_of(4, start=100.0)
        assert log.append("fog2/d-01", columns, sync_time=900.0) is None
        # append only opens a sync point: nothing is indexed, encoded or
        # written until the boundary.
        assert log.segment_count == 0
        assert os.path.getsize(log_path) == 0
        log.commit()
        (segment,) = log.segments
        assert segment.parts == (("fog2/d-01", 4, 900.0),)
        assert segment.t_min == 100.0
        assert segment.t_max == 100.0 + 3 * 60.0
        assert segment.rows == 4
        assert segment.offset == 0
        assert segment.length == os.path.getsize(log_path)
        assert log.appended_rows == 4
        log.close()

    def test_a_sync_point_is_one_record_one_frame_one_fsync(self, log_path):
        log = SegmentLog(log_path)
        with mock.patch.object(
            ReadingColumns, "encode_frame_extended", autospec=True,
            side_effect=ReadingColumns.encode_frame_extended,
        ) as encode, mock.patch("os.fsync") as fsync:
            for index in range(5):
                log.append(f"fog2/d-0{index}", columns_of(2, start=index * 10.0), sync_time=900.0)
            assert encode.call_count == 0
            log.commit()
            assert encode.call_count == 1
            assert fsync.call_count == 1
            log.commit()  # nothing open, nothing unsynced: free
            assert encode.call_count == 1
            assert fsync.call_count == 1
        assert log.segment_count == 1
        assert len(log.segments[0].parts) == 5
        log.close()

    def test_empty_batches_are_not_recorded(self, log_path):
        log = SegmentLog(log_path)
        log.append("fog2/d-01", ReadingColumns(), sync_time=900.0)
        log.commit()
        assert log.segment_count == 0
        assert os.path.getsize(log_path) == 0
        # ...and an empty part among real ones leaves no table entry.
        log.append("fog2/d-01", columns_of(2), sync_time=900.0)
        log.append("fog2/d-02", ReadingColumns(), sync_time=900.0)
        log.commit()
        assert children_of(log) == [["fog2/d-01"]]
        log.close()

    def test_the_index_window_spans_every_part(self, log_path):
        log = SegmentLog(log_path)
        log.append("fog2/d-01", columns_of(2, start=1000.0), sync_time=1800.0)
        log.append("fog2/d-02", columns_of(2, start=0.0), sync_time=1800.0)
        log.commit()
        log.append("fog2/d-01", columns_of(2, start=5000.0), sync_time=5900.0)
        log.commit()
        first, second = log.segments
        assert (first.t_min, first.t_max) == (0.0, 1060.0)
        assert (second.t_min, second.t_max) == (5000.0, 5060.0)
        assert log.oldest_time() == 0.0
        log.close()

    def test_read_decodes_the_exact_rows(self, log_path):
        log = SegmentLog(log_path)
        columns = columns_of(5, start=42.0)
        log.append("fog2/d-01", columns, sync_time=900.0)
        log.commit()
        decoded = log.read(log.segments[0])
        assert rows_of(decoded) == rows_of(columns)
        log.close()

    def test_multi_part_round_trip(self, log_path):
        """Per-part child, sync time and rows; one tag dict stays one object."""
        shared = {"section": "s-01", "city": "barcelona"}
        batches = []
        for index in range(3):
            columns = columns_of(2 + index, start=index * 1000.0, prefix=f"p{index}")
            columns.tags = [shared] * len(columns)
            batches.append((f"fog1/d-01/s-0{index}", 900.0 + index, columns))
        log = SegmentLog(log_path)
        for child_id, sync_time, columns in batches:
            log.append(child_id, columns, sync_time)
        log.commit()
        log.close()

        reopened = SegmentLog(log_path)
        assert reopened.segment_count == 1
        whole = reopened.read(reopened.segments[0])
        assert rows_of(whole) == [row for _, _, columns in batches for row in rows_of(columns)]
        replayed = list(reopened.replay())
        assert [(child, sync) for child, sync, _ in replayed] == [
            (child, sync) for child, sync, _ in batches
        ]
        assert [rows_of(columns) for _, _, columns in replayed] == [
            rows_of(columns) for _, _, columns in batches
        ]
        # The extended frame interns tag dicts by identity over the whole
        # record, so rows of different parts still share the one dict.
        assert len({id(tags) for _, _, columns in replayed for tags in columns.tags}) == 1
        reopened.close()

    def test_close_writes_an_open_sync_point(self, log_path):
        log = SegmentLog(log_path)
        log.append("fog2/d-01", columns_of(2), sync_time=900.0)
        log.close()
        reopened = SegmentLog(log_path)
        assert children_of(reopened) == [["fog2/d-01"]]
        reopened.close()


class TestReopen:
    def test_index_rebuilds_from_envelopes(self, log_path):
        log = SegmentLog(log_path, node_id="cloud")
        log.append("fog2/d-01", columns_of(3, start=0.0), sync_time=900.0)
        log.append("fog2/d-02", columns_of(2, start=500.0), sync_time=900.5)
        log.commit()
        log.append("fog2/d-01", columns_of(4, start=1000.0), sync_time=1800.0)
        log.commit()
        original = log.segments
        log.close()

        # The rebuild reads envelopes and node tables only: no frame is decoded.
        with mock.patch.object(
            ReadingColumns, "decode_frame", side_effect=AssertionError("frame decoded on open")
        ):
            reopened = SegmentLog(log_path, node_id="cloud")
        assert reopened.segments == original
        assert reopened.dropped_records == 0
        assert children_of(reopened) == [["fog2/d-01", "fog2/d-02"], ["fog2/d-01"]]
        reopened.close()

    def test_replay_round_trips_tags_and_fog_ids(self, log_path):
        log = SegmentLog(log_path)
        batches = [columns_of(3, start=i * 1000.0, prefix=f"s{i}") for i in range(3)]
        for i, columns in enumerate(batches):
            log.append("fog2/d-01", columns, sync_time=(i + 1) * 900.0)
            log.commit()
        log.close()

        reopened = SegmentLog(log_path)
        replayed = [columns for _, _, columns in reopened.replay()]
        assert [rows_of(c) for c in replayed] == [rows_of(c) for c in batches]
        reopened.close()

    def test_appends_continue_after_reopen(self, log_path):
        log = SegmentLog(log_path)
        log.append("fog2/d-01", columns_of(2, start=0.0), sync_time=900.0)
        log.commit()
        log.close()

        reopened = SegmentLog(log_path)
        reopened.append("fog2/d-02", columns_of(2, start=100.0), sync_time=1800.0)
        reopened.commit()
        assert reopened.segments[1].offset == reopened.segments[0].length
        reopened.close()

        third = SegmentLog(log_path)
        assert third.segment_count == 2
        assert third.dropped_records == 0
        third.close()


class TestTailRepair:
    def _two_record_log(self, log_path):
        log = SegmentLog(log_path)
        log.append("fog2/d-01", columns_of(3, start=0.0), sync_time=900.0)
        log.commit()
        log.append("fog2/d-02", columns_of(3, start=1000.0), sync_time=1800.0)
        log.append("fog2/d-03", columns_of(3, start=1000.0), sync_time=1800.0)
        log.commit()
        log.close()

    def test_truncated_tail_is_dropped_and_counted(self, log_path):
        self._two_record_log(log_path)
        size = os.path.getsize(log_path)
        with open(log_path, "r+b") as fh:
            fh.truncate(size - 7)  # tear the last record mid-write

        log = SegmentLog(log_path)
        # The torn sync point never half-ingests: neither of its parts is back.
        assert children_of(log) == [["fog2/d-01"]]
        assert log.dropped_records == 1
        assert log.dropped_bytes > 0
        # The file was cut back to the last intact boundary...
        assert os.path.getsize(log_path) == log.segments[0].length
        # ...so new records land on a valid stream again.
        log.append("fog2/d-04", columns_of(2, start=2000.0), sync_time=2700.0)
        log.commit()
        log.close()
        healed = SegmentLog(log_path)
        assert children_of(healed) == [["fog2/d-01"], ["fog2/d-04"]]
        assert healed.dropped_records == 0
        healed.close()

    def test_corrupt_tail_crc_is_dropped_whole(self, log_path):
        self._two_record_log(log_path)
        size = os.path.getsize(log_path)
        with open(log_path, "r+b") as fh:
            fh.seek(size - 3)
            byte = fh.read(1)
            fh.seek(size - 3)
            fh.write(bytes([byte[0] ^ 0xFF]))

        log = SegmentLog(log_path)
        assert log.segment_count == 1
        assert log.dropped_records == 1
        assert os.path.getsize(log_path) == log.segments[0].length
        log.close()

    def _skipped_between_two_good_records(self, log_path, payload: bytes) -> None:
        """*payload*, CRC-valid, is counted and skipped; later records stay readable."""
        log = SegmentLog(log_path)
        log.append("fog2/d-01", columns_of(2, start=0.0), sync_time=900.0)
        log.commit()
        log.close()
        record_bytes = append_raw(log_path, payload)
        log = SegmentLog(log_path)
        log.append("fog2/d-02", columns_of(2, start=1000.0), sync_time=1800.0)
        log.commit()
        log.close()

        reopened = SegmentLog(log_path)
        assert children_of(reopened) == [["fog2/d-01"], ["fog2/d-02"]]
        assert reopened.dropped_records == 1
        assert reopened.dropped_bytes == record_bytes
        assert [len(columns) for _, _, columns in reopened.replay()] == [2, 2]
        reopened.close()

    def test_unknown_envelope_version_is_skipped_not_truncated(self, log_path):
        frame = columns_of(1).encode_frame_extended()
        self._skipped_between_two_good_records(
            log_path, record_payload([("fog2/d-09", 1, 900.0)], frame, version=99)
        )

    def test_a_version_1_record_is_skipped_and_counted(self, log_path):
        """The per-child layout this one replaced: version, child-id length,
        rows, sync time, timestamp span, child id, frame."""
        child = b"fog2/d-09"
        frame = columns_of(3).encode_frame_extended()
        v1 = struct.pack("<BHIddd", 1, len(child), 3, 900.0, 0.0, 120.0) + child + frame
        self._skipped_between_two_good_records(log_path, v1)

    def test_a_node_table_that_does_not_add_up_is_rejected(self, log_path):
        frame = columns_of(5).encode_frame_extended()
        parts = [("fog2/d-08", 2, 900.0), ("fog2/d-09", 2, 900.0)]  # 4 rows, envelope says 5
        self._skipped_between_two_good_records(log_path, record_payload(parts, frame, rows=5))

    def test_a_truncated_node_table_is_rejected(self, log_path):
        whole = record_payload([("fog2/d-08", 2, 900.0), ("fog2/d-09", 3, 900.0)], b"")
        for cut in (1, len("fog2/d-09"), len("fog2/d-09") + 3):
            path = f"{log_path}.{cut}"
            self._skipped_between_two_good_records(path, whole[:-cut])

    def test_a_frame_that_disagrees_with_its_envelope_is_never_partially_replayed(self, log_path):
        frame = columns_of(3).encode_frame_extended()  # the table promises 2 + 2
        parts = [("fog2/d-08", 2, 900.0), ("fog2/d-09", 2, 900.0)]
        append_raw(log_path, record_payload(parts, frame))
        log = SegmentLog(log_path)
        assert log.segment_count == 1  # the header is consistent; the frame is not
        with pytest.raises(StorageError):
            log.read(log.segments[0])
        replayed = []
        with pytest.raises(StorageError):
            for part in log.replay():
                replayed.append(part)
        assert replayed == []
        log.close()

    def test_short_read_raises_storage_error(self, log_path):
        log = SegmentLog(log_path)
        log.append("fog2/d-01", columns_of(2), sync_time=900.0)
        log.commit()
        segment = log.segments[0]
        with pytest.raises(StorageError):
            log.read(replace(segment, length=segment.length + 100))
        log.close()


class TestRetention:
    def _two_sync_points(self, log_path) -> SegmentLog:
        """An old two-part record, then a recent two-part record."""
        log = SegmentLog(log_path)
        log.append("fog2/d-01", columns_of(2, start=0.0), sync_time=900.0)
        log.append("fog2/d-02", columns_of(1, start=30.0), sync_time=900.0)
        log.commit()
        log.append("fog2/d-01", columns_of(3, start=5000.0, prefix="late"), sync_time=5900.0)
        log.append("fog2/d-02", columns_of(2, start=5030.0, prefix="later"), sync_time=5901.0)
        log.commit()
        return log

    def test_drop_older_than_is_an_index_operation(self, log_path):
        log = self._two_sync_points(log_path)
        size_before = log.stats()["log_bytes"]

        assert log.drop_older_than(1000.0) == 1
        assert log.dropped_segments == 1
        assert log.dropped_segment_rows == 3
        assert log.segment_count == 1
        assert log.oldest_time() == 5000.0
        # The surviving record keeps both of its parts.
        assert [(child, sync, len(columns)) for child, sync, columns in log.replay()] == [
            ("fog2/d-01", 5900.0, 3),
            ("fog2/d-02", 5901.0, 2),
        ]
        # Dropping is index-only; the bytes wait for compact().
        assert log.stats()["log_bytes"] == size_before
        assert log.drop_older_than(1000.0) == 0
        log.close()

    def test_straddling_segments_survive(self, log_path):
        log = SegmentLog(log_path)
        log.append("fog2/d-01", columns_of(2, start=0.0), sync_time=900.0)
        log.append("fog2/d-02", columns_of(3, start=0.0, step=1000.0), sync_time=900.0)
        log.commit()
        assert log.drop_older_than(500.0) == 0  # one part's t_max is past the cutoff
        assert log.segment_count == 1
        log.close()

    def test_compact_reclaims_dropped_bytes(self, log_path):
        log = self._two_sync_points(log_path)
        kept = [rows_of(columns) for _, _, columns in list(log.replay())[2:]]
        log.drop_older_than(1000.0)

        freed = log.compact()
        assert freed > 0
        assert log.segment_count == 1
        assert log.segments[0].offset == 0
        assert os.path.getsize(log.path) == log.segments[0].length
        # Reads and writes still work against the rewritten file, parts intact.
        assert [rows_of(columns) for _, _, columns in log.replay()] == kept
        log.append("fog2/d-03", columns_of(1, start=9000.0), sync_time=9900.0)
        log.commit()
        log.close()

        reopened = SegmentLog(log_path)
        assert children_of(reopened) == [["fog2/d-01", "fog2/d-02"], ["fog2/d-03"]]
        assert reopened.dropped_records == 0
        reopened.close()


# One drawn row: (sensor index, value, timestamp, tag-dict index or None).
# (Keys in sorted order: the frame's tag table is canonical JSON.)
_TAG_DICTS = [{"section": "s-01"}, {"quality_score": 1.0, "section": "s-02"}]
_ROWS = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from([0.0, -0.0, 21.5, 7, "text", None]),
        st.floats(0.0, 10_000.0),
        st.sampled_from([None, 0, 1]),
    ),
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(rows=_ROWS, cuts=st.lists(st.integers(0, 24), max_size=5), commit_after=st.integers(0, 6))
def test_any_partition_into_child_parts_survives_the_log(tmp_path_factory, rows, cuts, commit_after):
    """append… → commit → reopen → replay gives back the same per-child columns."""
    columns = ReadingColumns()
    for sequence, (sensor, value, timestamp, tag_index) in enumerate(rows):
        tags = None if tag_index is None else _TAG_DICTS[tag_index]
        columns.append_row(
            f"s-{sensor}", "temperature", "energy", value, timestamp, f"fog1/s-{sensor}", 22, sequence, tags
        )
    bounds = sorted({min(cut, len(rows)) for cut in cuts} | {0, len(rows)})
    parts = columns.split(stop - start for start, stop in zip(bounds, bounds[1:]))
    path = str(tmp_path_factory.mktemp("log") / ("fog2" + SEGMENT_LOG_SUFFIX))

    log = SegmentLog(path)
    for index, part in enumerate(parts):
        log.append(f"fog1/child-{index}", part, sync_time=900.0 + index)
        if index + 1 == commit_after:
            log.commit()  # a boundary anywhere in the sequence changes nothing
    log.commit()
    log.close()

    reopened = SegmentLog(path)
    expected = [
        (f"fog1/child-{index}", 900.0 + index, repr(rows_of(part)))
        for index, part in enumerate(parts)
        if len(part)
    ]
    assert [
        (child, sync, repr(rows_of(part))) for child, sync, part in reopened.replay()
    ] == expected
    assert reopened.dropped_records == 0
    assert sum(segment.rows for segment in reopened.segments) == len(rows)
    reopened.close()


class TestDurableTierLogs:
    def test_log_for_caches_and_names_files(self, tmp_path):
        logs = DurableTierLogs(str(tmp_path / "state"))
        log = logs.log_for("fog2/district-01")
        assert logs.log_for("fog2/district-01") is log
        log.append("fog1/district-01/section-01", columns_of(2), sync_time=900.0)
        logs.commit()
        assert os.path.exists(
            os.path.join(str(tmp_path / "state"), "fog2__district-01" + SEGMENT_LOG_SUFFIX)
        )
        assert logs.existing_node_ids() == ["fog2/district-01"]
        logs.close()

    def test_empty_directory_rejected(self):
        with pytest.raises(ValidationError):
            DurableTierLogs("")

    def test_report_totals(self, tmp_path):
        logs = DurableTierLogs(str(tmp_path), fog2=True)
        logs.log_for("cloud").append("fog2/d-01", columns_of(3), sync_time=900.0)
        logs.log_for("fog2/d-01").append("fog1/d-01/s-01", columns_of(2), sync_time=900.0)
        logs.commit()
        report = logs.report()
        assert report["enabled"] is True
        assert report["fog2"] is True
        assert report["segments"] == 2
        assert report["appended_rows"] == 5
        assert report["dropped_log_records"] == 0
        assert set(report["logs"]) == {"cloud", "fog2/d-01"}
        logs.close()

    def test_commit_writes_every_record_before_the_first_fsync(self, tmp_path):
        logs = DurableTierLogs(str(tmp_path), fog2=True)
        for node_id in ("cloud", "fog2/d-01", "fog2/d-02"):
            logs.log_for(node_id).append("child", columns_of(2), sync_time=900.0)
        logs.log_for("fog2/d-03")  # open but untouched: no record, no fsync
        sizes_at_fsync = []

        def recording_fsync(_fd):
            sizes_at_fsync.append(
                [os.path.getsize(os.path.join(str(tmp_path), name)) for name in sorted(os.listdir(str(tmp_path)))]
            )

        with mock.patch("os.fsync", recording_fsync):
            logs.commit()
            logs.commit()
        assert len(sizes_at_fsync) == 3  # one per dirty log, none for a clean one
        assert sizes_at_fsync[0] == sizes_at_fsync[-1]
        assert sorted(size > 0 for size in sizes_at_fsync[0]) == [False, True, True, True]
        logs.close()
