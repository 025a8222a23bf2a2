"""Durable append-only segment logs for the broad storage tiers.

Everything the reproduction stores is in process memory; the paper's cloud
tier, however, is the *permanent* home of city data.  This module adds the
on-disk substrate: what a sync point moves into a broad tier (the cloud
always, fog layer 2 optionally) is written to the tier node's
:class:`SegmentLog` as **one** length-prefixed ``\\x00RBS`` record — the same
CRC-framed stream layout the sharded runtime ships over worker pipes — and
fsync'd at the sync-point boundary.

One record = one *segment* = one sync point at one tier node: a small fixed
envelope (record version, part count, row count, the rows' timestamp span),
a node table ``[(delivering child, rows, sync time), …]`` with one entry per
batch the tier received, and the batches' rows in arrival order as **one
extended v2 column frame**
(:meth:`~repro.sensors.readings.ReadingColumns.encode_frame_extended`), so
tags and fog-node attribution survive the disk round trip and replay
reproduces the cloud contents — and therefore the SHA-256 cloud digest —
byte for byte.  It is the shard IPC ``BATCH`` shape (a node table plus one
frame over the node-major rows) applied to the log: the frame's fixed cost
is paid once per tier node and sync point, not once per delivering child.

Durability contract
-------------------
* :meth:`SegmentLog.append` runs inside the data-movement scheduler as each
  batch lands in the tier and only adds a *part* to the log's open sync
  point — nothing is encoded or written.  :meth:`SegmentLog.commit` writes
  the open parts as one record, flushes and ``fsync`` s, once per sync-point
  boundary.  **A sync point is on disk whole or not at all**: a crash before
  the commit loses the whole open sync point, a crash inside it leaves a
  torn record that the next open drops — never some of a sync point's
  batches without the others.
* On open the log rebuilds its in-memory segment index by scanning record
  envelopes and node tables — no frame is decoded.  A truncated or corrupt
  tail record is dropped-and-counted (``dropped_records`` /
  ``dropped_bytes``, the ``dropped_ipc_frames`` discipline) and the file is
  truncated back to the last intact record boundary so subsequent records
  land on a valid stream.  A CRC-valid record this layout does not
  understand — a foreign or future envelope, a version-1 record of the
  per-child layout this one replaced, a node table that is cut short or
  does not add up to the envelope's rows — is skipped and counted the same
  way.  A damaged record is rejected whole, never partially ingested.
* Segment payloads are decoded lazily: the index scan, TTL drops and
  byte accounting never touch frame bytes; :meth:`SegmentLog.read` decodes
  one frame on demand (cold queries, replay).
* TTL eviction on a durable tier becomes an O(#segments) index drop
  (:meth:`SegmentLog.drop_older_than`) instead of per-row store surgery;
  the bytes are reclaimed by :meth:`SegmentLog.compact`.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import StorageError, ValidationError
from repro.common.serialization import (
    FrameStreamReader,
    FrameStreamWriter,
    StreamFrameError,
)
from repro.sensors.readings import ReadingColumns

#: Layout version of the segment envelope (bumped on incompatible change).
#: Version 1 was one record per (delivering child, sync point).
SEGMENT_RECORD_VERSION = 2

#: File suffix of one node's segment log inside the durable directory.
SEGMENT_LOG_SUFFIX = ".seglog"

# Envelope at the head of every record payload, then one table entry per
# part: everything the index needs, so reopening scans headers without
# decoding (or decompressing) any frame.
#   u8  record version | u16 part count | u32 rows
#   f64 min timestamp  | f64 max timestamp
_ENVELOPE = struct.Struct("<BHIdd")
#   u16 child-id length | u32 rows | f64 sync time, then the child id
_PART = struct.Struct("<HId")


@dataclass(frozen=True)
class Segment:
    """Index entry for one record — one sync point (no payload bytes held)."""

    #: ``(delivering child, rows, sync time)`` per batch, in arrival order
    parts: Tuple[Tuple[str, int, float], ...]
    t_min: float  #: smallest reading timestamp in the record
    t_max: float  #: largest reading timestamp in the record
    rows: int
    offset: int  #: byte offset of the stream record in the log file
    length: int  #: on-disk size of the stream record (framing included)
    header: int  #: envelope + node table bytes ahead of the column frame


class SegmentLog:
    """Append-only ``\\x00RBS`` record log for one broad-tier node.

    Opening an existing file rebuilds the segment index from record
    envelopes and repairs a damaged tail (truncate-and-count).  The same
    open handle serves writes and lazy segment reads.
    """

    def __init__(self, path: str, node_id: Optional[str] = None) -> None:
        self.path = os.fspath(path)
        self.node_id = node_id if node_id is not None else os.path.basename(self.path)
        self.dropped_records = 0
        self.dropped_bytes = 0
        self.dropped_segments = 0
        self.dropped_segment_rows = 0
        self.appended_rows = 0
        self._segments: List[Segment] = []
        #: The open sync point: ``(child id, columns, sync time)`` per part.
        self._open: List[Tuple[str, ReadingColumns, float]] = []
        self._file = open(self.path, "a+b")
        self._writer = FrameStreamWriter(self._file.write)
        self._end = 0
        self._dirty = False
        self._rebuild_index()

    # ------------------------------------------------------------------ #
    # Open-time index rebuild and tail repair
    # ------------------------------------------------------------------ #
    def _rebuild_index(self) -> None:
        fh = self._file
        size = os.fstat(fh.fileno()).st_size
        fh.seek(0)
        reader = FrameStreamReader(fh.read)
        offset = 0
        while True:
            try:
                payload = reader.read_frame()
            except StreamFrameError:
                # Damaged tail (torn write, bit rot): everything from the
                # last intact boundary is dropped whole and counted, and
                # the file is cut back so new records extend a valid
                # stream.  Nothing partial ever reaches a store.
                self.dropped_records += 1
                self.dropped_bytes += size - offset
                fh.seek(offset)
                fh.truncate(offset)
                break
            if payload is None:
                break
            end = fh.tell()
            try:
                segment = self._parse_header(payload, offset, end - offset)
            except (struct.error, ValueError):
                # CRC-valid record with an envelope or node table this
                # layout does not understand (foreign, future, version 1,
                # inconsistent): skip-and-count, later records stay valid.
                self.dropped_records += 1
                self.dropped_bytes += end - offset
                offset = end
                continue
            self._segments.append(segment)
            offset = end
        self._end = offset

    @staticmethod
    def _parse_header(payload: bytes, offset: int, length: int) -> Segment:
        """The index entry of one record: its envelope and node table."""
        version, part_count, rows, t_min, t_max = _ENVELOPE.unpack_from(payload)
        if version != SEGMENT_RECORD_VERSION:
            raise ValueError(f"unsupported segment record version {version}")
        parts = []
        head = _ENVELOPE.size
        for _ in range(part_count):
            child_len, part_rows, sync_time = _PART.unpack_from(payload, head)
            head += _PART.size
            if len(payload) < head + child_len:
                raise ValueError("segment node table truncated")
            parts.append((payload[head : head + child_len].decode("utf-8"), part_rows, sync_time))
            head += child_len
        if sum(part_rows for _, part_rows, _ in parts) != rows:
            raise ValueError("segment node table does not add up to the envelope's rows")
        return Segment(
            parts=tuple(parts),
            t_min=t_min,
            t_max=t_max,
            rows=rows,
            offset=offset,
            length=length,
            header=head,
        )

    # ------------------------------------------------------------------ #
    # Writing: parts accumulate, a sync point is written as one record
    # ------------------------------------------------------------------ #
    def append(self, child_id: str, columns: ReadingColumns, sync_time: float) -> None:
        """Add one synced batch to the open sync point (no encode, no I/O).

        Empty batches are not recorded (nothing reached the tier).  The
        batch is held by reference until the next :meth:`commit` — the
        per-sync-point boundary the durability contract is defined at — so
        *columns* must not be mutated in between.
        """
        if len(columns):
            self._open.append((child_id, columns, sync_time))

    def stage(self) -> None:
        """Write the open sync point as one record and hand it to the OS.

        The record is complete in the file afterwards but not yet forced
        to disk; :meth:`commit` is what makes it durable.
        """
        parts = self._open
        if not parts:
            return
        self._open = []
        if len(parts) == 1:
            columns = parts[0][1]
        else:
            columns = ReadingColumns()
            for _, part_columns, _ in parts:
                columns.extend_columns(part_columns)
        timestamps = columns.timestamps
        t_min, t_max = min(timestamps), max(timestamps)
        header = bytearray(
            _ENVELOPE.pack(SEGMENT_RECORD_VERSION, len(parts), len(columns), t_min, t_max)
        )
        table = []
        for child_id, part_columns, sync_time in parts:
            child = child_id.encode("utf-8")
            header += _PART.pack(len(child), len(part_columns), sync_time)
            header += child
            table.append((child_id, len(part_columns), sync_time))
        written = self._writer.write_frame(bytes(header) + columns.encode_frame_extended())
        self._file.flush()
        self._segments.append(
            Segment(
                parts=tuple(table),
                t_min=t_min,
                t_max=t_max,
                rows=len(columns),
                offset=self._end,
                length=written,
                header=len(header),
            )
        )
        self._end += written
        self.appended_rows += len(columns)
        self._dirty = True

    def commit(self) -> None:
        """Write the open sync point and ``fsync`` — the sync-point barrier.

        A no-op on a clean log: a deployment whose sync round only touched
        some tiers does not pay an ``fsync`` per untouched log.
        """
        self.stage()
        if not self._dirty:
            return
        os.fsync(self._file.fileno())
        self._dirty = False

    # ------------------------------------------------------------------ #
    # Index access and lazy reads
    # ------------------------------------------------------------------ #
    @property
    def segments(self) -> Tuple[Segment, ...]:
        return tuple(self._segments)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def oldest_time(self) -> Optional[float]:
        """Smallest reading timestamp still covered by a live segment."""
        if not self._segments:
            return None
        return min(segment.t_min for segment in self._segments)

    def read(self, segment: Segment) -> ReadingColumns:
        """Decode one record's rows, all parts (the lazy ``decode_frame`` path)."""
        fh = self._file
        fh.seek(segment.offset)
        data = fh.read(segment.length)
        if len(data) != segment.length:
            raise StorageError(
                f"segment log {self.path!r}: record at offset {segment.offset} "
                "is shorter than its index entry"
            )
        payload = FrameStreamReader(io.BytesIO(data).read).read_frame()
        columns = ReadingColumns.decode_frame(payload[segment.header :])
        if len(columns) != segment.rows:
            raise StorageError(
                f"segment log {self.path!r}: record at offset {segment.offset} "
                f"holds {len(columns)} rows, its envelope says {segment.rows}"
            )
        return columns

    def replay(self) -> Iterator[Tuple[str, float, ReadingColumns]]:
        """Yield ``(child id, sync time, columns)`` per live part, in append order."""
        for segment in list(self._segments):
            batches = self.read(segment).split(rows for _, rows, _ in segment.parts)
            for (child_id, _, sync_time), columns in zip(segment.parts, batches):
                yield child_id, sync_time, columns

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def drop_older_than(self, cutoff: float) -> int:
        """Drop segments wholly older than *cutoff* from the index.

        The durable-tier TTL path: one index scan over segment headers
        (never rows), dropping each expired segment in O(1).  Returns the
        number of segments dropped.  Disk bytes are reclaimed separately
        by :meth:`compact`; until then (or after a reopen followed by the
        next retention pass) the dropped records are simply dead weight.
        """
        kept = [segment for segment in self._segments if segment.t_max >= cutoff]
        dropped = len(self._segments) - len(kept)
        if not dropped:
            return 0
        self.dropped_segments += dropped
        self.dropped_segment_rows += sum(
            segment.rows for segment in self._segments if segment.t_max < cutoff
        )
        self._segments = kept
        return dropped

    def compact(self) -> int:
        """Rewrite the file keeping only live segments; returns bytes freed.

        Copies the surviving records into a sibling temp file and atomically
        replaces the log, then re-points the index at the new offsets.  An
        open sync point stays open.
        """
        fh = self._file
        before = self._end
        temp_path = self.path + ".compact"
        survivors: List[Segment] = []
        offset = 0
        with open(temp_path, "wb") as out:
            for segment in self._segments:
                fh.seek(segment.offset)
                out.write(fh.read(segment.length))
                survivors.append(replace(segment, offset=offset))
                offset += segment.length
            out.flush()
            os.fsync(out.fileno())
        self._file.close()
        os.replace(temp_path, self.path)
        self._file = open(self.path, "a+b")
        self._writer = FrameStreamWriter(self._file.write)
        self._dirty = False  # every surviving record was fsync'd pre-replace
        self._segments = survivors
        self._end = offset
        return before - offset

    # ------------------------------------------------------------------ #
    # Reporting / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "path": self.path,
            "segments": len(self._segments),
            "appended_rows": self.appended_rows,
            "log_bytes": self._end,
            "dropped_records": self.dropped_records,
            "dropped_bytes": self.dropped_bytes,
            "dropped_segments": self.dropped_segments,
            "dropped_segment_rows": self.dropped_segment_rows,
        }

    def close(self) -> None:
        if not self._file.closed:
            self.stage()
            self._file.close()

    def __len__(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentLog(node={self.node_id!r}, segments={len(self._segments)})"


def _log_filename(node_id: str) -> str:
    return node_id.replace("/", "__") + SEGMENT_LOG_SUFFIX


def _node_id_from_filename(filename: str) -> str:
    return filename[: -len(SEGMENT_LOG_SUFFIX)].replace("__", "/")


class DurableTierLogs:
    """The durable directory: one :class:`SegmentLog` per broad-tier node.

    Owned by :class:`~repro.core.architecture.F2CDataManagement` when the
    deployment is configured with ``durable_dir``; the cloud log is always
    kept, fog layer-2 logs when ``fog2`` durability is on.  Restoring a
    crashed deployment replays the cloud log through the cloud's normal
    receive path (store + preservation/archive rebuild in original order)
    and rehydrates fog L2 stores from their own logs when present, else by
    mirroring the cloud records of their district.
    """

    def __init__(self, directory: str, fog2: bool = False) -> None:
        self.directory = os.fspath(directory)
        if not self.directory:
            raise ValidationError("durable directory must be non-empty")
        os.makedirs(self.directory, exist_ok=True)
        self.fog2_enabled = bool(fog2)
        self.replayed_records = 0
        self.replayed_rows = 0
        self._logs: Dict[str, SegmentLog] = {}

    def log_for(self, node_id: str) -> SegmentLog:
        """The node's log, opened (and its index rebuilt) on first use."""
        log = self._logs.get(node_id)
        if log is None:
            path = os.path.join(self.directory, _log_filename(node_id))
            log = self._logs[node_id] = SegmentLog(path, node_id=node_id)
        return log

    def existing_node_ids(self) -> List[str]:
        """Node ids that already have a log file in the directory."""
        return sorted(
            _node_id_from_filename(name)
            for name in os.listdir(self.directory)
            if name.endswith(SEGMENT_LOG_SUFFIX)
        )

    def commit(self) -> None:
        """Write and fsync every log's open sync point — the boundary itself.

        Every record is written before the first ``fsync``, so the forced
        writes of one log overlap the others' instead of queueing behind
        them log by log.
        """
        for log in self._logs.values():
            log.stage()
        for log in self._logs.values():
            log.commit()

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def restore(self, architecture) -> Dict[str, int]:
        """Replay the logs into a freshly built *architecture*.

        Must run on a deployment that has not ingested yet.  Cloud records
        go through :meth:`CloudNode.receive_from_fog`, so the store *and*
        the preservation block (archive versions, lineage) are rebuilt in
        the original arrival order — which is why the post-restore cloud
        digest is byte-identical.  Fog L1 memory died with the process;
        the fog L1 stores are marked non-authoritative so queries fall
        through to the restored broad tiers.
        """
        from repro.common.errors import RoutingError
        from repro.sensors.readings import ReadingBatch

        counters = {"replayed_records": 0, "replayed_rows": 0, "fog2_mirrored_records": 0}
        restored_fog2 = set()
        for fog2 in architecture.fog2_nodes():
            log = getattr(fog2, "segment_log", None)
            if log is None or not log.segment_count:
                continue
            for _, _, columns in log.replay():
                fog2.storage.ingest_columns(columns, mark_for_upward=False)
                counters["replayed_rows"] += len(columns)
            counters["replayed_records"] += log.segment_count
            restored_fog2.add(fog2.node_id)
        cloud_log = getattr(architecture.cloud, "segment_log", None)
        if cloud_log is not None:
            for child_id, sync_time, columns in cloud_log.replay():
                if child_id not in restored_fog2:
                    # The delivering fog L2 node held exactly the rows it
                    # synced upward (upward drains copy, they do not
                    # remove), so the cloud log doubles as its backup.
                    try:
                        fog2 = architecture.fog2_node(child_id)
                    except RoutingError:
                        fog2 = None
                    if fog2 is not None:
                        fog2.storage.ingest_columns(columns, mark_for_upward=False)
                        counters["fog2_mirrored_records"] += 1
                batch = ReadingBatch.from_columns(columns)
                architecture.cloud.receive_from_fog(child_id, batch, sync_time)
                counters["replayed_rows"] += len(columns)
            counters["replayed_records"] += cloud_log.segment_count
        architecture.merge_fog1_stats(
            {fog1.node_id: fog1.stats() for fog1 in architecture.fog1_nodes()}
        )
        self.replayed_records += counters["replayed_records"]
        self.replayed_rows += counters["replayed_rows"]
        return counters

    # ------------------------------------------------------------------ #
    # Reporting / lifecycle
    # ------------------------------------------------------------------ #
    def report(self) -> Dict[str, object]:
        logs = {node_id: log.stats() for node_id, log in sorted(self._logs.items())}
        return {
            "enabled": True,
            "directory": self.directory,
            "fog2": self.fog2_enabled,
            "segments": sum(stats["segments"] for stats in logs.values()),
            "appended_rows": sum(stats["appended_rows"] for stats in logs.values()),
            "dropped_log_records": sum(stats["dropped_records"] for stats in logs.values()),
            "dropped_log_bytes": sum(stats["dropped_bytes"] for stats in logs.values()),
            "replayed_records": self.replayed_records,
            "replayed_rows": self.replayed_rows,
            "logs": logs,
        }

    def close(self) -> None:
        for log in self._logs.values():
            log.close()
