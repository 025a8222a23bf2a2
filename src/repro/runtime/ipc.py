"""Worker ↔ supervisor IPC protocol.

Every message travels as one length-prefixed, CRC-protected stream record
(see :mod:`repro.common.serialization`'s stream framing); the record payload
is one byte of message type followed by a type-specific body.  The heavy
message — BATCH — carries **one whole sync point of one worker**: a node
table ``[(fog layer-1 node id, row count), …]`` in canonical section order
and a single packed **binary column frame** over the nodes' drained rows,
concatenated node-major.  The decoder cuts the frame back into per-node
columns along the table, so the supervisor absorbs node by node exactly as
if each node had shipped its own frame — at one frame's fixed cost (header,
string table, deflate, CRC) per (worker, sync point) instead of one per
section.

Besides the seven wire columns the frame carries the two fields that never
travel on the broker wire but must survive the process boundary to keep
cloud contents byte-identical: the per-row tag dicts written by the
acquisition block, and the fog-node assignment.  The frame is an
*extended* binary frame: those identity tables travel as dictionary-coded
columns inside the frame body (interned by identity, so rows sharing one
tag dict decode back to one shared dict), compressed under the deployment
dictionary in the same pass as the wire columns.  A BATCH whose frame does
not carry them is rejected.

Failure semantics match the broker path's ``dropped_payloads`` accounting:
a message decodes whole or not at all — a BATCH whose node table does not
describe its frame (duplicate or undecodable ids, counts that do not sum to
the frame's rows) is rejected like any other malformed payload, never
absorbed in part.  :class:`MessageReader` counts every rejected record in
``dropped_frames`` (the supervisor surfaces the sum as
``dropped_ipc_frames``); a record that cannot even be skipped safely
abandons the stream, which the supervisor treats as a worker fault — data
is then re-run, never partially ingested.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.serialization import (
    _FLAG_EXTENDED,
    BINARY_FRAME_MAGIC,
    FrameStreamReader,
    FrameStreamWriter,
    StreamFrameError,
)
from repro.sensors.readings import ReadingColumns

#: Message types.  READY is sent once at worker start-up (the supervisor
#: answers with a go byte on the control pipe, so workload construction is
#: excluded from timed runs); BATCH carries everything a worker's fog
#: layer-1 nodes drained for one sync point (at most one per sync point:
#: none when nothing was drained); SYNC_DONE closes a worker's sync point
#: and carries the edge-traffic accounting; FINAL carries the worker's fog
#: layer-1 storage statistics; ERROR carries a traceback.
MSG_READY = 1
MSG_BATCH = 2
MSG_SYNC_DONE = 3
MSG_FINAL = 4
MSG_ERROR = 5

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class IpcProtocolError(ValueError):
    """A structurally invalid IPC message payload."""


# --------------------------------------------------------------------------- #
# Message encoders
# --------------------------------------------------------------------------- #
def encode_ready() -> bytes:
    return bytes([MSG_READY])


def encode_batch(sync_index: int, node_batches: Sequence[Tuple[str, ReadingColumns]]) -> bytes:
    """One worker's drained fog layer-1 batches for one sync point.

    *node_batches* is ``[(node id, drained columns), …]`` in the order the
    supervisor should see them (canonical section order).  The message is
    the sync index, the node table — each id with its row count — and one
    extended column frame over all the rows, node-major.
    """
    out = bytearray([MSG_BATCH])
    out += _U32.pack(sync_index)
    out += _U16.pack(len(node_batches))
    columns = ReadingColumns()
    for node_id, node_columns in node_batches:
        node_raw = node_id.encode("utf-8")
        out += _U16.pack(len(node_raw))
        out += node_raw
        out += _U32.pack(len(node_columns))
        columns.extend_columns(node_columns)
    frame = columns.encode_frame_extended()
    out += _U32.pack(len(frame))
    out += frame
    return bytes(out)


def encode_sync_done(sync_index: int, edge_transfers: Sequence[Dict[str, Any]]) -> bytes:
    """Close one sync point; carries the sensors → fog L1 traffic records."""
    body = json.dumps({"edge_transfers": list(edge_transfers)}, separators=(",", ":")).encode("utf-8")
    return bytes([MSG_SYNC_DONE]) + _U32.pack(sync_index) + body


def encode_final(fog1_stats: Dict[str, Dict[str, Any]], counters: Dict[str, int]) -> bytes:
    body = json.dumps(
        {"fog1_stats": fog1_stats, "counters": counters}, separators=(",", ":")
    ).encode("utf-8")
    return bytes([MSG_FINAL]) + body


def encode_error(text: str) -> bytes:
    return bytes([MSG_ERROR]) + text.encode("utf-8", "replace")


# --------------------------------------------------------------------------- #
# Message decoder
# --------------------------------------------------------------------------- #
def decode_message(payload: bytes) -> Tuple[int, Dict[str, Any]]:
    """Decode one IPC record payload into ``(message_type, body)``.

    Raises :class:`IpcProtocolError` for any malformed payload — a message
    decodes whole or not at all, exactly like the broker frame path.
    """
    if not payload:
        raise IpcProtocolError("empty IPC message")
    msg_type = payload[0]
    view = memoryview(payload)
    if msg_type == MSG_READY:
        if len(payload) != 1:
            raise IpcProtocolError("READY message has trailing bytes")
        return msg_type, {}
    if msg_type == MSG_BATCH:
        return msg_type, _decode_batch(view)
    if msg_type == MSG_SYNC_DONE:
        if len(view) < 1 + _U32.size:
            raise IpcProtocolError("SYNC_DONE message truncated")
        (sync_index,) = _U32.unpack_from(view, 1)
        body = _decode_json_body(payload[1 + _U32.size:], "SYNC_DONE")
        transfers = body.get("edge_transfers")
        if not isinstance(transfers, list):
            raise IpcProtocolError("SYNC_DONE message is missing edge_transfers")
        # Validate each record here so a well-framed-but-malformed message
        # fails message decoding (dropped + counted → shard re-run) instead
        # of crashing the supervisor's merge step with a raw TypeError.
        for record in transfers:
            if (
                not isinstance(record, dict)
                or not isinstance(record.get("timestamp"), (int, float))
                or isinstance(record["timestamp"], bool)
                or not isinstance(record.get("source"), str)
                or not isinstance(record.get("target"), str)
                or not _is_count(record.get("size_bytes"))
                or not _is_count(record.get("message_count", 1))
            ):
                raise IpcProtocolError("SYNC_DONE message carries a malformed edge transfer")
        return msg_type, {"sync_index": sync_index, "edge_transfers": transfers}
    if msg_type == MSG_FINAL:
        body = _decode_json_body(payload[1:], "FINAL")
        stats = body.get("fog1_stats")
        counters = body.get("counters")
        if not isinstance(stats, dict) or not isinstance(counters, dict):
            raise IpcProtocolError("FINAL message is missing fog1_stats/counters")
        for node_id, node_stats in stats.items():
            if not isinstance(node_id, str) or not isinstance(node_stats, dict):
                raise IpcProtocolError("FINAL message carries malformed fog1_stats")
        for name, value in counters.items():
            if not isinstance(name, str) or not isinstance(value, int) or isinstance(value, bool):
                raise IpcProtocolError("FINAL message carries malformed counters")
        return msg_type, {"fog1_stats": stats, "counters": counters}
    if msg_type == MSG_ERROR:
        return msg_type, {"text": payload[1:].decode("utf-8", "replace")}
    raise IpcProtocolError(f"unknown IPC message type {msg_type}")


def _is_count(value: Any) -> bool:
    """A JSON non-negative integer; ``true`` / ``false`` are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _decode_batch(view: memoryview) -> Dict[str, Any]:
    """BATCH body: ``{"sync_index", "batches": {node id: columns}}``.

    ``batches`` keeps the node table's order.  The table must describe the
    frame exactly — ids decodable and unique, counts summing to the frame's
    rows — or the whole message is rejected.
    """
    offset = 1
    if offset + _U32.size + _U16.size > len(view):
        raise IpcProtocolError("IPC batch truncated in header")
    (sync_index,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    (node_count,) = _U16.unpack_from(view, offset)
    offset += _U16.size
    node_ids: List[str] = []
    counts: List[int] = []
    for _ in range(node_count):
        if offset + _U16.size > len(view):
            raise IpcProtocolError("IPC batch truncated in node table")
        (node_len,) = _U16.unpack_from(view, offset)
        offset += _U16.size
        if offset + node_len + _U32.size > len(view):
            raise IpcProtocolError("IPC batch truncated in node table")
        try:
            node_ids.append(str(view[offset:offset + node_len], "utf-8"))
        except UnicodeDecodeError as exc:
            raise IpcProtocolError("IPC batch node id is not valid UTF-8") from exc
        offset += node_len
        counts.append(_U32.unpack_from(view, offset)[0])
        offset += _U32.size
    if len(set(node_ids)) != node_count:
        raise IpcProtocolError("IPC batch node table repeats a node id")
    if offset + _U32.size > len(view):
        raise IpcProtocolError("IPC batch truncated in column frame")
    (frame_len,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    if offset + frame_len > len(view):
        raise IpcProtocolError("IPC batch truncated in column frame")
    frame = bytes(view[offset:offset + frame_len])
    try:
        columns = ReadingColumns.decode_frame(frame)
    except ValueError as exc:
        raise IpcProtocolError(f"IPC batch column frame is invalid: {exc}") from exc
    offset += frame_len
    if not frame[len(BINARY_FRAME_MAGIC) + 1] & _FLAG_EXTENDED:
        # Only an extended frame carries the identity columns (validated per
        # table entry by the frame decoder); any other frame decodes with
        # every row's tags and fog node unset, and must not be absorbed.
        raise IpcProtocolError("IPC batch column frame does not carry tags and fog ids")
    n = len(columns)
    if sum(counts) != n:
        raise IpcProtocolError(
            f"IPC batch node table counts {sum(counts)} rows, its frame carries {n}"
        )
    if offset != len(view):
        raise IpcProtocolError("IPC batch has trailing bytes")
    return {"sync_index": sync_index, "batches": dict(zip(node_ids, columns.split(counts)))}


def _decode_json_body(raw: bytes, what: str) -> Dict[str, Any]:
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IpcProtocolError(f"{what} message body is not valid JSON") from exc
    if not isinstance(body, dict):
        raise IpcProtocolError(f"{what} message body is not an object")
    return body


# --------------------------------------------------------------------------- #
# Channels
# --------------------------------------------------------------------------- #
class MessageWriter:
    """Frames and writes IPC messages through a ``write(bytes)`` callable."""

    def __init__(self, write: Callable[[bytes], Any]) -> None:
        self._writer = FrameStreamWriter(write)
        self.sent_frames = 0
        self.sent_bytes = 0

    def send(self, payload: bytes) -> None:
        self.sent_bytes += self._writer.write_frame(payload)
        self.sent_frames += 1


class MessageReader:
    """Reads IPC messages, counting every corrupt record it rejects.

    A record whose stream framing resynced cleanly (CRC mismatch over a
    fully-consumed span) or whose payload failed message validation is
    *dropped*: counted in :attr:`dropped_frames` and skipped, never
    partially surfaced.  Structural stream damage also counts, then
    re-raises — the caller must treat the whole stream (worker) as failed.
    """

    def __init__(self, read: Callable[[int], bytes]) -> None:
        self._reader = FrameStreamReader(read)
        self.dropped_frames = 0

    def read_message(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Next valid message, or ``None`` on a clean end of stream."""
        while True:
            try:
                payload = self._reader.read_frame()
            except StreamFrameError as exc:
                self.dropped_frames += 1
                if exc.resynced:
                    continue
                raise
            if payload is None:
                return None
            try:
                return decode_message(payload)
            except IpcProtocolError:
                # The record boundary was intact (framing CRC passed), so
                # skipping just this message is safe.
                self.dropped_frames += 1
