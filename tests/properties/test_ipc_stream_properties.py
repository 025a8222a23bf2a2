"""Property + fuzz tests for the streaming IPC framing.

The multi-process runtime ships acquired batches between workers and the
supervisor as length-prefixed, CRC-protected records over raw byte pipes.
The safety claim the supervisor's re-run logic rests on is: **a damaged
stream can lose records, never deliver a wrong or partial one**.  This
module checks it three ways:

1. **Round trip** (Hypothesis): any sequence of arbitrary payloads written
   through the framing — through an in-memory buffer and through a real
   ``os.pipe`` with adversarially fragmented reads — comes back exactly,
   followed by a clean EOF.
2. **Exhaustive truncation**: every proper prefix of an encoded stream
   yields only a prefix of the original payload sequence and then raises —
   never a partial or altered payload.
3. **Exhaustive single-bit flips**: for every bit of an encoded stream, the
   reader (driven through :class:`MessageReader`-style drop-and-resync
   semantics) yields a *subsequence of the original payloads* — corrupted
   records are dropped and counted, and no flipped bit ever produces a
   payload that was not written.

One level up, the BATCH message cuts one column frame back into per-node
columns along its node table: a fourth property checks that **any partition
of a column set into node runs** survives encode → decode as the same
per-node columns, tag-dict sharing included.
"""

import io
import os
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import (
    FrameStreamReader,
    FrameStreamWriter,
    StreamFrameError,
    encode_stream_frame,
)
from repro.runtime import ipc
from repro.sensors.readings import ReadingColumns

payloads_strategy = st.lists(st.binary(max_size=200), max_size=12)


def _encode_stream(payloads) -> bytes:
    return b"".join(encode_stream_frame(payload) for payload in payloads)


def _drain_with_resync(data: bytes):
    """Read every frame, dropping resync-able corruption.

    Returns ``(frames, dropped, fatal)`` — the recovered payloads, how many
    records were dropped, and whether the stream ended in structural damage
    (as opposed to clean EOF).
    """
    reader = FrameStreamReader(io.BytesIO(data).read)
    frames, dropped = [], 0
    while True:
        try:
            frame = reader.read_frame()
        except StreamFrameError as exc:
            dropped += 1
            if exc.resynced:
                continue
            return frames, dropped, True
        if frame is None:
            return frames, dropped, False
        frames.append(frame)


def _is_subsequence(candidate, reference) -> bool:
    it = iter(reference)
    return all(any(item == other for other in it) for item in candidate)


class TestRoundTripProperties:
    @given(payloads=payloads_strategy)
    @settings(max_examples=60, deadline=None)
    def test_buffer_round_trip(self, payloads):
        frames, dropped, fatal = _drain_with_resync(_encode_stream(payloads))
        assert frames == payloads
        assert dropped == 0 and not fatal

    @given(payloads=payloads_strategy, chunk=st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_fragmented_reads_round_trip(self, payloads, chunk):
        # A pipe may return any nonzero number of bytes per read; cap reads
        # at *chunk* bytes to force maximal fragmentation.
        stream = io.BytesIO(_encode_stream(payloads))
        reader = FrameStreamReader(lambda n: stream.read(min(n, chunk)))
        assert [reader.read_frame() for _ in payloads] == payloads
        assert reader.read_frame() is None

    @given(payloads=st.lists(st.binary(max_size=4096), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_real_pipe_round_trip(self, payloads):
        read_fd, write_fd = os.pipe()
        received = []

        def pump():
            writer = FrameStreamWriter(lambda data: os.write(write_fd, data))
            for payload in payloads:
                writer.write_frame(payload)
            os.close(write_fd)

        thread = threading.Thread(target=pump)
        thread.start()
        try:
            reader = FrameStreamReader(lambda n: os.read(read_fd, n))
            while True:
                frame = reader.read_frame()
                if frame is None:
                    break
                received.append(frame)
        finally:
            thread.join()
            os.close(read_fd)
        assert received == payloads


class TestExhaustiveCorruption:
    PAYLOADS = [b"alpha", b"", b"\x00RBS looks like a nested magic", b"tail"]

    def test_every_truncation_never_yields_partial_payloads(self):
        stream = _encode_stream(self.PAYLOADS)
        boundaries = {0}
        offset = 0
        for payload in self.PAYLOADS:
            offset += len(encode_stream_frame(payload))
            boundaries.add(offset)
        for cut in range(len(stream)):
            frames, dropped, fatal = _drain_with_resync(stream[:cut])
            # A truncated stream recovers a prefix of the written payloads;
            # a cut exactly at a record boundary is a clean (shorter) EOF,
            # anywhere else is damage — and truncation is never resync-able.
            assert frames == self.PAYLOADS[: len(frames)]
            if cut in boundaries:
                assert not fatal and dropped == 0
            else:
                assert fatal
                assert dropped == 1

    def test_every_single_bit_flip_is_detected(self):
        stream = _encode_stream(self.PAYLOADS)
        for byte_index in range(len(stream)):
            for bit in range(8):
                corrupted = bytearray(stream)
                corrupted[byte_index] ^= 1 << bit
                frames, dropped, _ = _drain_with_resync(bytes(corrupted))
                # No flipped bit may fabricate or alter a payload: whatever
                # is recovered is a subsequence of what was written, and at
                # least one record was lost and counted.
                assert dropped >= 1
                assert _is_subsequence(frames, self.PAYLOADS)

    def test_interleaved_partial_writes_never_surface_either_payload(self):
        # Model two writers racing on one pipe: one record cut mid-way with
        # another spliced in.  Whatever decodes must be a subsequence of
        # the two original payloads — typically nothing.
        a = encode_stream_frame(b"A" * 33)
        b = encode_stream_frame(b"B" * 57)
        for cut in range(1, len(a)):
            frames, dropped, _ = _drain_with_resync(a[:cut] + b)
            assert _is_subsequence(frames, [b"A" * 33, b"B" * 57])
            assert dropped >= 1 or frames == [b"B" * 57]


# --------------------------------------------------------------------------- #
# BATCH: one frame, cut back into per-node columns along the node table
# --------------------------------------------------------------------------- #
#: A few tag dicts (and no tags at all) for rows to share by identity.
TAG_POOL = [None, {"city": "barcelona", "quality_score": 1.0}, {"category": "energy"}, {}]

batch_rows = st.lists(
    st.tuples(
        st.text(max_size=12),                                            # sensor_id
        st.sampled_from(["temperature", "traffic", ""]),                 # sensor_type
        st.sampled_from(["energy", "urban"]),                            # category
        st.one_of(st.floats(allow_nan=False), st.integers(-5, 5), st.none(), st.text(max_size=5)),
        st.floats(allow_nan=False),                                      # timestamp
        st.sampled_from([None, "fog1/a", "fog1/b"]),                     # fog node id
        st.integers(min_value=0, max_value=2**20),                       # size
        st.integers(min_value=0, max_value=2**20),                       # sequence
        st.integers(min_value=0, max_value=len(TAG_POOL)),               # tag choice
    ),
    max_size=40,
)


@st.composite
def partitioned_columns(draw):
    """A column set and a partition of its rows into consecutive node runs."""
    rows = draw(batch_rows)
    columns = ReadingColumns()
    for *fields, tag_choice in rows:
        # The last choice is a dict of the row's own: equal dicts that are
        # not the same object must stay apart.
        tags = TAG_POOL[tag_choice] if tag_choice < len(TAG_POOL) else {"solo": True}
        columns.append_row(*fields, tags)
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=6)))
    counts = [stop - start for start, stop in zip([0] + cuts, cuts + [len(rows)])]
    return columns, counts


def _row_view(columns: ReadingColumns, dict_ids: dict) -> str:
    """Everything observable about *columns*, tag sharing included."""
    return repr(
        [
            columns.sensor_ids, columns.sensor_types, columns.categories, columns.values,
            list(columns.timestamps), columns.fog_node_ids, list(columns.sizes),
            list(columns.sequences), columns.tags,
            [None if tags is None else dict_ids.setdefault(id(tags), len(dict_ids)) for tags in columns.tags],
            columns.total_bytes,
        ]
    )


class TestBatchPartitionProperty:
    @given(drawn=partitioned_columns())
    @settings(max_examples=60, deadline=None)
    def test_any_partition_into_node_runs_round_trips(self, drawn):
        columns, counts = drawn
        sent = list(zip((f"fog1/node-{i}" for i in range(len(counts))), columns.split(counts)))
        msg_type, body = ipc.decode_message(ipc.encode_batch(3, sent))
        assert (msg_type, body["sync_index"]) == (ipc.MSG_BATCH, 3)
        assert list(body["batches"]) == [node_id for node_id, _ in sent]
        sent_ids, received_ids = {}, {}
        for node_id, node_columns in sent:
            # One numbering of tag dicts per side, across the whole batch:
            # the sharing pattern must match within and across nodes.
            assert _row_view(body["batches"][node_id], received_ids) == _row_view(node_columns, sent_ids)
