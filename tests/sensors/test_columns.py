"""Tests for the columnar reading representation.

Covers the ``ReadingBatch`` ↔ ``ReadingColumns`` round trip (including tags,
fog assignments, sequences and wire sizes), the read-only ``.readings`` view
that fixes the PR 1 aliasing hazard, mixed columnar/object mutation, empty
batches, and the column-frame wire format.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import BINARY_FRAME_MAGIC, is_column_frame
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns
from tests.conftest import make_reading

sensor_ids = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=6)

tag_values = st.one_of(st.integers(-5, 5), st.sampled_from(["x", "y", 1.25]))

readings = st.builds(
    Reading,
    sensor_id=sensor_ids,
    sensor_type=st.sampled_from(["temperature", "traffic", "noise_level"]),
    category=st.sampled_from(["energy", "urban", "noise"]),
    value=st.one_of(
        st.integers(min_value=-1000, max_value=1000),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    ),
    timestamp=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    fog_node_id=st.one_of(st.none(), st.sampled_from(["fog1/a", "fog1/b"])),
    size_bytes=st.integers(min_value=0, max_value=512),
    sequence=st.integers(min_value=0, max_value=10_000),
    tags=st.dictionaries(st.sampled_from(["quality_score", "city", "custom", "x"]), tag_values, max_size=3),
)

reading_lists = st.lists(readings, min_size=0, max_size=20)


class TestColumnsRoundTrip:
    @given(items=reading_lists)
    @settings(max_examples=30)
    def test_to_columns_from_columns_preserves_everything(self, items):
        batch = ReadingBatch(items)
        columns = batch.to_columns()
        rebuilt = ReadingBatch.from_columns(columns)
        materialized = list(rebuilt)
        assert materialized == items
        assert [r.tags for r in materialized] == [r.tags for r in items]
        assert [r.size_bytes for r in materialized] == [r.size_bytes for r in items]
        assert rebuilt.total_bytes == sum(r.size_bytes for r in items)
        assert rebuilt.categories() == batch.categories()
        assert rebuilt.bytes_by_category() == batch.bytes_by_category()

    @given(items=reading_lists)
    @settings(max_examples=30)
    def test_columnar_encode_matches_per_reading_encode(self, items):
        batch = ReadingBatch(items)
        assert batch.encode() == b"".join(r.encode() for r in items)

    def test_empty_batch_round_trip(self):
        batch = ReadingBatch()
        columns = batch.to_columns()
        assert len(columns) == 0
        rebuilt = ReadingBatch.from_columns(columns)
        assert len(rebuilt) == 0
        assert rebuilt.total_bytes == 0
        assert rebuilt.categories() == {}
        assert list(rebuilt) == []
        assert rebuilt.encode() == b""

    def test_materialization_is_cached_and_consistent(self):
        columns = ReadingColumns.from_readings([make_reading(value=float(i)) for i in range(3)])
        batch = ReadingBatch.from_columns(columns)
        first = list(batch)
        second = list(batch)
        assert first == second
        assert first[0] is second[0]  # cached, not re-materialized

    def test_gather_preserves_order_and_accounting(self):
        items = [make_reading(value=float(i), size_bytes=10 + i) for i in range(6)]
        columns = ReadingColumns.from_readings(items)
        picked = columns.gather([4, 1, 3])
        assert [r.value for r in picked.iter_readings()] == [4.0, 1.0, 3.0]
        assert picked.total_bytes == 14 + 11 + 13


class TestMixedColumnarObjectMutation:
    def test_append_after_from_columns_keeps_counters(self):
        columns = ReadingColumns.from_readings([make_reading(size_bytes=10)])
        batch = ReadingBatch.from_columns(columns)
        batch.append(make_reading(category="noise", size_bytes=7))
        batch.extend([make_reading(category="noise", size_bytes=3)])
        assert batch.total_bytes == 20
        assert batch.categories() == {"energy": 1, "noise": 2}
        batch.verify_accounting()

    def test_extend_with_batch_merges_columnwise(self):
        left = ReadingBatch([make_reading(size_bytes=5)])
        right = ReadingBatch.from_columns(
            ReadingColumns.from_readings([make_reading(category="noise", size_bytes=6)])
        )
        left.extend(right)
        assert left.total_bytes == 11
        assert left.bytes_by_category() == {"energy": 5, "noise": 6}
        assert [r.category for r in left] == ["energy", "noise"]

    def test_iteration_then_mutation_then_iteration(self):
        batch = ReadingBatch([make_reading(value=1.0)])
        assert [r.value for r in batch] == [1.0]
        batch.append(make_reading(value=2.0))
        assert [r.value for r in batch] == [1.0, 2.0]
        batch.extend(ReadingBatch([make_reading(value=3.0)]))
        assert [r.value for r in batch] == [1.0, 2.0, 3.0]


class TestReadingsViewIsReadOnly:
    """The PR 1 aliasing hazard: `.readings` used to return the backing list."""

    def test_view_has_no_mutators(self):
        batch = ReadingBatch([make_reading()])
        view = batch.readings
        assert not hasattr(view, "append")
        assert not hasattr(view, "extend")
        assert not hasattr(view, "clear")
        with pytest.raises(TypeError):
            view[0] = make_reading()

    def test_view_supports_sequence_protocol(self):
        items = [make_reading(value=float(i)) for i in range(4)]
        view = ReadingBatch(items).readings
        assert len(view) == 4
        assert view[1].value == 1.0
        assert [r.value for r in view] == [0.0, 1.0, 2.0, 3.0]
        assert [r.value for r in view[1:3]] == [1.0, 2.0]
        assert view[-1].value == 3.0

    def test_counters_survive_view_access(self):
        batch = ReadingBatch([make_reading(size_bytes=22)])
        _ = batch.readings
        batch.append(make_reading(size_bytes=10))
        assert batch.total_bytes == 32
        batch.verify_accounting()

    def test_verify_accounting_detects_direct_column_corruption(self):
        batch = ReadingBatch([make_reading(size_bytes=22)])
        batch.columns.sizes.append(5)  # misuse: bypasses all bookkeeping
        with pytest.raises(AssertionError):
            batch.verify_accounting()


class TestColumnFrames:
    def test_frame_round_trip(self):
        items = [
            make_reading(sensor_id=f"s-{i}", value=20.5 + i, timestamp=10.0 * i, size_bytes=30 + i, sequence=i)
            for i in range(5)
        ]
        columns = ReadingColumns.from_readings(items)
        payload = columns.encode_frame()
        assert is_column_frame(payload)
        assert payload.startswith(BINARY_FRAME_MAGIC)
        decoded = ReadingColumns.decode_frame(payload)
        assert decoded.sensor_ids == columns.sensor_ids
        assert decoded.sensor_types == columns.sensor_types
        assert decoded.categories == columns.categories
        assert decoded.values == columns.values
        # Decoded frames carry typed numeric columns; the source batch is
        # list-backed — compare contents, not backing.
        assert list(decoded.timestamps) == list(columns.timestamps)
        assert list(decoded.sizes) == list(columns.sizes)
        assert list(decoded.sequences) == list(columns.sequences)
        assert decoded.total_bytes == columns.total_bytes
        # Fog assignment and tags are receiver-side concerns, not wire data.
        assert decoded.fog_node_ids == [None] * 5
        assert decoded.tags == [None] * 5

    def test_default_format_is_the_compact_binary_layout(self):
        payload = ReadingColumns.from_readings([make_reading()]).encode_frame()
        assert payload.startswith(BINARY_FRAME_MAGIC)

    def test_compact_switches_to_typed_columns_without_changing_contents(self):
        from array import array

        items = [make_reading(value=float(i), timestamp=float(i), size_bytes=10 + i) for i in range(4)]
        batch = ReadingBatch(items)
        before = list(batch)
        assert type(batch.columns.timestamps) is list
        batch.compact()
        assert type(batch.columns.timestamps) is array
        assert batch.columns.timestamps.typecode == "d"
        assert type(batch.columns.sizes) is array and batch.columns.sizes.typecode == "q"
        assert list(batch) == before
        assert batch.total_bytes == sum(r.size_bytes for r in items)
        # Compacted batches keep working through the mutation/merge APIs.
        batch.append(make_reading(value=99.0, size_bytes=5))
        batch.verify_accounting()
        assert batch.columns.gather([0, 4]).sizes[-1] == 5

    def test_decoded_frames_arrive_with_typed_columns(self):
        from array import array

        columns = ReadingColumns.from_readings([make_reading(size_bytes=30)])
        decoded = ReadingColumns.decode_frame(columns.encode_frame())
        assert type(decoded.timestamps) is array and decoded.timestamps.typecode == "d"
        assert type(decoded.sizes) is array and decoded.sizes.typecode == "q"

    def test_empty_frame_round_trip(self):
        payload = ReadingColumns().encode_frame()
        decoded = ReadingColumns.decode_frame(payload)
        assert len(decoded) == 0
        assert decoded.total_bytes == 0

    def test_csv_payload_is_not_a_frame(self):
        assert not is_column_frame(make_reading(size_bytes=64).encode())

    def test_decode_rejects_non_frame(self):
        with pytest.raises(ValueError):
            ReadingColumns.decode_frame(b"sensor-1,temperature,21.5,0.000\n")

    @given(items=st.lists(
        st.builds(
            Reading,
            sensor_id=sensor_ids,
            sensor_type=st.sampled_from(["temperature", "traffic"]),
            category=st.sampled_from(["energy", "urban"]),
            value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
            timestamp=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            size_bytes=st.integers(min_value=0, max_value=256),
            sequence=st.integers(min_value=0, max_value=1000),
        ),
        max_size=20,
    ))
    @settings(max_examples=30)
    def test_frame_round_trip_property(self, items):
        columns = ReadingColumns.from_readings(items)
        decoded = ReadingColumns.decode_frame(columns.encode_frame())
        assert decoded.values == columns.values
        assert list(decoded.timestamps) == list(columns.timestamps)
        assert list(decoded.sizes) == list(columns.sizes)
