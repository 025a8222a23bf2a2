"""Property tests for the column-frame wire format.

The serialization layer speaks one layout — the packed binary frame — and
the system's correctness rests on two invariants this module checks with
Hypothesis:

1. **Round trip**: for any encodable column set, ``decode_frame`` is the
   exact inverse of ``encode_frame`` (timestamps compared *bitwise*, so
   ``-0.0`` / denormals / infinities survive) — same rows, same value
   types, and identical Table-I traffic accounting (total bytes and the
   per-category byte/count breakdowns).
2. **Determinism**: encoding is a pure function of the columns.

Strategies deliberately cover the awkward corners: arbitrary-unicode
identifiers, empty batches, single-reading batches, extreme/NaN-adjacent
timestamps (max/min doubles, denormals, signed zeros, infinities), >64-bit
integer values, and mixed value types.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.typedcols import as_float_column
from repro.sensors.readings import ReadingColumns

#: Arbitrary unicode (default alphabet already excludes surrogates, which
#: UTF-8 cannot represent).
unicode_text = st.text(max_size=30)

#: NaN-adjacent / extreme doubles the packed layout must carry bit-exactly.
extreme_floats = st.sampled_from(
    [
        0.0,
        -0.0,
        5e-324,            # smallest positive denormal
        -5e-324,
        1.7976931348623157e308,   # largest finite double
        -1.7976931348623157e308,
        float("inf"),
        float("-inf"),
        2.2250738585072014e-308,  # smallest positive normal
    ]
)

timestamps = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True),
    extreme_floats,
)

values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True),
    extreme_floats,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**80),     # bigint tag
    st.integers(min_value=-(2**80), max_value=-(2**63) - 1),
    unicode_text,
    st.booleans(),
    st.none(),
)

rows = st.lists(
    st.tuples(
        unicode_text,                                   # sensor_id
        unicode_text,                                   # sensor_type
        unicode_text,                                   # category
        values,
        timestamps,
        st.integers(min_value=0, max_value=2**40),      # size_bytes
        st.integers(min_value=-(2**62), max_value=2**62),  # sequence
    ),
    max_size=40,
)

single_row = st.lists(
    st.tuples(unicode_text, unicode_text, unicode_text, values, timestamps,
              st.integers(min_value=0, max_value=512), st.integers(min_value=0, max_value=100)),
    min_size=1,
    max_size=1,
)


def build_columns(row_list) -> ReadingColumns:
    columns = ReadingColumns()
    for sensor_id, sensor_type, category, value, timestamp, size, sequence in row_list:
        columns.append_row(sensor_id, sensor_type, category, value, timestamp, None, size, sequence, None)
    return columns


def assert_identical(left: ReadingColumns, right: ReadingColumns) -> None:
    """Full structural equality, bitwise on the float column.

    The hot columns are dual-backed (list while building, typed array when
    decoded from the wire), so comparisons normalize the backing first.
    """
    assert left.sensor_ids == right.sensor_ids
    assert left.sensor_types == right.sensor_types
    assert left.categories == right.categories
    assert left.values == right.values
    # Same value *types* too: the round trip must keep int vs float vs bool
    # (bool is an int subclass, so == alone would let True ~ 1 slip).
    assert [type(v) for v in left.values] == [type(v) for v in right.values]
    assert as_float_column(left.timestamps).tobytes() == as_float_column(right.timestamps).tobytes()
    assert list(left.sizes) == list(right.sizes)
    assert list(left.sequences) == list(right.sequences)
    assert left.fog_node_ids == right.fog_node_ids
    assert left.tags == right.tags
    # Table-I traffic accounting.
    assert left.total_bytes == right.total_bytes
    assert left.category_counts() == right.category_counts()
    assert left.category_bytes() == right.category_bytes()


class TestFrameRoundTripProperties:
    @given(row_list=rows)
    @settings(max_examples=60, deadline=None)
    def test_decode_inverts_encode(self, row_list):
        columns = build_columns(row_list)
        decoded = ReadingColumns.decode_frame(columns.encode_frame())
        assert_identical(decoded, columns)

    @given(row_list=rows)
    @settings(max_examples=30, deadline=None)
    def test_encoding_is_deterministic(self, row_list):
        columns = build_columns(row_list)
        assert columns.encode_frame() == columns.encode_frame()

    @given(row_list=single_row)
    @settings(max_examples=30, deadline=None)
    def test_single_reading_batches(self, row_list):
        columns = build_columns(row_list)
        decoded = ReadingColumns.decode_frame(columns.encode_frame())
        assert len(decoded) == 1
        assert_identical(decoded, columns)

    def test_empty_batch(self):
        decoded = ReadingColumns.decode_frame(ReadingColumns().encode_frame())
        assert len(decoded) == 0
        assert decoded.total_bytes == 0
        assert decoded.category_counts() == {}


class TestAwkwardExamples:
    """Pinned examples for corners worth a named regression test."""

    def test_unicode_identifiers_survive(self):
        columns = ReadingColumns()
        exotic = ["sensor-🌡️", "càtegory/ñ", "日本語-計測", "́combining", "tab\tnewline-free"]
        for index, name in enumerate(exotic):
            columns.append_row(name, name[::-1], name.upper(), float(index), float(index), None, 10, index, None)
        decoded = ReadingColumns.decode_frame(columns.encode_frame())
        assert decoded.sensor_ids == exotic

    def test_nan_timestamp_round_trips_bitwise_in_binary(self):
        columns = ReadingColumns()
        columns.append_row("s", "t", "c", 1.0, float("nan"), None, 8, 0, None)
        decoded = ReadingColumns.decode_frame(columns.encode_frame())
        assert decoded.timestamps.tobytes() == as_float_column(columns.timestamps).tobytes()
        assert math.isnan(decoded.timestamps[0])

    def test_signed_zero_timestamps_are_preserved(self):
        columns = ReadingColumns()
        columns.append_row("s", "t", "c", 1.0, -0.0, None, 8, 0, None)
        columns.append_row("s", "t", "c", 1.0, 0.0, None, 8, 1, None)
        decoded = ReadingColumns.decode_frame(columns.encode_frame())
        assert decoded.timestamps.tobytes() == as_float_column(columns.timestamps).tobytes()

    def test_low_cardinality_columns_hit_the_dictionary_path(self):
        # 600 rows sharing 3 timestamps / 2 sizes: the binary layout's
        # dictionary coding must engage and still round-trip exactly.
        columns = ReadingColumns()
        for index in range(600):
            columns.append_row(
                f"s-{index % 50}", "temperature", "energy",
                float(index % 7), float(index % 3), None, (index % 2) * 100 + 22, index, None,
            )
        csv_size = sum(map(len, columns.encode_rows()))
        binary = columns.encode_frame()
        assert_identical(ReadingColumns.decode_frame(binary), columns)
        assert len(binary) * 4 < csv_size  # the compact layout must actually be compact
