"""Tests for the typed-array column helpers.

Every helper with a numpy fast path is exercised on *both* paths — the
vectorized one (threshold forced down) and the stdlib one (threshold
raised past any input) — against the same reference results.
"""

import sys
from array import array

import pytest

from repro.common import typedcols


@pytest.fixture(params=["numpy", "stdlib"])
def both_paths(request, monkeypatch):
    """Run the test under the numpy path (threshold 1) and the stdlib one."""
    threshold = 1 if request.param == "numpy" else sys.maxsize
    monkeypatch.setattr(typedcols, "NUMPY_MIN_ELEMENTS", threshold)
    return request.param


class TestConstructors:
    def test_float_column_typecode_and_contents(self):
        column = typedcols.float_column([1.5, 2.5])
        assert column.typecode == "d"
        assert list(column) == [1.5, 2.5]
        assert typedcols.float_column().typecode == "d"

    def test_int_column_typecode_and_contents(self):
        column = typedcols.int_column([1, -7])
        assert column.typecode == "q"
        assert list(column) == [1, -7]

    def test_as_float_column_adopts_without_copy(self):
        column = typedcols.float_column([1.0])
        assert typedcols.as_float_column(column) is column
        converted = typedcols.as_float_column([1.0, 2.0])
        assert converted.typecode == "d" and list(converted) == [1.0, 2.0]

    def test_as_int_column_adopts_without_copy(self):
        column = typedcols.int_column([3])
        assert typedcols.as_int_column(column) is column
        assert list(typedcols.as_int_column([3, 4])) == [3, 4]

    def test_clear_column_works_for_lists_and_arrays(self):
        column = typedcols.float_column([1.0, 2.0])
        typedcols.clear_column(column)
        assert len(column) == 0
        items = [1, 2]
        typedcols.clear_column(items)
        assert items == []


class TestWirePacking:
    def test_round_trip_floats(self):
        column = typedcols.float_column([0.0, -0.0, 1.5, float("inf")])
        data = typedcols.column_to_bytes(column)
        back = typedcols.column_from_bytes("d", data)
        assert back.tobytes() == column.tobytes()

    def test_round_trip_ints(self):
        column = typedcols.int_column([-(2**62), 0, 2**62])
        assert typedcols.column_from_bytes("q", typedcols.column_to_bytes(column)) == column

    def test_little_endian_on_the_wire(self):
        assert typedcols.column_to_bytes(typedcols.int_column([1])) == b"\x01" + b"\x00" * 7


class TestReduce:
    def test_column_sum(self, both_paths):
        column = typedcols.int_column([5, 7, -2])
        assert typedcols.column_sum(column) == 10
        assert typedcols.column_sum([1, 2]) == 3

    def test_column_min(self, both_paths):
        assert typedcols.column_min(typedcols.int_column([5, -3, 7])) == -3
        assert typedcols.column_min([]) is None


class TestGather:
    def test_take_floats_matches_reference(self, both_paths):
        column = typedcols.float_column([10.0, 11.5, -0.0, 13.0])
        indices = [3, 0, 0, 2]
        taken = typedcols.take_floats(column, indices)
        assert taken.typecode == "d"
        assert taken.tobytes() == typedcols.float_column([13.0, 10.0, 10.0, -0.0]).tobytes()

    def test_take_ints_matches_reference(self, both_paths):
        column = typedcols.int_column([7, -8, 9])
        assert list(typedcols.take_ints(column, [2, 1])) == [9, -8]

    def test_take_empty(self, both_paths):
        assert len(typedcols.take_floats(typedcols.float_column([1.0]), [])) == 0
