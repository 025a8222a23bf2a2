"""Typed-array backing for the hot numeric columns.

The columnar hot path (see :mod:`repro.sensors.readings` and
:mod:`repro.storage.timeseries`) keeps timestamps and wire sizes in
``array.array`` columns instead of plain Python lists: ``array('d')`` for
timestamps and ``array('q')`` for byte sizes.  A typed column stores the raw
machine value (8 bytes per element) instead of a pointer to a boxed Python
object (~8 bytes pointer + ~28-byte object), cutting per-column memory
roughly 4-8x, and its buffer doubles as the wire representation: packing a
column into a binary frame is ``tobytes()`` (one memcpy) instead of a
per-element format loop.

The helpers here are the single place the rest of the code goes through to
create, gather and reduce typed columns.  The gather/reduce helpers hand
large columns to numpy's vectorized kernels through a zero-copy buffer
view; below a size threshold, where numpy's per-call overhead dominates,
they use the stdlib's C loops instead.  Both paths are behaviour-identical
and both are covered by the test suite.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Optional, Sequence

import numpy as np

#: Typecodes of the hot columns: C double timestamps, signed 64-bit sizes.
FLOAT_TYPECODE = "d"
INT_TYPECODE = "q"

#: Below this many elements the stdlib C implementations win over paying
#: numpy's per-call overhead (buffer wrap + ufunc dispatch).
NUMPY_MIN_ELEMENTS = 2048

_LITTLE_ENDIAN = sys.byteorder == "little"


def float_column(values: Iterable[float] = ()) -> array:
    """A new ``array('d')`` column holding *values*."""
    return array(FLOAT_TYPECODE, values)


def int_column(values: Iterable[int] = ()) -> array:
    """A new ``array('q')`` column holding *values*."""
    return array(INT_TYPECODE, values)


def as_float_column(values: Iterable[float]) -> array:
    """*values* as an ``array('d')``, adopting it when already one (no copy)."""
    if type(values) is array and values.typecode == FLOAT_TYPECODE:
        return values
    return array(FLOAT_TYPECODE, values)


def as_int_column(values: Iterable[int]) -> array:
    """*values* as an ``array('q')``, adopting it when already one (no copy)."""
    if type(values) is array and values.typecode == INT_TYPECODE:
        return values
    return array(INT_TYPECODE, values)


def clear_column(column) -> None:
    """Empty a column in place (works for both lists and typed arrays)."""
    del column[:]


# --------------------------------------------------------------------------- #
# Wire packing (always little-endian, regardless of host byte order)
# --------------------------------------------------------------------------- #
def column_to_bytes(column: array) -> bytes:
    """The column's elements as packed little-endian bytes."""
    if _LITTLE_ENDIAN:
        return column.tobytes()
    swapped = array(column.typecode, column)  # pragma: no cover - BE hosts only
    swapped.byteswap()
    return swapped.tobytes()


def column_from_bytes(typecode: str, data: bytes) -> array:
    """Inverse of :func:`column_to_bytes` for the given typecode."""
    column = array(typecode)
    column.frombytes(data)
    if not _LITTLE_ENDIAN:  # pragma: no cover - BE hosts only
        column.byteswap()
    return column


# --------------------------------------------------------------------------- #
# Gather and reduce (numpy-accelerated on large inputs)
# --------------------------------------------------------------------------- #
def _numpy_view(column: array):
    """Zero-copy numpy view over a typed column."""
    return np.frombuffer(column, dtype=np.float64 if column.typecode == FLOAT_TYPECODE else np.int64)


def take_floats(column: Sequence[float], indices: Sequence[int]) -> array:
    """``array('d', (column[i] for i in indices))``, vectorized when large.

    The numpy path gathers straight from the column's buffer into the new
    column's buffer — no per-element boxing — which is what keeps columnar
    routing splits (:meth:`ReadingColumns.gather`) cheap at city scale.
    """
    if (
        len(indices) >= NUMPY_MIN_ELEMENTS
        and type(column) is array
        and column.typecode == FLOAT_TYPECODE
    ):
        gathered = _numpy_view(column)[np.fromiter(indices, dtype=np.intp, count=len(indices))]
        out = array(FLOAT_TYPECODE)
        out.frombytes(gathered.tobytes())
        return out
    return array(FLOAT_TYPECODE, [column[i] for i in indices])


def take_ints(column: Sequence[int], indices: Sequence[int]) -> array:
    """``array('q', (column[i] for i in indices))``, vectorized when large."""
    if (
        len(indices) >= NUMPY_MIN_ELEMENTS
        and type(column) is array
        and column.typecode == INT_TYPECODE
    ):
        gathered = _numpy_view(column)[np.fromiter(indices, dtype=np.intp, count=len(indices))]
        out = array(INT_TYPECODE)
        out.frombytes(gathered.tobytes())
        return out
    return array(INT_TYPECODE, [column[i] for i in indices])


def column_sum(values: Sequence[int]) -> int:
    """``sum(values)`` with a vectorized path for large typed columns."""
    if len(values) >= NUMPY_MIN_ELEMENTS and type(values) is array:
        return int(_numpy_view(values).sum())
    return sum(values)


def column_min(values: Sequence[int]) -> Optional[int]:
    """``min(values)`` (None when empty), vectorized for large typed columns."""
    if not len(values):
        return None
    if len(values) >= NUMPY_MIN_ELEMENTS and type(values) is array:
        return _numpy_view(values).min().item()
    return min(values)
