"""Reading (observation) data model.

A :class:`Reading` is the atomic unit of data in the system: one measurement
emitted by one sensor at one instant.  Readings carry the *wire size* the
measurement occupies when transmitted (the quantity the paper's Table I is
built from), independent of the in-memory Python object size.

Columnar storage
----------------
The per-reading ``Reading`` dataclass is the *API* representation; the
*native* representation everywhere on the ingest hot path is
:class:`ReadingColumns` — parallel lists of the reading fields (one list per
column: sensor ids, values, timestamps, wire sizes, ...).  A city-scale
stream is millions of rows per hour; keeping them as columns removes the
dominant per-reading costs (frozen-dataclass construction and per-object
accounting) and lets every layer operate with bulk list operations.

:class:`ReadingBatch` is backed by a :class:`ReadingColumns` and materializes
``Reading`` objects lazily, only when a caller actually asks for them
(iteration, indexing, ``.readings``), so the public per-reading API keeps
working unchanged while batch producers and consumers stay column-wise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.serialization import (
    decode_columns_binary_v2,
    encode_columns_binary_v2,
    encode_csv_line,
    is_column_frame,
    pad_to_size,
)
from repro.common.typedcols import (
    as_float_column,
    as_int_column,
    clear_column,
    column_min,
    column_sum,
    take_floats,
    take_ints,
)

#: When set (``REPRO_DEBUG_BATCH_ACCOUNTING=1``), every materialization of a
#: batch re-verifies the incrementally maintained byte/category counters
#: against a full recount — catches callers that mutate a batch's backing
#: columns behind its back.
_DEBUG_ACCOUNTING = os.environ.get("REPRO_DEBUG_BATCH_ACCOUNTING", "") not in ("", "0")


@dataclass(frozen=True)
class Reading:
    """One sensor observation.

    Attributes
    ----------
    sensor_id:
        Identifier of the emitting device.
    sensor_type:
        Name of the sensor type (e.g. ``"electricity_meter"``).
    category:
        Sentilo category name (e.g. ``"energy"``).
    value:
        The measured value.  Scalar for most types.
    timestamp:
        Simulation time (seconds) at which the reading was produced.
    fog_node_id:
        Identifier of the fog layer-1 node whose area contains the sensor
        (filled in by the city model / acquisition block).
    size_bytes:
        Wire size of the encoded reading.  For catalog-driven streams this is
        exactly the per-transaction message size from Table I.
    tags:
        Free-form metadata attached by the data-description phase (timing,
        location, authoring, privacy, quality score, ...).
    """

    sensor_id: str
    sensor_type: str
    category: str
    value: Any
    timestamp: float
    fog_node_id: Optional[str] = None
    size_bytes: int = 0
    sequence: int = 0
    tags: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")

    def with_tags(self, **tags: Any) -> "Reading":
        """Return a copy of the reading with additional tags merged in."""
        merged = dict(self.tags)
        merged.update(tags)
        return replace(self, tags=merged)

    def with_fog_node(self, fog_node_id: str) -> "Reading":
        """Return a copy assigned to a fog layer-1 node."""
        return replace(self, fog_node_id=fog_node_id)

    def dedup_key(self) -> tuple:
        """Key used by redundant-data elimination.

        Two readings from the same sensor reporting the same value are
        considered redundant (the paper's example: repeated identical
        temperature measurements).
        """
        return (self.sensor_id, self.sensor_type, self.value)

    def encode(self) -> bytes:
        """Encode the reading as a fixed-size wire payload.

        The payload is a CSV-like line padded (or truncated) to
        ``size_bytes`` so that the byte volume observed by the network
        substrate matches the catalog's per-transaction message size exactly.
        Real constrained devices use compact binary framings of comparable
        size; what matters to the traffic experiments is the wire size, not
        the exact field layout.
        """
        line = encode_csv_line(
            [self.sensor_id, self.sensor_type, self.value, f"{self.timestamp:.3f}"]
        )
        if self.size_bytes:
            return pad_to_size(line, self.size_bytes)[: self.size_bytes]
        return line


#: Column-ordered field extractor used by the bulk reading decomposer.
_READING_FIELDS = attrgetter(
    "sensor_id",
    "sensor_type",
    "category",
    "value",
    "timestamp",
    "fog_node_id",
    "size_bytes",
    "sequence",
    "tags",
)


def _encode_row(sensor_id: str, sensor_type: str, value: Any, timestamp: float, size: int) -> bytes:
    """Wire encoding of one columnar row (same bytes as ``Reading.encode``)."""
    line = encode_csv_line([sensor_id, sensor_type, value, f"{timestamp:.3f}"])
    if size:
        return pad_to_size(line, size)[:size]
    return line


class ReadingColumns:
    """Column-oriented storage for a sequence of readings.

    Nine parallel columns, one per :class:`Reading` field; row *i* of the
    logical sequence is ``(sensor_ids[i], sensor_types[i], ...)``.  String
    columns hold shared references (sensor ids, types and categories come
    from a small fixed vocabulary, so the lists intern naturally); the tag
    column holds per-row dict references.

    The hot numeric columns (``timestamps``, ``sizes``) are *dual-backed*:
    plain Python lists while a batch is being built and consumed row-wise
    (appends and ``zip`` iteration over lists avoid a box/unbox per
    element, which measurably dominates the in-process ingest hot path),
    and typed arrays — ``array('d')`` / ``array('q')`` — where density and
    bulk operations win: columns decoded from wire frames arrive as typed
    arrays straight off the packed buffers (zero conversion), the
    time-series store keeps its partition columns typed (8 bytes per
    element instead of a boxed object, numpy-ready), and :meth:`compact`
    converts a long-held batch in place.  All mutation/consumption paths
    accept either backing.

    Columns are append/extend/gather-only: rows are never removed in place
    (filtering builds a new instance via :meth:`gather`), which keeps the
    maintained ``total_bytes`` counter and the lazily cached per-category
    statistics trivially consistent.

    Treat the column lists as read-only unless you own the instance; code
    that mutates them directly must keep all nine the same length and call
    :meth:`_invalidate` (or go through the mutation methods).
    """

    __slots__ = (
        "sensor_ids",
        "sensor_types",
        "categories",
        "values",
        "timestamps",
        "fog_node_ids",
        "sizes",
        "sequences",
        "tags",
        "_total_bytes",
        "_cat_cache",
    )

    def __init__(self) -> None:
        self.sensor_ids: List[str] = []
        self.sensor_types: List[str] = []
        self.categories: List[str] = []
        self.values: List[Any] = []
        self.timestamps: Sequence[float] = []  # list, or array('d') once compacted/decoded
        self.fog_node_ids: List[Optional[str]] = []
        self.sizes: Sequence[int] = []  # list, or array('q') once compacted/decoded
        self.sequences: List[int] = []
        self.tags: List[Optional[Dict[str, Any]]] = []
        self._total_bytes = 0
        # (row_count_at_compute, counts, bytes) — recomputed when stale.
        self._cat_cache: Optional[Tuple[int, Dict[str, int], Dict[str, int]]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_readings(cls, readings: Iterable[Reading]) -> "ReadingColumns":
        if isinstance(readings, list):
            return cls.from_reading_list(readings)
        columns = cls()
        columns.extend_readings(readings)
        return columns

    @classmethod
    def from_reading_list(cls, readings: List[Reading]) -> "ReadingColumns":
        """Decompose a reading list in bulk (hot path).

        One C-level attrgetter call per reading plus a ``zip(*...)``
        transpose — considerably cheaper than nine per-field comprehensions.
        """
        columns = cls()
        if not readings:
            return columns
        (
            sensor_ids,
            sensor_types,
            categories,
            values,
            timestamps,
            fog_node_ids,
            sizes,
            sequences,
            tags,
        ) = zip(*map(_READING_FIELDS, readings))
        columns.sensor_ids = list(sensor_ids)
        columns.sensor_types = list(sensor_types)
        columns.categories = list(categories)
        columns.values = list(values)
        columns.timestamps = list(timestamps)
        columns.fog_node_ids = list(fog_node_ids)
        columns.sizes = list(sizes)
        columns.sequences = list(sequences)
        columns.tags = list(tags)
        columns._total_bytes = sum(sizes)
        return columns

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def append_reading(self, reading: Reading) -> None:
        self.append_row(
            reading.sensor_id,
            reading.sensor_type,
            reading.category,
            reading.value,
            reading.timestamp,
            reading.fog_node_id,
            reading.size_bytes,
            reading.sequence,
            reading.tags,
        )

    def append_row(
        self,
        sensor_id: str,
        sensor_type: str,
        category: str,
        value: Any,
        timestamp: float,
        fog_node_id: Optional[str],
        size_bytes: int,
        sequence: int,
        tags: Optional[Dict[str, Any]],
    ) -> None:
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        self.sensor_ids.append(sensor_id)
        self.sensor_types.append(sensor_type)
        self.categories.append(category)
        self.values.append(value)
        self.timestamps.append(timestamp)
        self.fog_node_ids.append(fog_node_id)
        self.sizes.append(size_bytes)
        self.sequences.append(sequence)
        self.tags.append(tags)
        self._total_bytes += size_bytes

    def extend_readings(self, readings: Iterable[Reading]) -> None:
        append = self.append_reading
        for reading in readings:
            append(reading)

    def extend_columns(self, other: "ReadingColumns") -> None:
        """Append every row of *other* (bulk list extends, no materialization)."""
        # Carry the per-category statistics across the merge when both sides
        # have fresh caches (saves a full recount on the next accounting
        # touch — batches are re-counted once per hierarchy hop otherwise).
        merged_cache = None
        own_count = len(self.sensor_ids)
        if not own_count:
            other_cache = other._cat_cache
            if other_cache is not None and other_cache[0] == len(other.sensor_ids):
                merged_cache = other_cache
        else:
            own_cache = self._cat_cache
            other_cache = other._cat_cache
            if (
                own_cache is not None
                and own_cache[0] == own_count
                and other_cache is not None
                and other_cache[0] == len(other.sensor_ids)
            ):
                counts = dict(own_cache[1])
                volumes = dict(own_cache[2])
                for category, count in other_cache[1].items():
                    counts[category] = counts.get(category, 0) + count
                for category, volume in other_cache[2].items():
                    volumes[category] = volumes.get(category, 0) + volume
                merged_cache = (own_count + len(other.sensor_ids), counts, volumes)
        self.sensor_ids.extend(other.sensor_ids)
        self.sensor_types.extend(other.sensor_types)
        self.categories.extend(other.categories)
        self.values.extend(other.values)
        self.timestamps.extend(other.timestamps)
        self.fog_node_ids.extend(other.fog_node_ids)
        self.sizes.extend(other.sizes)
        self.sequences.extend(other.sequences)
        self.tags.extend(other.tags)
        self._total_bytes += other._total_bytes
        self._cat_cache = merged_cache

    def extend_arrays(
        self,
        sensor_ids: Sequence[str],
        sensor_types: Sequence[str],
        categories: Sequence[str],
        values: Sequence[Any],
        timestamps: Sequence[float],
        fog_node_ids: Sequence[Optional[str]],
        sizes: Sequence[int],
        sequences: Sequence[int],
        tags: Sequence[Optional[Dict[str, Any]]],
    ) -> None:
        """Trusted bulk append of pre-built equal-length column slices."""
        self.sensor_ids.extend(sensor_ids)
        self.sensor_types.extend(sensor_types)
        self.categories.extend(categories)
        self.values.extend(values)
        self.timestamps.extend(timestamps)
        self.fog_node_ids.extend(fog_node_ids)
        self.sizes.extend(sizes)
        self.sequences.extend(sequences)
        self.tags.extend(tags)
        self._total_bytes += sum(sizes)

    def clear(self) -> None:
        self.sensor_ids.clear()
        self.sensor_types.clear()
        self.categories.clear()
        self.values.clear()
        clear_column(self.timestamps)
        self.fog_node_ids.clear()
        clear_column(self.sizes)
        self.sequences.clear()
        self.tags.clear()
        self._total_bytes = 0
        self._cat_cache = None

    # ------------------------------------------------------------------ #
    # Row access / materialization
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.sensor_ids)

    def materialize(self, index: int) -> Reading:
        """Build the :class:`Reading` for row *index* (a fresh object)."""
        tags = self.tags[index]
        return Reading(
            sensor_id=self.sensor_ids[index],
            sensor_type=self.sensor_types[index],
            category=self.categories[index],
            value=self.values[index],
            timestamp=self.timestamps[index],
            fog_node_id=self.fog_node_ids[index],
            size_bytes=self.sizes[index],
            sequence=self.sequences[index],
            tags=tags if tags is not None else {},
        )

    def to_readings(self) -> List[Reading]:
        """Materialize every row, in order."""
        return [
            Reading(
                sensor_id=sid,
                sensor_type=st,
                category=cat,
                value=value,
                timestamp=ts,
                fog_node_id=fog,
                size_bytes=size,
                sequence=seq,
                tags=tags if tags is not None else {},
            )
            for sid, st, cat, value, ts, fog, size, seq, tags in zip(
                self.sensor_ids,
                self.sensor_types,
                self.categories,
                self.values,
                self.timestamps,
                self.fog_node_ids,
                self.sizes,
                self.sequences,
                self.tags,
            )
        ]

    def iter_readings(self) -> Iterator[Reading]:
        for index in range(len(self.sensor_ids)):
            yield self.materialize(index)

    def gather(self, indices: Iterable[int]) -> "ReadingColumns":
        """New columns holding the given rows, in the given order."""
        out = ReadingColumns()
        ids, types, cats = self.sensor_ids, self.sensor_types, self.categories
        values, tss, fogs = self.values, self.timestamps, self.fog_node_ids
        sizes, seqs, tags = self.sizes, self.sequences, self.tags
        index_list = indices if isinstance(indices, list) else list(indices)
        out.sensor_ids = [ids[i] for i in index_list]
        out.sensor_types = [types[i] for i in index_list]
        out.categories = [cats[i] for i in index_list]
        out.values = [values[i] for i in index_list]
        # Preserve each column's backing: typed gathers stay typed (and
        # vectorize via numpy when large), list gathers stay lists.
        out.timestamps = (
            [tss[i] for i in index_list] if type(tss) is list else take_floats(tss, index_list)
        )
        out.fog_node_ids = [fogs[i] for i in index_list]
        out.sizes = (
            [sizes[i] for i in index_list] if type(sizes) is list else take_ints(sizes, index_list)
        )
        out.sequences = [seqs[i] for i in index_list]
        out.tags = [tags[i] for i in index_list]
        out._total_bytes = column_sum(out.sizes)
        return out

    def slice(self, start: int, stop: int) -> "ReadingColumns":
        """New columns holding rows ``[start, stop)`` (nine C-level slices)."""
        out = ReadingColumns()
        out.sensor_ids = self.sensor_ids[start:stop]
        out.sensor_types = self.sensor_types[start:stop]
        out.categories = self.categories[start:stop]
        out.values = self.values[start:stop]
        out.timestamps = self.timestamps[start:stop]  # slices keep the backing type
        out.fog_node_ids = self.fog_node_ids[start:stop]
        out.sizes = self.sizes[start:stop]
        out.sequences = self.sequences[start:stop]
        out.tags = self.tags[start:stop]
        out._total_bytes = column_sum(out.sizes)
        return out

    def split(self, counts: Iterable[int]) -> List["ReadingColumns"]:
        """Consecutive :meth:`slice` s of the given lengths, from row 0 on."""
        parts = []
        start = 0
        for count in counts:
            parts.append(self.slice(start, start + count))
            start += count
        return parts

    @property
    def frozen(self) -> bool:
        """Whether the instance is read-only (see :meth:`freeze`)."""
        return False

    def freeze(self) -> "ReadingColumns":
        """Make the instance read-only in place; returns ``self``.

        Every mutating method raises afterwards.  Freezing lets a shared
        owner (the query service's memo) hand the same columns to many
        readers without a defensive copy per reader — anyone who needs a
        mutable instance takes an explicit :meth:`copy` (which is always
        unfrozen), e.g. via ``QueryResult.batch()``.

        Implemented as a class swap onto an empty-``__slots__`` subclass,
        so the unfrozen mutation paths (the ingest hot path) pay nothing —
        not even a flag check.
        """
        self.__class__ = _FrozenReadingColumns
        return self

    def copy(self) -> "ReadingColumns":
        out = ReadingColumns()
        out.sensor_ids = list(self.sensor_ids)
        out.sensor_types = list(self.sensor_types)
        out.categories = list(self.categories)
        out.values = list(self.values)
        out.timestamps = self.timestamps[:]  # slice copy keeps the backing type
        out.fog_node_ids = list(self.fog_node_ids)
        out.sizes = self.sizes[:]
        out.sequences = list(self.sequences)
        out.tags = list(self.tags)
        out._total_bytes = self._total_bytes
        return out

    def compact(self) -> "ReadingColumns":
        """Convert the hot numeric columns to typed arrays, in place.

        One bulk C conversion per column; afterwards the batch holds its
        timestamps/sizes at 8 bytes per element instead of a pointer to a
        boxed object — worth it for batches parked for a while (e.g. a fog
        tier's pending-upward backlog between transfer rounds).  Returns
        ``self`` for chaining.  No-op on already-typed columns.
        """
        self.timestamps = as_float_column(self.timestamps)
        self.sizes = as_int_column(self.sizes)
        return self

    def tags_at(self, index: int) -> Dict[str, Any]:
        """The tag dict of row *index* (empty dict when the row has none)."""
        tags = self.tags[index]
        return tags if tags is not None else {}

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def _category_stats(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(counts, bytes) per category, cached until the row count changes."""
        cache = self._cat_cache
        n = len(self.sensor_ids)
        if cache is not None and cache[0] == n:
            return cache[1], cache[2]
        counts: Dict[str, int] = {}
        volumes: Dict[str, int] = {}
        for category, size in zip(self.categories, self.sizes):
            counts[category] = counts.get(category, 0) + 1
            volumes[category] = volumes.get(category, 0) + size
        self._cat_cache = (n, counts, volumes)
        return counts, volumes

    def category_counts(self) -> Dict[str, int]:
        return dict(self._category_stats()[0])

    def category_bytes(self) -> Dict[str, int]:
        return dict(self._category_stats()[1])

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the nine columns.

        Typed array columns count their packed buffer; list columns count
        one slot pointer per row plus each distinct referenced object once
        — the string and tag columns share references heavily (interning),
        so a shared object is never double-charged.  An honest O(rows) count
        for columns that *own* their objects (hydrated cold stores), not exact.
        """
        import sys

        total = 0
        seen = set()
        for column in (
            self.sensor_ids,
            self.sensor_types,
            self.categories,
            self.values,
            self.timestamps,
            self.fog_node_ids,
            self.sizes,
            self.sequences,
            self.tags,
        ):
            if isinstance(column, list):
                total += 8 * len(column)  # one CPython slot pointer per row
                for item in column:
                    if item is None:
                        continue
                    marker = id(item)
                    if marker not in seen:
                        seen.add(marker)
                        total += sys.getsizeof(item)
            else:  # typed array backing: a packed buffer, itemsize per row
                total += len(column) * column.itemsize
        return total

    def _invalidate(self) -> None:
        """Drop cached statistics after a direct column mutation."""
        self._cat_cache = None
        self._total_bytes = sum(self.sizes)

    # ------------------------------------------------------------------ #
    # Wire format
    # ------------------------------------------------------------------ #
    def encode_rows(self) -> Iterator[bytes]:
        """Each row's wire encoding (same bytes as ``Reading.encode()``)."""
        return map(
            _encode_row, self.sensor_ids, self.sensor_types, self.values, self.timestamps, self.sizes
        )

    def encode(self) -> bytes:
        """Per-reading wire encodings, concatenated (no frame header).

        Byte-identical to concatenating ``Reading.encode()`` over the
        materialized rows.
        """
        return b"".join(self.encode_rows())

    def encode_frame(self) -> bytes:
        """One self-describing wire frame for the whole column set.

        This is the batch wire format fog nodes receive (one frame per
        node-round instead of one CSV payload per reading); the per-reading
        Table-I wire sizes travel in the frame so traffic accounting at the
        receiver is identical to the per-reading CSV path.  Fog-node ids and
        tags are not part of the wire format (they are assigned by the
        receiving node's acquisition block, exactly as with CSV payloads).
        The layout is binary version 2: packed columns compressed against
        the shared deployment dictionary.
        """
        return encode_columns_binary_v2(self._wire_columns())

    def encode_frame_extended(self) -> bytes:
        """One *extended* v2 frame carrying tags and fog-node ids in-body.

        Unlike :meth:`encode_frame`, the per-row tag dicts and fog-node
        assignments travel inside the frame as dictionary-coded columns
        (identity-interned, so rows sharing one tag dict decode back to one
        shared object).  Two writers use it, both carrying rows that were
        already acquired: the shard IPC BATCH (one frame per worker and sync
        point) and the durable segment log (one frame per record).  The
        broker wire keeps the plain seven-column layout, where the receiving
        node's acquisition block assigns tags and fog ids itself.  It uses
        the codec's *fast* deflate: a local pipe or log file is CPU-bound,
        not bandwidth-bound.
        """
        return encode_columns_binary_v2(
            self._wire_columns(), tags=self.tags, fog_node_ids=self.fog_node_ids, fast=True
        )

    def _wire_columns(self) -> dict:
        return {
            "sensor_ids": self.sensor_ids,
            "sensor_types": self.sensor_types,
            "categories": self.categories,
            "values": self.values,
            "timestamps": self.timestamps,
            "sizes": self.sizes,
            "sequences": self.sequences,
        }

    @classmethod
    def decode_frame(cls, payload: bytes) -> "ReadingColumns":
        """Inverse of :meth:`encode_frame` and :meth:`encode_frame_extended`.

        Raises ``ValueError`` for any malformed frame — a frame decodes
        whole or not at all, so a corrupt payload can never partially
        ingest.  The decoder builds every column typed and validated —
        strings out of its string table, f64 timestamps, i64 sizes and
        sequences — so they are adopted as they are.
        """
        record = decode_columns_binary_v2(payload)
        out = cls()
        n = len(record["sensor_ids"])
        out.sensor_ids = record["sensor_ids"]
        out.sensor_types = record["sensor_types"]
        out.categories = record["categories"]
        out.values = record["values"]
        out.timestamps = record["timestamps"]
        out.sizes = record["sizes"]
        out.sequences = record["sequences"].tolist()
        smallest = column_min(out.sizes)
        if smallest is not None and smallest < 0:
            # A reading can never carry a negative wire size (Reading and
            # append_row both enforce this); a frame must not smuggle one
            # into the byte accounting.
            raise ValueError("column frame carries a negative wire size")
        # Extended frames carry the identity columns in-body (already
        # validated per table entry by the frame decoder); every other
        # frame leaves them for the receiving acquisition block to assign.
        tags = record.get("tags")
        out.tags = tags if tags is not None else [None] * n
        fog_node_ids = record.get("fog_node_ids")
        out.fog_node_ids = fog_node_ids if fog_node_ids is not None else [None] * n
        out._total_bytes = column_sum(out.sizes)
        return out

    @staticmethod
    def is_frame(payload: bytes) -> bool:
        """Whether *payload* is a column frame (vs a per-reading CSV line)."""
        return is_column_frame(payload)

    def __repr__(self) -> str:
        return f"ReadingColumns(n={len(self.sensor_ids)}, bytes={self._total_bytes})"


class _FrozenReadingColumns(ReadingColumns):
    """Read-only :class:`ReadingColumns` (the post-:meth:`freeze` class).

    Same memory layout (empty ``__slots__``), so :meth:`ReadingColumns.freeze`
    can swap a live instance's class; every mutator raises.  :meth:`copy`
    (inherited) still returns a regular, mutable ``ReadingColumns``.
    """

    __slots__ = ()

    @property
    def frozen(self) -> bool:
        return True

    def freeze(self) -> "ReadingColumns":
        return self

    def _refuse(self, *_args, **_kwargs):
        raise TypeError(
            "these ReadingColumns are frozen (shared read-only, e.g. a memoized "
            "query result); take a mutable copy with .copy() or adopt via "
            "QueryResult.batch()"
        )

    append_reading = _refuse
    append_row = _refuse
    extend_readings = _refuse
    extend_columns = _refuse
    extend_arrays = _refuse
    clear = _refuse
    compact = _refuse
    _invalidate = _refuse


class ReadingsView(Sequence):
    """Read-only sequence view over a batch's materialized readings.

    Returned by :attr:`ReadingBatch.readings` instead of the backing list so
    callers cannot mutate the batch behind its incremental byte/category
    counters (the PR 1 aliasing hazard).
    """

    __slots__ = ("_items",)

    def __init__(self, items: List[Reading]) -> None:
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        result = self._items[index]
        return list(result) if isinstance(index, slice) else result

    def __iter__(self) -> Iterator[Reading]:
        return iter(self._items)

    def __repr__(self) -> str:
        return f"ReadingsView(n={len(self._items)})"


class ReadingBatch:
    """An ordered collection of readings with aggregate size accounting.

    Batches are what fog nodes accumulate between periodic upward transfers;
    aggregation techniques operate on batches and report how many bytes they
    removed.

    Columnar internals: the batch's single source of truth is a
    :class:`ReadingColumns`; ``Reading`` objects are materialized lazily (and
    cached) only when a caller uses the per-reading API (iteration, indexing,
    :attr:`readings`, :meth:`filter`).  Producers and consumers on the hot
    path exchange the columns directly via :meth:`to_columns` /
    :meth:`from_columns` and never pay for object materialization.

    ``total_bytes`` is maintained incrementally and per-category statistics
    are cached, so the accounting the ingest hot path touches once per
    transfer stays O(1)/O(#categories) regardless of batch size.
    """

    __slots__ = ("_columns", "_cache")

    def __init__(self, readings: Optional[Iterable[Reading]] = None) -> None:
        self._columns = ReadingColumns()
        # Materialized Reading objects, kept in sync with the columns (or
        # None when nothing has asked for per-reading access yet).
        self._cache: Optional[List[Reading]] = None
        if readings is not None:
            self.extend(readings)

    # ------------------------------------------------------------------ #
    # Columnar interface
    # ------------------------------------------------------------------ #
    @classmethod
    def from_columns(cls, columns: ReadingColumns) -> "ReadingBatch":
        """Wrap *columns* as a batch (adopts the instance, no copy).

        The batch takes ownership: mutate the data through the batch (or not
        at all) afterwards.
        """
        batch = cls.__new__(cls)
        batch._columns = columns
        batch._cache = None
        return batch

    def to_columns(self) -> ReadingColumns:
        """The batch's backing columns (live view, not a copy)."""
        if _DEBUG_ACCOUNTING:
            self.verify_accounting()
        return self._columns

    @property
    def columns(self) -> ReadingColumns:
        return self._columns

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def append(self, reading: Reading) -> None:
        self._columns.append_reading(reading)
        # Any mutation drops the materialization cache so that previously
        # handed-out views/iterators are uniformly frozen snapshots (a mix
        # of live-growing and stale views would be worse than either).
        self._cache = None

    def extend(self, readings: Iterable[Reading]) -> None:
        self._cache = None
        if isinstance(readings, ReadingBatch):
            self._columns.extend_columns(readings._columns)
            return
        if isinstance(readings, ReadingColumns):
            self._columns.extend_columns(readings)
            return
        columns_append = self._columns.append_reading
        for reading in readings:
            columns_append(reading)

    def clear(self) -> None:
        self._columns.clear()
        self._cache = None

    # ------------------------------------------------------------------ #
    # Per-reading access (lazy materialization)
    # ------------------------------------------------------------------ #
    def _materialized(self) -> List[Reading]:
        if self._cache is None:
            if _DEBUG_ACCOUNTING:
                self.verify_accounting()
            self._cache = self._columns.to_readings()
        return self._cache

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Reading]:
        return iter(self._materialized())

    def __getitem__(self, index):
        return self._materialized()[index]

    def __bool__(self) -> bool:
        return len(self._columns) > 0

    @property
    def readings(self) -> Sequence[Reading]:
        """The batch's readings as a read-only sequence view.

        The view cannot be mutated, so the incremental byte/category
        counters cannot be silently corrupted by callers (they previously
        received the backing list itself).  It is a snapshot frozen at
        access time: mutating the batch afterwards does not change it.
        """
        return ReadingsView(self._materialized())

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def total_bytes(self) -> int:
        """Sum of the wire sizes of all readings in the batch."""
        return self._columns.total_bytes

    def categories(self) -> Dict[str, int]:
        """Number of readings per category."""
        return self._columns.category_counts()

    def bytes_by_category(self) -> Dict[str, int]:
        """Total wire bytes per category."""
        return self._columns.category_bytes()

    def verify_accounting(self) -> None:
        """Assert the maintained counters match a full recount (debug aid)."""
        columns = self._columns
        recount = sum(columns.sizes)
        if columns.total_bytes != recount:
            raise AssertionError(
                f"batch accounting corrupted: total_bytes={columns.total_bytes} "
                f"but columns sum to {recount} (was the backing storage mutated directly?)"
            )
        lengths = {
            len(columns.sensor_ids),
            len(columns.sensor_types),
            len(columns.categories),
            len(columns.values),
            len(columns.timestamps),
            len(columns.fog_node_ids),
            len(columns.sizes),
            len(columns.sequences),
            len(columns.tags),
        }
        if len(lengths) != 1:
            raise AssertionError(f"batch columns have diverging lengths: {sorted(lengths)}")

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def filter(self, predicate) -> "ReadingBatch":
        """Return a new batch containing the readings matching *predicate*."""
        readings = self._materialized()
        keep = [i for i, reading in enumerate(readings) if predicate(reading)]
        result = ReadingBatch.from_columns(self._columns.gather(keep))
        result._cache = [readings[i] for i in keep]
        return result

    def split_by_category(self) -> Dict[str, "ReadingBatch"]:
        """Partition the batch into one sub-batch per category."""
        buckets: Dict[str, List[int]] = {}
        for index, category in enumerate(self._columns.categories):
            bucket = buckets.get(category)
            if bucket is None:
                bucket = buckets[category] = []
            bucket.append(index)
        return {
            category: ReadingBatch.from_columns(self._columns.gather(indices))
            for category, indices in buckets.items()
        }

    def compact(self) -> "ReadingBatch":
        """Convert the hot numeric columns to typed arrays in place.

        See :meth:`ReadingColumns.compact`; use on batches held for a while
        (pending queues, archives) to cut their memory footprint.
        """
        self._columns.compact()
        return self

    def encode(self) -> bytes:
        """Concatenate the wire encodings of every reading in the batch."""
        return self._columns.encode()

    def copy(self) -> "ReadingBatch":
        clone = ReadingBatch.from_columns(self._columns.copy())
        if self._cache is not None:
            clone._cache = list(self._cache)
        return clone

    def __repr__(self) -> str:
        return f"ReadingBatch(n={len(self._columns)}, bytes={self.total_bytes})"
