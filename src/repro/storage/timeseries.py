"""An in-memory time-series store for sensor readings.

Layout
------
The paper's tiers hold data by *area*: a fog layer-1 node holds its section,
a fog layer-2 node "the combination of the respective fog nodes' areas at
layer 1", the cloud every area.  The store keeps rows the same way: one
:class:`_Partition` per acquiring fog node (``Reading.fog_node_id``; ``None``
is a key like any other), partitions in first-seen order.  A partition holds
parallel columns — ``timestamps`` (``array('d')``), ``sizes`` (``array('q')``)
and lists of sensor ids, types, categories, values, sequences and tag dicts.
The fog id is the partition key and is not stored per row.  Within a
partition timestamps never decrease, and rows with equal timestamps keep
their arrival order.  On the ingest hot path a fog layer-1 store has one
partition, a fog layer-2 store one per child, the cloud one per section.
A reading ingested through the batch path is never a Python object inside
the store; ``Reading`` instances are built only at the query API boundary
(``latest``, ``query``, ``all_readings``, eviction victims).

Order contract
--------------
* Window results — :meth:`TimeSeriesStore.query_window` and every bucket of
  :meth:`TimeSeriesStore.query_window_partitioned` — are ordered by
  (partition first-seen order, timestamp, arrival).  Replaying the same
  appends rebuilds the same partitions, so the order is reproducible.
* :meth:`TimeSeriesStore.query` returns one sensor's rows by timestamp;
  ties go to partition order, then arrival.  :meth:`~TimeSeriesStore.latest`
  is its last row.
* :meth:`TimeSeriesStore.remove_oldest` takes victims by (timestamp,
  partition first-seen order, position).

Cost model
----------
* **Append.**  A batch splits into runs of equal fog id (one run for a fog
  layer-1 or layer-2 batch, one per child at the cloud).  A time-sorted run
  not older than its partition's tail is one slice-extend per column; any
  other run merges with one stable sort over the partition suffix it
  overlaps.  Counters update once per batch.
* **Window scan.**  Per partition visited: two bisects and one slice per
  column.  Without a filter the first non-empty partition's slices *are*
  the result's columns (its typed timestamp and size slices become lists;
  the fog column is the key repeated), and later partitions are appended
  to them, so each returned row is copied once.  A fog filter visits one
  partition, a sensor filter only the partitions that ever held the
  sensor; category and sensor filters test only the rows inside the
  window slice and gather just the matches.
* **Eviction.**  Per partition: one bisect and one prefix delete.  Byte and
  category accounting sums the evicted prefix's columns.
* **Canonical rows.**  Per partition: one stable argsort of its sensor
  column; per sensor: one gather and one sort of its own rows.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, compress, groupby, islice, repeat
from operator import and_, attrgetter, eq, itemgetter, le
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.common.typedcols import float_column, int_column
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns

_STALE = object()  # "not cached": ``None`` is a real oldest_timestamp() (empty store)
_by_timestamp = attrgetter("timestamp")
_by_order = attrgetter("order")


def _category_volumes(categories: Sequence[str], sizes: Sequence[int]) -> Dict[str, int]:
    """Bytes per category over parallel category / size columns."""
    return {
        category: sum(compress(sizes, map(eq, categories, repeat(category))))
        for category in set(categories)
    }


class _Partition:
    """One fog node's rows as parallel columns, timestamp-ordered.

    ``columns()`` is ``(sensor_ids, sensor_types, categories, values,
    timestamps, sizes, sequences, tags)`` — :class:`ReadingColumns` order
    without the fog id, which is ``key``.  ``order`` is the partition's
    first-seen rank in its store; ``seen`` holds every sensor id ever
    appended (a superset of the live ones once rows are evicted).
    """

    __slots__ = (
        "key",
        "order",
        "seen",
        "sensor_ids",
        "types",
        "categories",
        "values",
        "timestamps",
        "sizes",
        "sequences",
        "tags",
    )

    def __init__(self, key: Optional[str], order: int) -> None:
        self.key = key
        self.order = order
        self.seen: set = set()
        self.sensor_ids: List[str] = []
        self.types: List[str] = []
        self.categories: List[str] = []
        self.values: list = []
        self.timestamps = float_column()
        self.sizes = int_column()
        self.sequences: List[int] = []
        self.tags: list = []

    def columns(self) -> tuple:
        return (
            self.sensor_ids,
            self.types,
            self.categories,
            self.values,
            self.timestamps,
            self.sizes,
            self.sequences,
            self.tags,
        )

    def rows(self, start: int, end: int) -> List[Sequence]:
        """Rows ``[start, end)`` as one slice per column."""
        return [column[start:end] for column in self.columns()]

    def take(self, indices: List[int]) -> List[tuple]:
        """The rows at *indices* (at least one), one tuple per column."""
        if len(indices) == 1:  # itemgetter of one index returns the bare item
            (index,) = indices
            return [(column[index],) for column in self.columns()]
        gather = itemgetter(*indices)
        return [gather(column) for column in self.columns()]

    def readings(self, start: int, end: int) -> List[Reading]:
        """Rows ``[start, end)`` materialized."""
        out = ReadingColumns()
        _emit(out, self.key, self.rows(start, end))
        return out.to_readings()

    def add(self, run: Sequence[Sequence]) -> None:
        """Append a run (parallel columns in :meth:`columns` order)."""
        timestamps = run[4]
        own = self.timestamps
        if all(map(le, timestamps, islice(timestamps, 1, None))) and (
            not own or timestamps[0] >= own[-1]
        ):
            for column, new in zip(self.columns(), run):
                column.extend(new)
            return
        # Out of order or straddling the tail: every row before ``start``
        # stays put (it is not newer than any incoming row), and the suffix
        # plus the run is put in place by one stable sort — old rows first,
        # so equal timestamps keep arrival order.
        start = bisect_right(own, min(timestamps))
        merged = list(own[start:])
        merged.extend(timestamps)
        order = sorted(range(len(merged)), key=merged.__getitem__)
        for column, new in zip(self.columns(), run):
            tail = list(column[start:])
            tail.extend(new)
            del column[start:]
            column.extend([tail[i] for i in order])


def _emit(out: ReadingColumns, key: Optional[str], rows: List[Sequence]) -> None:
    """Append one partition's row slices to *out*, restoring the fog column."""
    ids, types, categories, values, timestamps, sizes, sequences, tags = rows
    out.extend_arrays(
        ids, types, categories, values, timestamps, [key] * len(ids), sizes, sequences, tags
    )


def _adopt(key: Optional[str], rows: List[Sequence]) -> ReadingColumns:
    """Fresh :meth:`_Partition.rows` slices as result columns, not copied again.

    The typed timestamp and size slices become lists, as :func:`_emit`
    makes them, so a result holds the same objects either way.
    """
    ids, types, categories, values, timestamps, sizes, sequences, tags = rows
    out = ReadingColumns()
    out.sensor_ids = ids
    out.sensor_types = types
    out.categories = categories
    out.values = values
    out.timestamps = timestamps.tolist()
    out.fog_node_ids = [key] * len(ids)
    out.sizes = sizes.tolist()
    out.sequences = sequences
    out.tags = tags
    out._total_bytes = sum(sizes)
    return out


class TimeSeriesStore:
    """Append-mostly reading storage with time-range queries."""

    def __init__(self, name: str = "store") -> None:
        self.name = name
        self._parts: Dict[Optional[str], _Partition] = {}
        #: sensor id -> partitions that ever held it, in partition order
        #: (a superset of the live ones once rows are evicted).
        self._sensor_parts: Dict[str, List[_Partition]] = {}
        self._count = 0
        self._total_bytes = 0
        self._bytes_by_category: defaultdict = defaultdict(int)
        self._oldest = _STALE  # cached oldest_timestamp(); reset by every mutating call

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _add_run(self, key: Optional[str], run: Sequence[Sequence]) -> None:
        part = self._parts.get(key)
        if part is None:
            part = self._parts[key] = _Partition(key, len(self._parts))
        sensor_ids = run[0]
        if not part.seen.issuperset(sensor_ids):
            sensor_parts = self._sensor_parts
            for sensor_id in set(sensor_ids).difference(part.seen):
                parts = sensor_parts.setdefault(sensor_id, [])
                parts.append(part)
                parts.sort(key=_by_order)
            part.seen.update(sensor_ids)
        part.add(run)

    def append(self, reading: Reading) -> None:
        """Insert a reading, keeping its partition ordered by timestamp."""
        self.extend_columns(ReadingColumns.from_reading_list([reading]))

    def extend(self, readings: Iterable[Reading]) -> int:
        """Insert many readings; returns the number inserted."""
        if isinstance(readings, ReadingBatch):
            return self.extend_columns(readings.columns)
        if isinstance(readings, ReadingColumns):
            return self.extend_columns(readings)
        return self.extend_columns(ReadingColumns.from_readings(readings))

    def extend_batch(self, batch: ReadingBatch) -> int:
        """Insert a whole batch column-wise (the ingest hot path)."""
        return self.extend_columns(batch.columns)

    def extend_columns(self, columns: ReadingColumns) -> int:
        """Insert every row of *columns* without materializing readings."""
        n = len(columns)
        if not n:
            return 0
        self._oldest = _STALE
        run = (
            columns.sensor_ids,
            columns.sensor_types,
            columns.categories,
            columns.values,
            columns.timestamps,
            columns.sizes,
            columns.sequences,
            columns.tags,
        )
        fog_node_ids = columns.fog_node_ids
        first = fog_node_ids[0]
        if fog_node_ids.count(first) == n:
            self._add_run(first, run)
        else:
            start = 0
            for key, group in groupby(fog_node_ids):
                end = start + len(list(group))
                self._add_run(key, [column[start:end] for column in run])
                start = end
        self._count += n
        self._total_bytes += columns.total_bytes
        bytes_by_category = self._bytes_by_category
        for category, volume in columns.category_bytes().items():
            bytes_by_category[category] += volume
        return n

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _scan(
        self,
        parts: Iterable[_Partition],
        since: float,
        until: float,
        category: Optional[str] = None,
        sensor_id: Optional[str] = None,
    ) -> ReadingColumns:
        """The window's rows of *parts*, in order, optionally filtered.

        The first unfiltered slice is adopted as the result's columns; later
        ones are appended to it.
        """
        out = None
        for part in parts:
            timestamps = part.timestamps
            start = bisect_left(timestamps, since)
            end = bisect_left(timestamps, until)
            if start >= end:
                continue
            if category is None and sensor_id is None:
                if out is None:
                    out = _adopt(part.key, part.rows(start, end))
                else:
                    _emit(out, part.key, part.rows(start, end))
                continue
            mask = None
            if category is not None:
                mask = map(eq, part.categories[start:end], repeat(category))
            if sensor_id is not None:
                matches = map(eq, part.sensor_ids[start:end], repeat(sensor_id))
                mask = matches if mask is None else map(and_, mask, matches)
            indices = list(compress(range(start, end), mask))
            if indices:
                if out is None:
                    out = ReadingColumns()
                _emit(out, part.key, part.take(indices))
        return out if out is not None else ReadingColumns()

    def latest(self, sensor_id: str) -> Reading:
        """The most recent reading of *sensor_id*; raises if it has none."""
        readings = self.query(sensor_id)
        if not readings:
            raise StorageError(f"no readings stored for sensor {sensor_id!r}")
        return readings[-1]

    def has_series(self, sensor_id: str) -> bool:
        return any(sensor_id in part.sensor_ids for part in self._sensor_parts.get(sensor_id, ()))

    def fog_of_series(self, sensor_id: str) -> Optional[str]:
        """The acquiring fog node id of *sensor_id*'s rows, when unambiguous.

        ``None`` for a sensor with no rows — and for one whose rows sit in
        more than one partition, where no single answer exists; callers
        fall back to probing then.  A broad tier (fog layer 2, the cloud)
        uses this to name the fog layer-1 chain owning a sensor's area
        without probing every chain's store.
        """
        live = [
            part.key
            for part in self._sensor_parts.get(sensor_id, ())
            if sensor_id in part.sensor_ids
        ]
        return live[0] if len(live) == 1 else None

    def query(
        self,
        sensor_id: str,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[Reading]:
        """Readings of *sensor_id* with ``since <= timestamp < until``, by time."""
        parts = self._sensor_parts.get(sensor_id, ())
        readings = self._scan(parts, since, until, sensor_id=sensor_id).to_readings()
        if len(parts) > 1:
            readings.sort(key=_by_timestamp)
        return readings

    def query_window(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        category: Optional[str] = None,
        sensor_id: Optional[str] = None,
        fog_node_id: Optional[str] = None,
    ) -> ReadingBatch:
        """All readings in the window, optionally filtered.

        ``since`` is inclusive, ``until`` exclusive (``since <= ts < until``,
        matching :meth:`query`).  *category*, *sensor_id* and *fog_node_id*
        narrow the result; the fog filter is what lets a broad tier (fog
        layer 2, the cloud) answer for one fog layer-1 node's area — it
        selects that node's partition.  Rows come in (partition, timestamp,
        arrival) order; no ``Reading`` objects are created.
        """
        if sensor_id is not None:
            parts = self._sensor_parts.get(sensor_id, ())
            if fog_node_id is not None:
                parts = [part for part in parts if part.key == fog_node_id]
        elif fog_node_id is not None:
            part = self._parts.get(fog_node_id)
            parts = (part,) if part is not None else ()
        else:
            parts = self._parts.values()
        return ReadingBatch.from_columns(self._scan(parts, since, until, category, sensor_id))

    def query_window_partitioned(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        partition_by: str = "fog_node_id",
        category: Optional[str] = None,
    ) -> Dict[Optional[str], ReadingBatch]:
        """All readings in the window, binned by acquiring fog node (or category).

        ``result[key]`` is row-identical (order included) to
        ``query_window(fog_node_id=key)`` (resp. ``category=key``).  Keys
        without rows in the window are absent.  The optional *category*
        narrows rows before binning.
        """
        if partition_by == "fog_node_id":
            buckets = (
                (part.key, self._scan((part,), since, until, category))
                for part in self._parts.values()
            )
        elif partition_by == "category":
            parts = self._parts.values()
            categories = list(self._bytes_by_category) if category is None else [category]
            buckets = ((key, self._scan(parts, since, until, key)) for key in categories)
        else:
            raise StorageError(
                f"partition_by must be 'fog_node_id' or 'category', got {partition_by!r}"
            )
        return {key: ReadingBatch.from_columns(rows) for key, rows in buckets if len(rows)}

    def all_readings(self) -> Iterator[Reading]:
        for part in self._parts.values():
            yield from part.readings(0, len(part.timestamps))

    def canonical_groups(self) -> Iterator[List[tuple]]:
        """The canonical rows one sensor at a time: a sorted list per sensor id.

        A row is ``(sensor_id, sensor_type, category, value, timestamp,
        size_bytes, sequence, tag_items)``.  Sensor ids come in ascending
        order; each sensor's rows are gathered from every partition that
        holds it, in :meth:`all_readings` order, and put through ``sorted()``.
        For rows that order totally this is the order of one global sort;
        where a NaN value or tag value makes ``sorted()`` depend on its
        input order, only the sensor's own rows are that input
        ("sensor-major").

        ``tag_items`` is ``tuple(sorted(tags.items()))`` (``()`` for ``None``
        or empty tags), built once per distinct tag dict and shared by its
        rows; an item tuple is shared by every dict holding the same key and
        value objects.

        Memory: besides one group's rows, the iterator holds one sort
        permutation per partition (8 bytes per stored row) and the tag
        caches — never a row tuple per stored row.  The store must not
        change while the iterator runs.
        """
        where: Dict[str, list] = defaultdict(list)  # sensor id -> [(part, positions)]
        tag_items: Dict[int, tuple] = {}  # id(tag dict) -> its sorted items
        held: list = []  # every tag dict keyed above, so no id is reused meanwhile
        shared: Dict[tuple, tuple] = {}  # (id(name), id(value)) -> one item tuple, holding both
        for part in self._parts.values():
            ids = part.sensor_ids
            if not ids:
                continue
            sensors = list(dict.fromkeys(ids))
            code = {sensor: index for index, sensor in enumerate(sensors)}
            codes = np.fromiter(map(code.__getitem__, ids), np.intp, len(ids))
            order = np.argsort(codes, kind="stable")  # positions ascend per sensor
            bounds = np.cumsum(np.bincount(codes, minlength=len(sensors))).tolist()
            for sensor, start, end in zip(sensors, [0, *bounds], bounds):
                where[sensor].append((part, order[start:end]))
            for key, tag_dict in dict(zip(map(id, part.tags), part.tags)).items():
                if key not in tag_items:
                    held.append(tag_dict)
                    tag_items[key] = tuple(sorted([
                        shared.setdefault((id(name), id(value)), (name, value))
                        for name, value in (tag_dict or {}).items()
                    ]))
        for sensor in sorted(where):
            rows: List[tuple] = []
            for part, positions in where.pop(sensor):
                *fields, tags = part.take(positions.tolist())
                rows.extend(zip(*fields, map(tag_items.__getitem__, map(id, tags))))
            rows.sort()
            yield rows

    def canonical_rows(self) -> List[tuple]:
        """Every row of :meth:`canonical_groups`, concatenated — the canonical
        contents equivalence checks compare.

        Sensor-major order: sensor ids ascending, each sensor's rows sorted
        on their own.  The list holds one tuple per stored row; stream
        :meth:`canonical_groups` to stay within one sensor's rows.
        """
        return list(chain.from_iterable(self.canonical_groups()))

    def sensor_ids(self) -> List[str]:
        return sorted(set().union(*(part.sensor_ids for part in self._parts.values())))

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._count

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def bytes_by_category(self) -> Dict[str, int]:
        return dict(self._bytes_by_category)

    def oldest_timestamp(self) -> Optional[float]:
        """Oldest stored timestamp (``None`` when empty); O(1) between mutating calls."""
        if self._oldest is _STALE:
            heads = [part.timestamps[0] for part in self._parts.values() if part.timestamps]
            self._oldest = min(heads, default=None)
        return self._oldest

    # ------------------------------------------------------------------ #
    # Removal
    # ------------------------------------------------------------------ #
    def _evict_prefix(self, part: _Partition, count: int) -> None:
        """Drop *part*'s oldest *count* rows and their accounting."""
        volumes = _category_volumes(part.categories[:count], part.sizes[:count])
        bytes_by_category = self._bytes_by_category
        for category, volume in volumes.items():
            bytes_by_category[category] -= volume
        self._total_bytes -= sum(volumes.values())
        self._count -= count
        for column in part.columns():
            del column[:count]

    def remove_older_than(self, cutoff: float) -> int:
        """Delete readings with ``timestamp < cutoff``; returns the count removed."""
        self._oldest = _STALE
        before = self._count
        for part in self._parts.values():
            timestamps = part.timestamps
            if timestamps and timestamps[0] < cutoff:
                self._evict_prefix(part, bisect_left(timestamps, cutoff))
        return before - self._count

    def remove_oldest(self, count: int) -> List[Reading]:
        """Remove the globally oldest *count* readings; returns them.

        Victims come from a heap merge over the partition heads, ordered by
        (timestamp, partition first-seen order, position).
        """
        if count <= 0:
            return []
        self._oldest = _STALE
        parts = list(self._parts.values())
        heap = [(part.timestamps[0], part.order, 0) for part in parts if part.timestamps]
        heapq.heapify(heap)
        picks = []
        while heap and len(picks) < count:
            _, order, position = heapq.heappop(heap)
            picks.append((order, position))
            timestamps = parts[order].timestamps
            if position + 1 < len(timestamps):
                heapq.heappush(heap, (timestamps[position + 1], order, position + 1))
        prefixes = {order: position + 1 for order, position in picks}  # positions ascend per part
        victims = {}
        for order, prefix in prefixes.items():
            victims[order] = parts[order].readings(0, prefix)
            self._evict_prefix(parts[order], prefix)
        return [victims[order][position] for order, position in picks]

    def clear(self) -> None:
        self._parts.clear()
        self._sensor_parts.clear()
        self._count = 0
        self._total_bytes = 0
        self._bytes_by_category.clear()
        self._oldest = _STALE
