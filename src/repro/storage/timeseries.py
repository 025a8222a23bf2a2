"""An in-memory time-series store for sensor readings.

Readings are kept per series (one series per sensor id) in timestamp order.
The store supports range queries, latest-value queries, per-category volume
accounting, and bulk removal — everything the fog and cloud layers need for
the data-preservation block.

Columnar internals
------------------
Each series is a :class:`_Series`: parallel lists of the per-row reading
fields (timestamps, values, sequences, tag dicts) instead of a list of
``Reading`` objects.  Fields that are constant within a physical series —
sensor type, category, fog node, wire size — are *interned* as scalars and
only promoted to full columns if a row ever diverges, so the common append
writes four lists, not nine.  The write path is batch-native:
:meth:`TimeSeriesStore.extend_batch` consumes a batch's columns directly,
and a reading ingested through the hot path is never materialized as a
Python object inside the store — ``Reading`` instances are built lazily,
only at the query API boundary (``latest``, ``query``, ``all_readings``,
eviction victims).

In-order appends (the overwhelmingly common case for live sensor streams)
take the amortized O(1) fast path; out-of-order timestamps fall back to a
bisect insert.  A maintained global length counter makes ``len(store)``
O(1), and ``remove_oldest`` uses a heap merge over the per-series heads
instead of sorting every stored reading.

Eviction accounting uses per-series byte *prefix sums*: a series with
uniform wire sizes needs only arithmetic (k rows = k·size); a series with
varying sizes keeps a cumulative-bytes column, and a series carrying more
than one category additionally keeps per-category cumulative columns.
``remove_older_than`` therefore does O(log n) accounting per series — a
bisect for the cutoff plus prefix-sum differences — and never touches the
evicted readings individually.  Out-of-order inserts mark the prefix data
dirty; it is rebuilt lazily on the next eviction.

Secondary indexes
-----------------
The store maintains incremental per-``fog_node_id`` and per-``category``
series-id indexes so that a filtered :meth:`TimeSeriesStore.query_window`
visits only the series that can match instead of scanning all of them
(at a broad tier — fog layer 2, the cloud — a per-area query previously
paid O(#series) interned-scalar compares).  For a *uniform* series (the
overwhelming case: one fog node, one category for its whole life) index
maintenance is a single dict insert at series creation and nothing per
row; a series that diverges lands in a small "mixed" overflow set that
every filtered query also considers.  The index is a *superset* index:
eviction never removes entries (an emptied series costs a filtered query
one bisect, exactly like the scan path), so indexed results are proven
row-identical to the scan path — order included — by the property suite.
:meth:`TimeSeriesStore.query_window_partitioned` walks every series once
and bins rows by fog node (or category), answering an all-areas scatter
with one store pass instead of one filtered scan per area.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import StorageError
from repro.common.typedcols import (
    bisect_left,
    bisect_right,
    float_column,
    int_column,
    prefix_sums,
)
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns

_STALE = object()  # "not cached": ``None`` is a real oldest_timestamp() (empty store)


class _Series:
    """One sensor's readings as parallel columns, timestamp-ordered.

    ``type0`` / ``category0`` / ``fog0`` / ``size0`` hold the series-uniform
    value while the matching full column (``types`` / ``cats`` / ``fogs`` /
    ``sizes``) is ``None``; the column is built lazily the first time a row
    diverges.  ``category0 is None`` iff the series is mixed-category.

    ``order`` is the series' creation sequence number within its store —
    filtered queries that select candidate series through the secondary
    indexes sort by it to reproduce the exact row order of a full scan
    (series are never removed from the store map, so creation order *is*
    map iteration order).  ``store`` is a back-reference used only to
    report fog/category divergence (at most twice per series lifetime) so
    the store can move the series into its mixed overflow sets.
    """

    __slots__ = (
        "sensor_id",
        "order",
        "store",
        "timestamps",
        "last_ts",
        "values",
        "sequences",
        "tags",
        # Interned scalars with lazy full-column fallbacks.
        "type0",
        "types",
        "category0",
        "cats",
        "fog0",
        "fogs",
        "size0",
        "sizes",
        # Prefix-sum state for O(log n) eviction accounting.
        "cum_bytes",     # cumulative wire bytes (only when sizes vary)
        "cum_base",      # cumulative bytes already evicted from the front
        "row_base",      # rows already evicted (absolute row-id offset)
        "prefix_dirty",  # an out-of-order insert invalidated the prefixes
        "cat_rows",      # mixed only: {category: [absolute row ids]}
        "cat_cum",       # mixed only: {category: [cumulative bytes]}
        "cat_base",      # mixed only: {category: bytes already evicted}
    )

    def __init__(
        self,
        sensor_id: str,
        sensor_type: str,
        category: str,
        fog_node_id: Optional[str],
        size: int,
    ) -> None:
        self.sensor_id = sensor_id
        self.order = 0
        self.store: Optional["TimeSeriesStore"] = None
        self.timestamps = float_column()  # array('d'), always sorted
        # Tail timestamp as a plain Python float: the in-order fast path
        # compares against it without re-boxing ``timestamps[-1]`` out of
        # the typed array on every append.
        self.last_ts: Optional[float] = None
        self.values: List[Any] = []
        self.sequences: List[int] = []
        self.tags: List[Optional[Dict[str, Any]]] = []
        self.type0 = sensor_type
        self.types: Optional[List[str]] = None
        self.category0: Optional[str] = category
        self.cats: Optional[List[str]] = None
        self.fog0 = fog_node_id
        self.fogs: Optional[List[Optional[str]]] = None
        self.size0 = size
        self.sizes = None  # array('q') once wire sizes diverge
        self.cum_bytes = None  # array('q') prefix sums, parallel to sizes
        self.cum_base = 0
        self.row_base = 0
        self.prefix_dirty = False
        self.cat_rows: Optional[Dict[str, List[int]]] = None
        self.cat_cum: Optional[Dict[str, List[int]]] = None
        self.cat_base: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def add_row(
        self,
        sensor_type: str,
        category: str,
        value: Any,
        timestamp: float,
        fog_node_id: Optional[str],
        size: int,
        sequence: int,
        tags: Optional[Dict[str, Any]],
    ) -> None:
        last_ts = self.last_ts
        if last_ts is not None and timestamp < last_ts:
            self._insert_row(sensor_type, category, value, timestamp, fog_node_id, size, sequence, tags)
            return
        # Fast path: in-order arrival appends at the tail; series-uniform
        # metadata costs one compare per field instead of one append.
        self.last_ts = timestamp
        timestamps = self.timestamps
        timestamps.append(timestamp)
        self.values.append(value)
        self.sequences.append(sequence)
        self.tags.append(tags)
        types = self.types
        if types is not None:
            types.append(sensor_type)
        elif sensor_type != self.type0:
            self.types = [self.type0] * (len(timestamps) - 1)
            self.types.append(sensor_type)
        fogs = self.fogs
        if fogs is not None:
            fogs.append(fog_node_id)
        elif fog_node_id != self.fog0:
            self.fogs = [self.fog0] * (len(timestamps) - 1)
            self.fogs.append(fog_node_id)
            if self.store is not None:
                self.store._note_mixed_fog(self.sensor_id)
        sizes = self.sizes
        if sizes is not None:
            sizes.append(size)
            cum = self.cum_bytes
            cum.append((cum[-1] if cum else self.cum_base) + size)
        elif size != self.size0:
            self._diverge_sizes(size)
        cats = self.cats
        if cats is not None:
            cats.append(category)
            self._note_category(category, size)
        elif category != self.category0:
            self._go_mixed(category, size)

    def add_rows(self, columns: "ReadingColumns", indices: List[int]) -> None:
        """Bulk-append the given rows of *columns* (one sensor's rows).

        The fast path — rows in timestamp order, not older than the series
        tail, and matching all the series' interned scalars — reduces to
        bulk extends of the four per-row columns.  Anything else falls back
        to the per-row path.
        """
        timestamps = columns.timestamps
        row_timestamps = [timestamps[i] for i in indices]
        n = len(indices)
        bulk = (
            self.types is None
            and self.cats is None
            and self.fogs is None
            and self.sizes is None
            and row_timestamps == sorted(row_timestamps)
            and (self.last_ts is None or row_timestamps[0] >= self.last_ts)
        )
        if bulk:
            categories = columns.categories
            row_categories = [categories[i] for i in indices]
            bulk = row_categories.count(self.category0) == n
        if bulk:
            sensor_types = columns.sensor_types
            row_types = [sensor_types[i] for i in indices]
            bulk = row_types.count(self.type0) == n
        if bulk:
            fog_node_ids = columns.fog_node_ids
            row_fogs = [fog_node_ids[i] for i in indices]
            bulk = row_fogs.count(self.fog0) == n
        if bulk:
            sizes = columns.sizes
            row_sizes = [sizes[i] for i in indices]
            bulk = row_sizes.count(self.size0) == n
        if bulk:
            self.last_ts = row_timestamps[-1]
            self.timestamps.extend(row_timestamps)
            values = columns.values
            self.values.extend([values[i] for i in indices])
            sequences = columns.sequences
            self.sequences.extend([sequences[i] for i in indices])
            tags = columns.tags
            self.tags.extend([tags[i] for i in indices])
            return
        add_row = self.add_row
        sensor_types = columns.sensor_types
        categories = columns.categories
        values = columns.values
        fog_node_ids = columns.fog_node_ids
        sizes = columns.sizes
        sequences = columns.sequences
        tags = columns.tags
        for position, i in enumerate(indices):
            add_row(
                sensor_types[i],
                categories[i],
                values[i],
                row_timestamps[position],
                fog_node_ids[i],
                sizes[i],
                sequences[i],
                tags[i],
            )

    def _insert_row(
        self,
        sensor_type: str,
        category: str,
        value: Any,
        timestamp: float,
        fog_node_id: Optional[str],
        size: int,
        sequence: int,
        tags: Optional[Dict[str, Any]],
    ) -> None:
        """Out-of-order arrival: bisect insert, prefix sums rebuilt lazily."""
        index = bisect_right(self.timestamps, timestamp)
        self.timestamps.insert(index, timestamp)
        # Inserts land strictly before the tail, so the cached tail
        # timestamp normally stands; refresh it anyway so a stale value
        # (e.g. after a full eviction) self-heals.
        self.last_ts = self.timestamps[-1]
        self.values.insert(index, value)
        self.sequences.insert(index, sequence)
        self.tags.insert(index, tags)
        if self.types is None and sensor_type != self.type0:
            self.types = [self.type0] * (len(self.timestamps) - 1)
        if self.types is not None:
            self.types.insert(index, sensor_type)
        if self.fogs is None and fog_node_id != self.fog0:
            self.fogs = [self.fog0] * (len(self.timestamps) - 1)
            if self.store is not None:
                self.store._note_mixed_fog(self.sensor_id)
        if self.fogs is not None:
            self.fogs.insert(index, fog_node_id)
        if self.sizes is None and size != self.size0:
            self.sizes = int_column([self.size0]) * (len(self.timestamps) - 1)
            self.cum_bytes = int_column()  # placeholder; rebuilt lazily below
        if self.sizes is not None:
            self.sizes.insert(index, size)
            self.prefix_dirty = True
        if self.cats is None and category != self.category0:
            self.cats = [self.category0] * (len(self.timestamps) - 1)
            self.category0 = None
            self.cat_rows = {}
            self.cat_cum = {}
            self.cat_base = {}
            if self.store is not None:
                self.store._note_mixed_category(self.sensor_id)
        if self.cats is not None:
            self.cats.insert(index, category)
            self.prefix_dirty = True

    def _diverge_sizes(self, size: int) -> None:
        """First row whose wire size differs: build the size/cum columns."""
        previous = len(self.timestamps) - 1
        sizes = int_column([self.size0]) * previous
        sizes.append(size)
        self.sizes = sizes
        self.cum_bytes = prefix_sums(sizes, initial=self.cum_base)

    def _note_category(self, category: str, size: int) -> None:
        """Maintain per-category prefixes; called for every mixed-series row."""
        rows = self.cat_rows.get(category)
        if rows is None:
            rows = self.cat_rows[category] = int_column()
            cum = self.cat_cum[category] = int_column()
        else:
            cum = self.cat_cum[category]
        rows.append(self.row_base + len(self.timestamps) - 1)
        cum.append((cum[-1] if cum else self.cat_base.setdefault(category, 0)) + size)

    def _go_mixed(self, category: str, size: int) -> None:
        """First row with a second category: build per-category prefixes."""
        previous = len(self.timestamps) - 1
        cats = [self.category0] * previous
        cats.append(category)
        self.cats = cats
        self.cat_rows = {}
        self.cat_cum = {}
        self.cat_base = {}
        row_base = self.row_base
        category0 = self.category0
        if previous:
            self.cat_rows[category0] = int_column(range(row_base, row_base + previous))
            self.cat_cum[category0] = prefix_sums(self.sizes_slice(0, previous))
            self.cat_base[category0] = 0
        self.category0 = None
        if self.store is not None:
            self.store._note_mixed_category(self.sensor_id)
        self._note_category(category, size)

    def _rebuild_prefixes(self) -> None:
        """Recompute all prefix-sum state after out-of-order inserts."""
        if self.sizes is not None:
            self.cum_bytes = prefix_sums(self.sizes)
        self.cum_base = 0
        self.row_base = 0
        if self.cats is not None:
            self.cat_rows = {}
            self.cat_cum = {}
            self.cat_base = {}
            row_size = self.row_size
            for position, category in enumerate(self.cats):
                rows = self.cat_rows.get(category)
                if rows is None:
                    rows = self.cat_rows[category] = int_column()
                    per_cat = self.cat_cum[category] = int_column()
                else:
                    per_cat = self.cat_cum[category]
                rows.append(position)
                per_cat.append((per_cat[-1] if per_cat else 0) + row_size(position))
                self.cat_base.setdefault(category, 0)
        self.prefix_dirty = False

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def evict_prefix(self, count: int) -> Tuple[int, Dict[str, Tuple[int, int]]]:
        """Drop the oldest *count* rows; return (bytes, {category: (n, bytes)}).

        Accounting is pure prefix-sum arithmetic — O(1) for uniform series,
        O(#categories · log n) for mixed ones — and never visits the evicted
        rows individually.
        """
        if count <= 0:
            return 0, {}
        if self.prefix_dirty:
            self._rebuild_prefixes()
        if self.sizes is None:
            removed_bytes = count * self.size0
            self.cum_base += removed_bytes
        else:
            boundary = self.cum_bytes[count - 1]
            removed_bytes = boundary - self.cum_base
            self.cum_base = boundary
            del self.cum_bytes[:count]
            del self.sizes[:count]
        per_category: Dict[str, Tuple[int, int]]
        if self.category0 is not None:
            per_category = {self.category0: (count, removed_bytes)}
        else:
            per_category = {}
            threshold = self.row_base + count
            for category, rows in self.cat_rows.items():
                j = bisect_left(rows, threshold)
                if not j:
                    continue
                cat_boundary = self.cat_cum[category][j - 1]
                per_category[category] = (j, cat_boundary - self.cat_base[category])
                self.cat_base[category] = cat_boundary
                del rows[:j]
                del self.cat_cum[category][:j]
            del self.cats[:count]
        self.row_base += count
        del self.timestamps[:count]
        del self.values[:count]
        del self.sequences[:count]
        del self.tags[:count]
        if self.types is not None:
            del self.types[:count]
        if self.fogs is not None:
            del self.fogs[:count]
        return removed_bytes, per_category

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.timestamps)

    def row_size(self, index: int) -> int:
        return self.sizes[index] if self.sizes is not None else self.size0

    def category_at(self, index: int) -> str:
        return self.cats[index] if self.cats is not None else self.category0

    def types_slice(self, start: int, end: int) -> List[str]:
        if self.types is not None:
            return self.types[start:end]
        return [self.type0] * (end - start)

    def cats_slice(self, start: int, end: int) -> List[str]:
        if self.cats is not None:
            return self.cats[start:end]
        return [self.category0] * (end - start)

    def fogs_slice(self, start: int, end: int) -> List[Optional[str]]:
        if self.fogs is not None:
            return self.fogs[start:end]
        return [self.fog0] * (end - start)

    def sizes_slice(self, start: int, end: int) -> List[int]:
        if self.sizes is not None:
            return self.sizes[start:end]
        return [self.size0] * (end - start)

    def materialize(self, index: int) -> Reading:
        tags = self.tags[index]
        return Reading(
            sensor_id=self.sensor_id,
            sensor_type=self.types[index] if self.types is not None else self.type0,
            category=self.cats[index] if self.cats is not None else self.category0,
            value=self.values[index],
            timestamp=self.timestamps[index],
            fog_node_id=self.fogs[index] if self.fogs is not None else self.fog0,
            size_bytes=self.sizes[index] if self.sizes is not None else self.size0,
            sequence=self.sequences[index],
            tags=tags if tags is not None else {},
        )

    def materialize_range(self, start: int, end: int) -> List[Reading]:
        sensor_id = self.sensor_id
        return [
            Reading(
                sensor_id=sensor_id,
                sensor_type=sensor_type,
                category=category,
                value=value,
                timestamp=timestamp,
                fog_node_id=fog_node_id,
                size_bytes=size,
                sequence=sequence,
                tags=tags if tags is not None else {},
            )
            for sensor_type, category, value, timestamp, fog_node_id, size, sequence, tags in zip(
                self.types_slice(start, end),
                self.cats_slice(start, end),
                self.values[start:end],
                self.timestamps[start:end],
                self.fogs_slice(start, end),
                self.sizes_slice(start, end),
                self.sequences[start:end],
                self.tags[start:end],
            )
        ]


class TimeSeriesStore:
    """Append-mostly reading storage with time-range queries."""

    def __init__(self, name: str = "store") -> None:
        self.name = name
        self._series: Dict[str, _Series] = {}
        self._count = 0
        self._total_bytes = 0
        self._bytes_by_category: defaultdict = defaultdict(int)
        # Secondary indexes: value -> series ids whose *uniform* fog node /
        # category is that value (one dict insert per series lifetime), plus
        # small overflow sets of series whose fog/category column diverged
        # (filtered queries consider those too, filtering per row).  The
        # indexes are supersets — eviction never unindexes (an emptied or
        # out-of-window series costs a query one bisect) — so indexed
        # results stay row-identical to a full scan.
        self._fog_index: Dict[Optional[str], set] = {}
        self._cat_index: Dict[str, set] = {}
        self._mixed_fog_sids: set = set()
        self._mixed_cat_sids: set = set()
        self._series_seq = 0
        self._oldest: Any = _STALE  # cached oldest_timestamp(); reset by every mutating call
        #: Escape hatch for A/B measurement (and the equivalence property
        #: suite): ``False`` forces filtered queries back onto the full
        #: O(#series) scan path.
        self.use_indexes = True

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _new_series(
        self,
        sensor_id: str,
        sensor_type: str,
        category: str,
        fog_node_id: Optional[str],
        size: int,
    ) -> _Series:
        """Create, register and index a series (the only creation path)."""
        series = self._series[sensor_id] = _Series(
            sensor_id, sensor_type, category, fog_node_id, size
        )
        series.order = self._series_seq
        self._series_seq += 1
        series.store = self
        fog_set = self._fog_index.get(fog_node_id)
        if fog_set is None:
            fog_set = self._fog_index[fog_node_id] = set()
        fog_set.add(sensor_id)
        cat_set = self._cat_index.get(category)
        if cat_set is None:
            cat_set = self._cat_index[category] = set()
        cat_set.add(sensor_id)
        return series

    def _note_mixed_fog(self, sensor_id: str) -> None:
        """A series' fog column diverged: track it in the overflow set."""
        self._mixed_fog_sids.add(sensor_id)

    def _note_mixed_category(self, sensor_id: str) -> None:
        """A series' category column diverged: track it in the overflow set."""
        self._mixed_cat_sids.add(sensor_id)

    def append(self, reading: Reading) -> None:
        """Insert a reading, keeping the series ordered by timestamp."""
        sensor_id = reading.sensor_id
        self._oldest = _STALE
        series = self._series.get(sensor_id)
        if series is None:
            series = self._new_series(
                sensor_id,
                reading.sensor_type,
                reading.category,
                reading.fog_node_id,
                reading.size_bytes,
            )
        series.add_row(
            reading.sensor_type,
            reading.category,
            reading.value,
            reading.timestamp,
            reading.fog_node_id,
            reading.size_bytes,
            reading.sequence,
            reading.tags,
        )
        self._count += 1
        self._total_bytes += reading.size_bytes
        self._bytes_by_category[reading.category] += reading.size_bytes

    def extend(self, readings: Iterable[Reading]) -> int:
        """Insert many readings; returns the number inserted.

        Accepts any iterable of readings; :class:`ReadingBatch` and
        :class:`ReadingColumns` inputs take the column-wise bulk path.
        """
        if isinstance(readings, ReadingBatch):
            return self.extend_columns(readings.columns)
        if isinstance(readings, ReadingColumns):
            return self.extend_columns(readings)
        before = self._count
        append = self.append
        for reading in readings:
            append(reading)
        return self._count - before

    def extend_batch(self, batch: ReadingBatch) -> int:
        """Insert a whole batch column-wise (the ingest hot path)."""
        return self.extend_columns(batch.columns)

    #: Minimum average per-sensor run length for which the bucketed
    #: bulk-append path beats the per-row loop.
    _BULK_RUN_THRESHOLD = 16

    def extend_columns(self, columns: ReadingColumns) -> int:
        """Insert every row of *columns* without materializing readings.

        City round batches interleave many sensors with only a handful of
        rows each, so the default is a flat per-row loop (with a same-sensor
        memo).  When the batch averages long per-sensor runs — bulk loads,
        replays, single-sensor feeds — rows are bucketed per sensor and each
        series ingests its rows with :meth:`_Series.add_rows` (bulk list
        operations on the in-order fast path).
        """
        n = len(columns)
        if not n:
            return 0
        self._oldest = _STALE
        series_map = self._series
        sensor_ids = columns.sensor_ids
        if n >= self._BULK_RUN_THRESHOLD and len(set(sensor_ids)) * self._BULK_RUN_THRESHOLD <= n:
            buckets: Dict[str, List[int]] = {}
            index = 0
            for sensor_id in sensor_ids:
                bucket = buckets.get(sensor_id)
                if bucket is None:
                    bucket = buckets[sensor_id] = []
                bucket.append(index)
                index += 1
            for sensor_id, indices in buckets.items():
                series = series_map.get(sensor_id)
                if series is None:
                    first = indices[0]
                    series = self._new_series(
                        sensor_id,
                        columns.sensor_types[first],
                        columns.categories[first],
                        columns.fog_node_ids[first],
                        columns.sizes[first],
                    )
                series.add_rows(columns, indices)
        else:
            last_sensor_id: Optional[str] = None
            series: Optional[_Series] = None
            add_row: Optional[Any] = None
            for sensor_id, sensor_type, category, value, timestamp, fog_node_id, size, sequence, tags in zip(
                sensor_ids,
                columns.sensor_types,
                columns.categories,
                columns.values,
                columns.timestamps,
                columns.fog_node_ids,
                columns.sizes,
                columns.sequences,
                columns.tags,
            ):
                if sensor_id is not last_sensor_id:
                    series = series_map.get(sensor_id)
                    if series is None:
                        series = self._new_series(
                            sensor_id, sensor_type, category, fog_node_id, size
                        )
                    last_sensor_id = sensor_id
                    add_row = series.add_row
                add_row(sensor_type, category, value, timestamp, fog_node_id, size, sequence, tags)
        self._count += n
        self._total_bytes += columns.total_bytes
        bytes_by_category = self._bytes_by_category
        for category, volume in columns.category_bytes().items():
            bytes_by_category[category] += volume
        return n

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def latest(self, sensor_id: str) -> Reading:
        """The most recent reading of *sensor_id*; raises if the series is empty."""
        series = self._series.get(sensor_id)
        if series is None or not series.timestamps:
            raise StorageError(f"no readings stored for sensor {sensor_id!r}")
        return series.materialize(len(series.timestamps) - 1)

    def has_series(self, sensor_id: str) -> bool:
        series = self._series.get(sensor_id)
        return series is not None and bool(series.timestamps)

    def fog_of_series(self, sensor_id: str) -> Optional[str]:
        """The acquiring fog node id of *sensor_id*'s rows, when unambiguous.

        ``None`` for an absent/empty series — and for the (rare) series
        whose fog column diverged, where no single answer exists; callers
        fall back to probing then.  A broad tier (fog layer 2, the cloud)
        uses this to name the fog layer-1 chain owning a sensor's area in
        one dict hit instead of probing every chain's store.
        """
        series = self._series.get(sensor_id)
        if series is None or not series.timestamps or series.fogs is not None:
            return None
        return series.fog0

    def _filtered_candidates(
        self, category: Optional[str], fog_node_id: Optional[str]
    ) -> List[Tuple[str, _Series]]:
        """Series that can match the filters, in series-creation order.

        Union of the exact (uniform-series) index entry and the mixed
        overflow set per filter, intersected across filters; sorting by
        the series' creation sequence reproduces the full scan's series
        order exactly (series are never removed from the store map).
        """
        sids: Optional[set] = None
        if fog_node_id is not None:
            exact = self._fog_index.get(fog_node_id)
            sids = (exact | self._mixed_fog_sids) if exact else set(self._mixed_fog_sids)
        if category is not None:
            exact = self._cat_index.get(category)
            cat_sids = (exact | self._mixed_cat_sids) if exact else set(self._mixed_cat_sids)
            sids = cat_sids if sids is None else (sids & cat_sids)
        series_map = self._series
        ordered = sorted(sids, key=lambda sid: series_map[sid].order)
        return [(sid, series_map[sid]) for sid in ordered]

    def query(
        self,
        sensor_id: str,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[Reading]:
        """Readings of *sensor_id* with ``since <= timestamp < until``."""
        series = self._series.get(sensor_id)
        if series is None:
            return []
        timestamps = series.timestamps
        start = bisect_left(timestamps, since)
        end = bisect_left(timestamps, until)
        return series.materialize_range(start, end)

    def query_window(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        category: Optional[str] = None,
        sensor_id: Optional[str] = None,
        fog_node_id: Optional[str] = None,
    ) -> ReadingBatch:
        """All readings across series in the window, optionally filtered.

        ``since`` is inclusive, ``until`` exclusive (``since <= ts < until``,
        matching :meth:`query`).  *category*, *sensor_id* and *fog_node_id*
        narrow the result; the fog filter is what lets a broad tier (fog
        layer 2, the cloud) answer for one fog layer-1 node's area — its
        stored readings carry the acquiring node's id.

        The result batch is assembled column-wise (bulk slice copies); no
        ``Reading`` objects are created unless the caller materializes them.
        """
        out = ReadingColumns()
        if sensor_id is not None:
            # The store is keyed by sensor id: a sensor-scoped query is one
            # dict hit, not a scan over every series.
            series = self._series.get(sensor_id)
            candidates = [(sensor_id, series)] if series is not None else []
        elif self.use_indexes and (category is not None or fog_node_id is not None):
            # Secondary indexes: only the series that can match the area/
            # category filters, in scan order (row-identical to the scan).
            candidates = self._filtered_candidates(category, fog_node_id)
        else:
            candidates = self._series.items()
        for series_id, series in candidates:
            timestamps = series.timestamps
            if not timestamps:
                continue
            start = bisect_left(timestamps, since)
            end = bisect_left(timestamps, until)
            if start >= end:
                continue
            # Interned scalar rejections: a series whose uniform category or
            # fog id mismatches is skipped without touching any row.
            if category is not None and series.cats is None and series.category0 != category:
                continue
            if fog_node_id is not None and series.fogs is None and series.fog0 != fog_node_id:
                continue
            per_row = (category is not None and series.cats is not None) or (
                fog_node_id is not None and series.fogs is not None
            )
            if per_row:
                cats = series.cats
                fogs = series.fogs
                category0 = series.category0
                fog0 = series.fog0
                indices = [
                    i
                    for i in range(start, end)
                    if (category is None or (cats[i] if cats is not None else category0) == category)
                    and (fog_node_id is None or (fogs[i] if fogs is not None else fog0) == fog_node_id)
                ]
                if not indices:
                    continue
                row_size = series.row_size
                out.extend_arrays(
                    [series_id] * len(indices),
                    [series.types[i] if series.types is not None else series.type0 for i in indices],
                    [cats[i] if cats is not None else category0 for i in indices],
                    [series.values[i] for i in indices],
                    [series.timestamps[i] for i in indices],
                    [fogs[i] if fogs is not None else fog0 for i in indices],
                    [row_size(i) for i in indices],
                    [series.sequences[i] for i in indices],
                    [series.tags[i] for i in indices],
                )
                continue
            out.extend_arrays(
                [series_id] * (end - start),
                series.types_slice(start, end),
                series.cats_slice(start, end),
                series.values[start:end],
                series.timestamps[start:end],
                series.fogs_slice(start, end),
                series.sizes_slice(start, end),
                series.sequences[start:end],
                series.tags[start:end],
            )
        return ReadingBatch.from_columns(out)

    def query_window_partitioned(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        partition_by: str = "fog_node_id",
        category: Optional[str] = None,
    ) -> Dict[Optional[str], ReadingBatch]:
        """All readings in the window, binned by acquiring fog node (or category).

        One pass over the stored series answers *every* partition at once:
        ``result[key]`` is row-identical (order included) to
        ``query_window(fog_node_id=key)`` (resp. ``category=key``), but a
        scatter over N areas pays one scan instead of N filtered scans.
        Partitions without rows in the window are absent from the result.
        The optional *category* narrows rows before binning (only
        meaningful with ``partition_by="fog_node_id"``).
        """
        if partition_by not in ("fog_node_id", "category"):
            raise StorageError(
                f"partition_by must be 'fog_node_id' or 'category', got {partition_by!r}"
            )
        by_fog = partition_by == "fog_node_id"
        buckets: Dict[Optional[str], ReadingColumns] = {}
        for series_id, series in self._series.items():
            timestamps = series.timestamps
            if not timestamps:
                continue
            start = bisect_left(timestamps, since)
            end = bisect_left(timestamps, until)
            if start >= end:
                continue
            if category is not None and series.cats is None and series.category0 != category:
                continue
            key_column = series.fogs if by_fog else series.cats
            key0 = series.fog0 if by_fog else series.category0
            per_row_cat = category is not None and series.cats is not None
            if key_column is None and not per_row_cat:
                # Uniform partition key: the whole slice lands in one
                # bucket via bulk column extends (the common case).
                out = buckets.get(key0)
                if out is None:
                    out = buckets[key0] = ReadingColumns()
                out.extend_arrays(
                    [series_id] * (end - start),
                    series.types_slice(start, end),
                    series.cats_slice(start, end),
                    series.values[start:end],
                    series.timestamps[start:end],
                    series.fogs_slice(start, end),
                    series.sizes_slice(start, end),
                    series.sequences[start:end],
                    series.tags[start:end],
                )
                continue
            # Mixed partition column and/or per-row category filter: bin
            # row indices per key, then bulk-gather each key's rows so the
            # relative row order within a bucket matches the filtered scan.
            cats = series.cats
            category0 = series.category0
            indices_by_key: Dict[Optional[str], List[int]] = {}
            for i in range(start, end):
                if category is not None and (cats[i] if cats is not None else category0) != category:
                    continue
                key = key_column[i] if key_column is not None else key0
                bucket = indices_by_key.get(key)
                if bucket is None:
                    bucket = indices_by_key[key] = []
                bucket.append(i)
            if not indices_by_key:
                continue
            row_size = series.row_size
            for key, indices in indices_by_key.items():
                out = buckets.get(key)
                if out is None:
                    out = buckets[key] = ReadingColumns()
                out.extend_arrays(
                    [series_id] * len(indices),
                    [series.types[i] if series.types is not None else series.type0 for i in indices],
                    [cats[i] if cats is not None else category0 for i in indices],
                    [series.values[i] for i in indices],
                    [series.timestamps[i] for i in indices],
                    [series.fogs[i] if series.fogs is not None else series.fog0 for i in indices],
                    [row_size(i) for i in indices],
                    [series.sequences[i] for i in indices],
                    [series.tags[i] for i in indices],
                )
        return {key: ReadingBatch.from_columns(columns) for key, columns in buckets.items()}

    def all_readings(self) -> Iterator[Reading]:
        for series in self._series.values():
            yield from series.materialize_range(0, len(series.timestamps))

    def sensor_ids(self) -> List[str]:
        return sorted(sid for sid, series in self._series.items() if series.timestamps)

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
            heads = [s.timestamps[0] for s in self._series.values() if s.timestamps]
            self._oldest = min(heads, default=None)
        return self._oldest

    # ------------------------------------------------------------------ #
    # Removal
    # ------------------------------------------------------------------ #
    def _account_eviction(self, removed_bytes: int, per_category: Dict[str, Tuple[int, int]]) -> None:
        self._total_bytes -= removed_bytes
        bytes_by_category = self._bytes_by_category
        for category, (_, volume) in per_category.items():
            bytes_by_category[category] -= volume

    def remove_older_than(self, cutoff: float) -> int:
        """Delete readings with ``timestamp < cutoff``; returns the count removed.

        Per series this costs a bisect for the cutoff plus prefix-sum
        differences for the byte/category accounting — evicted readings are
        never visited individually.
        """
        removed = 0
        self._oldest = _STALE
        for series in self._series.values():
            timestamps = series.timestamps
            if not timestamps or timestamps[0] >= cutoff:
                continue
            index = bisect_left(timestamps, cutoff)
            removed_bytes, per_category = series.evict_prefix(index)
            self._account_eviction(removed_bytes, per_category)
            removed += index
        self._count -= removed
        return removed

    def remove_oldest(self, count: int) -> List[Reading]:
        """Remove the globally oldest *count* readings; returns them.

        Victims are selected with a heap merge over the per-series heads
        (each series is already timestamp-sorted), so the cost is
        O(count · log #series) instead of a global sort of every stored
        reading.  Ties on timestamp are broken by series insertion order,
        matching the stable global sort the store used historically.  The
        returned victims are materialized (they leave the store), but the
        accounting still runs on prefix sums.
        """
        if count <= 0:
            return []
        self._oldest = _STALE
        # Each heap entry is (timestamp, series_order, position); series_order
        # reproduces the dict-iteration stability of the old sorted() pass.
        series_list = [series for series in self._series.values() if series.timestamps]
        heap = [(series.timestamps[0], order, 0) for order, series in enumerate(series_list)]
        heapq.heapify(heap)
        victims: List[Reading] = []
        removed_per_series: Dict[int, int] = {}
        while heap and len(victims) < count:
            _, order, position = heapq.heappop(heap)
            series = series_list[order]
            victims.append(series.materialize(position))
            removed_per_series[order] = position + 1
            next_position = position + 1
            if next_position < len(series.timestamps):
                heapq.heappush(heap, (series.timestamps[next_position], order, next_position))
        if not victims:
            return []
        for order, prefix in removed_per_series.items():
            removed_bytes, per_category = series_list[order].evict_prefix(prefix)
            self._account_eviction(removed_bytes, per_category)
        self._count -= len(victims)
        return victims

    def clear(self) -> None:
        self._series.clear()
        self._count = 0
        self._total_bytes = 0
        self._bytes_by_category.clear()
        self._fog_index.clear()
        self._cat_index.clear()
        self._mixed_fog_sids.clear()
        self._mixed_cat_sids.clear()
        self._series_seq = 0
        self._oldest = _STALE
