"""The time-series store against a list-of-tuples reference model.

:class:`StoreModel` is the store's contract written naively: every stored
row is a tuple in a plain list, and every read is a filter plus a sort by
the documented order — window results by (partition first-seen order,
timestamp, arrival), ``query`` by (timestamp, partition order, arrival),
``remove_oldest`` victims by (timestamp, partition order, arrival).  A
Hypothesis state machine drives a real :class:`TimeSeriesStore` and the
model through the same appends (in order, out of order, single rows;
sensors switching fog node, category and type; ``None`` fog ids), TTL and
count evictions and clears, and after every step checks every read the
store offers, row for row.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sensors.readings import Reading, ReadingColumns
from repro.storage.timeseries import TimeSeriesStore

SENSORS = ("s-a", "s-b", "s-c")
FOGS = ("fog1/x", "fog1/y", None)
CATEGORIES = ("energy", "noise")
TYPES = ("temperature", "sound")
WINDOWS = ((float("-inf"), float("inf")), (3.0, 9.0), (5.0, 5.0))

# (sensor, fog, category, type, timestamp, size): small pools, so sensors
# switch fog / category / type and timestamps tie often.
row_fields = st.tuples(
    st.sampled_from(SENSORS),
    st.sampled_from(FOGS),
    st.sampled_from(CATEGORIES),
    st.sampled_from(TYPES),
    st.integers(min_value=0, max_value=12).map(float),
    st.integers(min_value=0, max_value=40),
)


class StoreModel:
    """Rows as ``(sensor, type, category, value, ts, fog, size, seq, tags, arrival)``."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.rows = []
        self.fog_rank = {}  # fog id -> first-seen rank
        self.bytes_by_category = {}
        self.arrivals = 0

    def add(self, row) -> None:
        self.fog_rank.setdefault(row[5], len(self.fog_rank))
        self.bytes_by_category[row[2]] = self.bytes_by_category.get(row[2], 0) + row[6]
        self.rows.append(row + (self.arrivals,))
        self.arrivals += 1

    def drop(self, victims) -> None:
        for row in victims:
            self.rows.remove(row)
            self.bytes_by_category[row[2]] -= row[6]

    def window_order(self, row):
        return (self.fog_rank[row[5]], row[4], row[9])

    def time_order(self, row):
        return (row[4], self.fog_rank[row[5]], row[9])

    def window(self, since, until, category=None, sensor_id=None, fog=None, by_fog=False):
        """``query_window``; with *by_fog*, ``fog`` is matched even when ``None``."""
        return [
            row[:9]
            for row in sorted(self.rows, key=self.window_order)
            if since <= row[4] < until
            and (category is None or row[2] == category)
            and (sensor_id is None or row[0] == sensor_id)
            and ((fog is None and not by_fog) or row[5] == fog)
        ]

    def query(self, sensor_id, since=float("-inf"), until=float("inf")):
        rows = sorted(self.rows, key=self.time_order)
        return [row[:9] for row in rows if row[0] == sensor_id and since <= row[4] < until]

    def oldest(self, count):
        return sorted(self.rows, key=self.time_order)[:count]

    def live_fogs(self, sensor_id):
        return {row[5] for row in self.rows if row[0] == sensor_id}


def _window_rows(batch):
    c = batch.columns
    return list(
        zip(c.sensor_ids, c.sensor_types, c.categories, c.values, c.timestamps,
            c.fog_node_ids, c.sizes, c.sequences, c.tags)
    )


def _reading_row(reading: Reading):
    return (
        reading.sensor_id, reading.sensor_type, reading.category, reading.value,
        reading.timestamp, reading.fog_node_id, reading.size_bytes, reading.sequence,
        reading.tags,
    )


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = TimeSeriesStore()
        self.model = StoreModel()

    def _rows(self, fields):
        """Full model rows for drawn fields; value, sequence and tags are unique."""
        rows = []
        for offset, (sensor, fog, category, sensor_type, timestamp, size) in enumerate(fields):
            arrival = self.model.arrivals + offset
            rows.append(
                (sensor, sensor_type, category, float(arrival), timestamp, fog, size,
                 arrival, {"arrival": arrival})
            )
        return rows

    def _extend(self, rows) -> None:
        columns = ReadingColumns()
        for row in rows:
            columns.append_row(*row)
        assert self.store.extend_columns(columns) == len(rows)
        for row in rows:
            self.model.add(row)

    @rule(fields=st.lists(row_fields, min_size=1, max_size=8))
    def extend_in_order(self, fields):
        # Sorted and not older than anything stored: the slice-extend path.
        newest = max((row[4] for row in self.model.rows), default=0.0)
        rows = self._rows([f[:4] + (newest + f[4], f[5]) for f in fields])
        self._extend(sorted(rows, key=lambda row: row[4]))

    @rule(fields=st.lists(row_fields, min_size=1, max_size=8))
    def extend_out_of_order(self, fields):
        self._extend(self._rows(fields))

    @rule(fields=row_fields)
    def append(self, fields):
        (row,) = self._rows([fields])
        self.store.append(Reading(*row))
        self.model.add(row)

    @rule(cutoff=st.integers(min_value=0, max_value=30).map(float))
    def remove_older_than(self, cutoff):
        victims = [row for row in self.model.rows if row[4] < cutoff]
        assert self.store.remove_older_than(cutoff) == len(victims)
        self.model.drop(victims)

    @rule(count=st.integers(min_value=0, max_value=6))
    def remove_oldest(self, count):
        victims = self.model.oldest(count)
        removed = self.store.remove_oldest(count)
        assert [_reading_row(r) for r in removed] == [row[:9] for row in victims]
        self.model.drop(victims)

    @rule()
    def clear(self):
        self.store.clear()
        self.model.clear()

    @invariant()
    def accounting_matches(self):
        model, store = self.model, self.store
        assert len(store) == len(model.rows)
        assert store.total_bytes == sum(row[6] for row in model.rows)
        assert store.bytes_by_category() == model.bytes_by_category
        expected_oldest = min((row[4] for row in model.rows), default=None)
        assert store.oldest_timestamp() == expected_oldest
        assert store.oldest_timestamp() == expected_oldest  # the cached answer

    @invariant()
    def windows_match(self):
        model, store = self.model, self.store
        for since, until in WINDOWS:
            for category in (None, *CATEGORIES):
                for sensor_id in (None, *SENSORS):
                    for fog in FOGS:  # None: no fog filter
                        got = store.query_window(since, until, category, sensor_id, fog)
                        expected = model.window(since, until, category, sensor_id, fog)
                        assert _window_rows(got) == expected
            buckets = store.query_window_partitioned(since, until)
            assert {fog: _window_rows(b) for fog, b in buckets.items()} == {
                fog: rows
                for fog in model.fog_rank
                if (rows := model.window(since, until, fog=fog, by_fog=True))
            }
            buckets = store.query_window_partitioned(since, until, partition_by="category")
            assert {cat: _window_rows(b) for cat, b in buckets.items()} == {
                cat: rows
                for cat in CATEGORIES
                if (rows := model.window(since, until, category=cat))
            }

    @invariant()
    def sensors_match(self):
        model, store = self.model, self.store
        assert store.sensor_ids() == sorted({row[0] for row in model.rows})
        for sensor_id in SENSORS:
            expected = model.query(sensor_id)
            assert [_reading_row(r) for r in store.query(sensor_id)] == expected
            assert [_reading_row(r) for r in store.query(sensor_id, 3.0, 9.0)] == model.query(
                sensor_id, 3.0, 9.0
            )
            assert store.has_series(sensor_id) == bool(expected)
            if expected:
                assert _reading_row(store.latest(sensor_id)) == expected[-1]
            fogs = model.live_fogs(sensor_id)
            assert store.fog_of_series(sensor_id) == (next(iter(fogs)) if len(fogs) == 1 else None)


TestStoreMatchesModel = StoreMachine.TestCase
TestStoreMatchesModel.settings = settings(max_examples=60, stateful_step_count=25, deadline=None)
