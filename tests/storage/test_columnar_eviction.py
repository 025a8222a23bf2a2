"""Eviction-accounting tests for the columnar store's prefix sums.

``remove_older_than`` / ``remove_oldest`` account evicted bytes per category
through per-series prefix sums (O(log n) per series) instead of touching
each evicted reading.  These tests pin the accounting against a brute-force
recount across the tricky inputs: out-of-order arrivals (which dirty the
prefixes), mixed-category series, diverging wire sizes, sustained TTL-style
eviction, and interleavings of all of the above.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns
from repro.storage.timeseries import TimeSeriesStore
from tests.conftest import make_reading


def assert_accounting_consistent(store: TimeSeriesStore) -> None:
    remaining = list(store.all_readings())
    assert len(store) == len(remaining)
    assert store.total_bytes == sum(r.size_bytes for r in remaining)
    expected = {}
    for reading in remaining:
        expected[reading.category] = expected.get(reading.category, 0) + reading.size_bytes
    recorded = store.bytes_by_category()
    for category, volume in recorded.items():
        assert volume == expected.get(category, 0)
    assert sum(recorded.values()) == sum(expected.values())


class TestPrefixSumEviction:
    def test_uniform_series_ttl_eviction(self):
        store = TimeSeriesStore()
        for t in range(100):
            store.append(make_reading(sensor_id="s", timestamp=float(t), size_bytes=10))
        removed = store.remove_older_than(40.0)
        assert removed == 40
        assert store.total_bytes == 600
        assert_accounting_consistent(store)

    def test_mixed_category_series_accounting(self):
        store = TimeSeriesStore()
        # One sensor alternating categories (forces the per-category prefixes).
        for t in range(20):
            store.append(
                make_reading(
                    sensor_id="mix",
                    category="energy" if t % 2 == 0 else "noise",
                    timestamp=float(t),
                    size_bytes=10 + (t % 3),
                )
            )
        assert store.remove_older_than(7.0) == 7
        assert_accounting_consistent(store)
        assert store.remove_older_than(15.0) == 8
        assert_accounting_consistent(store)

    def test_out_of_order_arrivals_then_eviction(self):
        store = TimeSeriesStore()
        timestamps = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 0.0, 6.0, 4.0]
        for i, t in enumerate(timestamps):
            store.append(make_reading(sensor_id="ooo", timestamp=t, size_bytes=10 + i))
        assert [r.timestamp for r in store.query("ooo")] == sorted(timestamps)
        removed = store.remove_older_than(4.5)
        assert removed == 5
        assert_accounting_consistent(store)

    def test_diverging_sizes_within_series(self):
        store = TimeSeriesStore()
        sizes = [10, 10, 10, 44, 44, 7, 100]
        for t, size in enumerate(sizes):
            store.append(make_reading(sensor_id="vary", timestamp=float(t), size_bytes=size))
        assert store.remove_older_than(4.0) == 4
        assert store.total_bytes == 44 + 7 + 100
        assert_accounting_consistent(store)

    def test_sustained_eviction_interleaved_with_appends(self):
        store = TimeSeriesStore()
        cutoff = 0.0
        clock = 0.0
        rng = random.Random(42)
        for _ in range(30):
            for _ in range(20):
                clock += 1.0
                sensor = f"s{rng.randrange(4)}"
                category = rng.choice(["energy", "noise"])
                store.append(
                    make_reading(
                        sensor_id=sensor, category=category, timestamp=clock,
                        size_bytes=rng.choice([10, 22, 44]),
                    )
                )
            cutoff += 12.0
            store.remove_older_than(cutoff)
            assert_accounting_consistent(store)

    def test_remove_oldest_uses_prefix_accounting(self):
        store = TimeSeriesStore()
        for t in range(12):
            store.append(
                make_reading(
                    sensor_id=f"s{t % 3}",
                    category="energy" if t % 2 == 0 else "noise",
                    timestamp=float(t),
                    size_bytes=10 + t,
                )
            )
        victims = store.remove_oldest(5)
        assert [v.timestamp for v in victims] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert_accounting_consistent(store)

    def test_eviction_after_mixed_divergence_and_out_of_order(self):
        store = TimeSeriesStore()
        # In-order uniform start…
        for t in range(5):
            store.append(make_reading(sensor_id="s", timestamp=float(t), size_bytes=10))
        # …then an out-of-order row with a new category and size.
        store.append(
            make_reading(sensor_id="s", category="noise", timestamp=2.5, size_bytes=33)
        )
        # …then more in-order rows.
        for t in range(5, 8):
            store.append(make_reading(sensor_id="s", timestamp=float(t), size_bytes=10))
        assert store.remove_older_than(3.5) == 5  # 0,1,2,2.5,3
        assert_accounting_consistent(store)
        assert store.remove_older_than(100.0) == 4
        assert len(store) == 0
        assert_accounting_consistent(store)

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.sampled_from(["energy", "noise"]),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.integers(min_value=0, max_value=64),
            ),
            max_size=60,
        ),
        cutoffs=st.lists(st.floats(min_value=0.0, max_value=120.0, allow_nan=False), min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_eviction_accounting_property(self, rows, cutoffs):
        store = TimeSeriesStore()
        for sensor, category, timestamp, size in rows:
            store.append(
                make_reading(sensor_id=sensor, category=category, timestamp=timestamp, size_bytes=size)
            )
        for cutoff in sorted(cutoffs):
            store.remove_older_than(cutoff)
            assert_accounting_consistent(store)
            assert all(r.timestamp >= cutoff for r in store.all_readings())


class TestColumnarStoreIngest:
    def test_extend_columns_equals_per_reading_appends(self):
        items = [
            make_reading(
                sensor_id=f"s{i % 5}", category="energy" if i % 3 else "noise",
                timestamp=float(i // 5), size_bytes=10 + (i % 4),
            )
            for i in range(50)
        ]
        by_columns = TimeSeriesStore()
        by_columns.extend_columns(ReadingColumns.from_readings(items))
        per_reading = TimeSeriesStore()
        for reading in items:
            per_reading.append(reading)
        assert len(by_columns) == len(per_reading)
        assert by_columns.total_bytes == per_reading.total_bytes
        assert by_columns.bytes_by_category() == per_reading.bytes_by_category()
        assert sorted(
            (r.sensor_id, r.timestamp, r.value) for r in by_columns.all_readings()
        ) == sorted((r.sensor_id, r.timestamp, r.value) for r in per_reading.all_readings())

    def test_bulk_run_path_matches_flat_path(self):
        # Long per-sensor runs trigger the bucketed bulk-append path.
        items = [
            make_reading(sensor_id=f"s{s}", timestamp=float(t), size_bytes=22)
            for s in range(2)
            for t in range(40)
        ]
        store = TimeSeriesStore()
        inserted = store.extend_columns(ReadingColumns.from_readings(items))
        assert inserted == 80
        assert len(store) == 80
        assert [r.timestamp for r in store.query("s0")] == [float(t) for t in range(40)]
        assert_accounting_consistent(store)

    def test_query_window_is_columnar_and_correct(self):
        store = TimeSeriesStore()
        for t in range(10):
            store.append(make_reading(sensor_id="a", timestamp=float(t), size_bytes=10))
            store.append(
                make_reading(sensor_id="b", category="noise", timestamp=float(t), size_bytes=5)
            )
        window = store.query_window(since=2.0, until=5.0)
        assert isinstance(window, ReadingBatch)
        assert len(window) == 6
        assert window.total_bytes == 3 * 10 + 3 * 5
        noise_only = store.query_window(category="noise")
        assert len(noise_only) == 10
        assert all(r.category == "noise" for r in noise_only)


# --------------------------------------------------------------------------- #
# oldest_timestamp(): cached between mutating calls, never stale after one
# --------------------------------------------------------------------------- #
_timestamps = st.integers(min_value=0, max_value=50).map(float)
_rows = st.tuples(st.sampled_from(("a", "b", "c", "d")), _timestamps)

_mutations = st.one_of(
    st.tuples(st.just("append"), _rows),  # drawn timestamps arrive in any order
    # Short batches take the flat per-row path, long single-sensor runs the
    # bucketed bulk path (>= _BULK_RUN_THRESHOLD rows per sensor).
    st.tuples(st.just("extend_columns"), st.lists(_rows, max_size=6)),
    st.tuples(
        st.just("extend_columns"),
        st.lists(st.tuples(st.just("a"), _timestamps), min_size=16, max_size=20),
    ),
    st.tuples(st.just("remove_older_than"), _timestamps),
    st.tuples(st.just("remove_oldest"), st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("clear"), st.none()),
)


class TestOldestTimestampCache:
    @given(program=st.lists(_mutations, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_equals_a_brute_force_min_after_every_mutation(self, program):
        store = TimeSeriesStore()
        assert store.oldest_timestamp() is None
        for op, arg in program:
            if op == "append":
                store.append(make_reading(sensor_id=arg[0], timestamp=arg[1]))
            elif op == "extend_columns":
                store.extend_columns(
                    ReadingColumns.from_readings(
                        [make_reading(sensor_id=sid, timestamp=ts) for sid, ts in arg]
                    )
                )
            elif op == "clear":
                store.clear()
            else:
                getattr(store, op)(arg)
            expected = min((r.timestamp for r in store.all_readings()), default=None)
            # Asked twice: the first call fills the cache, the second reads it.
            assert store.oldest_timestamp() == expected
            assert store.oldest_timestamp() == expected
