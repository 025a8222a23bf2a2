"""Eviction accounting and append behaviour of the partitioned store.

``remove_older_than`` / ``remove_oldest`` drop a prefix of each fog node's
time-ordered partition and account its bytes per category from the evicted
prefix's columns.  These tests pin the accounting against a brute-force
recount across the tricky inputs: out-of-order arrivals (merged into the
partition), sensors switching category, varying wire sizes, sustained
TTL-style eviction, and interleavings of all of the above — plus the append
paths (in-order runs, runs straddling a partition's tail, batches spanning
several fog nodes).
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


class TestEvictionAccounting:
    def test_single_sensor_ttl_eviction(self):
        store = TimeSeriesStore()
        for t in range(100):
            store.append(make_reading(sensor_id="s", timestamp=float(t), size_bytes=10))
        removed = store.remove_older_than(40.0)
        assert removed == 40
        assert store.total_bytes == 600
        assert_accounting_consistent(store)

    def test_sensor_switching_category_accounting(self):
        store = TimeSeriesStore()
        # One sensor alternating categories inside one partition.
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

    def test_varying_sizes_within_one_sensor(self):
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

    def test_remove_oldest_accounting_and_victim_order(self):
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

    def test_remove_oldest_ties_go_to_partition_order_then_arrival(self):
        store = TimeSeriesStore()
        for fog, sensor in (("fog1/b", "b1"), ("fog1/a", "a1"), ("fog1/b", "b2"), ("fog1/a", "a2")):
            store.append(make_reading(sensor_id=sensor, timestamp=5.0, fog_node_id=fog))
        store.append(make_reading(sensor_id="early", timestamp=1.0, fog_node_id="fog1/a"))
        victims = store.remove_oldest(4)
        # fog1/b was seen first, so its rows win the tie at t=5.
        assert [v.sensor_id for v in victims] == ["early", "b1", "b2", "a1"]
        assert [r.sensor_id for r in store.all_readings()] == ["a2"]
        assert_accounting_consistent(store)

    def test_eviction_after_category_switch_and_out_of_order(self):
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

    def test_long_single_sensor_runs_stay_time_ordered(self):
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
        # One partition (no fog id): the window is time-ordered, ties by arrival.
        assert [(r.timestamp, r.sensor_id) for r in store.query_window().readings][:4] == [
            (0.0, "s0"), (0.0, "s1"), (1.0, "s0"), (1.0, "s1"),
        ]
        assert_accounting_consistent(store)

    def test_run_straddling_the_tail_merges_stably(self):
        store = TimeSeriesStore()
        store.extend_columns(ReadingColumns.from_readings(
            [make_reading(sensor_id="old", timestamp=t, value=t) for t in (1.0, 3.0, 5.0)]
        ))
        store.extend_columns(ReadingColumns.from_readings(
            [make_reading(sensor_id="new", timestamp=t, value=10 + t) for t in (6.0, 3.0, 0.5)]
        ))
        window = store.query_window().readings
        assert [(r.timestamp, r.sensor_id) for r in window] == [
            (0.5, "new"), (1.0, "old"), (3.0, "old"), (3.0, "new"), (5.0, "old"), (6.0, "new"),
        ]
        assert [r.value for r in window] == [10.5, 1.0, 3.0, 13.0, 5.0, 16.0]
        assert_accounting_consistent(store)

    def test_batch_spanning_fog_nodes_lands_in_one_partition_each(self):
        store = TimeSeriesStore()
        rows = [
            make_reading(sensor_id=f"{fog[-1]}{t}", timestamp=float(t), fog_node_id=fog)
            for fog in ("fog1/b", "fog1/a")
            for t in range(3)
        ] + [make_reading(sensor_id="b9", timestamp=0.5, fog_node_id="fog1/b")]
        assert store.extend_columns(ReadingColumns.from_readings(rows)) == 7
        buckets = store.query_window_partitioned()
        assert list(buckets) == ["fog1/b", "fog1/a"]  # first-seen order
        assert [r.sensor_id for r in buckets["fog1/b"].readings] == ["b0", "b9", "b1", "b2"]
        # The unfiltered window walks partitions in that order.
        assert [r.sensor_id for r in store.query_window().readings] == [
            "b0", "b9", "b1", "b2", "a0", "a1", "a2",
        ]
        assert store.fog_of_series("a1") == "fog1/a"
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
    # Short mixed batches and long single-sensor runs, in any order.
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
