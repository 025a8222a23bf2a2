"""Edge cases for ``TimeSeriesStore.query`` / ``query_window`` and the tier.

The hierarchical query surface leans on these semantics: half-open windows
(``since`` inclusive, ``until`` exclusive), empty/evicted series, inverted
windows, and the new per-sensor / per-fog-node filters.
"""

import pytest

from repro.common.errors import StorageError
from repro.storage.retention import TtlRetention
from repro.storage.tiered import TieredStore
from repro.storage.timeseries import TimeSeriesStore
from tests.conftest import make_reading


def _store_with(readings):
    store = TimeSeriesStore()
    store.extend(readings)
    return store


class TestEmptySeries:
    def test_query_unknown_sensor_returns_empty(self):
        store = TimeSeriesStore()
        assert store.query("nobody") == []
        assert len(store.query_window()) == 0
        assert len(store.query_window(sensor_id="nobody")) == 0

    def test_fully_evicted_series_queries_empty(self):
        store = _store_with(
            [make_reading(sensor_id="gone", timestamp=float(t)) for t in range(5)]
        )
        assert store.remove_older_than(100.0) == 5
        assert store.query("gone") == []
        assert len(store.query_window()) == 0
        assert not store.has_series("gone")
        with pytest.raises(StorageError):
            store.latest("gone")

    def test_empty_store_window_with_filters(self):
        store = TimeSeriesStore()
        assert len(store.query_window(category="energy", fog_node_id="fog1/x")) == 0


class TestInvertedAndDegenerateWindows:
    def test_inverted_window_is_empty(self):
        store = _store_with(
            [make_reading(sensor_id="inv", timestamp=float(t)) for t in range(5)]
        )
        assert store.query("inv", since=4.0, until=1.0) == []
        assert len(store.query_window(since=4.0, until=1.0)) == 0

    def test_zero_width_window_is_empty(self):
        store = _store_with([make_reading(sensor_id="zw", timestamp=2.0)])
        assert store.query("zw", since=2.0, until=2.0) == []
        assert len(store.query_window(since=2.0, until=2.0)) == 0


class TestBoundaryInclusivity:
    def test_since_inclusive_until_exclusive(self):
        store = _store_with(
            [make_reading(sensor_id="b", timestamp=t) for t in (1.0, 2.0, 3.0)]
        )
        assert [r.timestamp for r in store.query("b", since=1.0, until=3.0)] == [1.0, 2.0]
        window = store.query_window(since=2.0, until=3.0)
        assert [r.timestamp for r in window] == [2.0]
        # A reading exactly at `until` is excluded even when it is the tail.
        assert [r.timestamp for r in store.query("b", since=3.0, until=3.0)] == []
        assert [r.timestamp for r in store.query("b", since=3.0)] == [3.0]

    def test_duplicate_timestamps_on_the_boundary(self):
        store = _store_with(
            [make_reading(sensor_id="dup", value=float(i), timestamp=5.0) for i in range(3)]
            + [make_reading(sensor_id="dup", value=9.0, timestamp=6.0)]
        )
        assert len(store.query("dup", since=5.0, until=6.0)) == 3
        assert len(store.query("dup", since=5.0, until=5.0)) == 0


class TestPostEvictionQueries:
    def test_partial_eviction_keeps_the_tail_queryable(self):
        store = _store_with(
            [make_reading(sensor_id="pe", value=float(t), timestamp=float(t)) for t in range(10)]
        )
        assert store.remove_older_than(6.0) == 6
        assert [r.timestamp for r in store.query("pe")] == [6.0, 7.0, 8.0, 9.0]
        window = store.query_window(since=0.0, until=100.0)
        assert len(window) == 4
        assert store.oldest_timestamp() == 6.0

    def test_eviction_then_reingest_stays_consistent(self):
        store = _store_with(
            [make_reading(sensor_id="re", timestamp=float(t)) for t in range(4)]
        )
        store.remove_older_than(10.0)
        store.append(make_reading(sensor_id="re", timestamp=20.0))
        assert [r.timestamp for r in store.query("re")] == [20.0]
        assert store.has_series("re")
        assert store.latest("re").timestamp == 20.0

    def test_tiered_store_window_after_retention_sweep(self):
        tier = TieredStore(name="t", retention=TtlRetention(max_age_seconds=5.0))
        tier.ingest_batch(
            [make_reading(sensor_id="tt", timestamp=float(t)) for t in range(10)],
            mark_for_upward=False,
        )
        evicted = tier.enforce_retention(now=12.0)  # cutoff at t=7
        assert evicted == 7
        assert tier.evicted_count == 7
        window = tier.query_window(since=0.0, until=100.0)
        assert sorted(r.timestamp for r in window) == [7.0, 8.0, 9.0]
        assert len(tier.query_window(since=0.0, until=7.0)) == 0


class TestWindowFilters:
    @staticmethod
    def _mixed_store():
        return _store_with(
            [
                make_reading(sensor_id="s-a", category="energy", timestamp=1.0,
                             fog_node_id="fog1/a"),
                make_reading(sensor_id="s-a", category="urban", timestamp=2.0,
                             fog_node_id="fog1/a", sensor_type="traffic"),
                make_reading(sensor_id="s-b", category="energy", timestamp=3.0,
                             fog_node_id="fog1/b"),
            ]
        )

    def test_sensor_filter(self):
        store = self._mixed_store()
        window = store.query_window(sensor_id="s-a")
        assert len(window) == 2
        assert set(window.columns.sensor_ids) == {"s-a"}

    def test_fog_node_filter_selects_one_partition(self):
        store = self._mixed_store()
        window = store.query_window(fog_node_id="fog1/b")
        assert len(window) == 1
        assert window.columns.sensor_ids == ["s-b"]

    def test_category_and_fog_filters_compose(self):
        store = self._mixed_store()
        window = store.query_window(category="energy", fog_node_id="fog1/a")
        assert len(window) == 1
        assert window.columns.timestamps[0] == 1.0

    def test_fog_filter_on_sensor_moving_between_fogs(self):
        store = _store_with(
            [
                make_reading(sensor_id="mv", timestamp=1.0, fog_node_id="fog1/a"),
                make_reading(sensor_id="mv", timestamp=2.0, fog_node_id="fog1/b"),
                make_reading(sensor_id="mv", timestamp=3.0, fog_node_id="fog1/a"),
            ]
        )
        window = store.query_window(fog_node_id="fog1/a")
        assert [r.timestamp for r in window] == [1.0, 3.0]
        assert len(store.query_window(fog_node_id="fog1/c")) == 0


class TestPartitionedWindow:
    def _store(self):
        return _store_with(
            [
                make_reading(sensor_id="s-a", category="energy", timestamp=1.0,
                             fog_node_id="fog1/a"),
                make_reading(sensor_id="s-b", category="urban", timestamp=2.0,
                             fog_node_id="fog1/b", sensor_type="traffic"),
                make_reading(sensor_id="mv", category="energy", timestamp=3.0,
                             fog_node_id="fog1/a"),
                make_reading(sensor_id="mv", category="energy", timestamp=4.0,
                             fog_node_id="fog1/b"),
                make_reading(sensor_id="free", category="energy", timestamp=5.0),
            ]
        )

    def test_buckets_match_filtered_queries(self):
        store = self._store()
        buckets = store.query_window_partitioned()
        assert set(buckets) == {"fog1/a", "fog1/b", None}
        for fog in ("fog1/a", "fog1/b"):
            expected = store.query_window(fog_node_id=fog)
            assert list(buckets[fog].columns.timestamps) == list(
                expected.columns.timestamps
            )
        assert list(buckets[None].columns.sensor_ids) == ["free"]

    def test_window_and_category_narrow_the_partition(self):
        store = self._store()
        buckets = store.query_window_partitioned(since=2.0, until=5.0, category="energy")
        assert set(buckets) == {"fog1/a", "fog1/b"}
        assert list(buckets["fog1/a"].columns.timestamps) == [3.0]
        assert list(buckets["fog1/b"].columns.timestamps) == [4.0]

    def test_partition_by_category(self):
        store = self._store()
        buckets = store.query_window_partitioned(partition_by="category")
        assert set(buckets) == {"energy", "urban"}
        assert len(buckets["energy"]) == 4

    def test_unknown_partition_key_raises(self):
        with pytest.raises(StorageError, match="partition_by"):
            self._store().query_window_partitioned(partition_by="sensor_type")

    def test_empty_store_partitions_to_nothing(self):
        assert TimeSeriesStore().query_window_partitioned() == {}


class TestFogOfSeries:
    def test_sensor_in_one_partition_reports_its_fog(self):
        store = self._seed()
        assert store.fog_of_series("s-a") == "fog1/a"
        assert store.fog_of_series("free") is None  # no fog recorded
        assert store.fog_of_series("nobody") is None  # unknown sensor

    def test_sensor_in_two_partitions_reports_none(self):
        store = self._seed()
        assert store.fog_of_series("mv") is None

    def test_fully_evicted_series_reports_none(self):
        store = self._seed()
        store.remove_older_than(100.0)
        assert store.fog_of_series("s-a") is None

    @staticmethod
    def _seed():
        return _store_with(
            [
                make_reading(sensor_id="s-a", timestamp=1.0, fog_node_id="fog1/a"),
                make_reading(sensor_id="mv", timestamp=2.0, fog_node_id="fog1/a"),
                make_reading(sensor_id="mv", timestamp=3.0, fog_node_id="fog1/b"),
                make_reading(sensor_id="free", timestamp=4.0),
            ]
        )
