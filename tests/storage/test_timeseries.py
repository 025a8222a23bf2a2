"""Tests for the time-series store."""

import pytest

from repro.common.errors import StorageError
from repro.storage.timeseries import TimeSeriesStore
from tests.conftest import make_reading


@pytest.fixture()
def store():
    return TimeSeriesStore()


class TestAppendAndQuery:
    def test_latest(self, store):
        store.append(make_reading(sensor_id="s1", timestamp=1.0, value=1.0))
        store.append(make_reading(sensor_id="s1", timestamp=5.0, value=5.0))
        assert store.latest("s1").value == 5.0

    def test_latest_missing_series_raises(self, store):
        with pytest.raises(StorageError):
            store.latest("missing")

    def test_out_of_order_appends_kept_sorted(self, store):
        store.append(make_reading(sensor_id="s1", timestamp=5.0))
        store.append(make_reading(sensor_id="s1", timestamp=1.0))
        store.append(make_reading(sensor_id="s1", timestamp=3.0))
        timestamps = [r.timestamp for r in store.query("s1")]
        assert timestamps == [1.0, 3.0, 5.0]
        assert store.latest("s1").timestamp == 5.0

    def test_query_window_per_sensor(self, store):
        for t in range(10):
            store.append(make_reading(sensor_id="s1", timestamp=float(t)))
        window = store.query("s1", since=2.0, until=5.0)
        assert [r.timestamp for r in window] == [2.0, 3.0, 4.0]

    def test_query_window_global_with_category(self, store):
        store.append(make_reading(sensor_id="s1", category="energy", timestamp=1.0))
        store.append(make_reading(sensor_id="s2", category="noise", timestamp=1.0))
        batch = store.query_window(category="noise")
        assert len(batch) == 1
        assert batch[0].category == "noise"

    def test_extend_and_len(self, store):
        count = store.extend(make_reading(sensor_id=f"s{i}", timestamp=float(i)) for i in range(5))
        assert count == 5
        assert len(store) == 5

    def test_sensor_ids_sorted(self, store):
        store.append(make_reading(sensor_id="b"))
        store.append(make_reading(sensor_id="a"))
        assert store.sensor_ids() == ["a", "b"]

    def test_has_series(self, store):
        assert not store.has_series("s1")
        store.append(make_reading(sensor_id="s1"))
        assert store.has_series("s1")


class TestAccounting:
    def test_total_and_per_category_bytes(self, store):
        store.append(make_reading(category="energy", size_bytes=22))
        store.append(make_reading(category="noise", size_bytes=10))
        assert store.total_bytes == 32
        assert store.bytes_by_category() == {"energy": 22, "noise": 10}

    def test_oldest_timestamp(self, store):
        assert store.oldest_timestamp() is None
        store.append(make_reading(sensor_id="a", timestamp=7.0))
        store.append(make_reading(sensor_id="b", timestamp=3.0))
        assert store.oldest_timestamp() == 3.0


class TestRemoval:
    def test_remove_older_than(self, store):
        for t in range(10):
            store.append(make_reading(sensor_id="s1", timestamp=float(t), size_bytes=10))
        removed = store.remove_older_than(5.0)
        assert removed == 5
        assert len(store) == 5
        assert store.total_bytes == 50
        assert store.query("s1")[0].timestamp == 5.0

    def test_remove_oldest(self, store):
        for t in range(6):
            store.append(make_reading(sensor_id=f"s{t % 2}", timestamp=float(t), size_bytes=10))
        victims = store.remove_oldest(2)
        assert [v.timestamp for v in victims] == [0.0, 1.0]
        assert len(store) == 4
        assert store.total_bytes == 40

    def test_remove_oldest_zero_is_noop(self, store):
        store.append(make_reading())
        assert store.remove_oldest(0) == []
        assert len(store) == 1

    def test_clear(self, store):
        store.append(make_reading())
        store.clear()
        assert len(store) == 0
        assert store.total_bytes == 0


class TestBatchNativeFastPaths:
    """Coverage for the in-order append path, merges and the removals."""

    def test_out_of_order_append_falls_back_to_sorted_insert(self, store):
        for t in (1.0, 5.0, 3.0, 2.0, 4.0, 0.0):
            store.append(make_reading(sensor_id="s1", timestamp=t))
        assert [r.timestamp for r in store.query("s1")] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert store.latest("s1").timestamp == 5.0

    def test_equal_timestamps_keep_insertion_order(self, store):
        first = make_reading(sensor_id="s1", timestamp=1.0, value=1.0)
        second = make_reading(sensor_id="s1", timestamp=1.0, value=2.0)
        store.append(first)
        store.append(second)
        assert [r.value for r in store.query("s1")] == [1.0, 2.0]

    def test_len_counter_tracks_mixed_inserts_and_removals(self, store):
        for t in (3.0, 1.0, 2.0, 0.0):
            store.append(make_reading(sensor_id="a", timestamp=t, size_bytes=10))
        for t in (1.5, 0.5):
            store.append(make_reading(sensor_id="b", timestamp=t, size_bytes=5))
        assert len(store) == 6
        assert store.total_bytes == 50
        removed = store.remove_older_than(1.0)
        assert removed == 2  # a@0.0 and b@0.5
        assert len(store) == 4
        assert store.total_bytes == 50 - 10 - 5
        store.clear()
        assert len(store) == 0

    def test_remove_oldest_after_out_of_order_inserts(self, store):
        # Interleave two series and insert out of order within each.
        for sensor, t in [("a", 5.0), ("a", 1.0), ("b", 4.0), ("b", 2.0), ("a", 3.0), ("b", 0.0)]:
            store.append(make_reading(sensor_id=sensor, timestamp=t, size_bytes=10))
        victims = store.remove_oldest(3)
        assert [v.timestamp for v in victims] == [0.0, 1.0, 2.0]
        assert len(store) == 3
        assert store.total_bytes == 30
        remaining = sorted(r.timestamp for r in store.all_readings())
        assert remaining == [3.0, 4.0, 5.0]

    def test_remove_oldest_tie_break_keeps_arrival_order(self, store):
        # Equal timestamps in one partition: victims come in arrival order.
        store.append(make_reading(sensor_id="a", timestamp=1.0, value=10.0))
        store.append(make_reading(sensor_id="b", timestamp=1.0, value=20.0))
        victims = store.remove_oldest(1)
        assert victims[0].sensor_id == "a"
        assert store.has_series("b") and not store.has_series("a")

    def test_remove_oldest_more_than_stored_empties_store(self, store):
        for t in range(3):
            store.append(make_reading(sensor_id="s1", timestamp=float(t), size_bytes=7))
        victims = store.remove_oldest(10)
        assert len(victims) == 3
        assert len(store) == 0
        assert store.total_bytes == 0
        assert store.bytes_by_category() == {"energy": 0}

    def test_remove_older_than_accounting_per_category(self, store):
        store.append(make_reading(sensor_id="a", category="energy", timestamp=0.0, size_bytes=10))
        store.append(make_reading(sensor_id="b", category="noise", timestamp=1.0, size_bytes=20))
        store.append(make_reading(sensor_id="a", category="energy", timestamp=2.0, size_bytes=30))
        assert store.remove_older_than(2.0) == 2
        assert store.bytes_by_category() == {"energy": 30, "noise": 0}
        assert store.total_bytes == 30

    def test_extend_returns_inserted_count(self, store):
        inserted = store.extend(
            make_reading(sensor_id=f"s{i}", timestamp=float(i)) for i in range(5)
        )
        assert inserted == 5
        assert len(store) == 5


class TestPartitionContract:
    """One time-ordered partition per acquiring fog node (module docstring)."""

    def test_window_orders_by_partition_then_time_then_arrival(self, store):
        for sensor, fog, t in [("b1", "fog1/b", 2.0), ("a1", "fog1/a", 1.0),
                               ("b2", "fog1/b", 1.0), ("a2", "fog1/a", 1.0)]:
            store.append(make_reading(sensor_id=sensor, timestamp=t, fog_node_id=fog))
        assert store.query_window().columns.sensor_ids == ["b2", "b1", "a1", "a2"]

    def test_query_across_partitions_is_time_ordered(self, store):
        for fog, t in [("fog1/a", 1.0), ("fog1/b", 0.5), ("fog1/a", 3.0), ("fog1/b", 2.0)]:
            store.append(make_reading(sensor_id="mover", timestamp=t, fog_node_id=fog))
        readings = store.query("mover")
        assert [(r.timestamp, r.fog_node_id) for r in readings] == [
            (0.5, "fog1/b"), (1.0, "fog1/a"), (2.0, "fog1/b"), (3.0, "fog1/a"),
        ]
        assert [r.timestamp for r in store.query("mover", since=1.0, until=3.0)] == [1.0, 2.0]

    def test_latest_across_partitions_takes_the_newest(self, store):
        store.append(make_reading(sensor_id="mover", timestamp=5.0, fog_node_id="fog1/a"))
        store.append(make_reading(sensor_id="mover", timestamp=2.0, fog_node_id="fog1/b"))
        latest = store.latest("mover")
        assert (latest.timestamp, latest.fog_node_id) == (5.0, "fog1/a")

    def test_sensor_lookups_track_live_rows_after_eviction(self, store):
        store.append(make_reading(sensor_id="mover", timestamp=1.0, fog_node_id="fog1/a"))
        store.append(make_reading(sensor_id="mover", timestamp=4.0, fog_node_id="fog1/b"))
        store.append(make_reading(sensor_id="gone", timestamp=2.0, fog_node_id="fog1/a"))
        assert store.fog_of_series("mover") is None  # two partitions: ambiguous
        store.remove_older_than(3.0)
        assert store.fog_of_series("mover") == "fog1/b"
        assert not store.has_series("gone")
        assert store.sensor_ids() == ["mover"]
        with pytest.raises(StorageError):
            store.latest("gone")

    def test_sensor_and_fog_filters_compose_to_one_partition(self, store):
        for fog in ("fog1/a", "fog1/b"):
            for t in range(3):
                store.append(make_reading(sensor_id="mover", timestamp=float(t), fog_node_id=fog))
        window = store.query_window(sensor_id="mover", fog_node_id="fog1/b", since=1.0)
        assert list(zip(window.columns.timestamps, window.columns.fog_node_ids)) == [
            (1.0, "fog1/b"), (2.0, "fog1/b"),
        ]
        assert len(store.query_window(sensor_id="mover", fog_node_id="fog1/c")) == 0

    def test_clear_restarts_partition_order(self, store):
        store.append(make_reading(sensor_id="a", timestamp=1.0, fog_node_id="fog1/a"))
        store.clear()
        store.append(make_reading(sensor_id="b", timestamp=1.0, fog_node_id="fog1/b"))
        store.append(make_reading(sensor_id="a", timestamp=1.0, fog_node_id="fog1/a"))
        assert store.query_window().columns.sensor_ids == ["b", "a"]
        assert store.sensor_ids() == ["a", "b"]

    def test_none_fog_is_a_partition_of_its_own(self, store):
        store.append(make_reading(sensor_id="free", timestamp=2.0))
        store.append(make_reading(sensor_id="owned", timestamp=1.0, fog_node_id="fog1/a"))
        buckets = store.query_window_partitioned()
        assert list(buckets) == [None, "fog1/a"]
        assert store.query_window().columns.sensor_ids == ["free", "owned"]


def test_deployed_tiers_keep_one_partition_per_area(small_city, small_catalog):
    """Fog L2 holds one partition per child, the cloud one per fog L1 node."""
    from repro.api import F2CClient, PipelineConfig
    from repro.core.architecture import F2CDataManagement
    from repro.sensors.readings import Reading

    system = F2CDataManagement(city=small_city, catalog=small_catalog, fog1_aggregator_factory=None)
    client = F2CClient(system=system, config=PipelineConfig())
    sections = [section.section_id for section in small_city.sections]
    for index, section in enumerate(sections):
        system.assign_sensor(f"t-{index}", section)
    for round_index in range(2):
        batch = [
            Reading(f"t-{i}", "temperature", "energy", float(i), 100.0 * round_index + i)
            for i in range(len(sections))
        ]
        client.ingest(batch, now=100.0 * round_index + 50.0)
    client.synchronise(now=300.0)
    fog1_ids = [node.node_id for node in system.fog1_chain()]
    for fog2 in system.fog2_nodes():
        children = {fog1 for fog1 in fog1_ids if system.parent_of(fog1) == fog2.node_id}
        assert set(fog2.storage.query_window_partitioned()) == children
    assert set(system.cloud.storage.query_window_partitioned()) == set(fog1_ids)
    for fog1 in system.fog1_chain():
        assert list(fog1.storage.query_window_partitioned()) == [fog1.node_id]
