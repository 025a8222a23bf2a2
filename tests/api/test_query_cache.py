"""The query memo's byte-accounted LRU bound, and the stats conventions.

The memo used to be an unbounded dict — a consumer sweeping distinct
windows (dashboards paginating history) grew it without limit.  It is now
an LRU bounded by :attr:`PipelineConfig.query_cache_bytes`; these tests pin
the bound, the eviction accounting, the frozen-result sharing that makes
hits cheap, and the *sparse* per-tier counter convention.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.api import F2CClient, PipelineConfig, QueryService
from repro.common.errors import ConfigurationError
from repro.core.architecture import F2CDataManagement
from tests.conftest import make_reading


def _client(small_city, small_catalog, **config_kwargs):
    system = F2CDataManagement(
        city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
    )
    return F2CClient(system=system, config=PipelineConfig(**config_kwargs))


def _seed(client, count=8, section="d-01/s-01"):
    readings = [
        make_reading(sensor_id=f"c-{i}", value=float(i), timestamp=100.0 + i)
        for i in range(count)
    ]
    client.ingest(readings, now=100.0 + count, default_section=section)
    return readings


class TestCacheBound:
    def test_sustained_distinct_windows_stay_bounded(self, small_city, small_catalog):
        capacity = 4096
        client = _client(small_city, small_catalog, query_cache_bytes=capacity)
        _seed(client)
        service = client.queries
        for i in range(300):
            # Distinct keys (the memoized-hit path would not grow the cache).
            client.query(since=0.0, until=200.0 + i * 1e-6, sensor_id="c-1")
            assert service.cache_bytes <= capacity
        stats = service.stats()
        assert stats["cache_bytes"] <= capacity
        assert stats["cache_capacity_bytes"] == capacity
        assert stats["cache_evictions"] > 0
        assert stats["cache_size"] < 300

    def test_least_recently_hit_window_evicts_first(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        service = client.queries
        # Three small entries; shrink the budget to exactly what they cost,
        # touch the first, then add a fourth: the *second* must go.
        keys = [(0.0, 200.0 + i, "c-1", None, None) for i in range(4)]
        for since, until, sensor_id, _, _ in keys[:3]:
            client.query(since=since, until=until, sensor_id=sensor_id)
        service.cache_capacity_bytes = service.cache_bytes
        client.query(since=keys[0][0], until=keys[0][1], sensor_id="c-1")  # refresh
        client.query(since=keys[3][0], until=keys[3][1], sensor_id="c-1")
        assert service.cache_evictions == 1
        assert keys[1] not in service._cache
        assert keys[0] in service._cache and keys[2] in service._cache

    def test_oversized_result_is_served_but_not_memoized(self, small_city, small_catalog):
        client = _client(small_city, small_catalog, query_cache_bytes=600)
        _seed(client, count=50)
        service = client.queries
        result = client.query(since=0.0, until=1_000.0)  # 50 rows >> 600 bytes
        assert len(result) == 50
        assert service.cache_size == 0
        assert service.cache_evictions == 0  # refused up front, nothing evicted
        assert not client.query(since=0.0, until=1_000.0).cache_hit

    def test_zero_capacity_disables_memoization(self, small_city, small_catalog):
        client = _client(small_city, small_catalog, query_cache_bytes=0)
        _seed(client)
        first = client.query(since=0.0, until=1_000.0)
        second = client.query(since=0.0, until=1_000.0)
        assert not first.cache_hit and not second.cache_hit
        assert client.queries.stats()["cache_size"] == 0

    def test_negative_capacity_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="query_cache_bytes"):
            PipelineConfig(query_cache_bytes=-1)
        with pytest.raises(ConfigurationError, match="cold_store_cache_bytes"):
            PipelineConfig(cold_store_cache_bytes=-1)

    def test_cold_store_capacity_defaults_and_stats_keys(
        self, small_city, small_catalog
    ):
        client = _client(small_city, small_catalog)
        service = client.queries
        assert service.cold_store_capacity_bytes == QueryService.DEFAULT_COLD_STORE_BYTES
        stats = service.stats()
        assert stats["cold_stores"] == 0
        assert stats["cold_store_bytes"] == 0
        assert stats["cold_store_evictions"] == 0

    def test_invalidate_is_not_an_eviction(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        client.query(since=0.0, until=1_000.0)
        assert client.queries.invalidate() == 1
        stats = client.queries.stats()
        assert stats["cache_evictions"] == 0
        assert stats["cache_bytes"] == 0

    def test_client_passes_capacity_from_config(self, small_city, small_catalog):
        client = _client(small_city, small_catalog, query_cache_bytes=12345)
        assert client.queries.cache_capacity_bytes == 12345
        assert client.health()["queries"]["cache_capacity_bytes"] == 12345

    def test_default_capacity(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        assert client.queries.cache_capacity_bytes == QueryService.DEFAULT_CACHE_BYTES


class TestHitSharing:
    def test_hits_share_frozen_columns_without_copying(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        first = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        second = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert second.cache_hit
        # The hit is the memoized columns, not a copy — that is what makes
        # hits O(1) instead of O(rows).
        assert second.columns is first.columns
        assert second.columns.frozen
        # Per-hit attribution dicts are private, though.
        assert second.rows_by_tier == first.rows_by_tier
        assert second.rows_by_tier is not first.rows_by_tier

    def test_batch_adoption_copies_lazily(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=3)
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        adopted = result.batch()
        assert not adopted.columns.frozen
        assert adopted.columns is not result.columns
        adopted.append(make_reading(sensor_id="mine", timestamp=5.0))
        assert len(adopted) == 4 and len(result) == 3


class TestSparseTierCounters:
    """One convention, asserted: per-tier dicts are sparse, and the
    service-level counters are exactly the fold of the per-result ones."""

    def test_stats_convention(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        service = client.queries

        expected_rows: dict = {}
        expected_queries: dict = {}
        results = [
            client.query(since=0.0, until=1_000.0, section_id="d-01/s-01"),
            client.query(since=0.0, until=1_000.0),
            client.query(since=5_000.0, until=6_000.0, section_id="d-02/s-01"),
        ]
        for result in results:
            # Per-result rows_by_tier is sparse: no zero-valued tiers, and
            # it agrees with the sources it summarizes.
            assert all(rows > 0 for rows in result.rows_by_tier.values())
            by_tier: dict = {}
            for source in result.sources:
                by_tier[source.tier] = by_tier.get(source.tier, 0) + source.rows
            assert result.rows_by_tier == {t: n for t, n in by_tier.items() if n}
            for tier, rows in result.rows_by_tier.items():
                expected_rows[tier] = expected_rows.get(tier, 0) + rows
            for tier in {source.tier for source in result.sources}:
                expected_queries[tier] = expected_queries.get(tier, 0) + 1

        stats = service.stats()
        # Service counters are the exact fold — same sparse convention:
        # queries_by_tier counts answers that *consulted* the tier,
        # rows_by_tier sums the rows it served; absent tier == zero.
        assert stats["rows_by_tier"] == expected_rows
        assert stats["queries_by_tier"] == expected_queries
        assert "cloud" not in stats["rows_by_tier"]  # nothing synced upward

    def test_cache_hits_do_not_recount_tiers(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        baseline = client.queries.stats()
        hit = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert hit.cache_hit
        stats = client.queries.stats()
        assert stats["rows_by_tier"] == baseline["rows_by_tier"]
        assert stats["queries_by_tier"] == baseline["queries_by_tier"]
        assert stats["served"] == baseline["served"] + 1
        assert stats["cache_hits"] == baseline["cache_hits"] + 1


class TestSummarize:
    def test_summary_estimates_and_attribution(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=12, section="d-01/s-01")
        exact = client.query(since=0.0, until=1_000.0)
        summary = client.summarize(since=0.0, until=1_000.0)
        assert summary.rows == len(exact)
        assert summary.rows_by_tier == exact.rows_by_tier
        assert summary.tiers() == exact.tiers()
        assert summary.categories() == ["energy"]
        # Count-min never undercounts; here collisions are unlikely, so the
        # estimates are exact.
        for sensor_id in set(exact.columns.sensor_ids):
            true = sum(1 for s in exact.columns.sensor_ids if s == sensor_id)
            assert summary.reading_count("energy", sensor_id) >= true
        assert summary.distinct_sensors("energy") == pytest.approx(12, rel=0.25)
        assert summary.reading_count("energy", "never-seen") == 0
        assert summary.distinct_sensors("missing-category") == 0.0
        assert summary.size_bytes() > 0

    def test_summaries_counted_separately_and_not_memoized(
        self, small_city, small_catalog
    ):
        client = _client(small_city, small_catalog)
        _seed(client)
        client.summarize(since=0.0, until=1_000.0)
        client.summarize(since=0.0, until=1_000.0)
        stats = client.queries.stats()
        assert stats["summaries"] == 2
        assert stats["served"] == 0
        assert stats["cache_size"] == 0


class TestHonestCosting:
    """Memo entries are charged what they *pin*: result columns alias the
    store's objects, so dropping an entry frees only its list slots and
    the timestamps re-boxed out of the store's typed arrays — a per-row
    constant, computed in O(1) and checked here against ``tracemalloc``."""

    def test_entry_cost_is_the_pinned_bytes_rule(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        service = client.queries
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        expected = (
            QueryService._CACHE_ENTRY_OVERHEAD
            + len(result) * QueryService._CACHE_ROW_COST
            + len(result.sources) * QueryService._CACHE_SOURCE_COST
        )
        assert len(result) == 8
        assert service.cache_bytes == expected
        assert service.stats()["cache_bytes"] == expected

    @pytest.mark.parametrize("synced", [False, True], ids=["fog1", "broad-tiers"])
    def test_charge_matches_what_dropping_the_entries_frees(
        self, small_city, small_catalog, synced
    ):
        sections = [s.section_id for d in small_city.districts for s in d.sections]
        client = _client(small_city, small_catalog, query_cache_bytes=64 * 1024 * 1024)
        for index, section in enumerate(sections):
            client.ingest(
                [
                    make_reading(
                        sensor_id=f"t{index}-{i % 20}",
                        value=i + 0.5,
                        timestamp=100.0 + i,
                        tags={"row": i},
                    )
                    for i in range(600)
                ],
                now=800.0,
                default_section=section,
            )
        if synced:
            client.synchronise(now=900.0)
        service = client.queries
        service.invalidate()
        gc.collect()
        tracemalloc.start()
        try:
            # Section, city-scatter and sensor scopes; every window distinct,
            # every result dropped on the floor so only the memo holds it.
            for i in range(60):
                if i % 3 == 0:
                    client.query(since=100.0, until=200.0 + i, section_id=sections[i % 4])
                elif i % 3 == 1:
                    client.query(since=100.0, until=150.0 + i)
                else:
                    client.query(since=100.0 + i * 1e-3, until=900.0, sensor_id=f"t1-{i % 20}")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            charged = service.cache_bytes
            assert service.cache_size == 60 and service.cache_evictions == 0
            service.invalidate()  # the stores stay alive; only the memo lets go
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed == pytest.approx(charged, rel=0.25)

    def test_memory_bytes_charges_shared_objects_once(self):
        from repro.sensors.readings import ReadingColumns

        shared = {"site": "barcelona", "quality": 0.9}
        with_shared = ReadingColumns.from_readings(
            make_reading(sensor_id=f"m-{i}", timestamp=float(i), tags=shared)
            for i in range(6)
        )
        with_distinct = ReadingColumns.from_readings(
            make_reading(
                sensor_id=f"m-{i}", timestamp=float(i), tags=dict(shared)
            )
            for i in range(6)
        )
        # Same rows, same values — but six aliases of one dict must cost
        # less than six equal-but-distinct dicts.
        assert with_shared.memory_bytes() < with_distinct.memory_bytes()

    def test_memory_bytes_grows_with_rows(self):
        from repro.sensors.readings import ReadingColumns

        small = ReadingColumns.from_readings(
            make_reading(sensor_id=f"g-{i}", timestamp=float(i)) for i in range(4)
        )
        large = ReadingColumns.from_readings(
            make_reading(sensor_id=f"g-{i}", timestamp=float(i)) for i in range(64)
        )
        assert 0 < small.memory_bytes() < large.memory_bytes()


class TestSketchSegmentCache:
    """summarize() folds cached per-segment sketch pairs on broad tiers."""

    def _broad_tier_client(self, small_city, small_catalog):
        # Seed, sync upward, then drop the fog L1 copies so summaries must
        # be served from the (cacheable) broad tiers.
        client = _client(small_city, small_catalog)
        _seed(client, count=12)
        client.synchronise(now=500.0)
        for fog1 in client.system.fog1_nodes():
            fog1.storage.store.clear()
            client.system.merge_fog1_stats({fog1.node_id: {"stored_readings": 0}})
        client.queries.invalidate()
        return client

    def test_warm_summaries_fold_identical_cached_sketches(
        self, small_city, small_catalog
    ):
        client = self._broad_tier_client(small_city, small_catalog)
        service = client.queries
        cold = client.summarize(since=0.0, until=1_000.0)
        assert cold.rows == 12
        assert service.stats()["sketch_cache_size"] > 0
        assert service.sketch_cache_hits == 0
        warm = client.summarize(since=0.0, until=1_000.0)
        assert service.sketch_cache_hits > 0
        # The folded result is bit-identical to the cold per-row pass.
        assert warm.rows == cold.rows and warm.rows_by_tier == cold.rows_by_tier
        assert set(warm.frequency) == set(cold.frequency)
        for category, sketch in cold.frequency.items():
            assert warm.frequency[category]._table == sketch._table
            assert warm.distinct[category]._registers == (
                cold.distinct[category]._registers
            )

    def test_fog1_segments_are_not_cached(self, small_city, small_catalog):
        # Fog L1 contents churn with every ingest; only the broad tiers —
        # whose contents change exactly at invalidate() points — cache.
        client = _client(small_city, small_catalog)
        _seed(client)
        summary = client.summarize(since=0.0, until=1_000.0)
        assert summary.rows == 8
        assert summary.tiers() == ("fog_layer_1",)
        stats = client.queries.stats()
        assert stats["sketch_cache_size"] == 0
        assert stats["sketch_cache_hits"] == 0

    def test_invalidate_clears_the_sketch_cache(self, small_city, small_catalog):
        client = self._broad_tier_client(small_city, small_catalog)
        client.summarize(since=0.0, until=1_000.0)
        assert client.queries.stats()["sketch_cache_size"] > 0
        client.queries.invalidate()
        assert client.queries.stats()["sketch_cache_size"] == 0

    def test_cache_is_bounded(self, small_city, small_catalog):
        client = self._broad_tier_client(small_city, small_catalog)
        service = client.queries
        service._SKETCH_CACHE_MAX_SEGMENTS = 2
        for i in range(8):
            client.summarize(since=0.0, until=900.0 + i)
        assert len(service._sketch_cache) <= 2


class TestSensorRouting:
    """Sensor→chain resolution order: assignment, broad-tier index, probe."""

    def test_unassigned_sensor_resolves_via_broad_tier_index(
        self, small_city, small_catalog
    ):
        client = _client(small_city, small_catalog)
        # default_section routing leaves no explicit assignment behind.
        client.ingest(
            [make_reading(sensor_id="u-1", timestamp=10.0)],
            now=10.0,
            default_section="d-01/s-02",
        )
        before_sync = client.query(sensor_id="u-1")
        assert before_sync.tiers() == ("fog_layer_1",)  # found by the probe loop
        assert before_sync.sources[0].section_id == "d-01/s-02"

        # Once synced upward, the broad tiers' fog index names the chain
        # directly — even when the fog L1 store no longer holds the series
        # (the sharded-supervisor shape).
        client.synchronise(now=20.0)
        for fog1 in client.system.fog1_nodes():
            fog1.storage.store.clear()
            client.system.merge_fog1_stats({fog1.node_id: {"stored_readings": 0}})
        client.queries.invalidate()
        result = client.query(sensor_id="u-1")
        assert len(result) == 1
        assert result.sources[0].section_id == "d-01/s-02"
        assert result.tiers() == ("fog_layer_2",)
        # The resolution is memoized until the next invalidation.
        expected_chain = client.system.fog1_for_section("d-01/s-02").node_id
        assert client.queries._sensor_chain["u-1"] == expected_chain
        client.queries.invalidate()
        assert "u-1" not in client.queries._sensor_chain

    def test_unknown_sensor_falls_back_to_spread_chain(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        result = client.query(sensor_id="never-ingested")
        assert len(result) == 0
        expected = client.system.spread_section("never-ingested")
        assert result.sources[0].section_id == expected
