"""Nearest-tier resolution, fall-through, scatter-gather and memoization.

The read-side contract of ``repro.api``: every query is answered by the
nearest tier that still holds the requested window — the section's fog
layer-1 node while its real-time window survives, the district's fog
layer-2 node once layer 1 evicted, the cloud for anything older — with the
serving tier asserted through the result's attribution.
"""

import pytest

from repro.api import F2CClient, PipelineConfig, QueryService, run_workload
from repro.common.errors import ValidationError
from repro.core.architecture import F2CDataManagement
from tests.conftest import make_reading

NAN = float("nan")

#: Default retention: fog L1 keeps 6 h, fog L2 keeps 72 h (TTL).
AFTER_L1_TTL = 8 * 3600.0
AFTER_L2_TTL = 80 * 3600.0


def _client(small_city, small_catalog):
    system = F2CDataManagement(
        city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
    )
    return F2CClient(system=system, config=PipelineConfig())


def _seed(client, section="d-01/s-01", count=8, timestamp=100.0, category="energy"):
    readings = [
        make_reading(
            sensor_id=f"q-{section[-1]}-{i}",
            sensor_type="temperature" if category == "energy" else "traffic",
            category=category,
            value=float(i),
            timestamp=timestamp + i,
        )
        for i in range(count)
    ]
    client.ingest(readings, now=timestamp + count, default_section=section)
    return readings


class TestNearestTierResolution:
    def test_realtime_window_served_from_fog_layer_1(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=8)
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert len(result) == 8
        assert result.tiers() == ("fog_layer_1",)
        assert result.rows_by_tier == {"fog_layer_1": 8}
        assert all(source.node_id == "fog1/d-01/s-01" for source in result.sources)

    def test_fog1_eviction_falls_through_to_fog_layer_2(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=8)
        client.synchronise(now=200.0)
        fog1 = client.system.fog1_for_section("d-01/s-01")
        assert fog1.enforce_retention(AFTER_L1_TTL) == 8
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert len(result) == 8
        assert result.tiers() == ("fog_layer_2",)
        assert result.sources[0].node_id == "fog2/d-01"

    def test_fog2_eviction_falls_through_to_cloud(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=8)
        client.synchronise(now=200.0)
        client.system.fog1_for_section("d-01/s-01").enforce_retention(AFTER_L1_TTL)
        assert client.system.fog2_node("fog2/d-01").enforce_retention(AFTER_L2_TTL) == 8
        client.queries.invalidate()
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert len(result) == 8
        assert result.tiers() == ("cloud",)
        assert result.rows_by_tier == {"cloud": 8}

    def test_evicted_tier_serves_windows_it_still_covers(self, small_city, small_catalog):
        """After eviction a tier still answers for data newer than its oldest."""
        client = _client(small_city, small_catalog)
        _seed(client, count=4, timestamp=100.0)
        client.synchronise(now=200.0)
        fog1 = client.system.fog1_for_section("d-01/s-01")
        fog1.enforce_retention(AFTER_L1_TTL)  # drops the old window
        fresh = AFTER_L1_TTL + 100.0
        _seed(client, count=4, timestamp=fresh)
        newer = client.query(since=fresh, until=fresh + 1_000.0, section_id="d-01/s-01")
        assert newer.tiers() == ("fog_layer_1",)
        older = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert older.tiers() == ("fog_layer_2",)

    def test_unsynced_fog1_tail_survives_fall_through(self, small_city, small_catalog):
        """A window spanning evicted-old + unsynced-new data merges tiers.

        Reading A syncs upward then fog L1 evicts it; reading B is ingested
        afterwards and has *not* synced yet, so only fog L1 holds it.  The
        window covering both must split across the chain — the broad tier
        for the old range, fog L1 for its retained tail — instead of
        silently dropping B.
        """
        client = _client(small_city, small_catalog)
        client.ingest(
            [make_reading(sensor_id="old-a", value=1.0, timestamp=10.0)],
            now=10.0,
            default_section="d-01/s-01",
        )
        client.synchronise(now=20.0)
        fog1 = client.system.fog1_for_section("d-01/s-01")
        client.ingest(
            [make_reading(sensor_id="new-b", value=2.0, timestamp=50_000.0)],
            now=50_000.0,
            default_section="d-01/s-01",
        )
        # TTL cutoff lands between A and B: A is evicted, B is retained.
        assert fog1.enforce_retention(now=50_000.0) == 1
        result = client.query(since=0.0, until=60_000.0, section_id="d-01/s-01")
        assert len(result) == 2
        assert sorted(result.columns.sensor_ids) == ["new-b", "old-a"]
        assert result.rows_by_tier == {"fog_layer_2": 1, "fog_layer_1": 1}
        tiers = {source.tier for source in result.sources if source.rows}
        assert tiers == {"fog_layer_1", "fog_layer_2"}
        assert result.tiers() == ("fog_layer_1", "fog_layer_2")

    def test_cross_section_scatter_gather_mixes_tiers(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, section="d-01/s-01", count=5)
        _seed(client, section="d-02/s-02", count=3)
        client.synchronise(now=200.0)
        client.system.fog1_for_section("d-01/s-01").enforce_retention(AFTER_L1_TTL)
        result = client.query(since=0.0, until=1_000.0)
        assert len(result) == 8
        assert result.rows_by_tier == {"fog_layer_2": 5, "fog_layer_1": 3}
        by_tier = {source.tier: source for source in result.sources}
        assert by_tier["fog_layer_2"].node_id == "fog2/d-01"
        assert by_tier["fog_layer_1"].node_id == "fog1/d-02/s-02"

    def test_category_filter_composes_with_tier_resolution(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, section="d-01/s-01", count=4, category="energy")
        _seed(client, section="d-01/s-02", count=3, category="urban")
        energy = client.query(since=0.0, until=1_000.0, category="energy")
        urban = client.query(since=0.0, until=1_000.0, category="urban")
        assert len(energy) == 4 and set(energy.columns.categories) == {"energy"}
        assert len(urban) == 3 and set(urban.columns.categories) == {"urban"}


class TestSensorQueries:
    def test_sensor_query_uses_its_sections_chain(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        client.system.assign_sensor("pinned-1", "d-02/s-01")
        client.ingest(
            [make_reading(sensor_id="pinned-1", value=1.0, timestamp=10.0)], now=10.0
        )
        result = client.query(since=0.0, until=100.0, sensor_id="pinned-1")
        assert len(result) == 1
        assert result.sources == tuple(result.sources)
        assert result.sources[0].node_id == "fog1/d-02/s-01"
        assert result.sources[0].tier == "fog_layer_1"

    def test_default_section_routed_sensor_is_found_by_series_scan(
        self, small_city, small_catalog
    ):
        client = _client(small_city, small_catalog)
        # Route away from where the spread hash would place the sensor, so
        # only the series scan can find the right chain.
        spread = client.system.spread_section("roamer-1")
        section = next(
            s.section_id for s in client.system.city.sections if s.section_id != spread
        )
        client.ingest(
            [make_reading(sensor_id="roamer-1", value=2.0, timestamp=10.0)],
            now=10.0,
            default_section=section,
        )
        result = client.query(since=0.0, until=100.0, sensor_id="roamer-1")
        assert len(result) == 1
        assert result.sources[0].node_id == f"fog1/{section}"

    def test_unknown_sensor_yields_empty_result_with_attribution(
        self, small_city, small_catalog
    ):
        client = _client(small_city, small_catalog)
        result = client.query(since=0.0, until=100.0, sensor_id="ghost-1")
        assert len(result) == 0
        assert result.tiers() == ()
        assert len(result.sources) == 1  # the consulted chain is still named


class TestWindowSemantics:
    def test_since_inclusive_until_exclusive(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        client.ingest(
            [
                make_reading(sensor_id="b-1", value=1.0, timestamp=t)
                for t in (100.0, 200.0, 300.0)
            ],
            now=300.0,
            default_section="d-01/s-01",
        )
        result = client.query(since=100.0, until=300.0, sensor_id="b-1")
        assert sorted(result.columns.timestamps) == [100.0, 200.0]

    def test_inverted_window_is_empty(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        result = client.query(since=1_000.0, until=0.0, section_id="d-01/s-01")
        assert len(result) == 0

    def test_unbounded_window_covers_everything(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=8)
        result = client.query(section_id="d-01/s-01")
        assert len(result) == 8

    @pytest.mark.parametrize(
        "window", [(NAN, 1_000.0), (0.0, NAN), (NAN, NAN)], ids=["since", "until", "both"]
    )
    @pytest.mark.parametrize("scope", [{}, {"section_id": "d-01/s-01"}], ids=["city", "section"])
    def test_nan_bound_is_rejected(self, small_city, small_catalog, window, scope):
        # bisect reads a NaN since as -inf and a NaN until as "before every
        # row": the window would silently turn unbounded or empty.
        client = _client(small_city, small_catalog)
        _seed(client, count=8)
        since, until = window
        with pytest.raises(ValidationError, match="NaN"):
            client.query(since=since, until=until, **scope)
        with pytest.raises(ValidationError, match="NaN"):
            client.summarize(since=since, until=until, **scope)
        assert client.queries.queries_served == 0
        assert client.queries.summaries_served == 0
        assert len(client.query(since=float("-inf"), until=float("inf"), **scope)) == 8
        assert client.summarize(since=float("-inf"), until=float("inf"), **scope).rows == 8


class TestMemoization:
    def test_repeated_query_is_a_cache_hit(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        first = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        second = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert not first.cache_hit and second.cache_hit
        assert second.rows_by_tier == first.rows_by_tier
        assert client.queries.cache_hits == 1
        assert client.queries.queries_served == 2

    def test_ingest_invalidates_the_cache(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=4)
        assert len(client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")) == 4
        _seed(client, count=8)  # same window, more data
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert not result.cache_hit
        assert len(result) == 12

    def test_synchronise_invalidates_the_cache(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert client.queries.cache_size == 1
        client.synchronise(now=200.0)
        assert client.queries.cache_size == 0
        # The tier can legitimately change across the sync + eviction.
        client.system.fog1_for_section("d-01/s-01").enforce_retention(AFTER_L1_TTL)
        client.queries.invalidate()
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert result.tiers() == ("fog_layer_2",)


class TestShardedRuns:
    def test_sharded_client_serves_from_broad_tiers(self):
        sharded = run_workload(transport="sharded", workers=2, inline_workers=True)
        direct = run_workload(transport="direct")
        shard_result = sharded.query(since=0.0, until=3600.0)
        direct_result = direct.query(since=0.0, until=3600.0)
        # The supervisor's fog L1 stores are worker-owned, so nothing may be
        # served from fog layer 1 — and the data itself is identical.
        assert "fog_layer_1" not in shard_result.rows_by_tier
        assert shard_result.rows_by_tier != {}
        assert len(shard_result) == len(direct_result)

        def canonical(result):
            return sorted(
                zip(
                    result.columns.sensor_ids,
                    result.columns.timestamps,
                    result.columns.values,
                )
            )

        assert canonical(shard_result) == canonical(direct_result)

    def test_sharded_result_client_helper(self):
        from repro.runtime import ShardedWorkload, run_sharded

        result = run_sharded(workers=2, workload=ShardedWorkload.golden(), inline=True)
        client = result.client()
        assert client.sharded is result
        assert client.health()["worker_restarts"] == 0
        assert len(client.query(since=0.0, until=3600.0)) > 0


class TestQueryResultViews:
    def test_batch_and_readings_materialization(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=3)
        result = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        batch = result.batch()
        assert len(batch) == 3
        readings = result.readings()
        assert [r.sensor_id for r in readings] == list(result.columns.sensor_ids)

    def test_mutating_a_result_does_not_corrupt_the_memo(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client, count=3)
        first = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        # Service results are frozen; batch() copies lazily, so adopting and
        # mutating the batch leaves the result (and the memo) untouched.
        assert first.columns.frozen
        adopted = first.batch()
        adopted.append(make_reading(sensor_id="injected", value=9.9, timestamp=5.0))
        assert len(adopted) == 4
        assert len(first) == 3
        second = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert second.cache_hit
        assert len(second) == 3
        assert "injected" not in second.columns.sensor_ids
        # ...and mutating a hit's columns directly is refused outright.
        with pytest.raises(TypeError, match="frozen"):
            second.columns.append_reading(make_reading(sensor_id="again", value=1.0))
        third = client.query(since=0.0, until=1_000.0, section_id="d-01/s-01")
        assert len(third) == 3

    def test_invalidate_reports_dropped_entries(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        _seed(client)
        client.query(since=0.0, until=10.0)
        client.query(since=0.0, until=20.0)
        assert client.queries.invalidate() == 2
        assert client.queries.invalidate() == 0


class TestQueryServiceDirect:
    def test_service_over_existing_system(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        system.api_pipeline.ingest_rows(
            [make_reading(sensor_id="svc-1", value=1.0, timestamp=5.0)],
            now=5.0,
            default_section="d-01/s-01",
        )
        service = QueryService(system)
        result = service.query(since=0.0, until=10.0)
        assert len(result) == 1
        assert service.stats()["queries_by_tier"]["fog_layer_1"] == 1
