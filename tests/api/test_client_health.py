"""One ``client.health()`` report unifies every drop/fault counter.

Broker payload drops and sharded-runtime IPC record drops (both in the
``conservation`` ledger), worker restarts, and the query service's
served-from counters all surface through the same report — and through
``client.summary()``.
"""

import pytest

from repro.api import F2CClient, PipelineConfig, serve
from repro.common.clock import VirtualClock
from repro.core.architecture import F2CDataManagement
from repro.runtime import ShardedWorkload, WorkerFault, run_sharded
from tests.conftest import make_reading

#: The keys ``F2CClient.health()`` documents, and nothing else.
HEALTH_KEYS = {
    "worker_restarts",
    "worker_faults",
    "queries",
    "broker",
    "durable",
    "conservation",
    "availability",
}


def _client(small_city, small_catalog, **config_kwargs):
    system = F2CDataManagement(
        city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
    )
    return F2CClient(system=system, config=PipelineConfig(**config_kwargs))


class TestHealthReport:
    @pytest.mark.parametrize("deployment", ["client", "sharded", "serve"])
    def test_health_has_exactly_its_documented_keys(self, deployment, small_city, small_catalog):
        expected = HEALTH_KEYS
        if deployment == "client":
            health = _client(small_city, small_catalog).health()
        elif deployment == "sharded":
            result = run_sharded(workers=2, workload=ShardedWorkload.golden(), inline=True)
            health = result.client().health()
        else:
            handle = serve(ShardedWorkload.golden(), transport="direct", clock=VirtualClock())
            assert handle.drain(timeout=120)
            handle.shutdown()
            health = handle.health()
            expected = HEALTH_KEYS | {"serve"}
        assert set(health) == expected

    def test_clean_deployment_reports_zero_everything(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        health = client.health()
        assert health["conservation"]["dropped_payloads"] == 0
        assert health["conservation"]["dropped_ipc_frames"] == 0
        assert health["worker_restarts"] == 0
        assert health["worker_faults"] == []
        assert health["queries"]["served"] == 0

    def test_dropped_broker_payloads_surface_in_health(self, small_city, small_catalog):
        client = _client(
            small_city, small_catalog, transport="frames-binary-v2", city_slug="toyville"
        )
        client.ingest(
            [make_reading(sensor_id="ok-1", value=1.0, timestamp=1.0)],
            now=1.0,
            default_section="d-01/s-01",
        )
        broker = client.session.broker
        # A corrupt frame and a malformed CSV line, parked then flushed.
        broker.publish("city/toyville/d-01/s-01/frame", b"\x00RBB garbage", timestamp=2.0)
        broker.publish("city/toyville/d-01/s-01/energy/temperature", b"\xff\xfe", timestamp=2.0)
        client.ingest([], now=2.0)  # drains the inboxes via the session flush
        health = client.health()
        assert health["conservation"]["dropped_payloads"] == 2
        assert client.system.dropped_payloads == 2  # the deployment's counter agrees

    def test_query_counters_flow_into_health(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        client.ingest(
            [make_reading(sensor_id="h-1", value=1.0, timestamp=5.0)],
            now=5.0,
            default_section="d-01/s-01",
        )
        client.query(since=0.0, until=10.0)
        client.query(since=0.0, until=10.0)
        queries = client.health()["queries"]
        assert queries["served"] == 2
        assert queries["cache_hits"] == 1
        assert queries["rows_by_tier"]["fog_layer_1"] == 1

    def test_summary_embeds_the_health_report(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        summary = client.summary()
        assert summary["city"] == "Toyville"
        assert summary["health"]["conservation"]["dropped_payloads"] == 0
        # The architecture's own summary stays health-free (Fig. 6 shape).
        assert "health" not in client.system.summary()


class TestConservationLedger:
    def test_ledger_unifies_every_loss_channel(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        ledger = client.health()["conservation"]
        for key in (
            "dropped_payloads",
            "dropped_ipc_frames",
            "shed_messages",
            "corrupted_messages",
            "dropped_log_records",
            "dropped_log_bytes",
            "total_counted_losses",
            "tiers",
        ):
            assert key in ledger
        assert ledger["total_counted_losses"] == 0

    def test_no_loss_counter_sits_outside_the_ledger(self, small_city, small_catalog):
        client = _client(
            small_city, small_catalog, transport="frames-binary-v2", city_slug="toyville"
        )
        broker = client.session.broker
        broker.publish("city/toyville/d-01/s-01/frame", b"\x00RBB garbage", timestamp=2.0)
        client.ingest([], now=2.0)
        health = client.health()
        ledger = health["conservation"]
        loss_keys = {key for key in ledger if key != "tiers"}
        assert not loss_keys & set(health)
        assert ledger["dropped_payloads"] == 1
        assert ledger["total_counted_losses"] == 1

    def test_tier_aggregates_track_ingest(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        client.ingest(
            [make_reading(sensor_id="t-1", value=1.0, timestamp=5.0)],
            now=5.0,
            default_section="d-01/s-01",
        )
        client.synchronise(now=4000.0)
        tiers = client.health()["conservation"]["tiers"]
        assert tiers["fog_layer_1"]["ingested_readings"] == 1
        assert tiers["fog_layer_2"]["ingested_readings"] == 1
        assert tiers["cloud"]["ingested_readings"] == 1
        for tier in tiers.values():
            assert tier["pending_upward"] == 0
        assert tiers["fog_layer_1"]["rejected_readings"] == 0

    def test_acquisition_rejections_count_in_the_fog1_tier(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        # A reading claiming a far-future timestamp is hard-rejected by the
        # quality phase at ingest time.
        client.ingest(
            [make_reading(sensor_id="skewed-1", value=1.0, timestamp=5000.0)],
            now=5.0,
            default_section="d-01/s-01",
        )
        tiers = client.health()["conservation"]["tiers"]
        assert tiers["fog_layer_1"]["rejected_readings"] == 1
        assert tiers["fog_layer_1"]["ingested_readings"] == 0


    @pytest.mark.parametrize("timestamp", [float("nan"), float("-inf"), float("inf")], ids=repr)
    def test_non_finite_timestamps_are_rejected_at_fog1_not_crashed_on_at_the_cloud(
        self, small_city, small_catalog, timestamp
    ):
        # NaN fails both timestamp comparisons and -inf only looked old, so
        # both used to be admitted and then broke the cloud's day bucketing
        # (floor(t / day_seconds)) at the next synchronise.
        client = _client(small_city, small_catalog)
        client.ingest(
            [
                make_reading(sensor_id="fine-1", value=1.0, timestamp=5.0),
                make_reading(sensor_id="broken-1", value=1.0, timestamp=timestamp),
            ],
            now=5.0,
            default_section="d-01/s-01",
        )
        fog1 = client.system.fog1_for_section("d-01/s-01")
        assert fog1.rejected_readings == 1
        assert fog1.acquisition.quality.last_report.rejection_reasons == {"non_finite_timestamp": 1}
        client.synchronise(now=4000.0)
        tiers = client.health()["conservation"]["tiers"]
        assert tiers["fog_layer_1"]["rejected_readings"] == 1
        assert tiers["fog_layer_1"]["ingested_readings"] == 1
        assert tiers["cloud"]["ingested_readings"] == 1


class TestAvailabilityInHealth:
    def test_health_reports_full_availability_when_clean(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        availability = client.health()["availability"]
        assert availability["section_availability"] == 1.0
        assert availability["cloud_path_availability"] == 1.0
        assert availability["served_sections"] == availability["total_sections"]

    def test_injected_failures_flow_through_the_facade(self, small_city, small_catalog):
        client = _client(small_city, small_catalog)
        node = client.system.fog1_nodes()[0]
        client.injector.fail_node(node.node_id)
        availability = client.health()["availability"]
        assert availability["failed_fog1_nodes"] == 1
        assert availability["served_sections"] == availability["total_sections"] - 1
        client.injector.recover_node(node.node_id)
        assert client.health()["availability"]["failed_fog1_nodes"] == 0


class TestShardedHealth:
    def test_worker_fault_counters_surface_in_health(self):
        result = run_sharded(
            workers=2,
            workload=ShardedWorkload.golden(),
            faults=[WorkerFault(shard_index=0, die_after_round=1)],
            inline=True,
        )
        health = result.client().health()
        assert health["worker_restarts"] == 1
        assert health["worker_faults"] and health["worker_faults"][0]["worker"] == 0
