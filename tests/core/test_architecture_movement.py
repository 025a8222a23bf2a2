"""Tests for the deployed F2C architecture and the data-movement scheduler."""

import pytest

from repro.common.errors import ConfigurationError, RoutingError
from repro.core.architecture import F2CDataManagement
from repro.core.movement import MovementPolicy
from repro.messaging.broker import Broker
from repro.network.link import LinkProfile
from repro.network.topology import LayerName
from repro.sensors.readings import ReadingBatch
from tests.conftest import make_reading


class TestDeployment:
    def test_one_fog1_node_per_section(self, f2c_system, small_city):
        assert len(f2c_system.fog1_nodes()) == small_city.section_count
        assert len(f2c_system.fog2_nodes()) == small_city.district_count

    def test_summary(self, f2c_system):
        summary = f2c_system.summary()
        assert summary["fog_layer_1_nodes"] == 4
        assert summary["fog_layer_2_nodes"] == 2
        assert summary["cloud_nodes"] == 1

    def test_node_lookup(self, f2c_system):
        fog1 = f2c_system.fog1_for_section("d-01/s-01")
        assert fog1.section_id == "d-01/s-01"
        assert f2c_system.parent_of(fog1.node_id) == "fog2/d-01"
        assert f2c_system.node_by_id(fog1.node_id) is fog1
        assert f2c_system.node_by_id("cloud") is f2c_system.cloud
        with pytest.raises(RoutingError):
            f2c_system.fog1_node("fog1/ghost")
        with pytest.raises(RoutingError):
            f2c_system.node_by_id("nope")

    def test_barcelona_default_deployment(self):
        system = F2CDataManagement()
        assert len(system.fog1_nodes()) == 73
        assert len(system.fog2_nodes()) == 10


class TestIngestionRouting:
    def test_assigned_sensors_route_to_their_section(self, f2c_system):
        f2c_system.assign_sensor("s-1", "d-01/s-01")
        counts = f2c_system.api_pipeline.ingest_rows([make_reading(sensor_id="s-1", value=1.0)], now=0.0)
        assert counts == {"fog1/d-01/s-01": 1}
        assert f2c_system.fog1_for_section("d-01/s-01").latest("s-1").value == 1.0

    def test_assign_unknown_section_rejected(self, f2c_system):
        with pytest.raises(ConfigurationError):
            f2c_system.assign_sensor("s-1", "nowhere")

    def test_unassigned_sensors_spread_deterministically(self, f2c_system):
        readings = [make_reading(sensor_id=f"s-{i}", value=1.0) for i in range(40)]
        first = f2c_system.api_pipeline.ingest_rows(readings, now=0.0)
        assert sum(first.values()) == 40

    def test_default_section_override(self, f2c_system):
        counts = f2c_system.api_pipeline.ingest_rows(
            [make_reading(sensor_id="x", value=1.0)], now=0.0, default_section="d-02/s-02"
        )
        assert counts == {"fog1/d-02/s-02": 1}

    def test_fog1_traffic_recorded_on_ingest(self, f2c_system):
        f2c_system.api_pipeline.ingest_rows([make_reading(value=1.0, size_bytes=22)], now=0.0)
        assert f2c_system.simulator.accountant.bytes_into_layer(LayerName.FOG_1) == 22


class TestSynchronisation:
    def test_full_sync_moves_data_to_cloud(self, f2c_system):
        batch = [
            make_reading(sensor_id="a", value=1.0, size_bytes=22),
            make_reading(sensor_id="b", value=2.0, size_bytes=22),
        ]
        f2c_system.api_pipeline.ingest_rows(batch, now=0.0, default_section="d-01/s-01")
        moved = f2c_system.synchronise()
        assert moved["fog1_to_fog2"] == {"fog1/d-01/s-01": 44}
        assert moved["fog2_to_cloud"] == {"fog2/d-01": 44}
        assert len(f2c_system.cloud.storage) == 2
        assert len(f2c_system.cloud.archive.datasets()) >= 1

    def test_redundancy_reduces_upward_traffic(self, f2c_system):
        duplicates = [
            make_reading(sensor_id="s1", value=20.0, timestamp=float(t), size_bytes=22)
            for t in range(10)
        ]
        f2c_system.api_pipeline.ingest_rows(duplicates, now=0.0, default_section="d-01/s-01")
        f2c_system.synchronise()
        report = f2c_system.traffic_report()
        assert report["fog_layer_1"] == 220  # raw volume reaches fog L1
        assert report["fog_layer_2"] == 22  # only the deduplicated reading moves up
        assert report["cloud"] == 22

    def test_second_sync_moves_nothing_new(self, f2c_system):
        f2c_system.api_pipeline.ingest_rows([make_reading(value=1.0)], now=0.0, default_section="d-01/s-01")
        f2c_system.synchronise()
        second = f2c_system.synchronise()
        assert second["fog1_to_fog2"] == {}
        assert second["fog2_to_cloud"] == {}

    def test_storage_report_covers_all_nodes(self, f2c_system):
        report = f2c_system.storage_report()
        assert len(report) == 4 + 2 + 1

    def test_traffic_report_layers(self, f2c_system):
        report = f2c_system.traffic_report()
        assert set(report) == {layer.value for layer in LayerName}


class TestMovementPolicy:
    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            MovementPolicy(fog1_to_fog2_interval_s=0)
        with pytest.raises(ConfigurationError):
            MovementPolicy(offpeak_hours=(25,))

    def test_no_deferral_returns_now(self):
        policy = MovementPolicy(defer_to_offpeak=False)
        assert policy.next_transmission_time(1_000.0, None) == 1_000.0

    def test_offpeak_deferral_waits_for_configured_hour(self):
        policy = MovementPolicy(defer_to_offpeak=True, offpeak_hours=(3,))
        # 10:00 -> wait until 03:00 the next day.
        start = 10 * 3600.0
        scheduled = policy.next_transmission_time(start, None)
        assert scheduled == pytest.approx(86_400.0 + 3 * 3600.0)

    def test_offpeak_now_is_kept(self):
        policy = MovementPolicy(defer_to_offpeak=True, offpeak_hours=(3,))
        start = 3 * 3600.0 + 120.0
        assert policy.next_transmission_time(start, None) == start

    def test_offpeak_uses_profile_when_hours_not_given(self):
        quiet_hours = {3, 4, 5}
        profile = LinkProfile(
            utilisation_by_hour=tuple(0.0 if h in quiet_hours else 0.9 for h in range(24))
        )
        policy = MovementPolicy(defer_to_offpeak=True)
        scheduled = policy.next_transmission_time(10 * 3600.0, profile)
        assert int(scheduled // 3600) % 24 in quiet_hours
        assert scheduled > 10 * 3600.0

    def test_run_period_executes_periodic_syncs(self, f2c_system):
        f2c_system.scheduler.policy = MovementPolicy(
            fog1_to_fog2_interval_s=600.0, fog2_to_cloud_interval_s=1_200.0
        )
        f2c_system.api_pipeline.ingest_rows(
            [make_reading(sensor_id="s1", value=1.0, size_bytes=22)],
            now=0.0,
            default_section="d-01/s-01",
        )
        rounds = f2c_system.scheduler.run_period(duration_s=3_600.0)
        assert rounds == 6 + 3
        assert len(f2c_system.cloud.storage) == 1
        assert f2c_system.simulator.clock.now() == pytest.approx(3_600.0)


class TestBrokerIntegration:
    def test_readings_published_on_broker_reach_fog1(self, f2c_system):
        broker = Broker()
        f2c_system.api_pipeline.attach_broker(broker, city_slug="toyville")
        reading = make_reading(sensor_id="s-9", sensor_type="temperature", value=21.0, size_bytes=40)
        topic = "city/toyville/d-01/s-01/energy/temperature"
        broker.publish(topic, reading.encode(), timestamp=0.0)
        f2c_system.api_pipeline.flush_broker()
        fog1 = f2c_system.fog1_for_section("d-01/s-01")
        assert fog1.latest("s-9").value == pytest.approx(21.0)
        assert f2c_system.simulator.accountant.bytes_into_layer(LayerName.FOG_1) == 40

    def test_wrong_section_topic_not_delivered_to_other_nodes(self, f2c_system):
        broker = Broker()
        f2c_system.api_pipeline.attach_broker(broker, city_slug="toyville")
        reading = make_reading(sensor_id="s-9", value=21.0, size_bytes=40)
        broker.publish("city/toyville/d-02/s-01/energy/temperature", reading.encode())
        f2c_system.api_pipeline.flush_broker()
        assert not f2c_system.fog1_for_section("d-01/s-01").has_series("s-9")
        assert f2c_system.fog1_for_section("d-02/s-01").has_series("s-9")
