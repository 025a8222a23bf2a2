"""Tests for traffic accounting and the discrete-event network simulator."""

import pytest

from repro.common.errors import ConfigurationError
from repro.network.simulator import NetworkSimulator
from repro.network.topology import LayerName, NetworkTopology
from repro.network.traffic import TrafficAccountant, TrafficRecord


@pytest.fixture()
def linear_topology() -> NetworkTopology:
    topology = NetworkTopology()
    topology.add_node("cloud", LayerName.CLOUD)
    topology.add_node("fog2", LayerName.FOG_2)
    topology.add_node("fog1", LayerName.FOG_1)
    topology.connect("fog2", "cloud", latency_s=0.05, bandwidth_bps=1e9)
    topology.connect("fog1", "fog2", latency_s=0.005, bandwidth_bps=1e8)
    return topology


class TestTrafficAccountant:
    def test_record_and_totals(self):
        accountant = TrafficAccountant()
        accountant.record_transfer(0.0, "a", "b", LayerName.FOG_2, 100, category="energy")
        accountant.record_transfer(1.0, "b", "cloud", LayerName.CLOUD, 50, category="energy")
        assert accountant.total_bytes() == 150
        assert accountant.bytes_into_layer(LayerName.FOG_2) == 100
        assert accountant.bytes_into_layer(LayerName.CLOUD) == 50
        assert accountant.bytes_on_link("a", "b") == 100
        assert accountant.bytes_into_node("cloud") == 50

    def test_bytes_by_category_and_layer(self):
        accountant = TrafficAccountant()
        accountant.record_transfer(0.0, "a", "b", LayerName.FOG_2, 100, category="energy")
        accountant.record_transfer(0.0, "a", "b", LayerName.FOG_2, 30, category="noise")
        accountant.record_transfer(0.0, "b", "c", LayerName.CLOUD, 40, category="energy")
        assert accountant.bytes_by_category() == {"energy": 140, "noise": 30}
        assert accountant.bytes_by_category(LayerName.CLOUD) == {"energy": 40}

    def test_hourly_series_and_peak(self):
        accountant = TrafficAccountant()
        accountant.record_transfer(0.5 * 3600, "a", "b", LayerName.CLOUD, 10)
        accountant.record_transfer(14.2 * 3600, "a", "b", LayerName.CLOUD, 100)
        accountant.record_transfer(14.9 * 3600, "a", "b", LayerName.CLOUD, 100)
        series = accountant.hourly_series()
        assert series[0] == 10
        assert series[14] == 200
        assert accountant.peak_hour() == 14

    def test_peak_hour_empty(self):
        assert TrafficAccountant().peak_hour() is None

    def test_layer_report_covers_all_layers(self):
        report = TrafficAccountant().layer_report()
        assert set(report) == {layer.value for layer in LayerName}

    def test_reset(self):
        accountant = TrafficAccountant()
        accountant.record_transfer(0.0, "a", "b", LayerName.CLOUD, 10)
        accountant.reset()
        assert accountant.total_bytes() == 0
        assert accountant.records == []

    def test_records_since_returns_the_tail_and_records_a_copy(self):
        accountant = TrafficAccountant()
        made = [accountant.record_transfer(float(i), "a", "b", LayerName.CLOUD, i) for i in range(5)]
        assert accountant.records_since(0) == made
        assert accountant.records_since(3) == made[3:]
        assert accountant.records_since(5) == []
        tail = accountant.records_since(2)
        tail.clear()  # the caller owns what it gets back
        assert accountant.records_since(2) == made[2:]
        copy = accountant.records
        assert copy == made and copy is not accountant.records
        copy.clear()
        assert accountant.records == made

    def test_invalid_record(self):
        with pytest.raises(ValueError):
            TrafficRecord(timestamp=0.0, source="a", target="b", target_layer=LayerName.CLOUD, size_bytes=-1)

    def test_message_counting(self):
        accountant = TrafficAccountant()
        accountant.record_transfer(0.0, "a", "b", LayerName.CLOUD, 10, message_count=5)
        assert accountant.messages_into_layer(LayerName.CLOUD) == 5


class TestNetworkSimulator:
    def test_send_records_every_hop(self, linear_topology):
        simulator = NetworkSimulator(linear_topology)
        transfer = simulator.send("fog1", "cloud", size_bytes=1_000)
        assert transfer.hops == 2
        assert simulator.accountant.bytes_into_layer(LayerName.FOG_2) == 1_000
        assert simulator.accountant.bytes_into_layer(LayerName.CLOUD) == 1_000
        assert transfer.latency > 0.055  # both hop latencies plus serialisation

    def test_send_respects_departure_time(self, linear_topology):
        simulator = NetworkSimulator(linear_topology)
        transfer = simulator.send("fog1", "fog2", size_bytes=0, departure_time=100.0)
        assert transfer.departure_time == 100.0
        assert transfer.arrival_time == pytest.approx(100.005)

    def test_round_trip_time(self, linear_topology):
        simulator = NetworkSimulator(linear_topology)
        rtt = simulator.round_trip_time("fog1", "cloud", request_bytes=100, response_bytes=100)
        one_way = linear_topology.transfer_time("fog1", "cloud", 100)
        assert rtt == pytest.approx(2 * one_way)

    def test_event_scheduling_runs_in_order(self, linear_topology):
        simulator = NetworkSimulator(linear_topology)
        order = []
        simulator.schedule(5.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        executed = simulator.run()
        assert executed == 2
        assert order == ["early", "late"]
        assert simulator.clock.now() == 5.0

    def test_run_until_stops_before_future_events(self, linear_topology):
        simulator = NetworkSimulator(linear_topology)
        fired = []
        simulator.schedule(10.0, lambda: fired.append(1))
        executed = simulator.run(until=5.0)
        assert executed == 0
        assert fired == []
        assert simulator.pending_events == 1
        assert simulator.clock.now() == 5.0

    def test_cannot_schedule_in_the_past(self, linear_topology):
        simulator = NetworkSimulator(linear_topology)
        simulator.clock.advance(10.0)
        with pytest.raises(ConfigurationError):
            simulator.schedule(5.0, lambda: None)

    def test_schedule_in_relative_delay(self, linear_topology):
        simulator = NetworkSimulator(linear_topology)
        simulator.clock.advance(2.0)
        fired = []
        simulator.schedule_in(3.0, lambda: fired.append(simulator.clock.now()))
        simulator.run()
        assert fired == [5.0]

    def test_same_time_events_fifo(self, linear_topology):
        simulator = NetworkSimulator(linear_topology)
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.run()
        assert order == ["first", "second"]
