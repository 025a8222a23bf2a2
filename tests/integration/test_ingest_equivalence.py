"""Byte-accounting regressions for the batch-native ingest refactor.

The golden file ``data/ingest_golden.json`` was captured by running a fixed
seeded workload (Barcelona catalog, 5 devices/type, seed 2024, four 15-min
transactions, full sync at t=3600) through the pre-refactor code.  The
refactored hot path must reproduce its ``traffic_report()`` and
``storage_report()`` byte-for-byte.
"""

import json
import pathlib

import pytest

from repro.api import Pipeline, PipelineConfig
from repro.core.architecture import F2CDataManagement
from repro.messaging.broker import Broker
from repro.runtime import cloud_contents
from repro.sensors.catalog import BARCELONA_CATALOG
from repro.sensors.generator import ReadingGenerator
from tests.conftest import make_reading

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "ingest_golden.json"


def run_seeded_workload():
    system = F2CDataManagement(catalog=BARCELONA_CATALOG)
    generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=5, seed=2024)
    sections = [s.section_id for s in system.city.sections]
    for index, device in enumerate(generator.all_devices()):
        system.assign_sensor(device.sensor_id, sections[index % len(sections)])
    for round_index, batch in enumerate(generator.transactions(count=4, start=0.0, interval=900.0)):
        system.api_pipeline.ingest_rows(batch, now=round_index * 900.0)
    system.synchronise(now=3600.0)
    storage = {
        node_id: {
            "stored_readings": stats["stored_readings"],
            "stored_bytes": stats["stored_bytes"],
            "ingested_readings": stats["ingested_readings"],
            "ingested_bytes": stats["ingested_bytes"],
        }
        for node_id, stats in system.storage_report().items()
    }
    return {"traffic": system.traffic_report(), "storage": storage}


class TestGoldenByteAccounting:
    def test_reports_match_pre_refactor_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert run_seeded_workload() == golden

    def test_workload_is_deterministic_in_process(self):
        assert run_seeded_workload() == run_seeded_workload()


class TestBatchedBrokerEquivalence:
    """Batched inbox delivery must store the same data as immediate delivery.

    The fog-1 aggregator is disabled so the comparison isolates the delivery
    mechanics (with batch-scope redundancy elimination enabled, batching
    *intentionally* removes more duplicates — that is the paper's point, not
    an accounting bug).  All readings share one timestamp so the
    ``collected_at`` description tag is identical on both paths.
    """

    @staticmethod
    def _run(small_city, small_catalog, batched):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville", batched=batched)
        for i in range(12):
            # size_bytes must exceed the CSV line length or the wire format
            # truncates the payload and the reading is dropped on re-parse.
            reading = make_reading(
                sensor_id=f"eq-{i:02d}", sensor_type="temperature", value=20.0 + i,
                timestamp=5.0, size_bytes=64,
            )
            section = ["d-01/s-01", "d-01/s-02", "d-02/s-01", "d-02/s-02"][i % 4]
            broker.publish(
                f"city/toyville/{section}/energy/temperature",
                reading.encode(),
                timestamp=5.0,
            )
        if batched:
            system.api_pipeline.flush_broker(now=5.0)
        system.synchronise(now=10.0)
        return system

    def test_batched_and_immediate_paths_store_identical_data(self, small_city, small_catalog):
        immediate = self._run(small_city, small_catalog, batched=False)
        batched = self._run(small_city, small_catalog, batched=True)

        assert immediate.traffic_report() == batched.traffic_report()
        assert immediate.storage_report() == batched.storage_report()
        immediate_cloud = sorted(
            (r.sensor_id, r.timestamp, r.value, tuple(r.tags.items()))
            for r in immediate.cloud.storage.store.all_readings()
        )
        batched_cloud = sorted(
            (r.sensor_id, r.timestamp, r.value, tuple(r.tags.items()))
            for r in batched.cloud.storage.store.all_readings()
        )
        assert immediate_cloud == batched_cloud

    def test_flush_without_batched_attach_is_an_error(self, small_city, small_catalog):
        from repro.common.errors import ConfigurationError

        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        with pytest.raises(ConfigurationError):
            system.api_pipeline.flush_broker()
        system.api_pipeline.attach_broker(Broker(), city_slug="toyville", batched=False)
        with pytest.raises(ConfigurationError):
            system.api_pipeline.flush_broker()


class TestFlushDoesNotTouchForeignInboxes:
    def test_foreign_batched_subscriber_keeps_its_inbox(self, small_city, small_catalog):
        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville", batched=True)
        dashboard = []
        broker.subscribe("dashboard", "city/#", dashboard.append, batched=True)
        reading = make_reading(
            sensor_id="shared-1", sensor_type="temperature", value=20.0, size_bytes=64
        )
        broker.publish("city/toyville/d-01/s-01/energy/temperature", reading.encode())
        assert broker.inbox_size("dashboard") == 1
        counts = system.api_pipeline.flush_broker(now=0.0)  # must not raise or drain "dashboard"
        assert counts == {"fog1/d-01/s-01": 1}
        assert broker.inbox_size("dashboard") == 1
        assert broker.flush_inboxes("dashboard") == 1
        assert len(dashboard) == 1


class TestFlushTimestampDefault:
    def test_out_of_order_arrivals_not_rejected_as_future(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville", batched=True)
        # Newest message arrives first; the default flush timestamp must be
        # the batch maximum or this reading fails the future-skew check.
        for t in (1000.0, 100.0):
            reading = make_reading(
                sensor_id=f"ooo-{int(t)}", sensor_type="temperature", value=20.0,
                timestamp=t, size_bytes=64,
            )
            broker.publish(
                "city/toyville/d-01/s-01/energy/temperature", reading.encode(), timestamp=t
            )
        counts = system.api_pipeline.flush_broker()  # no explicit now
        assert counts == {"fog1/d-01/s-01": 2}
        fog1 = system.fog1_for_section("d-01/s-01")
        assert fog1.has_series("ooo-1000") and fog1.has_series("ooo-100")


class TestThreeWayGoldenEquivalence:
    """Binary frames, JSON frames and direct ingest: one golden store state.

    The same seeded city workload is driven through all three ingest paths;
    every path must reproduce the golden byte-accounting fixture captured on
    the pre-refactor code *and* leave byte-identical store contents.
    """

    @staticmethod
    def _run_frames(transport):
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=5, seed=2024)
        sections = [s.section_id for s in system.city.sections]
        for index, device in enumerate(generator.all_devices()):
            system.assign_sensor(device.sensor_id, sections[index % len(sections)])
        broker = Broker()
        # The transport names the frame layout the pipeline publishes.
        pipeline = Pipeline(PipelineConfig(transport=transport), system=system)
        pipeline.attach_broker(broker, batched=True)
        for round_index, batch in enumerate(
            generator.transactions(count=4, start=0.0, interval=900.0)
        ):
            pipeline.publish_frames(broker, batch, timestamp=round_index * 900.0)
            pipeline.flush_broker(now=round_index * 900.0)
        system.synchronise(now=3600.0)
        storage = {
            node_id: {
                "stored_readings": stats["stored_readings"],
                "stored_bytes": stats["stored_bytes"],
                "ingested_readings": stats["ingested_readings"],
                "ingested_bytes": stats["ingested_bytes"],
            }
            for node_id, stats in system.storage_report().items()
        }
        return system, {"traffic": system.traffic_report(), "storage": storage}

    def test_all_three_paths_match_the_golden_fixture(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert run_seeded_workload() == golden  # direct ingest (reference)
        binary_system, binary_reports = self._run_frames("frames-binary-v2")
        json_system, json_reports = self._run_frames("frames-json")
        assert binary_reports == golden
        assert json_reports == golden
        assert cloud_contents(binary_system) == cloud_contents(json_system)

    def test_frame_paths_store_identical_contents_to_direct_ingest(self):
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=5, seed=2024)
        sections = [s.section_id for s in system.city.sections]
        for index, device in enumerate(generator.all_devices()):
            system.assign_sensor(device.sensor_id, sections[index % len(sections)])
        for round_index, batch in enumerate(
            generator.transactions(count=4, start=0.0, interval=900.0)
        ):
            system.api_pipeline.ingest_rows(batch, now=round_index * 900.0)
        system.synchronise(now=3600.0)
        direct_contents = cloud_contents(system)
        for transport in ("frames-binary-v2", "frames-json"):
            frame_system, _ = self._run_frames(transport)
            assert cloud_contents(frame_system) == direct_contents
