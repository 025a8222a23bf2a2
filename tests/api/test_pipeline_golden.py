"""The facade's write side reproduces the golden fixtures on every transport.

The acceptance bar of the ``repro.api`` redesign: every legacy ingest entry
point now routes through the one :class:`~repro.api.pipeline.Pipeline`
layer, and driving the seeded golden workload through that layer — on any
transport, including the multi-process sharded runtime at 1/2/4 workers —
must still reproduce ``ingest_golden.json`` and the SHA-256 cloud-contents
digest byte-identically.
"""

import json
import pathlib

import pytest

from repro.api import F2CClient, IngestSession, Pipeline, PipelineConfig, connect, run_workload
from repro.common.errors import ConfigurationError
from repro.core.architecture import F2CDataManagement
from tests.conftest import make_reading

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "integration" / "data" / "ingest_golden.json"

#: Transports that carry the full golden workload losslessly.  broker-csv is
#: excluded by design: its per-reading CSV wire truncates payloads to the
#: Table-I size, dropping readings whose line does not fit (a documented
#: property of the historical wire, covered by the small-city test below).
LOSSLESS_TRANSPORTS = ("direct", "frames-binary-v2")


def _golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenThroughTheFacade:
    def test_every_lossless_transport_reproduces_the_golden_fixture(self):
        golden = _golden()
        digests = set()
        for transport in LOSSLESS_TRANSPORTS:
            client = run_workload(transport=transport)
            assert client.golden_report() == golden, transport
            digests.add(client.cloud_digest())
        assert len(digests) == 1, "transports disagree on cloud contents"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_transport_reproduces_the_golden_fixture(self, workers):
        reference = run_workload(transport="direct")
        client = run_workload(transport="sharded", workers=workers, inline_workers=True)
        assert client.golden_report() == _golden()
        assert client.cloud_digest() == reference.cloud_digest()
        assert client.sharded is not None and client.sharded.workers == workers

    def test_run_workload_returns_a_live_client(self):
        client = run_workload(transport="direct")
        assert isinstance(client, F2CClient)
        result = client.query(since=0.0, until=3600.0)
        assert len(result) == sum(
            stats["stored_readings"]
            for node_id, stats in client.storage_report().items()
            if node_id.startswith("fog1/")
        )


class TestBrokerCsvTransport:
    """The per-reading CSV wire through the facade matches direct ingest.

    Uses the toy city with oversized payload budgets so no CSV line is
    truncated (the real catalog's 22-byte types would drop readings — the
    historical wire's known loss mode).
    """

    @staticmethod
    def _readings():
        return [
            make_reading(
                sensor_id=f"csv-{i:02d}",
                sensor_type="temperature",
                value=20.0 + i,
                timestamp=5.0,
                size_bytes=64,
            )
            for i in range(12)
        ]

    def _client(self, small_city, small_catalog, config):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        return F2CClient(system=system, config=config)

    def test_broker_csv_matches_direct_ingest(self, small_city, small_catalog):
        readings = self._readings()
        direct = self._client(small_city, small_catalog, PipelineConfig())
        direct.ingest(readings, now=5.0, default_section="d-01/s-01")
        direct.synchronise(now=10.0)

        csv = self._client(
            small_city,
            small_catalog,
            PipelineConfig(transport="broker-csv", city_slug="toyville"),
        )
        csv.ingest(readings, now=5.0, default_section="d-01/s-01")
        csv.synchronise(now=10.0)

        assert csv.cloud_contents() == direct.cloud_contents()
        assert csv.storage_report() == direct.storage_report()


    def test_golden_broker_csv_run_stores_only_offered_readings(self):
        """A CSV line cut by its Table-I size is dropped, never stored with a cut timestamp."""
        from repro.runtime.shards import ShardedWorkload, WorkerSpec, build_shard_rounds
        from repro.sensors.catalog import BARCELONA_CATALOG
        from repro.sensors.generator import ReadingGenerator

        workload = ShardedWorkload.golden()
        generator = ReadingGenerator(
            BARCELONA_CATALOG, devices_per_type=workload.devices_per_type, seed=workload.seed
        )
        spec = WorkerSpec(shard_index=0, workers=1, workload=workload, catalog=BARCELONA_CATALOG)
        offered = {
            (reading.sensor_id, reading.timestamp)
            for _, readings in build_shard_rounds(
                spec, F2CDataManagement(catalog=BARCELONA_CATALOG), generator
            )
            for reading in readings
        }
        client = run_workload(transport="broker-csv")
        stored = {(row[0], row[4]) for row in client.cloud_contents()}
        assert stored and stored <= offered
        assert client.health()["conservation"]["dropped_payloads"] > 0


class TestFrameTransportSessions:
    def test_frames_session_ingests_through_the_wire(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        client = F2CClient(
            system=system,
            config=PipelineConfig(transport="frames-binary-v2", city_slug="toyville"),
        )
        readings = [
            make_reading(sensor_id=f"fr-{i}", value=float(i), timestamp=2.0) for i in range(6)
        ]
        counts = client.ingest(readings, now=2.0, default_section="d-02/s-01")
        assert counts == {"fog1/d-02/s-01": 6}
        assert client.session.broker is not None
        assert client.session.broker.published_count == 1  # one frame, not six payloads

    def test_session_is_rejected_for_sharded_config(self):
        pipeline = Pipeline(PipelineConfig(transport="sharded", workers=2))
        with pytest.raises(ConfigurationError):
            pipeline.session()
        with pytest.raises(ConfigurationError):
            IngestSession(pipeline)


class TestPipelineConfigValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(transport="carrier-pigeon")

    def test_workers_require_sharded_transport(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(transport="direct", workers=2)
        with pytest.raises(ConfigurationError):
            PipelineConfig(workers=0)

    def test_frame_format_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            PipelineConfig(transport="frames-binary-v2", frame_format="json")

    @pytest.mark.parametrize("transport", ["frames-binary", "frames-json"])
    @pytest.mark.parametrize("entry_point", [PipelineConfig, connect, run_workload])
    def test_retired_binary_transport_rejected(self, entry_point, transport):
        # The version-1 and JSON frame transports are gone; their names are
        # not aliases.
        with pytest.raises(ConfigurationError, match=repr(transport)):
            entry_point(transport=transport)

    def test_inline_workers_require_sharded_transport(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(inline_workers=True)

    def test_sync_cadence_maps_to_movement_policy(self):
        policy = PipelineConfig(fog1_sync_interval_s=60.0).movement_policy()
        assert policy.fog1_to_fog2_interval_s == 60.0
        assert policy.fog2_to_cloud_interval_s == 3600.0  # default preserved
        assert PipelineConfig().movement_policy() is None

    def test_connect_rejects_config_and_kwargs_together(self):
        with pytest.raises(TypeError):
            connect(PipelineConfig(), transport="direct")

    def test_connect_kwargs_build_the_config(self, small_city, small_catalog):
        client = connect(city=small_city, catalog=small_catalog, transport="frames-binary-v2")
        assert client.config.transport == "frames-binary-v2"

    def test_uses_broker_flag(self):
        assert not PipelineConfig().uses_broker()
        assert PipelineConfig(transport="broker-csv").uses_broker()
        assert not PipelineConfig(transport="sharded", workers=2).uses_broker()

    def test_sharded_pipeline_has_no_streaming_system(self):
        pipeline = Pipeline(PipelineConfig(transport="sharded", workers=2))
        with pytest.raises(ConfigurationError):
            pipeline.system

    def test_run_workload_rejects_config_and_kwargs_together(self):
        from repro.api import run_workload as rw

        with pytest.raises(TypeError):
            rw(None, PipelineConfig(), transport="direct")

    def test_session_with_caller_supplied_broker(self, small_city, small_catalog):
        from repro.messaging.broker import Broker

        broker = Broker()
        client = connect(
            city=small_city,
            catalog=small_catalog,
            broker=broker,
            transport="frames-binary-v2",
            city_slug="toyville",
        )
        client.ingest(
            [make_reading(sensor_id="own-broker", value=1.0, timestamp=1.0)],
            now=1.0,
            default_section="d-01/s-01",
        )
        assert client.session.broker is broker
        assert broker.published_count == 1
