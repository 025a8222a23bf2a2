"""The centralized cloud baseline (Section III, Fig. 3).

In the traditional architecture every sensor reading travels over the
wide-area network straight to the central cloud data centre (the Sentilo
deployment the paper compares against).  There is no fog-side filtering or
aggregation: whatever the sensors produce is what the backhaul carries and
what the cloud ingests.  Real-time consumers at the edge must then read the
just-collected data *back* from the cloud, paying the round trip the paper
highlights ("two times data transfer through the same path").
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.city.model import City
from repro.city.barcelona import BARCELONA
from repro.common.errors import ConfigurationError
from repro.dlc.preservation import PreservationBlock
from repro.network.link import Link
from repro.network.simulator import NetworkSimulator
from repro.network.topology import LayerName, NetworkTopology
from repro.network.traffic import TrafficAccountant
from repro.sensors.catalog import SensorCatalog
from repro.sensors.readings import Reading, ReadingBatch
from repro.sensors.sentilo import SentiloPlatform
from repro.storage.archive import CloudArchive

CLOUD_NODE_ID = "cloud"
EDGE_GATEWAY_ID = "edge-gateway"

#: Default characteristics of the direct sensor → cloud path (a metropolitan
#: access network plus a wide-area hop), used when no topology is supplied.
DEFAULT_UPLINK = {"latency_s": 0.060, "bandwidth_bps": 1_250_000_000}


def build_centralized_topology(uplink: Optional[Dict[str, float]] = None) -> NetworkTopology:
    """A two-node topology: one edge gateway aggregating all sensors, one cloud."""
    parameters = dict(DEFAULT_UPLINK)
    if uplink:
        parameters.update(uplink)
    topology = NetworkTopology()
    topology.add_node(EDGE_GATEWAY_ID, LayerName.EDGE)
    topology.add_node(CLOUD_NODE_ID, LayerName.CLOUD)
    topology.connect(
        EDGE_GATEWAY_ID,
        CLOUD_NODE_ID,
        latency_s=parameters["latency_s"],
        bandwidth_bps=parameters["bandwidth_bps"],
    )
    return topology


class CentralizedCloudDataManagement:
    """The traditional centralized architecture used as the paper's baseline."""

    def __init__(
        self,
        city: Optional[City] = None,
        catalog: Optional[SensorCatalog] = None,
        topology: Optional[NetworkTopology] = None,
    ) -> None:
        self.city = city if city is not None else BARCELONA
        self.catalog = catalog
        self.topology = topology if topology is not None else build_centralized_topology()
        if not self.topology.has_node(CLOUD_NODE_ID):
            raise ConfigurationError("centralized topology must contain a 'cloud' node")
        self.simulator = NetworkSimulator(self.topology, accountant=TrafficAccountant())
        self.platform = SentiloPlatform(catalog=catalog)
        self.archive = CloudArchive(name="centralized-archive")
        self.preservation = PreservationBlock(archive=self.archive)

    # ------------------------------------------------------------------ #
    # Ingestion: every reading crosses the WAN to the cloud immediately
    # ------------------------------------------------------------------ #
    def ingest_readings(self, readings: Iterable[Reading], now: Optional[float] = None) -> int:
        """Send readings to the cloud and ingest them into the platform."""
        timestamp = now if now is not None else self.simulator.clock.now()
        batch = ReadingBatch(readings)
        if not batch:
            return 0
        transfer = self.simulator.send(
            source=EDGE_GATEWAY_ID,
            target=CLOUD_NODE_ID,
            size_bytes=batch.total_bytes,
            message_count=len(batch),
            departure_time=timestamp,
        )
        self.platform.publish_batch(batch)
        self.preservation.run(batch, transfer.arrival_time)
        return len(batch)

    # ------------------------------------------------------------------ #
    # Real-time access: edge services read just-collected data back down
    # ------------------------------------------------------------------ #
    def realtime_access_latency(self, response_bytes: int, request_bytes: int = 256) -> float:
        """Latency an edge consumer pays to read just-collected data.

        The data has already been uploaded; the consumer still pays a full
        request/response round trip to the cloud.
        """
        return self.simulator.round_trip_time(
            EDGE_GATEWAY_ID, CLOUD_NODE_ID, request_bytes, response_bytes
        )

    def end_to_end_realtime_latency(self, reading_bytes: int, response_bytes: int) -> float:
        """Latency from a reading leaving the sensor to an edge consumer seeing it.

        This is the "two times data transfer through the same path" cost:
        upload of the reading plus the read-back round trip.
        """
        uplink: Link = self.topology.link(EDGE_GATEWAY_ID, CLOUD_NODE_ID)
        upload = uplink.transfer_time(reading_bytes)
        return upload + self.realtime_access_latency(response_bytes)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def traffic_report(self) -> Dict[str, int]:
        return self.simulator.accountant.layer_report()

    def cloud_ingested_bytes(self) -> int:
        return self.platform.ingested_bytes()

    def cloud_ingested_bytes_by_category(self) -> Dict[str, int]:
        return self.platform.ingested_bytes_by_category()
