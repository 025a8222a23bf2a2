"""The F2C data-management architecture (Section IV).

:class:`F2CDataManagement` assembles the full system for a city:

* one :class:`~repro.core.nodes.FogNodeLevel1` per city section, running the
  acquisition block (with the configured aggregation pipeline) and keeping a
  short real-time window locally;
* one :class:`~repro.core.nodes.FogNodeLevel2` per district, combining its
  children's data;
* one :class:`~repro.core.nodes.CloudNode`, preserving everything
  permanently;
* the network topology and simulator connecting them, and a
  :class:`~repro.core.movement.DataMovementScheduler` that moves data
  upwards periodically.

This class is the deployment, not a write surface: readings enter through
:mod:`repro.api` — an :class:`~repro.api.F2CClient` /
:class:`~repro.api.pipeline.IngestSession`, or the
:class:`~repro.api.pipeline.Pipeline` bound to a deployment as
:attr:`F2CDataManagement.api_pipeline` — which covers direct batch ingest,
the MQTT-style broker (per-reading CSV or binary column frames, parked in
per-fog-node inboxes and acquired per flush) and the multi-process sharded
runtime.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.aggregation.base import AggregationTechnique
from repro.aggregation.pipeline import AggregationPipeline
from repro.aggregation.redundancy import RedundantDataElimination
from repro.city.model import City
from repro.city.barcelona import (
    BARCELONA,
    CLOUD_NODE_ID,
    build_barcelona_topology,
    fog1_node_id,
    fog2_node_id,
)
from repro.common.errors import ConfigurationError, RoutingError
from repro.core.movement import DataMovementScheduler, MovementPolicy
from repro.core.nodes import CloudNode, FogNodeLevel1, FogNodeLevel2
from repro.messaging.broker import Broker
from repro.network.simulator import NetworkSimulator
from repro.network.topology import LayerName, NetworkTopology
from repro.network.traffic import TrafficAccountant
from repro.sensors.catalog import SensorCatalog


#: Builds the default fog layer-1 aggregator the paper evaluates: redundant
#: data elimination (compression is applied at transmission time by the
#: movement scheduler / estimator, because it operates on the encoded batch).
def default_fog1_aggregator() -> AggregationTechnique:
    return RedundantDataElimination(scope="batch")


class F2CDataManagement:
    """A deployed F2C data-management system for one city."""

    def __init__(
        self,
        city: Optional[City] = None,
        catalog: Optional[SensorCatalog] = None,
        topology: Optional[NetworkTopology] = None,
        fog1_aggregator_factory: Optional[Callable[[], AggregationTechnique]] = default_fog1_aggregator,
        fog2_aggregator_factory: Optional[Callable[[], AggregationTechnique]] = None,
        movement_policy: Optional[MovementPolicy] = None,
        durable_dir: Optional[str] = None,
        durable_fog2: bool = False,
    ) -> None:
        if durable_fog2 and durable_dir is None:
            raise ConfigurationError("durable_fog2 requires durable_dir")
        #: Broker payloads that failed to decode (malformed CSV lines,
        #: corrupt/truncated/unknown-version frames) and were dropped.
        #: Malformed payloads are never ingested — not even partially — and
        #: never abort a flush; this counter is how operators see them.
        self.dropped_payloads = 0
        self.city = city if city is not None else BARCELONA
        self.catalog = catalog
        self.topology = topology if topology is not None else build_barcelona_topology(self.city)
        self.simulator = NetworkSimulator(self.topology, accountant=TrafficAccountant())

        self._fog1: Dict[str, FogNodeLevel1] = {}
        self._fog2: Dict[str, FogNodeLevel2] = {}
        self.cloud = CloudNode(node_id=CLOUD_NODE_ID)

        self._build_nodes(fog1_aggregator_factory, fog2_aggregator_factory)
        #: Durable segment logs (repro.storage.segments) when the deployment
        #: is configured with a durable directory; opening the logs rebuilds
        #: their indexes (and repairs damaged tails) immediately, so a
        #: recovery run can call :meth:`restore_from_segments` next.
        self.durable: Optional["DurableTierLogs"] = None
        if durable_dir is not None:
            from repro.storage.segments import DurableTierLogs

            self.durable = DurableTierLogs(durable_dir, fog2=durable_fog2)
            self.cloud.segment_log = self.durable.log_for(self.cloud.node_id)
            if durable_fog2:
                for fog2 in self._fog2.values():
                    fog2.segment_log = self.durable.log_for(fog2.node_id)
        self.scheduler = DataMovementScheduler(
            architecture=self, simulator=self.simulator, policy=movement_policy
        )
        self._broker: Optional[Broker] = None
        self._sensor_to_section: Dict[str, str] = {}
        # Precomputed routing tables for the ingest hot path: section list
        # (for deterministic spreading of unassigned sensors), the
        # section → fog-1 node-id map, and a per-sensor resolution cache.
        self._section_ids: Tuple[str, ...] = tuple(s.section_id for s in self.city.sections)
        self._fog1_id_by_section: Dict[str, str] = {
            section_id: fog1_node_id(section_id) for section_id in self._section_ids
        }
        # sensor id -> fog L1 node id, for routes that cannot change between
        # calls (explicit assignment or stable hash spreading); invalidated
        # per sensor by assign_sensor.  Routes via a caller-supplied
        # default_section are never cached.
        self._sensor_node_cache: Dict[str, str] = {}
        self._parent_cache: Dict[str, str] = {}
        self._fog1_chain: Optional[Tuple[FogNodeLevel1, ...]] = None
        # (city_slug, section) -> rendered frame topic: frame publishing
        # renders each topic once per deployment instead of once per
        # (section, round) publish.
        self._frame_topic_cache: Dict[Tuple[str, str], str] = {}
        # Sharded runs: fog L1 storage statistics reported by the worker
        # processes that actually ran each node's acquisition; overlays the
        # local (empty) node stats in storage_report.
        self._fog1_stats_override: Dict[str, Dict[str, object]] = {}
        # True once acquisition is known to run in worker processes (the
        # sharded runtime): every local fog L1 store is then empty and
        # non-authoritative, even before the workers' FINAL stats merge.
        self._fog1_remote = False
        # The default repro.api Pipeline engine bound to this deployment;
        # built on first use of api_pipeline.
        self._api_pipeline = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _build_nodes(
        self,
        fog1_aggregator_factory: Optional[Callable[[], AggregationTechnique]],
        fog2_aggregator_factory: Optional[Callable[[], AggregationTechnique]],
    ) -> None:
        for district in self.city.districts:
            fog2_id = fog2_node_id(district.district_id)
            if not self.topology.has_node(fog2_id):
                raise ConfigurationError(f"topology is missing fog layer-2 node {fog2_id}")
            fog2 = FogNodeLevel2(
                node_id=fog2_id,
                district_id=district.district_id,
                aggregator=fog2_aggregator_factory() if fog2_aggregator_factory else None,
            )
            self._fog2[fog2_id] = fog2
            for section in district.sections:
                fog1_id = fog1_node_id(section.section_id)
                if not self.topology.has_node(fog1_id):
                    raise ConfigurationError(f"topology is missing fog layer-1 node {fog1_id}")
                fog1 = FogNodeLevel1(
                    node_id=fog1_id,
                    section_id=section.section_id,
                    aggregator=fog1_aggregator_factory() if fog1_aggregator_factory else None,
                    catalog=self.catalog,
                    city_name=self.city.name.lower(),
                )
                self._fog1[fog1_id] = fog1
                fog2.register_child(fog1_id)

    # ------------------------------------------------------------------ #
    # Node access
    # ------------------------------------------------------------------ #
    def fog1_nodes(self) -> List[FogNodeLevel1]:
        return list(self._fog1.values())

    def fog1_chain(self) -> Tuple[FogNodeLevel1, ...]:
        """Every fog layer-1 node, in canonical city-section order.

        The node set is fixed after construction, so the tuple is built
        once and shared — city-wide scatter queries walk it per query and
        a fresh list per call would be pure allocation churn.
        """
        chain = self._fog1_chain
        if chain is None:
            chain = self._fog1_chain = tuple(self._fog1.values())
        return chain

    def fog2_nodes(self) -> List[FogNodeLevel2]:
        return list(self._fog2.values())

    def fog1_node(self, node_id: str) -> FogNodeLevel1:
        try:
            return self._fog1[node_id]
        except KeyError as exc:
            raise RoutingError(f"unknown fog layer-1 node: {node_id}") from exc

    def fog2_node(self, node_id: str) -> FogNodeLevel2:
        try:
            return self._fog2[node_id]
        except KeyError as exc:
            raise RoutingError(f"unknown fog layer-2 node: {node_id}") from exc

    def fog1_for_section(self, section_id: str) -> FogNodeLevel1:
        return self.fog1_node(fog1_node_id(section_id))

    def parent_of(self, node_id: str) -> str:
        # The topology is fixed after construction, so parent lookups (one
        # per node per transfer round) are memoized.
        parent = self._parent_cache.get(node_id)
        if parent is None:
            parent = self.topology.parent_of(node_id)
            if parent is None:
                raise RoutingError(f"node {node_id} has no parent in the topology")
            self._parent_cache[node_id] = parent
        return parent

    def node_by_id(self, node_id: str):
        """Any node of the hierarchy by id (fog L1, fog L2, or the cloud)."""
        if node_id in self._fog1:
            return self._fog1[node_id]
        if node_id in self._fog2:
            return self._fog2[node_id]
        if node_id == self.cloud.node_id:
            return self.cloud
        raise RoutingError(f"unknown node: {node_id}")

    # ------------------------------------------------------------------ #
    # Sensor placement
    # ------------------------------------------------------------------ #
    def assign_sensor(self, sensor_id: str, section_id: str) -> None:
        """Record that *sensor_id* is physically located in *section_id*."""
        if section_id not in self._fog1_id_by_section:
            raise ConfigurationError(f"unknown section: {section_id}")
        self._sensor_to_section[sensor_id] = section_id
        self._sensor_node_cache.pop(sensor_id, None)

    def section_of_sensor(self, sensor_id: str) -> Optional[str]:
        return self._sensor_to_section.get(sensor_id)

    def sensors_in_section(self, section_id: str) -> List[str]:
        """Sensor ids explicitly assigned to *section_id* (insertion order).

        Only explicit :meth:`assign_sensor` assignments are known here;
        hash-spread sensors have no recorded home.  Failover tooling uses
        this to re-home a failed section's sensors onto the replacement
        node's section.
        """
        if section_id not in self._fog1_id_by_section:
            raise ConfigurationError(f"unknown section: {section_id}")
        return [
            sensor_id
            for sensor_id, assigned in self._sensor_to_section.items()
            if assigned == section_id
        ]

    def spread_section(self, sensor_id: str) -> str:
        """Deterministic section for a sensor with no explicit assignment.

        Uses a stable hash (CRC-32) so the spreading is identical across
        processes and ``PYTHONHASHSEED`` values — the builtin ``hash()`` of a
        string is salted per interpreter run and would shuffle unassigned
        sensors between fog nodes from one run to the next.  Public because
        the sharded runtime's workers use it to decide shard membership of
        unassigned sensors.
        """
        digest = zlib.crc32(sensor_id.encode("utf-8"))
        return self._section_ids[digest % len(self._section_ids)]

    # ------------------------------------------------------------------ #
    # Ingestion routing (the write verbs live on repro.api.Pipeline)
    # ------------------------------------------------------------------ #
    @property
    def api_pipeline(self):
        """The :class:`repro.api.pipeline.Pipeline` engine bound to this system.

        A default (``direct``) pipeline over this deployment, built on first
        use: ``system.api_pipeline.ingest_rows(...)``,
        ``.attach_broker(...)``, ``.flush_broker(...)`` and
        ``.publish_frames(...)`` are the write verbs for code that holds a
        deployment rather than a :class:`repro.api.F2CClient`.  Broker state
        lives on the deployment, so every pipeline bound to it shares one
        subscription.
        """
        pipeline = self._api_pipeline
        if pipeline is None:
            from repro.api.pipeline import Pipeline

            pipeline = self._api_pipeline = Pipeline.for_system(self)
        return pipeline

    def _resolve_node_cached(self, sensor_id: str, default_section: Optional[str]) -> str:
        """Resolve a sensor's fog L1 node, caching stable routes.

        Explicit assignment wins, then the caller's *default_section*, then
        stable hash-spreading.  Assigned and spread routes are cached in
        ``_sensor_node_cache`` (callers consult it before calling here, and
        must bypass it when a *default_section* is in play so a per-call
        default is honoured for unassigned sensors).
        """
        section_id = self._sensor_to_section.get(sensor_id)
        if section_id is not None:
            node_id = self._fog1_id_by_section[section_id]
        elif default_section is not None:
            # Default-section routing depends on the call, never cached.
            return self._fog1_id_by_section.get(default_section) or fog1_node_id(default_section)
        else:
            node_id = self._fog1_id_by_section[self.spread_section(sensor_id)]
        self._sensor_node_cache[sensor_id] = node_id
        return node_id

    # ------------------------------------------------------------------ #
    # Sharded-runtime integration (supervisor side)
    # ------------------------------------------------------------------ #
    def receive_worker_columns(self, node_id: str, columns, now: float) -> int:
        """Absorb a fog L1 node's columns that were acquired in a worker process.

        The rows already went through the acquisition block in the worker
        (they are what the node's ``drain_for_upward`` returned there); this
        hop simulates and accounts the fog L1 → fog L2 transfer exactly
        like :meth:`~repro.core.movement.DataMovementScheduler.sync_fog1_to_fog2`
        does for a locally-drained node, then hands them to the parent fog
        L2 node.  Transfer simulation, fog L2 storage and the pending-upward
        queue all consume the decoded columns directly — no ``ReadingBatch``
        wrapper per node.  Returns the bytes moved.
        """
        self.fog1_node(node_id)  # validates the id
        return self.scheduler.move_up_from_fog1_columns(node_id, columns, now)

    def merge_edge_transfers(self, records: Iterable[Dict[str, object]]) -> int:
        """Replay worker-side sensors → fog L1 transfers into the accountant.

        Workers record the edge hop in their own accountant at ingest time;
        merging the records here keeps :meth:`traffic_report` identical to
        a single-process run.  Returns the number of records merged.
        """
        merged = 0
        record_transfer = self.simulator.accountant.record_transfer
        for record in records:
            record_transfer(
                timestamp=float(record["timestamp"]),
                source=str(record["source"]),
                target=str(record["target"]),
                target_layer=LayerName.FOG_1,
                size_bytes=int(record["size_bytes"]),
                message_count=int(record.get("message_count", 1)),
            )
            merged += 1
        return merged

    def merge_fog1_stats(self, stats_by_node: Dict[str, Dict[str, object]]) -> None:
        """Overlay worker-reported fog L1 storage statistics.

        In a sharded run the fog L1 stores live in the workers; the
        supervisor's local nodes never ingest.  ``storage_report`` prefers
        these reported statistics, so the merged report matches the
        single-process run byte for byte.
        """
        for node_id, stats in stats_by_node.items():
            self.fog1_node(node_id)  # validates the id
            self._fog1_stats_override[node_id] = dict(stats)

    def mark_fog1_remote(self) -> None:
        """Declare every fog layer-1 store non-authoritative up front.

        The sharded supervisor calls this when its run starts: acquisition
        happens in worker processes, so the local fog L1 stores are empty
        for the whole run — not only after the workers' FINAL statistics
        merge.  Queries served *during* the run (the serve mode) then
        resolve to fog layer 2 / cloud immediately instead of trusting an
        empty local store.
        """
        self._fog1_remote = True

    def fog1_store_is_authoritative(self, node_id: str) -> bool:
        """Whether *node_id*'s local store actually holds its section's data.

        False after :meth:`merge_fog1_stats` named the node (its acquisition
        ran in a worker process, so the supervisor-local store is empty and
        readers — the :mod:`repro.api` query service — must fall through to
        fog layer 2 / cloud for its area), and for every node once
        :meth:`mark_fog1_remote` declared acquisition remote.
        """
        self.fog1_node(node_id)  # validates the id
        return not self._fog1_remote and node_id not in self._fog1_stats_override

    # ------------------------------------------------------------------ #
    # Data movement & reporting
    # ------------------------------------------------------------------ #
    def synchronise(self, now: Optional[float] = None) -> Dict[str, Dict[str, int]]:
        """Move pending data fog L1 → fog L2 → cloud immediately."""
        return self.scheduler.full_sync(now)

    def restore_from_segments(self) -> Dict[str, int]:
        """Replay the durable segment logs into this (fresh) deployment.

        The recovery path: build the system with the same ``durable_dir``
        (opening the logs repairs any damaged tail), then replay — cloud
        records run through the normal receive path so storage *and* the
        preservation/archive state rebuild in original arrival order, and
        the SHA-256 cloud digest of a replayed run is byte-identical to
        the uncrashed one.  Returns the replay counters.
        """
        if self.durable is None:
            raise ConfigurationError(
                "restore_from_segments requires a deployment built with durable_dir"
            )
        return self.durable.restore(self)

    def durable_report(self) -> Dict[str, object]:
        """Durable-log counters (health surface); ``enabled: False`` without."""
        if self.durable is None:
            return {"enabled": False}
        return self.durable.report()

    def traffic_report(self) -> Dict[str, int]:
        """Bytes received per layer (the paper's core comparison quantity)."""
        return self.simulator.accountant.layer_report()

    def storage_report(self) -> Dict[str, Dict[str, object]]:
        """Storage statistics per node, keyed by node id.

        Fog L1 entries prefer worker-reported statistics merged via
        :meth:`merge_fog1_stats` (sharded runs), falling back to the local
        node's own counters.
        """
        report: Dict[str, Dict[str, object]] = {}
        override = self._fog1_stats_override
        for fog1 in self.fog1_nodes():
            reported = override.get(fog1.node_id)
            report[fog1.node_id] = dict(reported) if reported is not None else fog1.stats()
        for fog2 in self.fog2_nodes():
            report[fog2.node_id] = fog2.stats()
        report[self.cloud.node_id] = self.cloud.stats()
        return report

    def summary(self) -> Dict[str, object]:
        """Compact deployment summary (Fig. 6 style): node counts per layer."""
        return {
            "city": self.city.name,
            "fog_layer_1_nodes": len(self._fog1),
            "fog_layer_2_nodes": len(self._fog2),
            "cloud_nodes": 1,
            "districts": self.city.district_count,
            "sections": self.city.section_count,
        }


#: ``repr`` of a canonical row given its tag items' joined reprs — a
#: one-item tuple renders with a trailing comma.
_ROW_FORMATS = ("(%r, %r, %r, %r, %r, %r, %r, (%s))", "(%r, %r, %r, %r, %r, %r, %r, (%s,))")


def cloud_contents(architecture: F2CDataManagement) -> List[tuple]:
    """Canonical (sensor-major sorted) cloud store contents of a deployment.

    The one canonical row shape every equivalence check uses — sharded vs
    direct, live vs recovered, the scenarios and the benchmark's digest
    gates all compare through here, so the definition cannot drift apart.
    Rows come straight from the store's columns, sensor ids ascending and
    each sensor's rows sorted
    (:meth:`~repro.storage.timeseries.TimeSeriesStore.canonical_groups`).
    """
    return architecture.cloud.storage.store.canonical_rows()


def cloud_digest(architecture: F2CDataManagement) -> str:
    """SHA-256 over ``repr(row)`` of every :func:`cloud_contents` row, in order.

    It hashes one sensor's rows at a time and never holds a list of every
    cloud row: on top of the store it needs one sort permutation (8 bytes
    per cloud row), the tag caches and one sensor's rows.  Each distinct
    tag item is rendered once; the bytes hashed are exactly ``repr(row)``.
    It still formats every row: ~5 µs per cloud row (0.73 s for a 150 k-row
    city-day; python 3.11 on 2 vCPUs).
    """
    digest = hashlib.sha256()
    item_reprs: Dict[int, str] = {}  # id(tag item) -> its repr
    held: list = []  # every item keyed above, so no id is reused meanwhile
    for rows in architecture.cloud.storage.store.canonical_groups():
        chunk = []
        for *fields, tags in rows:
            try:
                rendered = ", ".join(map(item_reprs.__getitem__, map(id, tags)))
            except KeyError:
                for item in tags:
                    if id(item) not in item_reprs:
                        held.append(item)
                        item_reprs[id(item)] = repr(item)
                rendered = ", ".join(map(item_reprs.__getitem__, map(id, tags)))
            chunk.append(_ROW_FORMATS[len(tags) == 1] % (*fields, rendered))
        digest.update("".join(chunk).encode("utf-8"))
    return digest.hexdigest()
