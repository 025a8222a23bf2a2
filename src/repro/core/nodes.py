"""Nodes of the F2C hierarchy.

Each node owns:

* a :class:`~repro.storage.tiered.TieredStore` sized/retained according to
  its layer's role in the reversed memory hierarchy (Section IV.B);
* a computing capacity (abstract units) used by the placement engine;
* the SCC-DLC blocks the paper assigns to its layer — acquisition at fog
  layer 1, optional processing everywhere, preservation at the cloud.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.aggregation.base import AggregationTechnique
from repro.common.errors import CapacityError, ConfigurationError
from repro.dlc.acquisition import AcquisitionBlock, DataFilteringPhase, DataQualityPhase, DataDescriptionPhase
from repro.dlc.model import BlockResult
from repro.dlc.preservation import PreservationBlock
from repro.dlc.processing import ProcessingBlock
from repro.network.topology import LayerName
from repro.sensors.catalog import SensorCatalog
from repro.sensors.readings import Reading, ReadingBatch
from repro.storage.archive import CloudArchive
from repro.storage.retention import KeepEverything, RetentionPolicy, TtlRetention
from repro.storage.tiered import TieredStore


class _BaseNode:
    """State and behaviour shared by every node of the hierarchy."""

    layer: LayerName

    def __init__(
        self,
        node_id: str,
        compute_capacity: float,
        retention: Optional[RetentionPolicy] = None,
    ) -> None:
        if compute_capacity <= 0:
            raise ConfigurationError(f"{node_id}: compute capacity must be positive")
        self.node_id = node_id
        self.compute_capacity = compute_capacity
        self._compute_in_use = 0.0
        self.storage = TieredStore(name=node_id, retention=retention)
        self.processing = ProcessingBlock()
        #: Durable segment log backing this node's tier (set by the
        #: architecture on broad tiers when a durable_dir is configured).
        self.segment_log = None

    # -- computing capacity -------------------------------------------- #
    @property
    def compute_available(self) -> float:
        return self.compute_capacity - self._compute_in_use

    def allocate_compute(self, units: float) -> None:
        """Reserve *units* of computing capacity; raises when over capacity."""
        if units <= 0:
            raise ConfigurationError("compute units must be positive")
        if units > self.compute_available:
            raise CapacityError(
                f"{self.node_id}: requested {units} compute units, only "
                f"{self.compute_available} available"
            )
        self._compute_in_use += units

    def release_compute(self, units: float) -> None:
        self._compute_in_use = max(0.0, self._compute_in_use - units)

    # -- processing ------------------------------------------------------ #
    def process(self, batch: ReadingBatch, now: float) -> BlockResult:
        """Run the data-processing block locally over *batch*."""
        _, result = self.processing.run(batch, now)
        return result

    # -- storage queries ------------------------------------------------- #
    def latest(self, sensor_id: str) -> Reading:
        return self.storage.latest(sensor_id)

    def has_series(self, sensor_id: str) -> bool:
        return self.storage.has_series(sensor_id)

    def query_window(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        category: Optional[str] = None,
        sensor_id: Optional[str] = None,
        fog_node_id: Optional[str] = None,
    ) -> ReadingBatch:
        return self.storage.query_window(
            since=since,
            until=until,
            category=category,
            sensor_id=sensor_id,
            fog_node_id=fog_node_id,
        )

    def stats(self) -> Dict[str, object]:
        data = self.storage.stats()
        data.update(
            {
                "node_id": self.node_id,
                "layer": self.layer.value,
                "compute_capacity": self.compute_capacity,
                "compute_available": self.compute_available,
            }
        )
        return data

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(id={self.node_id!r})"


class FogNodeLevel1(_BaseNode):
    """A fog layer-1 node: covers one city section, performs data acquisition.

    The acquisition block (collection → filtering/aggregation → quality →
    description) runs here on every ingested batch; readings that survive are
    stored locally (the real-time window) and queued for upward movement.
    """

    layer = LayerName.FOG_1

    def __init__(
        self,
        node_id: str,
        section_id: str,
        compute_capacity: float = 10.0,
        retention: Optional[RetentionPolicy] = None,
        aggregator: Optional[AggregationTechnique] = None,
        catalog: Optional[SensorCatalog] = None,
        city_name: str = "barcelona",
    ) -> None:
        super().__init__(
            node_id=node_id,
            compute_capacity=compute_capacity,
            retention=retention if retention is not None else TtlRetention(max_age_seconds=6 * 3600.0),
        )
        self.section_id = section_id
        self.acquisition = AcquisitionBlock(
            filtering=DataFilteringPhase(aggregator=aggregator),
            quality=DataQualityPhase(catalog=catalog),
            description=DataDescriptionPhase(
                city_name=city_name,
                static_tags={"section": section_id},
                fog_node_id=node_id,
            ),
        )
        self.last_acquisition_result: Optional[BlockResult] = None
        # Cumulative count of readings the acquisition block refused to
        # admit (quality rejections, aggregation reductions) — the only
        # sanctioned way a reading vanishes between "offered" and
        # "ingested" on a lossless transport, so conservation audits need
        # the running total, not just the last batch's BlockResult.
        self.rejected_readings = 0

    def ingest(self, batch: ReadingBatch, now: float) -> ReadingBatch:
        """Run the acquisition block over *batch* and store the survivors.

        Returns the acquired batch (after filtering, quality and description)
        — the data that is now available locally for real-time consumers and
        queued for upward movement.
        """
        acquired, result = self.acquisition.run(batch, now)
        self.accept_acquired(len(batch), acquired, result)
        return acquired

    def accept_acquired(self, offered: int, acquired: ReadingBatch, result: BlockResult) -> None:
        """Book and store the outcome of acquiring *offered* readings here.

        The node-side half of :meth:`ingest`, for callers that ran this
        node's acquisition themselves (the round-level
        :func:`~repro.dlc.acquisition.acquire_round`).
        """
        self.last_acquisition_result = result
        self.rejected_readings += max(0, offered - len(acquired))
        self.storage.ingest_batch(acquired, mark_for_upward=True)

    def stats(self) -> Dict[str, object]:
        data = super().stats()
        data["rejected_readings"] = self.rejected_readings
        return data

    def drain_for_upward(self) -> ReadingBatch:
        """Data not yet moved to the parent fog layer-2 node."""
        return self.storage.drain_pending_upward()

    def enforce_retention(self, now: float) -> int:
        return self.storage.enforce_retention(now)


class FogNodeLevel2(_BaseNode):
    """A fog layer-2 node: covers one district, combines its children's data.

    Holds "a set of less recent data but from a broader area, comprising the
    combination of the respective fog nodes' areas at layer 1"
    (Section IV.B), and can run heavier processing than layer 1.
    """

    layer = LayerName.FOG_2

    def __init__(
        self,
        node_id: str,
        district_id: str,
        compute_capacity: float = 100.0,
        retention: Optional[RetentionPolicy] = None,
        aggregator: Optional[AggregationTechnique] = None,
    ) -> None:
        super().__init__(
            node_id=node_id,
            compute_capacity=compute_capacity,
            retention=retention if retention is not None else TtlRetention(max_age_seconds=72 * 3600.0),
        )
        self.district_id = district_id
        self.aggregator = aggregator
        self.children: List[str] = []

    def register_child(self, child_node_id: str) -> None:
        if child_node_id not in self.children:
            self.children.append(child_node_id)

    def receive_from_child(self, child_node_id: str, batch: ReadingBatch, now: float) -> ReadingBatch:
        """Ingest a batch pushed up by a fog layer-1 child.

        An optional layer-2 aggregator (e.g. averaging over the broader area)
        can reduce the batch further before it is stored and queued for the
        cloud.
        """
        if child_node_id not in self.children:
            self.register_child(child_node_id)
        reduced = batch
        if self.aggregator is not None:
            reduced = self.aggregator.apply(batch).batch
        self.storage.ingest_batch(reduced, mark_for_upward=True)
        return reduced

    def receive_columns_from_child(self, child_node_id: str, columns, now: float):
        """Columns-native :meth:`receive_from_child` (the supervisor absorb path).

        Storage and the pending-upward queue consume the columns directly;
        a batch wrapper is created only when a layer-2 aggregator is
        configured (aggregation techniques operate on batches).  Returns
        the columns that were stored (the aggregator-reduced ones when one
        is configured) so the caller can log exactly what the tier holds.
        """
        if child_node_id not in self.children:
            self.register_child(child_node_id)
        if self.aggregator is not None:
            reduced = self.aggregator.apply(ReadingBatch.from_columns(columns)).batch
            self.storage.ingest_batch(reduced, mark_for_upward=True)
            return reduced.columns
        self.storage.ingest_columns(columns, mark_for_upward=True)
        return columns

    def drain_for_upward(self) -> ReadingBatch:
        return self.storage.drain_pending_upward()

    def enforce_retention(self, now: float) -> int:
        evicted = self.storage.enforce_retention(now)
        if self.segment_log is not None:
            # Durable tiers age out whole segments: one index scan over
            # record headers (O(1) per segment), never per-row surgery.
            max_age = getattr(self.storage.retention, "max_age_seconds", None)
            if max_age is not None:
                self.segment_log.drop_older_than(now - max_age)
        return evicted


class CloudNode(_BaseNode):
    """The cloud layer: permanent preservation and deep processing.

    Ingested data goes through the preservation block (classification →
    archive → dissemination) and is also kept in a queryable store so batch
    analytics can run over the full historical data set.
    """

    layer = LayerName.CLOUD

    def __init__(
        self,
        node_id: str = "cloud",
        compute_capacity: float = 1_000_000.0,
        archive: Optional[CloudArchive] = None,
    ) -> None:
        super().__init__(
            node_id=node_id,
            compute_capacity=compute_capacity,
            retention=KeepEverything(),
        )
        self.archive = archive if archive is not None else CloudArchive(name=f"{node_id}-archive")
        self.preservation = PreservationBlock(archive=self.archive)
        self.last_preservation_result: Optional[BlockResult] = None

    def receive_from_fog(self, fog_node_id: str, batch: ReadingBatch, now: float) -> BlockResult:
        """Ingest a batch pushed up by a fog layer-2 node and preserve it."""
        self.storage.ingest_batch(batch, mark_for_upward=False)
        # Lineage records which fog node delivered the data.
        self.preservation.archive_phase.lineage = (fog_node_id,)
        _, result = self.preservation.run(batch, now)
        self.last_preservation_result = result
        return result

    def read_dataset(self, dataset: str, consumer: str = "public") -> ReadingBatch:
        """Dissemination endpoint (open-data access)."""
        return self.archive.read(dataset, consumer=consumer)
