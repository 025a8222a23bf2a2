"""A storage tier: a time-series store plus a retention policy.

Each node of the F2C hierarchy owns one :class:`TieredStore`.  Fog layer-1
tiers are small and short-lived (real-time window), fog layer-2 tiers hold a
broader but less recent window, and the cloud tier keeps everything.  The
tier tracks which readings have not yet been propagated upwards so the
data-movement scheduler can drain exactly the new data.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.sensors.readings import Reading, ReadingBatch
from repro.storage.retention import KeepEverything, RetentionPolicy
from repro.storage.timeseries import TimeSeriesStore


class TieredStore:
    """Node-local storage with retention and upward-propagation bookkeeping.

    Columnar internals: both the local store and the pending-upward queue
    hold readings as column batches, so a batch ingested through the hot
    path is stored and queued without materializing per-reading objects.
    """

    def __init__(
        self,
        name: str,
        retention: Optional[RetentionPolicy] = None,
    ) -> None:
        self.name = name
        self.retention = retention if retention is not None else KeepEverything()
        self.store = TimeSeriesStore(name=name)
        self._pending_upward = ReadingBatch()
        self._ingested_count = 0
        self._ingested_bytes = 0
        self._evicted_count = 0

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, reading: Reading, mark_for_upward: bool = True) -> None:
        """Store a reading locally and optionally queue it for upward transfer."""
        self.store.append(reading)
        self._ingested_count += 1
        self._ingested_bytes += reading.size_bytes
        if mark_for_upward:
            self._pending_upward.append(reading)

    def ingest_batch(self, batch: Iterable[Reading], mark_for_upward: bool = True) -> int:
        """Store a whole batch in one pass (the ingest hot path).

        Equivalent to calling :meth:`ingest` per reading, but the store and
        the pending-upward queue both consume the batch's columns directly
        and the tier's counters update once per batch.
        """
        if not isinstance(batch, ReadingBatch):
            batch = ReadingBatch(batch)
        count = self.store.extend_batch(batch)
        if count == 0:
            return 0
        self._ingested_count += count
        self._ingested_bytes += batch.total_bytes
        if mark_for_upward:
            self._pending_upward.extend(batch)
        return count

    def ingest_columns(self, columns, mark_for_upward: bool = True) -> int:
        """Columns-native :meth:`ingest_batch` (no batch wrapper created).

        The store and the pending-upward queue both consume the columns
        directly — the sharded supervisor's absorb path, where decoded
        worker columns flow through without per-batch ``ReadingBatch``
        objects.
        """
        count = self.store.extend_columns(columns)
        if count == 0:
            return 0
        self._ingested_count += count
        self._ingested_bytes += columns.total_bytes
        if mark_for_upward:
            self._pending_upward.extend(columns)
        return count

    # ------------------------------------------------------------------ #
    # Upward propagation support
    # ------------------------------------------------------------------ #
    def drain_pending_upward(self) -> ReadingBatch:
        """Return and clear the readings not yet propagated to the parent."""
        batch = self._pending_upward
        self._pending_upward = ReadingBatch()
        return batch

    @property
    def pending_upward_count(self) -> int:
        return len(self._pending_upward)

    @property
    def pending_upward_bytes(self) -> int:
        return self._pending_upward.total_bytes

    # ------------------------------------------------------------------ #
    # Queries (delegated to the underlying store)
    # ------------------------------------------------------------------ #
    def latest(self, sensor_id: str) -> Reading:
        return self.store.latest(sensor_id)

    def has_series(self, sensor_id: str) -> bool:
        return self.store.has_series(sensor_id)

    def query(self, sensor_id: str, since: float = float("-inf"), until: float = float("inf")) -> List[Reading]:
        return self.store.query(sensor_id, since=since, until=until)

    def query_window(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        category: Optional[str] = None,
        sensor_id: Optional[str] = None,
        fog_node_id: Optional[str] = None,
    ) -> ReadingBatch:
        return self.store.query_window(
            since=since,
            until=until,
            category=category,
            sensor_id=sensor_id,
            fog_node_id=fog_node_id,
        )

    def query_window_partitioned(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        partition_by: str = "fog_node_id",
        category: Optional[str] = None,
    ) -> Dict[Optional[str], ReadingBatch]:
        """The window binned by acquiring fog node (or category).

        See :meth:`TimeSeriesStore.query_window_partitioned` — each bin is
        row-identical to the corresponding filtered :meth:`query_window`.
        """
        return self.store.query_window_partitioned(
            since=since, until=until, partition_by=partition_by, category=category
        )

    def fog_of_series(self, sensor_id: str) -> Optional[str]:
        """The acquiring fog node of a sensor's rows (see the store method)."""
        return self.store.fog_of_series(sensor_id)

    def __len__(self) -> int:
        return len(self.store)

    @property
    def total_bytes(self) -> int:
        return self.store.total_bytes

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def enforce_retention(self, now: float) -> int:
        """Apply the retention policy; returns how many readings were evicted."""
        evicted = self.retention.enforce(self.store, now)
        self._evicted_count += evicted
        return evicted

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def ingested_count(self) -> int:
        return self._ingested_count

    @property
    def ingested_bytes(self) -> int:
        return self._ingested_bytes

    @property
    def evicted_count(self) -> int:
        return self._evicted_count

    def stats(self) -> dict:
        """A snapshot of the tier's counters (used by reports and examples)."""
        return {
            "name": self.name,
            "stored_readings": len(self.store),
            "stored_bytes": self.store.total_bytes,
            "ingested_readings": self._ingested_count,
            "ingested_bytes": self._ingested_bytes,
            "evicted_readings": self._evicted_count,
            "pending_upward": len(self._pending_upward),
            "retention": self.retention.describe(),
        }
