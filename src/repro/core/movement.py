"""Upward data-movement scheduling.

Section IV.A: "Data collected at fog layer 1 will be periodically moved
upwards to layer 2, and data collected at layer 2 ... will be combined and
periodically moved upwards to the cloud level. ... the frequency for the
periodical upwards data movements can be strategically decided in order to
accommodate it to the network traffic."

:class:`MovementPolicy` captures that business decision (how often each hop
moves data, and whether bulk transfers should be deferred to off-peak
hours); :class:`DataMovementScheduler` executes it over a topology, draining
each node's pending data, sending it over the simulated network and handing
it to the parent node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.network.link import LinkProfile
from repro.network.simulator import NetworkSimulator, Transfer
from repro.sensors.readings import ReadingBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.architecture import F2CDataManagement


@dataclass(frozen=True)
class MovementPolicy:
    """When and how data moves upwards.

    Attributes
    ----------
    fog1_to_fog2_interval_s:
        Period of the fog L1 → fog L2 transfers.
    fog2_to_cloud_interval_s:
        Period of the fog L2 → cloud transfers.
    defer_to_offpeak:
        When true, bulk fog L2 → cloud transfers are delayed until the next
        off-peak hour of the backhaul link's diurnal profile.
    offpeak_hours:
        Hours of the day (0-23) considered off-peak when deferring; when
        ``None`` the link profile's three least-loaded hours are used.
    """

    fog1_to_fog2_interval_s: float = 900.0
    fog2_to_cloud_interval_s: float = 3600.0
    defer_to_offpeak: bool = False
    offpeak_hours: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.fog1_to_fog2_interval_s <= 0 or self.fog2_to_cloud_interval_s <= 0:
            raise ConfigurationError("movement intervals must be positive")
        if self.offpeak_hours is not None:
            for hour in self.offpeak_hours:
                if not 0 <= hour <= 23:
                    raise ConfigurationError("offpeak hours must be in [0, 23]")

    def next_transmission_time(self, now: float, profile: Optional[LinkProfile]) -> float:
        """Earliest time at or after *now* a bulk transfer may start.

        Without off-peak deferral this is simply *now*; with it, the transfer
        waits for the next configured (or least-loaded) hour of the day.
        """
        if not self.defer_to_offpeak:
            return now
        hours = self.offpeak_hours
        if hours is None:
            if profile is None:
                return now
            hours = tuple(profile.least_loaded_hours(3))
        current_hour = int(now // 3600) % 24
        if current_hour in hours:
            return now
        for offset in range(1, 25):
            candidate_hour = (current_hour + offset) % 24
            if candidate_hour in hours:
                # Start of that hour, on the correct day.
                day_start = (now // 86_400) * 86_400
                candidate = day_start + candidate_hour * 3600
                while candidate < now:
                    candidate += 86_400
                return candidate
        return now  # pragma: no cover - unreachable (some hour always matches)


class DataMovementScheduler:
    """Executes a :class:`MovementPolicy` over an F2C deployment."""

    def __init__(
        self,
        architecture: "F2CDataManagement",
        simulator: NetworkSimulator,
        policy: Optional[MovementPolicy] = None,
    ) -> None:
        self.architecture = architecture
        self.simulator = simulator
        self.policy = policy or MovementPolicy()
        self.transfers: List[Transfer] = []

    # ------------------------------------------------------------------ #
    # One-shot synchronisations
    # ------------------------------------------------------------------ #
    def sync_fog1_to_fog2(self, now: Optional[float] = None) -> Dict[str, int]:
        """Drain every fog L1 node and push its pending data to its parent.

        Returns bytes transferred per fog L1 node.
        """
        timestamp = now if now is not None else self.simulator.clock.now()
        moved: Dict[str, int] = {}
        for fog1 in self.architecture.fog1_nodes():
            batch = fog1.drain_for_upward()
            if not batch:
                continue
            moved[fog1.node_id] = self.move_up_from_fog1(fog1.node_id, batch, timestamp)
        self._commit_durable()
        return moved

    def move_up_from_fog1(self, node_id: str, batch: ReadingBatch, now: float) -> int:
        """Push one already-drained fog L1 batch to the node's parent.

        The single-node building block of :meth:`sync_fog1_to_fog2`: the
        transfer is simulated and accounted, the parent stores the batch and
        logs what it stored.  Returns the bytes moved.
        """
        parent_id = self.architecture.parent_of(node_id)
        transfer = self._transfer(node_id, parent_id, batch, now)
        parent = self.architecture.fog2_node(parent_id)
        stored = parent.receive_from_child(node_id, batch, transfer.arrival_time)
        if parent.segment_log is not None and stored is not None:
            # Log what the tier stored (a layer-2 aggregator may have
            # reduced the batch); written and fsync'd by the sync-point commit.
            parent.segment_log.append(node_id, stored.columns, transfer.arrival_time)
        return batch.total_bytes

    def move_up_from_fog1_columns(self, node_id: str, columns, now: float) -> int:
        """Columns-native :meth:`move_up_from_fog1` (no batch wrapper).

        The sharded supervisor's absorb path, for columns that were acquired
        and drained in a worker process: they go to the parent fog L2 node
        as-is and the hop is simulated and accounted exactly as the
        in-process one — transfer simulation, accounting and storage all
        consume the columns directly, so no per-batch ``ReadingBatch``
        object is created on the supervisor's hot loop.
        """
        parent_id = self.architecture.parent_of(node_id)
        transfer = self._record_transfer(
            node_id, parent_id, columns.category_counts(), columns.total_bytes, len(columns), now
        )
        parent = self.architecture.fog2_node(parent_id)
        stored = parent.receive_columns_from_child(node_id, columns, transfer.arrival_time)
        if parent.segment_log is not None and stored is not None:
            parent.segment_log.append(node_id, stored, transfer.arrival_time)
        return columns.total_bytes

    def sync_fog2_to_cloud(self, now: Optional[float] = None) -> Dict[str, int]:
        """Drain every fog L2 node and push its pending data to the cloud."""
        timestamp = now if now is not None else self.simulator.clock.now()
        moved: Dict[str, int] = {}
        cloud = self.architecture.cloud
        for fog2 in self.architecture.fog2_nodes():
            batch = fog2.drain_for_upward()
            if not batch:
                continue
            profile = self._backhaul_profile(fog2.node_id)
            departure = self.policy.next_transmission_time(timestamp, profile)
            transfer = self._transfer(fog2.node_id, cloud.node_id, batch, departure)
            cloud.receive_from_fog(fog2.node_id, batch, transfer.arrival_time)
            if cloud.segment_log is not None:
                cloud.segment_log.append(fog2.node_id, batch.columns, transfer.arrival_time)
            moved[fog2.node_id] = batch.total_bytes
        self._commit_durable()
        return moved

    def _commit_durable(self) -> None:
        """Write and fsync every durable log's sync point — the boundary.

        Runs at the end of each one-shot synchronisation, so the durability
        contract ("a sync point is on disk whole or not at all") holds for
        both hops on both the single-process and the sharded supervisor
        drive paths.
        """
        durable = self.architecture.durable
        if durable is not None:
            durable.commit()

    def full_sync(self, now: Optional[float] = None) -> Dict[str, Dict[str, int]]:
        """Fog L1 → fog L2 followed by fog L2 → cloud."""
        return {
            "fog1_to_fog2": self.sync_fog1_to_fog2(now),
            "fog2_to_cloud": self.sync_fog2_to_cloud(now),
        }

    # ------------------------------------------------------------------ #
    # Periodic scheduling over a horizon
    # ------------------------------------------------------------------ #
    def run_period(self, duration_s: float, start: Optional[float] = None) -> int:
        """Schedule periodic syncs for *duration_s* seconds and run them.

        Returns the number of sync rounds executed (both hops counted
        separately).
        """
        begin = start if start is not None else self.simulator.clock.now()
        rounds = 0

        time_cursor = begin + self.policy.fog1_to_fog2_interval_s
        while time_cursor <= begin + duration_s:
            self.simulator.schedule(time_cursor, lambda t=time_cursor: self.sync_fog1_to_fog2(t))
            time_cursor += self.policy.fog1_to_fog2_interval_s
            rounds += 1

        time_cursor = begin + self.policy.fog2_to_cloud_interval_s
        while time_cursor <= begin + duration_s:
            self.simulator.schedule(time_cursor, lambda t=time_cursor: self.sync_fog2_to_cloud(t))
            time_cursor += self.policy.fog2_to_cloud_interval_s
            rounds += 1

        self.simulator.run(until=begin + duration_s)
        return rounds

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _transfer(self, source: str, target: str, batch: ReadingBatch, departure: float) -> Transfer:
        return self._record_transfer(
            source, target, batch.categories(), batch.total_bytes, len(batch), departure
        )

    def _record_transfer(
        self,
        source: str,
        target: str,
        category_counts: Dict[str, int],
        size_bytes: int,
        message_count: int,
        departure: float,
    ) -> Transfer:
        dominant_category = max(category_counts, key=category_counts.get) if category_counts else None
        transfer = self.simulator.send(
            source=source,
            target=target,
            size_bytes=size_bytes,
            message_count=message_count,
            category=dominant_category,
            departure_time=departure,
        )
        self.transfers.append(transfer)
        return transfer

    def _backhaul_profile(self, fog2_node_id: str) -> Optional[LinkProfile]:
        try:
            link = self.simulator.topology.link(fog2_node_id, self.architecture.cloud.node_id)
        except Exception:  # RoutingError — no direct link configured
            return None
        return link.profile
