"""Shard model and worker main loop for multi-process ingest.

A *shard* is a subset of the city's sections, assigned by a stable CRC-32
hash of the section id — the same family of deterministic routing the
sensor → section spreading uses, so the partition is identical across
processes, interpreter runs and ``PYTHONHASHSEED`` values.  Each worker
process owns one shard: it regenerates its slice of the seeded synthetic
workload locally (device RNGs are derived per device at construction, so a
subset samples bit-identically to the full-population run — no input bytes
cross the process boundary), runs acquisition + fog layer-1 aggregation on
its own :class:`~repro.core.architecture.F2CDataManagement`, and ships each
sync point's drained acquired batches upward as one extended binary column
frame over the IPC stream.

The worker body (:func:`run_shard`) is process-agnostic: it writes messages
through a callable, so tests drive it in-process against an in-memory
channel, and :func:`worker_main` is only the thin fork glue around it.
"""

from __future__ import annotations

import os
import zlib
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.runtime import ipc
from repro.sensors.catalog import BARCELONA_CATALOG, SensorCatalog
from repro.sensors.generator import ReadingGenerator
from repro.sensors.readings import ReadingBatch


def shard_of_section(section_id: str, workers: int) -> int:
    """Deterministic worker index owning *section_id* (stable CRC-32)."""
    if workers <= 0:
        raise ConfigurationError("workers must be positive")
    return zlib.crc32(section_id.encode("utf-8")) % workers


@dataclass(frozen=True)
class WorkerFault:
    """Deterministic fault injection for the worker-crash tests.

    The worker process exits hard (``os._exit``) immediately after
    ingesting round ``die_after_round`` — mid-round from the protocol's
    point of view: acquisition ran but nothing of the round was shipped.
    The supervisor must detect the dead worker and re-run its sections.
    """

    shard_index: int
    die_after_round: int = 0


@dataclass(frozen=True)
class ShardedWorkload:
    """A declarative seeded workload every worker can regenerate locally.

    Two kinds mirror the existing drivers:

    * ``"transactions"`` — *rounds* synchronised measurement rounds spaced
      *interval* seconds from *start*, each ingested at its own timestamp
      (the golden-workload shape);
    * ``"stream"`` — every device samples at its type's own interval over
      ``[0, duration_s)`` and readings are grouped into ``round_s`` buckets
      ingested at each bucket's end, sorted by timestamp (the f2cbench
      workload shape).

    ``sync_plan`` is a tuple of ``(rounds_before, sync_time)`` pairs: after
    ingesting the first *rounds_before* rounds, the hierarchy synchronises
    upward at *sync_time*.  ``assignment`` is ``"round_robin"`` (devices
    assigned to sections round-robin in canonical enumeration order, the
    deployment layout the golden fixture and benchmarks use) or
    ``"spread"`` (no explicit assignment; the stable CRC-32 sensor
    spreading routes each device).
    """

    devices_per_type: int = 5
    seed: int = 2024
    kind: str = "transactions"
    rounds: int = 4
    start: float = 0.0
    interval: float = 900.0
    duration_s: float = 3600.0
    round_s: float = 900.0
    sync_plan: Tuple[Tuple[int, float], ...] = ((4, 3600.0),)
    assignment: str = "round_robin"

    def __post_init__(self) -> None:
        if self.kind not in ("transactions", "stream"):
            raise ConfigurationError(f"unknown workload kind: {self.kind!r}")
        if self.assignment not in ("round_robin", "spread"):
            raise ConfigurationError(f"unknown assignment mode: {self.assignment!r}")
        if self.devices_per_type <= 0:
            raise ConfigurationError("devices_per_type must be positive")
        if not self.sync_plan:
            raise ConfigurationError("sync_plan must contain at least one sync point")
        previous = 0
        for rounds_before, _ in self.sync_plan:
            if rounds_before < previous:
                raise ConfigurationError("sync_plan round counts must be non-decreasing")
            previous = rounds_before
        if previous < self.round_count():
            # Rounds past the last sync point would be generated but never
            # ingested or shipped — silent data loss in a runtime whose
            # whole contract is provable equivalence.
            raise ConfigurationError(
                f"sync_plan covers only {previous} of {self.round_count()} rounds; "
                "the last sync point must cover every round"
            )

    @staticmethod
    def _stream_round_count(duration_s: float, round_s: float) -> int:
        """Number of ``round_s`` buckets covering ``[0, duration_s)``."""
        count = int(duration_s // round_s)
        if count * round_s < duration_s:
            count += 1
        return count

    def round_count(self) -> int:
        if self.kind == "transactions":
            return self.rounds
        return self._stream_round_count(self.duration_s, self.round_s)

    @classmethod
    def golden(cls) -> "ShardedWorkload":
        """The golden-fixture workload (5 devices/type, seed 2024, one sync)."""
        return cls()

    @classmethod
    def stream_rounds(
        cls,
        devices_per_type: int = 50,
        seed: int = 7,
        duration_s: float = 3600.0,
        round_s: float = 900.0,
    ) -> "ShardedWorkload":
        """The benchmark workload: streams bucketed per round, sync per round."""
        count = cls._stream_round_count(duration_s, round_s)
        plan = tuple((i + 1, (i + 1) * round_s) for i in range(count))
        return cls(
            devices_per_type=devices_per_type,
            seed=seed,
            kind="stream",
            duration_s=duration_s,
            round_s=round_s,
            sync_plan=plan,
        )


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs to run its shard."""

    shard_index: int
    workers: int
    workload: ShardedWorkload
    catalog: Optional[SensorCatalog] = None
    fault: Optional[WorkerFault] = None

    def __post_init__(self) -> None:
        if not 0 <= self.shard_index < self.workers:
            raise ConfigurationError("shard_index must be in [0, workers)")

    def without_fault(self) -> "WorkerSpec":
        return replace(self, fault=None)


def build_shard_rounds(
    spec: WorkerSpec, system, generator: ReadingGenerator
) -> List[Tuple[float, ReadingBatch]]:
    """The shard's rounds as ``(ingest time, batch)``, assigned into *system*.

    Mirrors the single-process drivers exactly: a device's section comes
    from the workload's assignment mode; devices whose section hashes into
    this shard are kept (and assigned on *system* so routing matches), the
    rest are never sampled — their RNGs are untouched, so the kept devices
    emit exactly the readings they emit in a full-population run.

    Every round is born as columns: a columns-backed
    :class:`~repro.sensors.readings.ReadingBatch` (sized, truthy, and
    materializing ``Reading`` objects only if a caller iterates it), which
    the ingest path consumes without building a single ``Reading``.  A
    stream round holds its rows in timestamp order, ties device-major —
    row for row what ``sorted(stream_for(...), key=timestamp)`` bucketed
    per round gives.  Rounds are replayed (benchmark reps, serve runs):
    ingesting one never mutates it.
    """
    workload = spec.workload
    sections = [s.section_id for s in system.city.sections]

    def keep(index: int, device) -> bool:
        # Section per the workload's assignment mode; membership per the
        # stable shard hash.  Kept round-robin devices are assigned on
        # *system* as a side effect so its routing matches the membership.
        if workload.assignment == "round_robin":
            section_id = sections[index % len(sections)]
        else:
            section_id = system.spread_section(device.sensor_id)
        if shard_of_section(section_id, spec.workers) != spec.shard_index:
            return False
        if workload.assignment == "round_robin":
            system.assign_sensor(device.sensor_id, section_id)
        return True

    shard_devices = generator.shard_devices(keep)

    if workload.kind == "transactions":
        timestamps = [workload.start + i * workload.interval for i in range(workload.rounds)]
        return [
            (timestamp, ReadingGenerator.transaction_for(shard_devices, timestamp))
            for timestamp in timestamps
        ]
    # One stable sort of the whole device-major stream by timestamp puts the
    # rounds in order and every round in timestamp order at once (a round is
    # a timestamp interval); the rounds are then consecutive slices.
    stream = ReadingGenerator.stream_columns_for(shard_devices, 0.0, workload.duration_s)
    stream = stream.gather(sorted(range(len(stream)), key=stream.timestamps.__getitem__))
    round_s = workload.round_s
    rows_per_round = Counter(int(timestamp // round_s) for timestamp in stream.timestamps)
    slots = range(workload.round_count())
    return [
        ((slot + 1) * round_s, ReadingBatch.from_columns(columns))
        for slot, columns in zip(slots, stream.split(rows_per_round[slot] for slot in slots))
    ]


def shard_section_ids(city, workers: int, shard_index: int) -> List[str]:
    """The section ids a shard owns, in canonical city order."""
    return [
        section.section_id
        for section in city.sections
        if shard_of_section(section.section_id, workers) == shard_index
    ]


def _die_hard(code: int) -> None:  # pragma: no cover - subprocess-only
    os._exit(code)


def run_shard(
    spec: WorkerSpec,
    send: Callable[[bytes], None],
    wait_for_go: Optional[Callable[[], None]] = None,
    die: Callable[[int], None] = _die_hard,
) -> None:
    """Run one shard's acquisition loop, emitting IPC messages via *send*.

    Builds the architecture and workload first, then sends READY and blocks
    on *wait_for_go* (when given) so supervisors can exclude construction
    from timed runs.  Per sync point: ingest the due rounds, drain the
    owned fog layer-1 nodes in canonical section order into one BATCH
    message (none when nothing was pending), then close the point with
    SYNC_DONE carrying the sensors → fog L1 traffic records accumulated
    since the previous point.  Ends with FINAL (per-node storage statistics
    + drop counters).

    *die* is the fault-injection exit (``os._exit`` in a real worker; tests
    substitute an exception to simulate the death in-process).
    """
    from repro.core.architecture import F2CDataManagement

    workload = spec.workload
    catalog = spec.catalog if spec.catalog is not None else BARCELONA_CATALOG
    system = F2CDataManagement(catalog=catalog)
    generator = ReadingGenerator(
        catalog, devices_per_type=workload.devices_per_type, seed=workload.seed
    )
    rounds = build_shard_rounds(spec, system, generator)
    own_sections = shard_section_ids(system.city, spec.workers, spec.shard_index)
    own_nodes = [system.fog1_for_section(section_id) for section_id in own_sections]
    fault = spec.fault if spec.fault is not None and spec.fault.shard_index == spec.shard_index else None

    send(ipc.encode_ready())
    if wait_for_go is not None:
        wait_for_go()

    accountant = system.simulator.accountant
    ingest_rows = system.api_pipeline.ingest_rows
    records_seen = 0
    ingested = 0
    for sync_index, (rounds_before, sync_time) in enumerate(workload.sync_plan):
        while ingested < min(rounds_before, len(rounds)):
            timestamp, readings = rounds[ingested]
            if readings:
                ingest_rows(readings, now=timestamp)
            ingested += 1
            if fault is not None and fault.die_after_round == ingested - 1:
                die(17)
        drained = [
            (node.node_id, node.drain_for_upward().columns)
            for node in own_nodes
            if node.storage.pending_upward_count
        ]
        if drained:
            send(ipc.encode_batch(sync_index, drained))
        new_records = accountant.records_since(records_seen)
        records_seen += len(new_records)
        send(
            ipc.encode_sync_done(
                sync_index,
                [
                    {
                        "timestamp": record.timestamp,
                        "source": record.source,
                        "target": record.target,
                        "size_bytes": record.size_bytes,
                        "message_count": record.message_count,
                    }
                    for record in new_records
                ],
            )
        )
    stats = {node.node_id: node.stats() for node in own_nodes}
    send(ipc.encode_final(stats, {"dropped_payloads": system.dropped_payloads}))


def worker_main(spec: WorkerSpec, write_fd: int, go_fd: int) -> None:  # pragma: no cover
    """Forked-process entry: raw-pipe channel around :func:`run_shard`.

    Always leaves via ``os._exit`` so the child never runs the parent's
    inherited atexit/test-harness machinery.
    """
    try:
        def raw_write(data) -> int:
            return os.write(write_fd, data)

        writer = ipc.MessageWriter(raw_write)

        def wait_for_go() -> None:
            os.read(go_fd, 1)

        run_shard(spec, writer.send, wait_for_go)
    except BaseException:  # noqa: BLE001 - report then die, never propagate
        import traceback

        try:
            writer.send(ipc.encode_error(traceback.format_exc()))
        except Exception:
            pass
        os._exit(1)
    finally:
        try:
            os.close(write_fd)
            os.close(go_fd)
        except OSError:
            pass
    os._exit(0)
