"""Declarative scenario specs: load shapes + fault schedules, all seeded.

A :class:`Scenario` is a frozen, validated description of one chaos run:
which workload shape to generate (``steady`` / ``burst`` / ``diurnal`` /
``mobile-sensor``), which transport to drive it through, and a schedule of
:class:`FaultEvent`\\ s keyed to virtual-clock rounds.  Specs carry no
behaviour beyond building their :class:`~repro.runtime.shards.ShardedWorkload`
and :class:`~repro.api.config.PipelineConfig`; the
:mod:`~repro.scenarios.executor` interprets the schedule, and the
:mod:`~repro.scenarios.invariants` registry audits the result.

Everything is derived from seeds — two runs of the same spec produce
byte-identical cloud digests, which is what makes per-scenario digests
committable (see ``data/digests.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.api.config import TRANSPORTS, PipelineConfig
from repro.common.errors import ConfigurationError
from repro.runtime.shards import ShardedWorkload, WorkerFault

#: The supported load shapes (the workload half of a scenario).
LOAD_SHAPES = ("steady", "burst", "diurnal", "mobile-sensor")

#: The supported fault-event kinds (the chaos half of a scenario).
EVENT_KINDS = (
    "fog1_outage",
    "fog1_recovery",
    "broker_partition",
    "broker_heal",
    "corrupt_round",
    "worker_kill",
    "crash_recover",
)

#: Transports whose frame payloads are CRC-protected end to end — the only
#: wires where a flipped byte is *guaranteed* to be rejected-and-counted
#: rather than silently decoded, so the only wires ``corrupt_round`` may
#: target.
_CRC_FRAME_TRANSPORTS = ("frames-binary-v2",)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, keyed to a virtual-clock round boundary.

    ``round_index`` is the zero-based round *before* which the event fires
    (the executor's round hook runs under the serve lock, so the fault
    lands atomically between rounds).  ``worker_kill`` is the exception:
    worker deaths are armed at construction time (the worker exits after
    ingesting round ``round_index``), and ``crash_recover`` fires after the
    run drains (ingest un-synced extra data, then ``recover()``).

    Target fields by kind:

    * ``fog1_outage`` — ``node_id`` (a fog L1 node); ``failover=True``
      additionally re-homes the section onto a healthy sibling.
    * ``fog1_recovery`` — ``node_id``.
    * ``broker_partition`` / ``broker_heal`` — ``node_id`` (fog L1 nodes
      are the broker clients).
    * ``worker_kill`` — ``shard_index``.
    * ``corrupt_round`` / ``crash_recover`` — no target.
    """

    kind: str
    round_index: int = 0
    node_id: Optional[str] = None
    failover: bool = False
    shard_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown fault event kind: {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        if self.round_index < 0:
            raise ConfigurationError("round_index must be non-negative")
        if self.kind in ("fog1_outage", "fog1_recovery", "broker_partition", "broker_heal"):
            if not self.node_id:
                raise ConfigurationError(f"{self.kind} events require node_id")
        if self.failover and self.kind != "fog1_outage":
            raise ConfigurationError("failover is only meaningful on fog1_outage events")
        if self.shard_index < 0:
            raise ConfigurationError("shard_index must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """One complete, seeded, auditable chaos run."""

    name: str
    load: str = "steady"
    transport: str = "direct"
    description: str = ""
    events: Tuple[FaultEvent, ...] = ()
    seed: int = 2024
    devices_per_type: int = 5
    workers: int = 2
    inbox_limit: Optional[int] = None
    durable: bool = False
    #: Fault-free scenarios over the golden workload must reproduce the
    #: golden cloud digest (``data/digests.json["golden_cloud_sha256"]``).
    expect_golden: bool = False
    tags: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenarios must be named")
        if self.load not in LOAD_SHAPES:
            raise ConfigurationError(
                f"unknown load shape: {self.load!r}; expected one of {LOAD_SHAPES}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(f"unknown transport: {self.transport!r}")
        round_count = self.workload().round_count()
        for event in self.events:
            self._validate_event(event, round_count)
        uses_broker = PipelineConfig(transport=self.transport).uses_broker()
        if self.inbox_limit is not None and not uses_broker:
            raise ConfigurationError("inbox_limit requires a broker transport")

    def _validate_event(self, event: FaultEvent, round_count: int) -> None:
        sharded = self.transport == "sharded"
        if event.kind == "worker_kill":
            if not sharded:
                raise ConfigurationError("worker_kill events require the sharded transport")
            if event.shard_index >= self.workers:
                raise ConfigurationError(
                    f"worker_kill targets shard {event.shard_index}, "
                    f"but the scenario runs {self.workers} workers"
                )
        elif sharded:
            raise ConfigurationError(
                f"{event.kind} events fire at round boundaries, which the sharded "
                "transport does not expose; only worker_kill is schedulable there"
            )
        if event.kind in ("broker_partition", "broker_heal") and self.transport != "broker-csv":
            # Only the CSV wire is 1:1 message-per-reading, which is what
            # makes partition losses exactly attributable to readings.
            raise ConfigurationError(f"{event.kind} events require the broker-csv transport")
        if event.kind == "corrupt_round" and self.transport not in _CRC_FRAME_TRANSPORTS:
            # CRC-protected frames are the only payloads where a byte flip
            # is guaranteed to be rejected-and-counted, never silently
            # decoded into wrong data.
            raise ConfigurationError(
                f"corrupt_round events require a CRC-protected frame transport "
                f"({', '.join(_CRC_FRAME_TRANSPORTS)})"
            )
        if event.kind == "crash_recover" and not self.durable:
            raise ConfigurationError("crash_recover events require durable=True")
        if event.kind not in ("crash_recover",) and event.round_index >= round_count:
            raise ConfigurationError(
                f"{event.kind} at round {event.round_index} is beyond the workload's "
                f"{round_count} rounds"
            )

    # ------------------------------------------------------------------ #
    # Derived pieces
    # ------------------------------------------------------------------ #
    def workload(self) -> ShardedWorkload:
        """The seeded workload this scenario's load shape describes.

        * ``steady`` — the golden-fixture shape: evenly spaced measurement
          rounds, one sync covering all of them.
        * ``burst`` — the same population firing tightly packed rounds
          (60 s apart) with two sync points, so the broker sees its load
          arrive in bursts between barriers.
        * ``diurnal`` — the stream shape: every device samples at its
          type's natural cadence over one hour, bucketed per round with a
          sync per bucket (the closest honest approximation of a daily
          cadence profile the seeded generator offers).
        * ``mobile-sensor`` — steady rounds with no fixed assignment: every
          device is routed by the stable CRC-32 spread, modelling sensors
          that belong to no section (the paper's mobile sensors).
        """
        if self.load == "steady":
            return ShardedWorkload(devices_per_type=self.devices_per_type, seed=self.seed)
        if self.load == "burst":
            return ShardedWorkload(
                devices_per_type=self.devices_per_type,
                seed=self.seed,
                rounds=6,
                interval=60.0,
                sync_plan=((3, 180.0), (6, 360.0)),
            )
        if self.load == "diurnal":
            return ShardedWorkload.stream_rounds(
                devices_per_type=self.devices_per_type, seed=self.seed
            )
        return ShardedWorkload(
            devices_per_type=self.devices_per_type, seed=self.seed, assignment="spread"
        )

    def config(
        self, durable_dir: Optional[str] = None, processes: bool = False
    ) -> PipelineConfig:
        """The pipeline config this scenario drives (see the executor).

        ``processes=True`` runs sharded scenarios over real forked workers
        instead of the in-process channels (identical protocol bytes).
        """
        if self.durable and durable_dir is None:
            raise ConfigurationError(f"scenario {self.name!r} is durable; pass durable_dir")
        kwargs = {"transport": self.transport}
        if self.transport == "sharded":
            kwargs["workers"] = self.workers
            kwargs["inline_workers"] = not processes
        if self.inbox_limit is not None:
            kwargs["serve_inbox_limit"] = self.inbox_limit
        if self.durable:
            kwargs["durable_dir"] = durable_dir
        return PipelineConfig(**kwargs)

    def worker_faults(self) -> Tuple[WorkerFault, ...]:
        """The construction-time kills ``worker_kill`` events schedule."""
        return tuple(
            WorkerFault(shard_index=event.shard_index, die_after_round=event.round_index)
            for event in self.events
            if event.kind == "worker_kill"
        )

    def round_events(self) -> Tuple[FaultEvent, ...]:
        """Events the executor's round hook interprets, in schedule order."""
        return tuple(
            event
            for event in self.events
            if event.kind not in ("worker_kill", "crash_recover")
        )

    def wants_recovery(self) -> bool:
        return any(event.kind == "crash_recover" for event in self.events)

    def is_faulty(self) -> bool:
        return bool(self.events)
