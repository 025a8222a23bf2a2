"""The unified F2C client: one object for both sides of the architecture.

:class:`F2CClient` pairs a write-side :class:`~repro.api.pipeline.Pipeline`
(ingest through any transport) with a read-side
:class:`~repro.api.query.QueryService` (nearest-tier hierarchical queries)
over one deployed system, and unifies the operational counters scattered
across the subsystems — broker payload drops, sharded-runtime IPC frame
drops and worker restarts, query cache behaviour — into a single
:meth:`health` report surfaced through :meth:`summary`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.api.config import PipelineConfig
from repro.api.pipeline import IngestSession, Pipeline
from repro.api.query import QueryResult, QueryService, QuerySummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.architecture import F2CDataManagement
    from repro.runtime.shards import ShardedWorkload
    from repro.runtime.supervisor import ShardedRunResult
    from repro.sensors.readings import Reading


class F2CClient:
    """Typed facade over one F2C deployment (ingest + query + health)."""

    def __init__(
        self,
        system: Optional["F2CDataManagement"] = None,
        *,
        config: Optional[PipelineConfig] = None,
        pipeline: Optional[Pipeline] = None,
        session: Optional[IngestSession] = None,
        sharded: Optional["ShardedRunResult"] = None,
        catalog=None,
        city=None,
        broker=None,
    ) -> None:
        if pipeline is None:
            if system is not None:
                pipeline = Pipeline(config, system=system, catalog=catalog, city=city)
            else:
                pipeline = Pipeline(config, catalog=catalog, city=city)
        self.pipeline = pipeline
        self.sharded = sharded
        self._session = session
        self._broker = broker
        self.queries = QueryService(
            pipeline.system if system is None else system,
            cache_bytes=pipeline.config.query_cache_bytes,
            cold_store_bytes=pipeline.config.cold_store_cache_bytes,
        )
        self._injector = None

    @property
    def injector(self):
        """A lazily-built :class:`~repro.core.faults.FailureInjector` over
        this deployment.

        One injector per client: every ``fail``/``recover``/``failover``
        call is reflected in :meth:`health`'s ``availability`` section, so
        chaos tooling and operators read the same surface.
        """
        if self._injector is None:
            from repro.core.faults import FailureInjector

            self._injector = FailureInjector(self.system)
        return self._injector

    # ------------------------------------------------------------------ #
    # Deployment access
    # ------------------------------------------------------------------ #
    @property
    def system(self) -> "F2CDataManagement":
        return self.queries.system

    @property
    def config(self) -> PipelineConfig:
        return self.pipeline.config

    @property
    def session(self) -> IngestSession:
        """The write-side session (attaches the broker on first use)."""
        if self._session is None:
            self._session = self.pipeline.session(broker=self._broker)
        return self._session

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        readings: Iterable["Reading"],
        now: Optional[float] = None,
        default_section: Optional[str] = None,
    ) -> Dict[str, int]:
        """Drive *readings* through the configured transport.

        Returns readings acquired per fog layer-1 node (see
        :meth:`IngestSession.ingest`).  Memoized query windows are
        invalidated — new data changes both window contents and which tier
        is nearest.
        """
        counts = self.session.ingest(readings, now=now, default_section=default_section)
        self.queries.invalidate()
        return counts

    def synchronise(self, now: Optional[float] = None) -> Dict[str, Dict[str, int]]:
        """Move pending data fog L1 → fog L2 → cloud immediately."""
        moved = self.system.synchronise(now=now)
        self.queries.invalidate()
        return moved

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def query(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        sensor_id: Optional[str] = None,
        section_id: Optional[str] = None,
        category: Optional[str] = None,
    ) -> QueryResult:
        """Nearest-tier hierarchical query (see :class:`QueryService`)."""
        return self.queries.query(
            since=since,
            until=until,
            sensor_id=sensor_id,
            section_id=section_id,
            category=category,
        )

    def summarize(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        section_id: Optional[str] = None,
        category: Optional[str] = None,
    ) -> QuerySummary:
        """Constant-size approximate answer (see :meth:`QueryService.summarize`)."""
        return self.queries.summarize(
            since=since,
            until=until,
            section_id=section_id,
            category=category,
        )

    # ------------------------------------------------------------------ #
    # Health & reports
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        """One report for every drop/fault counter in the deployment.

        * ``worker_restarts`` / ``worker_faults`` — shards re-run from seed
          after a worker death or protocol damage.
        * ``queries`` — served-from counters and cache behaviour of the
          read side (including the cold-store LRU's bytes and evictions).
        * ``broker`` — the attached broker's delivery/overload counters
          (``{"attached": False}`` when no broker is attached): published /
          delivered / shed messages, per-client shed attribution, the
          configured inbox bound and the current parked backlog.
        * ``durable`` — the segment-log report (``{"enabled": False}`` on a
          memory-only deployment): per-log segment/byte counts and how many
          damaged tail records were dropped-and-counted.
        * ``conservation`` — the unified loss ledger and the one place loss
          counters live: ``dropped_payloads`` (malformed broker payloads —
          bad CSV lines, corrupt/truncated/unknown-version frames — dropped
          at fog layer 1; a sharded run folds the workers' counts in),
          ``dropped_ipc_frames`` (records lost and resynced past on the
          worker → supervisor streams), shed broker messages and torn
          durable-log records, plus per-tier ingest/store/evict/pending
          aggregates, so auditors check ``offered == ingested + losses``
          against one surface.
        * ``availability`` — the failure injector's
          :class:`~repro.core.faults.AvailabilityReport` (all-healthy
          numbers when no failure was ever injected).
        """
        sharded = self.sharded
        broker = self.system._broker
        broker_stats: Dict[str, Any] = {"attached": False}
        if broker is not None:
            broker_stats = {"attached": True, **broker.stats()}
        durable = self.system.durable_report()
        dropped_ipc = sharded.dropped_ipc_frames if sharded is not None else 0
        return {
            "worker_restarts": sharded.worker_restarts if sharded is not None else 0,
            "worker_faults": list(sharded.worker_faults) if sharded is not None else [],
            "queries": self.queries.stats(),
            "broker": broker_stats,
            "durable": durable,
            "conservation": self._conservation_ledger(broker_stats, durable, dropped_ipc),
            "availability": self.injector.availability().as_dict(),
        }

    def _conservation_ledger(
        self,
        broker_stats: Dict[str, Any],
        durable: Dict[str, Any],
        dropped_ipc_frames: int,
    ) -> Dict[str, Any]:
        """One ledger for every counted loss plus per-tier aggregates.

        ``total_counted_losses`` sums the mutually-exclusive loss channels:
        undecodable payloads dropped at fog L1, IPC frames lost on the
        worker streams, broker messages shed (bounded inboxes, partitions,
        unsubscribe gaps) and torn durable-log records.  Corrupted messages
        are a *cause*, not an extra channel — an undecodable corrupted frame
        is already counted in ``dropped_payloads`` — so they are reported
        but not summed.
        """
        dropped_log_records = int(durable.get("dropped_log_records", 0)) if durable.get("enabled") else 0
        dropped_log_bytes = int(durable.get("dropped_log_bytes", 0)) if durable.get("enabled") else 0
        shed_messages = int(broker_stats.get("shed_messages", 0))
        tiers: Dict[str, Dict[str, int]] = {}
        for stats in self.system.storage_report().values():
            layer = str(stats.get("layer", "unknown"))
            entry = tiers.setdefault(
                layer,
                {
                    "ingested_readings": 0,
                    "stored_readings": 0,
                    "evicted_readings": 0,
                    "pending_upward": 0,
                    # Fog L1 acquisition refusals (quality/aggregation) —
                    # zero at broader tiers, which ingest admitted data.
                    "rejected_readings": 0,
                },
            )
            for key in entry:
                entry[key] += int(stats.get(key, 0))
        return {
            "dropped_payloads": self.system.dropped_payloads,
            "dropped_ipc_frames": dropped_ipc_frames,
            "shed_messages": shed_messages,
            "corrupted_messages": int(broker_stats.get("corrupted_messages", 0)),
            "dropped_log_records": dropped_log_records,
            "dropped_log_bytes": dropped_log_bytes,
            "total_counted_losses": (
                self.system.dropped_payloads
                + dropped_ipc_frames
                + shed_messages
                + dropped_log_records
            ),
            "tiers": tiers,
        }

    def summary(self) -> Dict[str, Any]:
        """The deployment summary with the health report folded in."""
        report = self.system.summary()
        report["health"] = self.health()
        return report

    def traffic_report(self) -> Dict[str, int]:
        """Bytes received per layer (the paper's core comparison quantity)."""
        return self.system.traffic_report()

    def storage_report(self) -> Dict[str, Dict[str, Any]]:
        """Storage statistics per node, keyed by node id."""
        return self.system.storage_report()

    def golden_report(self) -> Dict[str, Any]:
        """Traffic + storage in the ``ingest_golden.json`` fixture shape."""
        storage = {
            node_id: {
                "stored_readings": stats["stored_readings"],
                "stored_bytes": stats["stored_bytes"],
                "ingested_readings": stats["ingested_readings"],
                "ingested_bytes": stats["ingested_bytes"],
            }
            for node_id, stats in self.storage_report().items()
        }
        return {"traffic": self.traffic_report(), "storage": storage}

    def cloud_contents(self) -> List[tuple]:
        """Canonical (sorted) cloud store contents for equivalence checks."""
        from repro.core.architecture import cloud_contents

        return cloud_contents(self.system)

    def cloud_digest(self) -> str:
        """SHA-256 over the canonical cloud contents.

        One sort plus one string format per cloud row; see
        :func:`repro.core.architecture.cloud_digest`.
        """
        from repro.core.architecture import cloud_digest

        return cloud_digest(self.system)


def connect(
    config: Optional[PipelineConfig] = None,
    *,
    system: Optional["F2CDataManagement"] = None,
    catalog=None,
    city=None,
    broker=None,
    **config_kwargs,
) -> F2CClient:
    """Build an :class:`F2CClient` for streaming use.

    ``connect()`` deploys Barcelona with the direct transport;
    ``connect(transport="frames-binary-v2")`` (or any
    :class:`PipelineConfig` field as a keyword) selects another wire.  Pass
    an existing *system* to put the facade over a deployment you already
    drive elsewhere.  The sharded transport has no streaming mode — use
    :func:`run_workload`.
    """
    if config is not None and config_kwargs:
        raise TypeError("pass either a PipelineConfig or config keywords, not both")
    if config is None:
        config = PipelineConfig(**config_kwargs)
    return F2CClient(system=system, config=config, catalog=catalog, city=city, broker=broker)


def run_workload(
    workload: Optional["ShardedWorkload"] = None,
    config: Optional[PipelineConfig] = None,
    *,
    catalog=None,
    city=None,
    **config_kwargs,
) -> F2CClient:
    """Run a declarative seeded workload and return a client over the result.

    The one-call form of :meth:`Pipeline.run`, covering every transport
    including ``sharded(N)``: ``run_workload(transport="sharded",
    workers=4)`` executes the golden workload across four worker
    processes.  The returned client answers queries and reports; for
    non-sharded transports it can also keep ingesting.
    """
    if config is not None and config_kwargs:
        raise TypeError("pass either a PipelineConfig or config keywords, not both")
    if config is None:
        config = PipelineConfig(**config_kwargs)
    return Pipeline(config, catalog=catalog, city=city).run(workload)


def serve(
    workload: Optional["ShardedWorkload"] = None,
    config: Optional[PipelineConfig] = None,
    *,
    clock=None,
    catalog=None,
    city=None,
    broker=None,
    round_hook=None,
    worker_faults=None,
    **config_kwargs,
):
    """Start a workload as a long-running service; returns a ``ServeHandle``.

    The service-mode sibling of :func:`run_workload`: a background thread
    advances ingest rounds on a clock (``serve_tick_interval_s`` between
    rounds; pass a :class:`~repro.common.clock.VirtualClock` as *clock*
    for a deterministic instant-paced run) while the returned
    :class:`~repro.api.serving.ServeHandle` answers queries concurrently
    from the same deployment.  ``handle.drain()`` waits for natural
    completion; ``handle.shutdown()`` stops gracefully (the in-flight
    round or sync point completes and the durable logs are committed).
    See :mod:`repro.api.serving` for the concurrency/consistency model.
    """
    if config is not None and config_kwargs:
        raise TypeError("pass either a PipelineConfig or config keywords, not both")
    if config is None:
        config = PipelineConfig(**config_kwargs)
    return Pipeline(config, catalog=catalog, city=city).serve(
        workload,
        clock=clock,
        broker=broker,
        round_hook=round_hook,
        worker_faults=worker_faults,
    )


def recover(
    config: Optional[PipelineConfig] = None,
    *,
    catalog=None,
    city=None,
    **config_kwargs,
) -> F2CClient:
    """Rebuild a durable deployment from its segment logs and wrap a client.

    The crash-recovery entry point: point a config with ``durable_dir`` at
    the directory a previous (possibly killed) run wrote, and the broad
    tiers are replayed from their logs — opening each log repairs any
    damaged tail (truncate-and-count, never a partial ingest), cloud
    records re-run the normal receive path so the store *and* the
    preservation/archive state rebuild in original arrival order, and the
    recovered cloud digest is byte-identical to the uncrashed run's.  The
    fog layer-1 stores start empty and are marked non-authoritative, so
    queries resolve to the restored broad tiers exactly as after a sharded
    run.  Works for any transport's logs (the on-disk format does not
    depend on the wire); the returned client can keep ingesting on
    non-sharded transports.
    """
    if config is not None and config_kwargs:
        raise TypeError("pass either a PipelineConfig or config keywords, not both")
    if config is None:
        config = PipelineConfig(**config_kwargs)
    if config.durable_dir is None:
        from repro.common.errors import ConfigurationError

        raise ConfigurationError("recover() requires a config with durable_dir set")
    from repro.core.architecture import F2CDataManagement

    system = F2CDataManagement(
        city=city,
        catalog=catalog,
        movement_policy=config.movement_policy(),
        durable_dir=config.durable_dir,
        durable_fog2=config.durable_fog2,
    )
    system.restore_from_segments()
    return F2CClient(system=system, config=config, catalog=catalog, city=city)
