"""The one ingest-pipeline configuration object.

Readings enter the system through one of four transports — direct batch
ingest, per-reading CSV over the broker, binary column frames over the
broker, or the multi-process sharded runtime.  :class:`PipelineConfig` is
the one frozen value that selects among them: pick a *transport*, and the
:class:`~repro.api.pipeline.Pipeline` drives the identical data through the
identical acquisition/movement machinery, proven byte-identical by the
golden equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import ConfigurationError

#: Every supported write-side transport, in historical order of appearance.
TRANSPORTS: Tuple[str, ...] = (
    "direct",         # ingest whole batches in-process (no wire encoding)
    "broker-csv",     # one CSV payload per reading over the MQTT-style broker
    "sharded",        # N worker processes over binary-frame IPC + a supervisor
    "frames-binary-v2",  # one binary column frame per (section, round)
)


@dataclass(frozen=True)
class PipelineConfig:
    """How readings travel from sensors into the F2C hierarchy.

    Attributes
    ----------
    transport:
        One of :data:`TRANSPORTS`.  ``"direct"`` is the in-process upper
        bound; the broker transports reproduce a real deployment's wire
        path (messages park in per-fog-node broker inboxes and each
        ``ingest`` acquires them in one flush); ``"sharded"`` runs fog
        layer-1 acquisition in *workers* processes (whole-workload runs
        only, see
        :meth:`~repro.api.pipeline.Pipeline.run`).
    workers:
        Worker-process count for the sharded transport (must stay 1
        otherwise).
    city_slug:
        Topic prefix for broker transports
        (``city/<slug>/<section>/...``).
    fog1_sync_interval_s / fog2_sync_interval_s:
        Upward-movement cadence for deployments the pipeline builds
        itself (maps onto :class:`~repro.core.movement.MovementPolicy`);
        ``None`` keeps the policy defaults (15 min / 60 min).
    inline_workers:
        Sharded only: run the workers in-process over in-memory channels
        (identical protocol bytes, no fork) — the deterministic mode tests
        and coverage runs use.
    query_cache_bytes:
        Byte budget for the client's query memo
        (:class:`~repro.api.query.QueryService`'s LRU); least-recently-hit
        windows are evicted once accounted bytes exceed it.  ``0`` disables
        memoization entirely.
    cold_store_cache_bytes:
        Byte budget for the query service's hydrated cold stores (shadow
        :class:`~repro.storage.tiered.TieredStore`\\ s replayed from durable
        segment logs); least-recently-served nodes are evicted once the
        accounted bytes exceed it.  ``0`` disables cold-store caching (each
        cold window rehydrates and discards).
    serve_tick_interval_s:
        :meth:`~repro.api.pipeline.Pipeline.serve` pacing: how long the
        serve loop waits before each ingest round.  ``0`` (the default)
        ticks as fast as possible; a :class:`~repro.common.clock.VirtualClock`
        passed to ``serve()`` makes the wait virtual (instant and
        deterministic) whatever the interval.
    serve_inbox_limit:
        Per-client broker inbox bound (messages) for brokers the serve
        loop builds; overflow sheds and is counted in
        :meth:`~repro.messaging.broker.Broker.stats` / the client's
        ``health()``.  ``None`` (the default) keeps inboxes unbounded,
        matching run-to-completion behaviour.
    serve_drain_timeout_s:
        Default timeout for :meth:`~repro.api.serving.ServeHandle.drain` /
        ``shutdown(drain=True)``: how long to wait for the serve loop to
        finish its workload (and, after a stop request, for the in-flight
        round or sync point to complete) before giving up.
    durable_dir:
        Directory for the durable segment logs
        (:mod:`repro.storage.segments`).  When set, what each sync point
        moves into the cloud tier is written as one CRC-framed ``\\x00RBS``
        record and fsync'd at the sync-point boundary — a sync point is on
        disk whole or not at all; a crashed run is recovered with
        :func:`repro.api.recover`.  ``None`` (the default) keeps the
        deployment memory-only.
    durable_fog2:
        Also keep per-district segment logs for the fog layer-2 tiers
        (requires *durable_dir*); their TTL eviction then drops whole
        segments instead of rows.
    """

    transport: str = "direct"
    workers: int = 1
    city_slug: str = "bcn"
    fog1_sync_interval_s: Optional[float] = None
    fog2_sync_interval_s: Optional[float] = None
    inline_workers: bool = False
    query_cache_bytes: int = 8 * 1024 * 1024
    cold_store_cache_bytes: int = 64 * 1024 * 1024
    durable_dir: Optional[str] = None
    durable_fog2: bool = False
    serve_tick_interval_s: float = 0.0
    serve_inbox_limit: Optional[int] = None
    serve_drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"transport must be one of {TRANSPORTS}, got {self.transport!r}"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be positive")
        if self.workers > 1 and self.transport != "sharded":
            raise ConfigurationError(
                f"workers={self.workers} requires the 'sharded' transport, "
                f"got {self.transport!r}"
            )
        if self.inline_workers and self.transport != "sharded":
            raise ConfigurationError("inline_workers requires the 'sharded' transport")
        if self.query_cache_bytes < 0:
            raise ConfigurationError("query_cache_bytes must be non-negative (0 disables)")
        if self.cold_store_cache_bytes < 0:
            raise ConfigurationError("cold_store_cache_bytes must be non-negative (0 disables)")
        if self.serve_tick_interval_s < 0:
            raise ConfigurationError("serve_tick_interval_s must be non-negative")
        if self.serve_inbox_limit is not None and self.serve_inbox_limit < 1:
            raise ConfigurationError(
                "serve_inbox_limit must be a positive message count (or None for unbounded)"
            )
        if self.serve_drain_timeout_s <= 0:
            raise ConfigurationError("serve_drain_timeout_s must be positive")
        if self.durable_dir is not None and not self.durable_dir:
            raise ConfigurationError("durable_dir must be a non-empty path (or None)")
        if self.durable_fog2 and self.durable_dir is None:
            raise ConfigurationError("durable_fog2 requires durable_dir")

    def uses_broker(self) -> bool:
        return self.transport in ("broker-csv", "frames-binary-v2")

    def movement_policy(self):
        """A :class:`~repro.core.movement.MovementPolicy` for the sync cadence.

        Returns ``None`` when both intervals are unset so pipeline-built
        deployments keep the architecture's own default policy.
        """
        if self.fog1_sync_interval_s is None and self.fog2_sync_interval_s is None:
            return None
        from repro.core.movement import MovementPolicy

        defaults = MovementPolicy()
        return MovementPolicy(
            fog1_to_fog2_interval_s=(
                self.fog1_sync_interval_s
                if self.fog1_sync_interval_s is not None
                else defaults.fog1_to_fog2_interval_s
            ),
            fog2_to_cloud_interval_s=(
                self.fog2_sync_interval_s
                if self.fog2_sync_interval_s is not None
                else defaults.fog2_to_cloud_interval_s
            ),
        )
