"""Long-running service mode: paced ingest with live concurrent queries.

Run-to-completion (:meth:`~repro.api.pipeline.Pipeline.run`) builds the
deployment, ingests the whole workload, and only then hands out a client.
:class:`ServeHandle` is the *service* shape of the same machinery: a
background thread advances :class:`~repro.api.pipeline.IngestSession`
rounds on a clock while callers query the very same deployment
concurrently through :meth:`ServeHandle.submit_query`.

Concurrency / consistency model
-------------------------------
The write path (stores, the query memo, the sketch cache, stats counters)
was built single-threaded; serve mode makes reads safe under concurrent
ingest with **one coarse lock** (the serve lock):

* every mutation step — an ingest round, a sync point — runs under the
  lock *together with* the query-memo/sketch-cache invalidation, as one
  atomic unit.  A query can therefore never hit a memo entry that is stale
  with respect to a round that already landed (the invalidation race this
  lock exists to close);
* every read — :meth:`~ServeHandle.submit_query`,
  :meth:`~ServeHandle.summarize`, :meth:`~ServeHandle.health` — takes the
  same lock, so readers observe round boundaries, never a half-applied
  round.

Coarse per-deployment locking is deliberate: rounds are short (one
columnar batch per section) and queries are index-driven, so the lock is
held for fractions of a millisecond at city scale; readers serialize with
the writer, exactly the consistency a single fog deployment offers.

Determinism
-----------
Pacing and data are decoupled.  Reading timestamps come from the seeded
workload generator, and rounds/sync points are applied in exactly the
order :meth:`Pipeline.run` applies them — the clock only decides *when*
the next round lands, never *what* it contains.  A run paced by a
:class:`~repro.common.clock.VirtualClock` (sleeps advance virtual time
instantly) is therefore byte-identical — same golden cloud SHA-256 digest
— to ``Pipeline.run()`` and to a wall-clock serve of the same workload,
no matter how many clients query throughout.

For the ``sharded`` transport the serve loop is the supervisor fan-in
itself, run on the background thread: queries resolve against the broad
tiers (fog layer 1 is acquired remotely in the workers, exactly like a
remote consumer sees a real deployment), the serve lock guards each sync
point's absorb, and :meth:`~ServeHandle.shutdown` drains gracefully —
the in-flight barrier completes and the durable logs are committed
before the loop exits.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.api.client import F2CClient
    from repro.api.query import QueryResult, QuerySummary
    from repro.runtime.shards import ShardedWorkload
    from repro.runtime.supervisor import ShardSupervisor


class ServeHandle:
    """A running F2C service: ticking ingest plus concurrent queries.

    Obtained from :meth:`Pipeline.serve` / :func:`repro.api.serve` (the
    loop starts immediately).  Use as a context manager for deterministic
    teardown::

        with api.serve(transport="frames-binary-v2") as handle:
            result = handle.submit_query(category="energy")
            handle.drain()                  # let the workload finish
            digest = handle.cloud_digest()

    ``shutdown(drain=False)`` stops early instead: the in-flight round or
    sync point completes (never a partial one), the durable logs are
    committed, and remaining rounds are skipped.
    """

    def __init__(
        self,
        client: "F2CClient",
        *,
        workload: "ShardedWorkload",
        rounds: Optional[List[Tuple[float, list]]] = None,
        supervisor: Optional["ShardSupervisor"] = None,
        clock=None,
        tick_interval_s: float = 0.0,
        drain_timeout_s: float = 30.0,
        round_hook=None,
    ) -> None:
        if (rounds is None) == (supervisor is None):
            raise ConfigurationError(
                "ServeHandle needs exactly one of precomputed rounds or a supervisor"
            )
        if clock is not None and not hasattr(clock, "sleep"):
            raise ConfigurationError(
                "serve clocks must expose sleep(seconds); use VirtualClock or WallClock"
            )
        self._client = client
        self._workload = workload
        self._rounds = rounds
        self._supervisor = supervisor
        self._clock = clock
        self._tick_interval_s = float(tick_interval_s)
        self._drain_timeout_s = float(drain_timeout_s)
        # Narrow chaos hook (the scenario engine's injection point): called
        # as ``round_hook(handle, round_index, readings)`` under the serve
        # lock immediately before each round is ingested, so injected
        # faults land exactly on round boundaries, atomic with queries.
        # ``None`` (the default) costs one falsy check per round.
        self._round_hook = round_hook
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._finished = threading.Event()
        self._error: Optional[BaseException] = None
        #: The sharded run's result, set when a supervisor-backed serve
        #: loop finishes (``None`` for round-ticking transports).
        self.result = None
        self.rounds_ingested = 0
        self.readings_offered = 0
        self.readings_ingested = 0
        self.syncs_completed = 0
        self.queries_served = 0
        self.completed = False
        if supervisor is not None:
            # The supervisor thread holds the serve lock across each sync
            # point's absorb and fires the hook (still under the lock) when
            # the barrier lands — the same atomic mutate+invalidate step
            # the round loop performs inline.
            supervisor.sync_lock = self._lock
            supervisor.on_sync_complete = self._sharded_sync_complete
        target = self._serve_rounds if supervisor is None else self._serve_sharded
        self._thread = threading.Thread(target=target, name="repro-serve", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------ #
    # The serve loop
    # ------------------------------------------------------------------ #
    def _pace(self) -> None:
        """Wait one tick interval — virtually (instant) or on the wall."""
        interval = self._tick_interval_s
        if self._clock is not None:
            self._clock.sleep(interval)
        elif interval > 0.0:
            # Interruptible real wait: a stop request cuts the sleep short.
            self._stop.wait(interval)

    def _serve_rounds(self) -> None:
        """Replay the workload exactly like ``Pipeline.run``, paced and locked.

        Rounds, sync points and their order are identical to the
        run-to-completion loop — that is what makes a serve run's cloud
        digest byte-identical to ``run()``'s.  The additions are pacing
        (:meth:`_pace` before each round), stop checks between steps, and
        the serve lock making each mutation atomic with its invalidation.
        """
        client = self._client
        session = client.session
        system = client.system
        queries = client.queries
        rounds = self._rounds
        try:
            ingested = 0
            for rounds_before, sync_time in self._workload.sync_plan:
                target = min(rounds_before, len(rounds))
                while ingested < target:
                    if self._stop.is_set():
                        return
                    self._pace()
                    if self._stop.is_set():
                        return
                    timestamp, readings = rounds[ingested]
                    with self._lock:
                        if self._round_hook is not None:
                            self._round_hook(self, ingested, readings)
                        if readings:
                            self.readings_offered += len(readings)
                            counts = session.ingest(readings, now=timestamp)
                            self.readings_ingested += sum(counts.values())
                        queries.invalidate()
                        self.rounds_ingested += 1
                    ingested += 1
                if self._stop.is_set():
                    return
                with self._lock:
                    system.synchronise(now=sync_time)
                    queries.invalidate()
                    self.syncs_completed += 1
            self.completed = True
        except BaseException as exc:  # noqa: BLE001 - surfaced via drain/shutdown
            self._error = exc
        finally:
            self._commit_durable(system)
            self._finished.set()

    def _serve_sharded(self) -> None:
        """Run the supervisor fan-in; sync points invalidate via the hook."""
        system = self._client.system
        try:
            self.result = self._supervisor.run()
            self.completed = not self.result.stopped_early
        except BaseException as exc:  # noqa: BLE001 - surfaced via drain/shutdown
            self._error = exc
        finally:
            self._commit_durable(system)
            self._finished.set()

    def _sharded_sync_complete(self, sync_index: int) -> None:
        # Called by the supervisor thread while it holds the serve lock.
        self._client.queries.invalidate()
        self.syncs_completed += 1

    def _commit_durable(self, system) -> None:
        """Flush the durable logs on exit (drained or aborted alike).

        After an abort, ``recover()`` on the same directory lands on the
        last *committed* sync boundary — the loop never writes a partial
        round, so there is nothing newer to lose.
        """
        try:
            with self._lock:
                if system.durable is not None:
                    system.durable.commit()
        except BaseException as exc:  # noqa: BLE001 - keep the first failure
            if self._error is None:
                self._error = exc

    # ------------------------------------------------------------------ #
    # Read side (safe during ingest)
    # ------------------------------------------------------------------ #
    def submit_query(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        sensor_id: Optional[str] = None,
        section_id: Optional[str] = None,
        category: Optional[str] = None,
    ) -> "QueryResult":
        """Answer a nearest-tier query against the live deployment.

        Serialized with the ingest loop on the serve lock: the answer
        reflects a round boundary — all of a landed round, none of an
        in-flight one — and the memo can never serve a result staled by a
        concurrent tick.
        """
        with self._lock:
            self.queries_served += 1
            return self._client.query(
                since=since,
                until=until,
                sensor_id=sensor_id,
                section_id=section_id,
                category=category,
            )

    def query(self, *args, **kwargs) -> "QueryResult":
        """Alias of :meth:`submit_query` (the client verb's name)."""
        return self.submit_query(*args, **kwargs)

    def summarize(
        self,
        since: float = float("-inf"),
        until: float = float("inf"),
        section_id: Optional[str] = None,
        category: Optional[str] = None,
    ) -> "QuerySummary":
        """Constant-size approximate answer, serialized like a query."""
        with self._lock:
            self.queries_served += 1
            return self._client.summarize(
                since=since,
                until=until,
                section_id=section_id,
                category=category,
            )

    def cloud_digest(self) -> str:
        """SHA-256 over the canonical cloud contents, at a round boundary."""
        with self._lock:
            return self._client.cloud_digest()

    def health(self) -> Dict[str, Any]:
        """The client health report plus a ``serve`` section (see :meth:`stats`)."""
        with self._lock:
            report = self._client.health()
            if self.result is not None:
                report["worker_restarts"] = self.result.worker_restarts
                report["worker_faults"] = list(self.result.worker_faults)
                ledger = report.get("conservation")
                if ledger is not None:
                    # Keep the unified ledger consistent with the overrides:
                    # a finished sharded serve reports the run result's IPC
                    # drops, not the client's pre-run zeros.
                    ledger["dropped_ipc_frames"] = self.result.dropped_ipc_frames
                    ledger["total_counted_losses"] = (
                        ledger["dropped_payloads"]
                        + ledger["dropped_ipc_frames"]
                        + ledger["shed_messages"]
                        + ledger["dropped_log_records"]
                    )
            report["serve"] = self.stats()
            return report

    def stats(self) -> Dict[str, Any]:
        """Progress counters of the serve loop (thread-safe snapshot)."""
        return {
            "running": not self._finished.is_set(),
            "completed": self.completed,
            "rounds_ingested": self.rounds_ingested,
            "total_rounds": len(self._rounds) if self._rounds is not None else None,
            "readings_offered": self.readings_offered,
            "readings_ingested": self.readings_ingested,
            "syncs_completed": self.syncs_completed,
            "total_syncs": len(self._workload.sync_plan),
            "queries_served": self.queries_served,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def client(self) -> "F2CClient":
        """The facade over the served deployment.

        Safe to use freely once the loop finished; while it is running,
        prefer the handle's locked verbs (:meth:`submit_query`,
        :meth:`summarize`, :meth:`health`).
        """
        return self._client

    @property
    def running(self) -> bool:
        return not self._finished.is_set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for the workload to finish naturally; ``True`` if it did.

        *timeout* defaults to the config's ``serve_drain_timeout_s``.  The
        loop keeps serving queries while draining.  Re-raises anything the
        serve thread died of.
        """
        timeout = self._drain_timeout_s if timeout is None else timeout
        finished = self._finished.wait(timeout)
        if finished:
            self._thread.join(timeout=self._drain_timeout_s)
            self._raise_if_failed()
        return finished

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Stop the service and return its final :meth:`stats`.

        With ``drain=True`` (default) waits up to *timeout* (default: the
        config's ``serve_drain_timeout_s``) for natural completion first;
        then — completed or not — requests a graceful stop: the in-flight
        round or sync point completes, the durable logs are committed, and
        the loop exits.  Idempotent.
        """
        wait_s = self._drain_timeout_s if timeout is None else timeout
        if drain and self._error is None:
            self._finished.wait(wait_s)
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.request_stop()
        self._thread.join(timeout=max(wait_s, self._drain_timeout_s))
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise TimeoutError(
                f"serve loop did not stop within {max(wait_s, self._drain_timeout_s)}s"
            )
        self._raise_if_failed()
        return self.stats()

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Propagating an in-flight exception beats masking it with a
        # drain timeout: abort instead of draining when the body failed.
        self.shutdown(drain=exc_type is None)

    def __repr__(self) -> str:
        state = "completed" if self.completed else ("running" if self.running else "stopped")
        return (
            f"ServeHandle({state}, rounds={self.rounds_ingested}, "
            f"syncs={self.syncs_completed}, queries={self.queries_served})"
        )
