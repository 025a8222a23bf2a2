"""Supervisor for the multi-process sharded ingest runtime.

The supervisor owns one :class:`~repro.core.architecture.F2CDataManagement`
(fog layer 2, the cloud, the network simulator and traffic accountant) and
a set of shard workers, each running acquisition + fog layer-1 aggregation
for a disjoint slice of the city's sections.  Per sync point it:

1. reads every worker's stream up to its SYNC_DONE (a barrier — workers
   stream ahead without waiting, so the barrier is just "read until");
2. absorbs the buffered fog layer-1 batches **in canonical city-section
   order** (the same order the in-process scheduler drains nodes), so the
   result is independent of worker scheduling;
3. merges the workers' sensors → fog L1 traffic records;
4. runs the fog L2 → cloud sync exactly as the in-process path.

Fault tolerance: a worker that dies (EOF/stream corruption before its
protocol completes, or an ERROR message) is detected at the barrier, its
failure recorded in a :class:`~repro.core.faults.FailureState`, and its
shard re-run in a fresh process.  Workloads are regenerated
deterministically from the shared seed, so the replacement's stream is
byte-identical to what the dead worker would have sent; sync points that
were already absorbed are recognised by index and discarded, so nothing is
ingested twice — and because batches are only absorbed at completed
barriers, nothing from the dead worker's in-flight sync point was ingested
at all: re-running can never partially ingest.

``inline=True`` runs every worker in-process against in-memory channels —
same protocol bytes, no processes — which is how the equivalence and
protocol tests exercise the full pipeline deterministically under coverage.
"""

from __future__ import annotations

import io
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, RoutingError
from repro.core.architecture import F2CDataManagement, cloud_contents, cloud_digest
from repro.core.faults import FailureState
from repro.runtime import ipc
from repro.runtime.shards import ShardedWorkload, WorkerFault, WorkerSpec, worker_main
from repro.sensors.catalog import SensorCatalog

#: Restarts allowed per shard before the run is abandoned.
DEFAULT_MAX_RESTARTS = 2


class WorkerFailure(RuntimeError):
    """A shard worker failed and could not be re-run."""


@dataclass
class ShardedRunResult:
    """Outcome of one sharded run.

    ``architecture`` is the supervisor's system: its ``traffic_report()`` /
    ``storage_report()`` (with worker fog L1 statistics merged) and cloud
    node are exactly what the equivalent single-process run produces.
    """

    workers: int
    architecture: F2CDataManagement
    traffic: Dict[str, int]
    storage: Dict[str, Dict[str, Any]]
    total_readings_absorbed: int
    dropped_ipc_frames: int
    worker_restarts: int
    failure_state: FailureState
    wall_s: float
    run_s: float
    worker_faults: List[Dict[str, Any]] = field(default_factory=list)
    #: Total bytes the supervisor read off worker IPC streams (stream
    #: framing included) — f2cbench's ``ipc.bytes``.
    ipc_bytes: int = 0
    #: True when :meth:`ShardSupervisor.request_stop` ended the run after a
    #: completed sync point but before the workload's last one.  The broad
    #: tiers hold every *committed* boundary; the workers' FINAL statistics
    #: were never collected, so fog L1 entries in ``storage`` are the local
    #: (empty) ones.
    stopped_early: bool = False

    def golden_report(self) -> Dict[str, Any]:
        """The report shape of the ``ingest_golden.json`` fixture."""
        storage = {
            node_id: {
                "stored_readings": stats["stored_readings"],
                "stored_bytes": stats["stored_bytes"],
                "ingested_readings": stats["ingested_readings"],
                "ingested_bytes": stats["ingested_bytes"],
            }
            for node_id, stats in self.storage.items()
        }
        return {"traffic": self.traffic, "storage": storage}

    def cloud_contents(self) -> List[tuple]:
        """Canonical (sorted) cloud store contents for equivalence checks."""
        return cloud_contents(self.architecture)

    def cloud_digest(self) -> str:
        """SHA-256 over the canonical cloud contents.

        See :func:`repro.core.architecture.cloud_digest` for what it costs.
        """
        return cloud_digest(self.architecture)

    def client(self):
        """A :class:`repro.api.F2CClient` over this run's deployment.

        The same facade a single-process run returns: hierarchical queries
        resolve against the supervisor's fog layer 2 / cloud tiers (the
        worker-local fog layer-1 stores are not local here), and
        ``health()`` carries this run's IPC drop / restart counters.
        """
        from repro.api.client import F2CClient
        from repro.api.pipeline import Pipeline

        return F2CClient(
            system=self.architecture,
            pipeline=Pipeline.for_system(self.architecture),
            sharded=self,
        )


class _InlineChannel:
    """An in-memory worker channel: run_shard output replayed to a reader."""

    def __init__(self, spec: WorkerSpec) -> None:
        from repro.runtime.shards import run_shard

        self._buffer = io.BytesIO()
        writer = ipc.MessageWriter(self._buffer.write)

        def die(code: int) -> None:
            # Simulate a hard worker death: everything written so far stays
            # in the stream (it reached the pipe), nothing else follows.
            raise _InlineWorkerDied(code)

        try:
            run_shard(spec, writer.send, wait_for_go=None, die=die)
        except _InlineWorkerDied:
            pass
        except Exception:  # noqa: BLE001 - mirror worker_main's ERROR frame
            # Same fault semantics as a real fork worker: a raising worker
            # reports an ERROR message and the supervisor restarts it,
            # instead of the exception escaping the whole run.
            import traceback

            writer.send(ipc.encode_error(traceback.format_exc()))
        self._buffer.seek(0)
        self.reader = ipc.MessageReader(self._read)
        self.bytes_read = 0

    def _read(self, size: int) -> bytes:
        chunk = self._buffer.read(size)
        self.bytes_read += len(chunk)
        return chunk

    def send_go(self) -> None:
        pass

    def close(self) -> None:
        pass

    def join(self) -> None:
        pass


class _InlineWorkerDied(Exception):
    def __init__(self, code: int) -> None:
        super().__init__(f"inline worker died with code {code}")
        self.code = code


#: How long a worker that was not abandoned gets to exit on its own.
_EXIT_GRACE_S = 0.25


class _ProcessChannel:
    """A forked worker process plus its data/control pipes."""

    def __init__(self, spec: WorkerSpec, context) -> None:
        read_fd, write_fd = os.pipe()
        go_read_fd, go_write_fd = os.pipe()
        self._read_fd = read_fd
        self._go_write_fd = go_write_fd
        try:
            self.process = context.Process(
                target=worker_main, args=(spec, write_fd, go_read_fd), daemon=True
            )
            self.process.start()
        except BaseException:
            # fork can fail (EAGAIN under load, e.g. mid-restart-storm);
            # without this, all four fds leak — run()'s cleanup only reaches
            # channels that finished constructing.
            for fd in (read_fd, write_fd, go_read_fd, go_write_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
            raise
        # The parent must not hold the worker's ends open: EOF detection on
        # the data pipe depends on the child owning the only write end.
        os.close(write_fd)
        os.close(go_read_fd)
        self.reader = ipc.MessageReader(self._read)
        self.bytes_read = 0

    def _read(self, size: int) -> bytes:
        chunk = os.read(self._read_fd, size)
        self.bytes_read += len(chunk)
        return chunk

    def send_go(self) -> None:
        try:
            os.write(self._go_write_fd, b"g")
        except OSError:
            pass  # the worker is already gone; the barrier will notice

    def close(self) -> None:
        for fd in (self._read_fd, self._go_write_fd):
            try:
                os.close(fd)
            except OSError:
                pass

    def join(self) -> None:
        """Reap the worker (call after :meth:`close`).

        A worker that has sent FINAL is already exiting and is reaped within
        the grace period.  An abandoned one is killed, not waited for:
        closing our pipe ends cannot unblock it, because every forked worker
        also holds copies of them (its own and its elder siblings'), so its
        blocked write never sees EPIPE.  It owns nothing but its pipes.
        The reaped process object is closed too: it holds two sentinel fds.
        """
        self.process.join(timeout=_EXIT_GRACE_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.process.close()


class _ShardHandle:
    """One shard's live channel plus its replay/restart bookkeeping."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.channel = None
        self.restarts = 0
        self.started = False  # go sent


class ShardSupervisor:
    """Spawns shard workers and merges their output into one architecture.

    ``frame_format`` selects nothing — every BATCH is one extended binary
    frame.  It is accepted (``None`` or ``"binary-v2"``, anything else is a
    :class:`~repro.common.errors.ConfigurationError`) only because existing
    callers, the f2cbench ``ingest_sharded`` workload among them, still
    name the format they expect.
    """

    def __init__(
        self,
        workers: int,
        workload: Optional[ShardedWorkload] = None,
        catalog: Optional[SensorCatalog] = None,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        inline: bool = False,
        frame_format: Optional[str] = None,
        durable_dir: Optional[str] = None,
        durable_fog2: bool = False,
        faults: Optional[Sequence[WorkerFault]] = None,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        if frame_format not in (None, "binary-v2"):
            raise ConfigurationError(
                f"IPC batches are extended binary frames; frame_format must be "
                f"None or 'binary-v2', got {frame_format!r}"
            )
        # Scheduled kills: at most one WorkerFault per shard.
        scheduled: Dict[int, WorkerFault] = {}
        for entry in faults or ():
            if not 0 <= entry.shard_index < workers:
                raise ConfigurationError(
                    f"fault targets shard {entry.shard_index}, but only "
                    f"{workers} workers exist"
                )
            if entry.shard_index in scheduled:
                raise ConfigurationError(
                    f"multiple faults scheduled for shard {entry.shard_index}"
                )
            scheduled[entry.shard_index] = entry
        self.workers = workers
        self.workload = workload if workload is not None else ShardedWorkload.golden()
        self.catalog = catalog
        self.max_restarts = max_restarts
        self.inline = inline
        # Durable segment logs attach to the supervisor-side architecture:
        # the broad tiers (fog L2 absorb, fog L2 → cloud sync) live here,
        # so the sharded absorb path appends and fsyncs exactly like the
        # single-process scheduler.
        self.architecture = F2CDataManagement(
            catalog=catalog, durable_dir=durable_dir, durable_fog2=durable_fog2
        )
        self.failure_state = FailureState()
        self.worker_faults: List[Dict[str, Any]] = []
        self.dropped_ipc_frames = 0
        self.worker_restarts = 0
        self.ipc_bytes_received = 0
        # Serve-mode hooks: a lock held around each sync point's absorb +
        # fog2→cloud sync (so concurrent readers never observe a
        # half-absorbed barrier), a callback fired — under that same lock —
        # after each completed sync point, and a graceful-stop flag checked
        # between sync points (the in-flight barrier always completes and
        # commits its durable logs before the run exits).
        self.sync_lock: Optional[threading.Lock] = None
        self.on_sync_complete = None
        self._stop_requested = threading.Event()
        self._context = None
        self._shards = [
            _ShardHandle(
                WorkerSpec(
                    shard_index=index,
                    workers=workers,
                    workload=self.workload,
                    catalog=catalog,
                    fault=scheduled.get(index),
                )
            )
            for index in range(workers)
        ]

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, shard: _ShardHandle) -> None:
        if self.inline:
            shard.channel = _InlineChannel(shard.spec)
        else:
            if self._context is None:
                import multiprocessing

                # Fork keeps worker start cheap and argument passing exact
                # (no pickling); the runtime is Linux-first like the rest of
                # the benchmark environment.
                self._context = multiprocessing.get_context("fork")
            shard.channel = _ProcessChannel(shard.spec, self._context)
        shard.started = False

    def _fail_and_restart(self, shard: _ShardHandle, reason: str) -> None:
        worker_id = f"worker-{shard.spec.shard_index}"
        self.failure_state.failed_nodes.add(worker_id)
        self.worker_faults.append(
            {
                "worker": shard.spec.shard_index,
                "restarts_so_far": shard.restarts,
                "reason": reason,
            }
        )
        if shard.restarts >= self.max_restarts:
            # run()'s finally block tears down the other shards' channels.
            raise WorkerFailure(
                f"shard {shard.spec.shard_index} failed {shard.restarts + 1} time(s); "
                f"giving up: {reason}"
            )
        self.ipc_bytes_received += getattr(shard.channel, "bytes_read", 0)
        shard.channel.close()
        shard.channel.join()
        shard.restarts += 1
        self.worker_restarts += 1
        # The replacement re-runs the whole shard from the shared seed; the
        # injected fault is one-shot so the re-run completes.  Sync points
        # the supervisor already absorbed are discarded by index on replay.
        shard.spec = shard.spec.without_fault()
        self._spawn(shard)
        self._await_ready(shard)

    def _await_ready(self, shard: _ShardHandle, release: bool = True) -> None:
        """Read up to the worker's READY; release it unless *release* is off.

        The initial fleet is released together (after every worker built
        its workload) so the timed portion of a run excludes construction;
        replacements are released immediately.
        """
        while True:
            try:
                message = shard.channel.reader.read_message()
            except ipc.StreamFrameError as exc:
                self._note_drops(shard)
                # _fail_and_restart completes the replacement's READY
                # handshake itself, so these branches must return — reading
                # on would consume the replacement's data messages.
                self._fail_and_restart(shard, f"stream corrupt before READY: {exc}")
                return
            if message is None:
                self._note_drops(shard)
                self._fail_and_restart(shard, "worker exited before READY")
                return
            if self._note_drops(shard):
                self._fail_and_restart(shard, "records lost from worker stream before READY")
                return
            msg_type, body = message
            if msg_type == ipc.MSG_READY:
                if release:
                    shard.channel.send_go()
                shard.started = release
                return
            if msg_type == ipc.MSG_ERROR:
                self._fail_and_restart(shard, f"worker error:\n{body['text']}")
                return
            # Anything else before READY is protocol damage.
            self._fail_and_restart(shard, f"unexpected message type {msg_type} before READY")
            return

    def _note_drops(self, shard: _ShardHandle) -> int:
        """Fold the reader's drop count into the run total; returns it.

        Any nonzero count means a record vanished from this worker's stream
        — even when the reader resynced cleanly past it.  Callers must
        treat that as a shard failure: a silently dropped BATCH would
        otherwise complete the run with divergent (partial) output, which
        is exactly what the re-run-from-seed machinery exists to prevent.
        """
        taken = shard.channel.reader.dropped_frames
        shard.channel.reader.dropped_frames = 0
        self.dropped_ipc_frames += taken
        return taken

    # ------------------------------------------------------------------ #
    # Barrier collection
    # ------------------------------------------------------------------ #
    def _collect_sync(
        self, shard: _ShardHandle, sync_index: int
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Read one worker's stream up to SYNC_DONE(*sync_index*).

        Returns its buffered ``{node_id: columns}`` batches and edge
        transfer records for this sync point.  Replayed messages from a
        restarted worker (sync indices already absorbed) are discarded.
        """
        while True:
            batches: Dict[str, Any] = {}
            try:
                completed = self._read_until_sync_done(shard, sync_index, batches)
            except _ShardDied as died:
                self._fail_and_restart(shard, died.reason)
                continue
            return batches, completed

    def _next_message(self, shard: _ShardHandle, context: str):
        """One valid protocol message, or ``_ShardDied`` for any damage.

        The shared message pump of the barrier loops: stream corruption,
        any dropped record (a resynced drop could have been a BATCH —
        completing the barrier would silently lose its readings), EOF and
        explicit worker ERROR all become shard failures here.  A READY is
        also damage in these loops: ``_fail_and_restart`` consumes a
        replacement's READY itself.
        """
        try:
            message = shard.channel.reader.read_message()
        except ipc.StreamFrameError as exc:
            self._note_drops(shard)
            raise _ShardDied(f"stream corrupt: {exc}")
        if self._note_drops(shard):
            raise _ShardDied("records lost from worker stream")
        if message is None:
            raise _ShardDied(f"worker exited {context}")
        msg_type, body = message
        if msg_type == ipc.MSG_ERROR:
            raise _ShardDied(f"worker error:\n{body['text']}")
        return msg_type, body

    def _read_until_sync_done(
        self, shard: _ShardHandle, sync_index: int, batches: Dict[str, Any]
    ) -> List[Dict[str, Any]]:
        while True:
            msg_type, body = self._next_message(shard, "mid-protocol")
            if msg_type == ipc.MSG_BATCH:
                if body["sync_index"] < sync_index:
                    continue  # replay of an already-absorbed sync point
                if body["sync_index"] > sync_index:
                    raise _ShardDied(
                        f"worker skipped sync point {sync_index} "
                        f"(sent {body['sync_index']})"
                    )
                batches.update(body["batches"])
                continue
            if msg_type == ipc.MSG_SYNC_DONE:
                if body["sync_index"] < sync_index:
                    # Replay of an already-absorbed point.  Its BATCH
                    # preceded it in the stream and was already discarded
                    # by the index check above, so `batches` only ever
                    # holds current-point entries here.
                    continue
                if body["sync_index"] > sync_index:
                    raise _ShardDied(
                        f"worker skipped sync point {sync_index} "
                        f"(sent {body['sync_index']})"
                    )
                return body["edge_transfers"]
            raise _ShardDied(f"unexpected message type {msg_type} during sync")

    def _collect_final(self, shard: _ShardHandle) -> Tuple[Dict[str, Any], Dict[str, int]]:
        total_syncs = len(self.workload.sync_plan)
        while True:
            try:
                while True:
                    msg_type, body = self._next_message(shard, "before FINAL")
                    if msg_type == ipc.MSG_FINAL:
                        return body["fog1_stats"], body["counters"]
                    if msg_type in (ipc.MSG_BATCH, ipc.MSG_SYNC_DONE):
                        # Replay from a restart: every sync point is already
                        # absorbed, so discard up to FINAL.
                        if body["sync_index"] < total_syncs:
                            continue
                        raise _ShardDied(
                            f"unexpected sync index {body['sync_index']} after last barrier"
                        )
                    raise _ShardDied(f"unexpected message type {msg_type} before FINAL")
            except _ShardDied as died:
                self._fail_and_restart(shard, died.reason)

    # ------------------------------------------------------------------ #
    # The run
    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Ask the run to drain gracefully after the in-flight sync point.

        Safe from any thread.  The supervisor finishes the barrier it is
        collecting (a partially absorbed sync point can never be observed),
        commits the durable logs, and returns a result with
        ``stopped_early=True``; remaining sync points are skipped and the
        workers' FINAL statistics are not collected (their processes are
        torn down by the run's cleanup).
        """
        self._stop_requested.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested.is_set()

    def run(self) -> ShardedRunResult:
        try:
            return self._run()
        finally:
            # Whatever happened — success, WorkerFailure, protocol bug —
            # no worker process or pipe fd may outlive the run.
            for shard in self._shards:
                if shard.channel is not None:
                    shard.channel.close()
                    shard.channel.join()
                    shard.channel = None

    def _run(self) -> ShardedRunResult:
        begin_total = time.perf_counter()
        for shard in self._shards:
            self._spawn(shard)
        for shard in self._shards:
            self._await_ready(shard, release=False)
        # Release the whole fleet together: workload construction happens
        # before the first READY, so it stays outside the timed window.
        for shard in self._shards:
            if not shard.started:
                shard.channel.send_go()
                shard.started = True
        begin_run = time.perf_counter()

        architecture = self.architecture
        # Readers may query this architecture while the run streams (the
        # serve mode): the local fog L1 stores never hold data here, so
        # they are non-authoritative from the start, not only after the
        # workers' FINAL statistics merge.
        architecture.mark_fog1_remote()
        canonical_node_order = [fog1.node_id for fog1 in architecture.fog1_nodes()]
        total_absorbed = 0
        stopped_early = False
        total_syncs = len(self.workload.sync_plan)
        for sync_index, (_, sync_time) in enumerate(self.workload.sync_plan):
            batches_by_node: Dict[str, Any] = {}
            edge_transfers: List[Dict[str, Any]] = []
            for shard in self._shards:
                shard_batches, shard_edges = self._collect_sync(shard, sync_index)
                batches_by_node.update(shard_batches)
                edge_transfers.extend(shard_edges)
            # Absorb in canonical city-section order — the order the
            # in-process scheduler drains fog L1 nodes — so the merged
            # outcome is independent of worker scheduling and count.  Under
            # a serve lock the whole barrier (absorb + upward sync + the
            # completion hook) is one atomic step to concurrent readers.
            with self.sync_lock if self.sync_lock is not None else nullcontext():
                for node_id in canonical_node_order:
                    columns = batches_by_node.get(node_id)
                    if columns is None:
                        continue
                    total_absorbed += len(columns)
                    architecture.receive_worker_columns(node_id, columns, now=sync_time)
                architecture.merge_edge_transfers(edge_transfers)
                architecture.scheduler.sync_fog2_to_cloud(now=sync_time)
                if self.on_sync_complete is not None:
                    self.on_sync_complete(sync_index)
            if self._stop_requested.is_set() and sync_index + 1 < total_syncs:
                # Graceful drain: the in-flight sync point completed and
                # its durable records were committed by the sync itself;
                # flush once more explicitly and exit without collecting
                # FINAL (the workers are torn down by run()'s cleanup).
                stopped_early = True
                break
        if stopped_early:
            if architecture.durable is not None:
                architecture.durable.commit()
            end = time.perf_counter()
            return ShardedRunResult(
                workers=self.workers,
                architecture=architecture,
                traffic=architecture.traffic_report(),
                storage=architecture.storage_report(),
                total_readings_absorbed=total_absorbed,
                dropped_ipc_frames=self.dropped_ipc_frames,
                worker_restarts=self.worker_restarts,
                failure_state=self.failure_state,
                wall_s=end - begin_total,
                run_s=end - begin_run,
                worker_faults=list(self.worker_faults),
                ipc_bytes=self.ipc_bytes_received
                + sum(
                    getattr(shard.channel, "bytes_read", 0)
                    for shard in self._shards
                    if shard.channel is not None
                ),
                stopped_early=True,
            )

        for shard in self._shards:
            while True:
                fog1_stats, counters = self._collect_final(shard)
                try:
                    architecture.merge_fog1_stats(fog1_stats)
                except RoutingError as exc:
                    # Semantically invalid FINAL (unknown node id): treat it
                    # like any other protocol damage — re-run the shard —
                    # rather than crash the whole run at the merge step.
                    self._fail_and_restart(shard, f"FINAL carries an unknown node: {exc}")
                    continue
                break
            architecture.dropped_payloads += int(counters.get("dropped_payloads", 0))
        end = time.perf_counter()
        return ShardedRunResult(
            workers=self.workers,
            architecture=architecture,
            traffic=architecture.traffic_report(),
            storage=architecture.storage_report(),
            total_readings_absorbed=total_absorbed,
            dropped_ipc_frames=self.dropped_ipc_frames,
            worker_restarts=self.worker_restarts,
            failure_state=self.failure_state,
            wall_s=end - begin_total,
            run_s=end - begin_run,
            worker_faults=list(self.worker_faults),
            ipc_bytes=self.ipc_bytes_received
            + sum(
                getattr(shard.channel, "bytes_read", 0)
                for shard in self._shards
                if shard.channel is not None
            ),
        )


class _ShardDied(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def run_sharded(
    workers: int,
    workload: Optional[ShardedWorkload] = None,
    catalog: Optional[SensorCatalog] = None,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    inline: bool = False,
    durable_dir: Optional[str] = None,
    durable_fog2: bool = False,
    faults: Optional[Sequence[WorkerFault]] = None,
) -> ShardedRunResult:
    """Run *workload* sharded over *workers* ingest processes.

    See :class:`ShardSupervisor`; this is the one-call entry point.  With
    ``inline=True`` the workers run in-process over in-memory channels
    (identical protocol bytes, no fork) — the mode tests use for
    deterministic coverage of the whole pipeline.
    ``durable_dir`` / ``durable_fog2`` attach durable segment logs to the
    supervisor's broad tiers (see :mod:`repro.storage.segments`).
    ``faults`` schedules per-shard deterministic kills (at most one per
    shard).
    """
    supervisor = ShardSupervisor(
        workers=workers,
        workload=workload,
        catalog=catalog,
        max_restarts=max_restarts,
        inline=inline,
        durable_dir=durable_dir,
        durable_fog2=durable_fog2,
        faults=faults,
    )
    return supervisor.run()
