"""Service mode end to end (PR 9's tentpole).

The contract under test:

* a :class:`~repro.common.clock.VirtualClock`-paced serve run reproduces
  the run-to-completion cloud digest byte-for-byte — per transport, with
  concurrent clients querying throughout (the ISSUE acceptance criterion);
* reads are safe under concurrent ingest: the serve lock makes each
  mutation atomic with its memo/sketch invalidation, so interleaved
  tick/query threads never observe a stale memo or a half-applied round
  (the bugfix heart of the PR);
* bounded broker inboxes shed visibly — conservation holds end to end
  (offered = ingested + broker shed + dropped payloads);
* the sharded transport serves from the supervisor fan-in, stops
  gracefully at a sync barrier, and its durable logs recover to the last
  committed boundary;
* the handle lifecycle: context manager, drain, graceful abort, error
  propagation, configuration validation.

Unclean (crash) shutdown × recovery lives in test_durability.py.
"""

import json
import pathlib
import threading

import pytest

from repro.api import PipelineConfig, recover, run_workload, serve
from repro.api.serving import ServeHandle
from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError, ValidationError
from repro.runtime import ShardedWorkload
from repro.sensors.catalog import BARCELONA_CATALOG

DURABILITY_GOLDEN = pathlib.Path(__file__).parent / "data" / "durability_golden.json"


@pytest.fixture(scope="module")
def durability_golden():
    return json.loads(DURABILITY_GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_digest():
    """The run-to-completion reference digest for the golden workload."""
    return run_workload(ShardedWorkload.golden()).cloud_digest()


def query_forever(handle, counts, stop=None, about_to_query=None):
    """A client thread: hammer the live service until the loop finishes.

    *about_to_query* is a barrier shared with a ``round_hook`` holding
    round 0: the client reports in once it has seen the loop running and
    is about to issue its first query, so "every client queried the live
    service" is a property of the run, not of the thread scheduler.
    """
    while handle.running and (stop is None or not stop.is_set()):
        if about_to_query is not None:
            about_to_query.wait(timeout=60)
            about_to_query = None
        result = handle.submit_query()
        counts.append(len(result))


# --------------------------------------------------------------------------- #
# Virtual-clock determinism (the ISSUE acceptance criterion)
# --------------------------------------------------------------------------- #
class TestVirtualClockDeterminism:
    def test_serve_reproduces_run_digest_under_concurrent_load(self, golden_digest):
        counts_per_client = [[] for _ in range(4)]
        # A virtual-clock serve drains in microseconds — faster than a
        # thread starts.  Round 0 waits (under the serve lock) until every
        # client is past its ``handle.running`` check, so each one is
        # answered by the live service whatever the scheduler does.
        clients_ready = threading.Barrier(len(counts_per_client) + 1)

        def hold_round_zero(_handle, round_index, _readings):
            if round_index == 0:
                clients_ready.wait(timeout=60)

        handle = serve(
            ShardedWorkload.golden(),
            clock=VirtualClock(seed=7),
            round_hook=hold_round_zero,
        )
        clients = [
            threading.Thread(
                target=query_forever,
                args=(handle, counts),
                kwargs={"about_to_query": clients_ready},
            )
            for counts in counts_per_client
        ]
        for thread in clients:
            thread.start()
        assert handle.drain(timeout=120)
        for thread in clients:
            thread.join()

        assert handle.cloud_digest() == golden_digest
        stats = handle.shutdown()
        assert stats["completed"] is True
        assert stats["rounds_ingested"] == stats["total_rounds"] == 4
        assert stats["syncs_completed"] == stats["total_syncs"] == 1
        assert stats["readings_offered"] == stats["readings_ingested"] == 420
        # Every client got answers, and the deployment only ever grew.
        assert stats["queries_served"] >= sum(len(c) for c in counts_per_client) > 0
        for counts in counts_per_client:
            assert counts, "a client never reached the live service"
            assert counts == sorted(counts)
            assert counts[-1] <= 420

    def test_jittered_pacing_does_not_change_the_data(self, golden_digest):
        clock = VirtualClock(seed=3, jitter_s=5.0)
        config = PipelineConfig(serve_tick_interval_s=60.0)
        handle = serve(ShardedWorkload.golden(), config, clock=clock)
        assert handle.drain(timeout=120)
        assert handle.cloud_digest() == golden_digest
        assert clock.sleeps == 4  # one virtual wait per round
        assert clock.now() >= 4 * 60.0  # jitter only ever overshoots
        handle.shutdown()

    @pytest.mark.parametrize(
        "transport", ["direct", "broker-csv", "frames-binary-v2"]
    )
    def test_each_transport_matches_its_own_run_digest(self, transport):
        workload = ShardedWorkload.golden()
        reference = run_workload(workload, transport=transport).cloud_digest()
        handle = serve(workload, transport=transport, clock=VirtualClock())
        assert handle.drain(timeout=120)
        assert handle.cloud_digest() == reference
        handle.shutdown()

    def test_sharded_serve_matches_the_run_digest(self, golden_digest):
        handle = serve(
            ShardedWorkload.golden(),
            transport="sharded",
            workers=2,
            inline_workers=True,
        )
        counts = []
        client = threading.Thread(target=query_forever, args=(handle, counts))
        client.start()
        assert handle.drain(timeout=120)
        client.join()
        assert handle.cloud_digest() == golden_digest
        stats = handle.shutdown()
        assert stats["completed"] is True
        assert stats["syncs_completed"] == 1


# --------------------------------------------------------------------------- #
# The serve lock: reads safe under concurrent ingest (the bugfix)
# --------------------------------------------------------------------------- #
class TestConcurrentReadConsistency:
    def test_interleaved_tick_and_query_threads_never_see_stale_memos(self):
        """Regression for the memo-invalidation race: a query memoized just
        before a tick must never be served after it.  Observable effect of
        the race: a full-window count that *decreases* (stale memo served
        after newer rounds landed) or a final count short of the total."""
        workload = ShardedWorkload.stream_rounds(
            devices_per_type=2, seed=5, duration_s=5400.0, round_s=300.0
        )
        handle = serve(workload)  # wall clock, no pacing: maximum interleaving
        counts_per_client = [[] for _ in range(2)]
        clients = [
            threading.Thread(target=query_forever, args=(handle, counts))
            for counts in counts_per_client
        ]
        for thread in clients:
            thread.start()
        assert handle.drain(timeout=120)
        for thread in clients:
            thread.join()

        stats = handle.shutdown()
        assert stats["completed"] is True
        for counts in counts_per_client:
            assert counts == sorted(counts), "a query observed a rollback"
        # After the loop finished, the full window holds every ingested row.
        assert len(handle.submit_query()) == stats["readings_ingested"] > 0

    def test_repeated_window_is_memo_consistent_across_ticks(self):
        """The same window asked twice in a row with no tick in between must
        return identical counts; across ticks it may only grow.  A memo
        served stale after an invalidation point would break either way."""
        workload = ShardedWorkload.stream_rounds(
            devices_per_type=2, seed=5, duration_s=2700.0, round_s=300.0
        )
        handle = serve(workload)
        violations = []

        def paired_queries():
            while handle.running:
                first = handle.submit_query(since=0.0, until=2700.0)
                second = handle.submit_query(since=0.0, until=2700.0)
                # Between the two calls a tick may land, so second >= first;
                # smaller would mean a stale memo outlived an invalidation.
                if len(second) < len(first):
                    violations.append((len(first), len(second)))

        clients = [threading.Thread(target=paired_queries) for _ in range(2)]
        for thread in clients:
            thread.start()
        assert handle.drain(timeout=120)
        for thread in clients:
            thread.join()
        handle.shutdown()
        assert violations == []


# --------------------------------------------------------------------------- #
# Bounded inboxes: conservation, visible in health (the CI smoke contract)
# --------------------------------------------------------------------------- #
class TestConservation:
    def test_offered_equals_ingested_plus_counted_losses(self):
        workload = ShardedWorkload.golden()
        handle = serve(
            workload,
            transport="broker-csv",
            serve_inbox_limit=2,
            clock=VirtualClock(),
        )
        counts = []
        client = threading.Thread(target=query_forever, args=(handle, counts))
        client.start()
        assert handle.drain(timeout=120)
        client.join()

        health = handle.health()
        stats = handle.shutdown()
        broker = health["broker"]
        assert broker["attached"] is True
        assert broker["inbox_limit"] == 2
        # Nothing vanishes silently: every reading the workload offered is
        # either acquired, shed by the bounded broker (counted), or dropped
        # as a malformed payload (counted).
        assert stats["readings_offered"] == (
            stats["readings_ingested"]
            + broker["shed_messages"]
            + health["conservation"]["dropped_payloads"]
        )
        assert health["serve"]["completed"] is True

    def test_unbounded_serve_matches_run_health(self):
        workload = ShardedWorkload.golden()
        reference = run_workload(workload, transport="broker-csv")
        handle = serve(workload, transport="broker-csv", clock=VirtualClock())
        assert handle.drain(timeout=120)
        health = handle.health()
        assert health["broker"]["shed_messages"] == 0
        assert (
            health["conservation"]["dropped_payloads"]
            == reference.health()["conservation"]["dropped_payloads"]
        )
        assert handle.cloud_digest() == reference.cloud_digest()
        handle.shutdown()


# --------------------------------------------------------------------------- #
# Graceful shutdown × durability: stop lands on a committed boundary
# --------------------------------------------------------------------------- #
class GatedClock:
    """A pacing clock the test controls: each serve tick needs a permit."""

    def __init__(self):
        self._permits = threading.Semaphore(0)
        self.released = threading.Event()
        self._now = 0.0

    def now(self):
        return self._now

    def sleep(self, seconds):
        while not self._permits.acquire(timeout=0.02):
            if self.released.is_set():
                return
        self._now += seconds

    def grant(self, ticks=1):
        for _ in range(ticks):
            self._permits.release()


def wait_for(predicate, timeout=60.0):
    done = threading.Event()
    deadline = threading.Timer(timeout, done.set)
    deadline.start()
    try:
        while not predicate():
            if done.is_set():
                raise AssertionError("timed out waiting for the serve loop")
            done.wait(0.01)
    finally:
        deadline.cancel()


class TestGracefulShutdown:
    def test_abort_recovers_to_the_last_committed_boundary(
        self, durability_golden, tmp_path
    ):
        """Graceful abort mid-workload: the completed sync boundary survives;
        the never-synced round after it is (by design) not durable."""
        state = str(tmp_path / "state")
        workload = ShardedWorkload.stream_rounds(
            **durability_golden["stream_workload"]
        )
        clock = GatedClock()
        handle = serve(workload, durable_dir=state, clock=clock)
        clock.grant(1)  # round 1 lands; sync 1 commits right after it
        wait_for(lambda: handle.stats()["syncs_completed"] == 1)
        clock.released.set()  # unblock the pacing wait so the stop is seen
        stats = handle.shutdown(drain=False)
        assert stats["completed"] is False
        assert stats["syncs_completed"] == 1
        handle.client.system.durable.close()

        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == durability_golden["boundary_cloud_sha256"][0]
        client.system.durable.close()

    def test_sharded_stop_request_exits_at_the_next_sync_barrier(
        self, durability_golden, tmp_path, monkeypatch
    ):
        state = str(tmp_path / "state")
        workload = ShardedWorkload.stream_rounds(
            **durability_golden["stream_workload"]
        )
        original = ServeHandle._sharded_sync_complete

        def stop_after_first(self, sync_index):
            original(self, sync_index)
            if sync_index == 0:
                self._supervisor.request_stop()

        monkeypatch.setattr(ServeHandle, "_sharded_sync_complete", stop_after_first)
        handle = serve(
            workload,
            transport="sharded",
            workers=2,
            inline_workers=True,
            durable_dir=state,
        )
        assert handle.drain(timeout=120)
        stats = handle.shutdown()
        assert stats["completed"] is False
        assert stats["syncs_completed"] == 1
        assert handle.result.stopped_early is True
        assert handle.cloud_digest() == durability_golden["boundary_cloud_sha256"][0]
        handle.client.system.durable.close()

        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == durability_golden["boundary_cloud_sha256"][0]
        client.system.durable.close()


# --------------------------------------------------------------------------- #
# Handle lifecycle
# --------------------------------------------------------------------------- #
class TestHandleLifecycle:
    def test_context_manager_drains_and_stops(self, golden_digest):
        with serve(ShardedWorkload.golden(), clock=VirtualClock()) as handle:
            result = handle.submit_query()
            assert len(result) >= 0  # live query before completion
        assert not handle.running
        assert handle.cloud_digest() == golden_digest

    def test_shutdown_is_idempotent(self):
        handle = serve(ShardedWorkload.golden(), clock=VirtualClock())
        first = handle.shutdown()
        second = handle.shutdown()
        assert first == second

    def test_serve_thread_errors_surface_on_drain(self, monkeypatch):
        from repro.api.pipeline import IngestSession

        def boom(self, readings, now=None, default_section=None):
            raise RuntimeError("transport wedged")

        monkeypatch.setattr(IngestSession, "ingest", boom)
        handle = serve(ShardedWorkload.golden(), clock=VirtualClock())
        with pytest.raises(RuntimeError, match="transport wedged"):
            handle.drain(timeout=60)

    def test_health_carries_the_serve_section(self):
        handle = serve(ShardedWorkload.golden(), clock=VirtualClock())
        assert handle.drain(timeout=120)
        health = handle.health()
        assert health["serve"]["completed"] is True
        assert health["serve"]["queries_served"] == 0
        assert health["broker"] == {"attached": False}
        handle.shutdown()

    def test_summarize_is_served_under_the_lock(self):
        handle = serve(ShardedWorkload.golden(), clock=VirtualClock())
        assert handle.drain(timeout=120)
        summary = handle.summarize(category="energy")
        assert summary.rows >= 0
        assert handle.stats()["queries_served"] == 1
        handle.shutdown()

    def test_nan_window_is_rejected_and_the_lock_released(self):
        handle = serve(ShardedWorkload(devices_per_type=2, rounds=3), clock=VirtualClock())
        assert handle.drain(timeout=120)
        nan = float("nan")
        with pytest.raises(ValidationError, match="NaN"):
            handle.submit_query(since=nan, until=2000.0)
        with pytest.raises(ValidationError, match="NaN"):
            handle.submit_query(until=nan)
        with pytest.raises(ValidationError, match="NaN"):
            handle.summarize(since=nan, until=2000.0)
        assert len(handle.submit_query(until=2000.0)) == 126
        handle.shutdown()

    def test_clock_must_expose_sleep(self):
        from repro.common.clock import SimulatedClock

        with pytest.raises(ConfigurationError, match="sleep"):
            serve(ShardedWorkload.golden(), clock=SimulatedClock())

    def test_serve_config_validation(self):
        with pytest.raises(ConfigurationError, match="serve_tick_interval_s"):
            PipelineConfig(serve_tick_interval_s=-1.0)
        with pytest.raises(ConfigurationError, match="serve_inbox_limit"):
            PipelineConfig(serve_inbox_limit=0)
        with pytest.raises(ConfigurationError, match="serve_drain_timeout_s"):
            PipelineConfig(serve_drain_timeout_s=0.0)

    def test_handle_needs_exactly_one_drive_mode(self):
        client = run_workload(ShardedWorkload.golden())
        with pytest.raises(ConfigurationError, match="exactly one"):
            ServeHandle(client, workload=ShardedWorkload.golden())
