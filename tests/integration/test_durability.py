"""End-to-end durability proofs for the segment log (PR 8's tentpole).

The contract under test, against the committed golden digests in
``data/durability_golden.json``:

* a durable run's cloud contents are byte-identical to the memory-only
  pipeline's (the log never changes what a tier stores);
* a process killed immediately after any fog2→cloud sync boundary — the
  ``fsync`` point — recovers from its segment logs alone to exactly that
  boundary's golden cloud digest, across the direct and sharded (1 and 2
  worker) drive paths;
* a process killed *inside* a sync point — after any number of the cloud
  log's appends, before its commit — recovers to the previous boundary:
  a sync point is one record, on disk whole or not at all;
* a torn tail record is dropped-and-counted on reopen, never partially
  ingested — recovery lands on the previous boundary's digest;
* a worker killed and restarted mid-run (the PR 4 fault machinery) does
  not double-append replayed sync points;
* evicting the hot stores leaves queries answerable from cold segments,
  row-identical to the in-memory engine with per-tier attribution intact.

Unit coverage of the on-disk format itself (envelope parsing, CRC repair,
compaction) lives in tests/storage/test_segments.py.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.api import recover, run_workload
from repro.core.movement import DataMovementScheduler
from repro.runtime import ShardedWorkload, WorkerFault, cloud_digest, run_sharded
from repro.sensors.catalog import BARCELONA_CATALOG

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "durability_golden.json"
SRC_PATH = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: Exit code the crash battery's child process dies with (mirrors the
#: worker-fault machinery's deliberate non-zero exit).
CRASH_EXIT = 17


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def stream_workload(golden) -> ShardedWorkload:
    return ShardedWorkload.stream_rounds(**golden["stream_workload"])


@pytest.fixture(scope="module")
def rows_at_boundary(golden, tmp_path_factory) -> list:
    """Rows in the cloud log after each sync boundary of the stream workload.

    The cloud log holds one record per sync point, so the running sum over
    its segments is what a recovery from boundary *k* must replay.
    """
    state = str(tmp_path_factory.mktemp("reference") / "state")
    client = run_workload(stream_workload(golden), durable_dir=state)
    segments = client.system.durable.log_for("cloud").segments
    client.system.durable.close()
    assert len(segments) == len(golden["boundary_cloud_sha256"])
    totals, total = [], 0
    for segment in segments:
        total += segment.rows
        totals.append(total)
    return totals


def record_boundary_digests(run) -> list:
    """Run *run()* with the cloud digest recorded after every fog2→cloud
    sync — the in-process reference the crash battery recovers against."""
    digests = []
    original = DataMovementScheduler.sync_fog2_to_cloud

    def recording(self, now=None):
        out = original(self, now)
        digests.append(cloud_digest(self.architecture))
        return out

    DataMovementScheduler.sync_fog2_to_cloud = recording
    try:
        run()
    finally:
        DataMovementScheduler.sync_fog2_to_cloud = original
    return digests


# --------------------------------------------------------------------------- #
# Durable ≡ memory, and recovery from a completed run
# --------------------------------------------------------------------------- #
class TestDurableMatchesMemory:
    def test_boundary_digests_match_the_committed_golden(self, golden):
        """Keeps the fixture honest: a memory-only run reproduces it."""
        digests = record_boundary_digests(
            lambda: run_sharded(workers=2, workload=stream_workload(golden), inline=True)
        )
        assert digests == golden["boundary_cloud_sha256"]

    def test_direct_durable_run_is_byte_identical_to_memory(self, golden, tmp_path):
        workload = stream_workload(golden)
        memory = run_workload(workload)
        durable = run_workload(workload, durable_dir=str(tmp_path / "state"))
        assert durable.cloud_digest() == memory.cloud_digest()
        assert durable.cloud_digest() == golden["boundary_cloud_sha256"][-1]

        report = durable.health()["durable"]
        assert report["enabled"] is True
        assert report["fog2"] is False  # the default: cloud log only
        assert report["segments"] > 0
        assert report["dropped_log_records"] == 0
        assert memory.health()["durable"] == {"enabled": False}
        durable.system.durable.close()

    def test_recover_from_a_completed_run(self, golden, tmp_path):
        state = str(tmp_path / "state")
        workload = stream_workload(golden)
        original = run_workload(workload, durable_dir=state)
        original.system.durable.close()

        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == golden["boundary_cloud_sha256"][-1]
        report = client.health()["durable"]
        assert report["replayed_records"] == report["segments"] > 0
        assert report["replayed_rows"] > 0
        # appended_rows counts this session's appends only; recovery replays
        # without re-appending, so a recovered deployment reports zero.
        assert report["appended_rows"] == 0

        # The recovered deployment answers queries: the cloud log rebuilt
        # the fog L2 mirrors, so windows resolve below the cloud tier.
        result = client.query(since=0.0, until=2700.0)
        assert len(result) > 0
        assert result.rows_by_tier.get("fog_layer_2", 0) > 0
        client.system.durable.close()

    def test_recover_requires_a_durable_config(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            recover(catalog=BARCELONA_CATALOG)


# --------------------------------------------------------------------------- #
# The crash battery: kill at every sync boundary × drive paths
# --------------------------------------------------------------------------- #
CRASH_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.core.movement import DataMovementScheduler

kill_after = {kill_after}
calls = [0]
original = DataMovementScheduler.sync_fog2_to_cloud

def dying(self, now=None):
    out = original(self, now)
    calls[0] += 1
    if calls[0] == kill_after:
        os._exit({exit_code})  # crash *after* the boundary commit
    return out

DataMovementScheduler.sync_fog2_to_cloud = dying
from repro.runtime import ShardedWorkload, run_sharded
workload = ShardedWorkload.stream_rounds(**{workload!r})
run_sharded(workers={workers}, workload=workload, inline={inline},
            durable_dir={durable_dir!r})
"""


def crash_at_boundary(golden, durable_dir, *, workers, kill_after, inline=True):
    child = CRASH_CHILD.format(
        src=SRC_PATH,
        kill_after=kill_after,
        exit_code=CRASH_EXIT,
        workload=golden["stream_workload"],
        workers=workers,
        inline=inline,
        durable_dir=durable_dir,
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == CRASH_EXIT, proc.stderr
    return proc


class TestCrashReplayBattery:
    @pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"workers{w}")
    @pytest.mark.parametrize("kill_after", [1, 2, 3], ids=lambda k: f"sync{k}")
    def test_killed_after_each_boundary_recovers_the_golden_digest(
        self, golden, tmp_path, workers, kill_after
    ):
        state = str(tmp_path / "state")
        crash_at_boundary(golden, state, workers=workers, kill_after=kill_after)

        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == golden["boundary_cloud_sha256"][kill_after - 1]
        report = client.health()["durable"]
        assert report["dropped_log_records"] == 0  # the tail was fsync'd
        assert report["replayed_records"] == report["segments"]
        client.system.durable.close()

    def test_fork_worker_crash_recovers_too(self, golden, tmp_path):
        """One real-process leg: the supervisor dies with live fork workers."""
        state = str(tmp_path / "state")
        crash_at_boundary(golden, state, workers=2, kill_after=2, inline=False)
        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == golden["boundary_cloud_sha256"][1]
        client.system.durable.close()

    def test_golden_workload_crash_after_final_sync_matches_golden_fixture(
        self, golden, tmp_path
    ):
        """ISSUE acceptance: recovered digest == golden fixture, byte-for-byte."""
        state = str(tmp_path / "state")
        child = CRASH_CHILD.format(
            src=SRC_PATH,
            kill_after=1,  # the golden workload has a single sync point
            exit_code=CRASH_EXIT,
            workload=None,
            workers=2,
            inline=True,
            durable_dir=state,
        ).replace(
            "workload = ShardedWorkload.stream_rounds(**None)",
            "workload = ShardedWorkload.golden()",
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == CRASH_EXIT, proc.stderr
        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == golden["golden_workload_cloud_sha256"]
        client.system.durable.close()

    def test_restarted_worker_does_not_double_append(self, golden, tmp_path):
        """PR 4 fault machinery × durability: the replacement worker's replay
        of already-absorbed sync points is discarded before the log hook."""
        state = str(tmp_path / "state")
        workload = stream_workload(golden)
        result = run_sharded(
            workers=2,
            workload=workload,
            inline=True,
            durable_dir=state,
            faults=[WorkerFault(shard_index=0, die_after_round=1)],
        )
        assert result.worker_restarts == 1
        assert result.cloud_digest() == golden["boundary_cloud_sha256"][-1]

        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == golden["boundary_cloud_sha256"][-1]
        client.system.durable.close()


# --------------------------------------------------------------------------- #
# Killed inside a sync point: between the k-th cloud append and the commit
# --------------------------------------------------------------------------- #
MID_SYNC_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.core.movement import DataMovementScheduler
from repro.storage.segments import SegmentLog

syncs = [0]
appends = [0]
original_sync = DataMovementScheduler.sync_fog2_to_cloud
original_append = SegmentLog.append

def counting_sync(self, now=None):
    syncs[0] += 1
    appends[0] = 0
    return original_sync(self, now)

def dying_append(self, child_id, columns, sync_time):
    out = original_append(self, child_id, columns, sync_time)
    if self.node_id == "cloud" and syncs[0] == {kill_sync} and len(columns):
        appends[0] += 1
        if appends[0] == {kill_append}:
            os._exit({exit_code})  # crash *inside* the sync point, before its commit
    return out

DataMovementScheduler.sync_fog2_to_cloud = counting_sync
SegmentLog.append = dying_append
from repro.api import run_workload
from repro.runtime import ShardedWorkload, run_sharded
workload = ShardedWorkload.stream_rounds(**{workload!r})
if {workers}:
    run_sharded(workers={workers}, workload=workload, inline=True, durable_dir={durable_dir!r})
else:
    run_workload(workload, durable_dir={durable_dir!r}, durable_fog2=True)
"""


def crash_inside_sync(golden, durable_dir, *, kill_sync, kill_append, workers):
    child = MID_SYNC_CHILD.format(
        src=SRC_PATH,
        kill_sync=kill_sync,
        kill_append=kill_append,
        exit_code=CRASH_EXIT,
        workload=golden["stream_workload"],
        workers=workers,
        durable_dir=durable_dir,
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
    )
    # Exit 0 would mean the sync point had fewer cloud appends than asked for.
    assert proc.returncode == CRASH_EXIT, proc.stderr


class TestKilledInsideASyncPoint:
    """A sync point's cloud appends, one per district, are one record: all or none.

    Before records were sync points, each append wrote its own record and
    the next append's ``seek`` flushed it, so a kill after the k-th append
    left k-1 child records of an uncommitted sync point on disk — and
    ``recover()`` replayed them into a cloud matching no boundary, with
    nothing counted as dropped.
    """

    # The stream workload's third sync point delivers from nine districts:
    # the first append, one in the middle, and the last one before the commit.
    @pytest.mark.parametrize("kill_append", [1, 5, 9], ids=lambda k: f"append{k}")
    def test_recovery_lands_on_the_previous_boundary(
        self, golden, rows_at_boundary, tmp_path, kill_append
    ):
        state = str(tmp_path / "state")
        crash_inside_sync(golden, state, kill_sync=3, kill_append=kill_append, workers=2)

        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == golden["boundary_cloud_sha256"][1]
        report = client.health()["durable"]
        assert report["dropped_log_records"] == 0  # nothing of sync 3 was ever written
        assert report["replayed_records"] == report["segments"] == 2
        assert report["replayed_rows"] == rows_at_boundary[1]
        client.system.durable.close()

    def test_fog2_logs_a_hop_ahead_do_not_move_the_cloud(self, golden, tmp_path):
        """Single-process drive with fog L2 logs: the fog1→fog2 hop of the
        dying sync point *was* committed; the cloud still lands on the
        boundary before it."""
        state = str(tmp_path / "state")
        crash_inside_sync(golden, state, kill_sync=2, kill_append=5, workers=0)

        client = recover(durable_dir=state, durable_fog2=True, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == golden["boundary_cloud_sha256"][0]
        report = client.health()["durable"]
        assert report["dropped_log_records"] == 0
        assert report["logs"]["cloud"]["segments"] == 1
        fog2_logs = [stats for node_id, stats in report["logs"].items() if node_id != "cloud"]
        assert max(stats["segments"] for stats in fog2_logs) == 2  # sync 2's hop is there
        client.system.durable.close()


# --------------------------------------------------------------------------- #
# Unclean serve shutdown: the service loop killed mid-run recovers too
# --------------------------------------------------------------------------- #
SERVE_CRASH_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.core.movement import DataMovementScheduler

kill_after = {kill_after}
calls = [0]
original = DataMovementScheduler.sync_fog2_to_cloud

def dying(self, now=None):
    out = original(self, now)
    calls[0] += 1
    if calls[0] == kill_after:
        os._exit({exit_code})  # kill the whole process from the serve thread
    return out

DataMovementScheduler.sync_fog2_to_cloud = dying
from repro.api import serve
from repro.common.clock import VirtualClock
from repro.runtime import ShardedWorkload
workload = ShardedWorkload.stream_rounds(**{workload!r})
handle = serve(workload, clock=VirtualClock(), durable_dir={durable_dir!r})
handle.drain(timeout=240)
"""


class TestServeCrashRecovery:
    """ISSUE satellite: ``recover()`` after an *unclean* serve shutdown.

    The serve loop dies mid-workload (``os._exit`` on its background
    thread, taking the process down with rounds still pending — no drain,
    no graceful commit); recovery from the segment logs alone must land on
    exactly the last committed sync boundary's golden digest.
    """

    @pytest.mark.parametrize("kill_after", [1, 2], ids=lambda k: f"sync{k}")
    def test_killed_serve_recovers_the_last_committed_boundary(
        self, golden, tmp_path, kill_after
    ):
        state = str(tmp_path / "state")
        child = SERVE_CRASH_CHILD.format(
            src=SRC_PATH,
            kill_after=kill_after,
            exit_code=CRASH_EXIT,
            workload=golden["stream_workload"],
            durable_dir=state,
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == CRASH_EXIT, proc.stderr

        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        assert client.cloud_digest() == golden["boundary_cloud_sha256"][kill_after - 1]
        report = client.health()["durable"]
        assert report["dropped_log_records"] == 0  # the boundary was fsync'd
        client.system.durable.close()


# --------------------------------------------------------------------------- #
# Tail damage: dropped-and-counted, never a partial ingest
# --------------------------------------------------------------------------- #
class TestTornTail:
    @pytest.mark.parametrize("torn", [0.0, 0.5, 1.0], ids=["header", "middle", "last-byte"])
    def test_truncated_tail_recovers_the_previous_boundary(
        self, golden, rows_at_boundary, tmp_path, torn
    ):
        state = str(tmp_path / "state")
        workload = stream_workload(golden)

        # Capture the cloud log's byte size at each fsync'd boundary while
        # the run executes, so the tear lands inside the one record the
        # third sync point wrote: 5 bytes into it, half way through, or one
        # byte short of whole.
        sizes = []
        original_sync = DataMovementScheduler.sync_fog2_to_cloud

        def recording(self, now=None):
            out = original_sync(self, now)
            sizes.append(self.architecture.durable.log_for("cloud").stats()["log_bytes"])
            return out

        DataMovementScheduler.sync_fog2_to_cloud = recording
        try:
            original = run_workload(workload, durable_dir=state)
        finally:
            DataMovementScheduler.sync_fog2_to_cloud = original_sync
        assert [
            seg.offset + seg.length for seg in original.system.durable.log_for("cloud").segments
        ] == sizes  # one record per sync point
        original.system.durable.close()
        kept = 5 + int(torn * (sizes[2] - sizes[1] - 6))
        path = os.path.join(state, "cloud.seglog")
        with open(path, "r+b") as fh:
            fh.truncate(sizes[1] + kept)

        client = recover(durable_dir=state, catalog=BARCELONA_CATALOG)
        report = client.health()["durable"]
        assert report["dropped_log_records"] == 1
        assert report["dropped_log_bytes"] == kept
        # The torn record is gone whole — the recovered cloud is exactly the
        # second boundary's golden state, never a partial sync point.
        assert report["replayed_rows"] == rows_at_boundary[1]
        assert client.cloud_digest() == golden["boundary_cloud_sha256"][-2]
        client.system.durable.close()


# --------------------------------------------------------------------------- #
# Cold-segment queries: evicted hot stores, row-identical answers
# --------------------------------------------------------------------------- #
def rows_of(columns):
    return list(
        zip(
            columns.timestamps,
            columns.sensor_ids,
            columns.values,
            columns.categories,
            columns.fog_node_ids,
        )
    )


def evict_fog_stores(client) -> None:
    """Empty every fog store *below* the node retention hook, so durable
    segments stay live and only the in-memory copies disappear."""
    system = client.system
    for node in list(system.fog1_nodes()) + list(system.fog2_nodes()):
        node.storage.enforce_retention(1e12)
    client.queries.invalidate()


class TestColdSegmentQueries:
    @pytest.fixture()
    def clients(self, golden, tmp_path):
        workload = stream_workload(golden)
        memory = run_workload(workload)
        durable = run_workload(
            workload, durable_dir=str(tmp_path / "state"), durable_fog2=True
        )
        yield memory, durable
        durable.system.durable.close()

    def test_evicted_windows_answer_row_identical_from_cold_segments(self, clients):
        memory, durable = clients
        evict_fog_stores(memory)
        evict_fog_stores(durable)

        for kwargs in (
            {"since": 0.0, "until": 2700.0},  # city-wide scatter
            {"since": 0.0, "until": 900.0, "category": "energy"},
            {"since": 900.0, "until": 1800.0, "section_id": "district-01/section-01"},
        ):
            reference = memory.query(**kwargs)
            cold = durable.query(**kwargs)
            assert rows_of(cold.columns) == rows_of(reference.columns), kwargs
            assert len(cold) == len(reference)

        stats = durable.queries.stats()
        assert stats["cold_segment_queries"] > 0
        assert stats["cold_store_builds"] > 0

    def test_cold_serving_keeps_nearest_tier_attribution(self, clients):
        memory, durable = clients
        evict_fog_stores(memory)
        evict_fog_stores(durable)
        window = {"since": 0.0, "until": 1800.0}

        # Memory-only: the evicted fog tiers cannot serve, rows fall to cloud.
        assert memory.query(**window).tiers() == ("cloud",)
        # Durable: the fog L2 segment logs regain the nearest broad tier.
        cold = durable.query(**window)
        assert cold.rows_by_tier.get("fog_layer_2", 0) == len(cold)

    def test_cold_stores_are_cached_across_queries(self, clients):
        _, durable = clients
        evict_fog_stores(durable)
        durable.query(since=0.0, until=900.0)
        builds = durable.queries.stats()["cold_store_builds"]
        durable.queries.invalidate()  # result memo cleared, cold cache kept
        durable.query(since=0.0, until=900.0)
        assert durable.queries.stats()["cold_store_builds"] == builds

    def test_cold_store_lru_bound_and_eviction_visibility(self, golden, tmp_path):
        """ISSUE satellite: hydrated cold stores live in a byte-accounted
        LRU; evictions are counted and surface through health()."""
        durable = run_workload(
            stream_workload(golden),
            durable_dir=str(tmp_path / "state"),
            durable_fog2=True,
        )
        evict_fog_stores(durable)
        service = durable.queries
        durable.query(since=0.0, until=900.0, section_id="district-01/section-01")
        durable.query(since=0.0, until=900.0, section_id="district-02/section-01")
        resident = service.stats()["cold_store_bytes"]
        assert resident > 0
        assert service.stats()["cold_stores"] == 2  # one shadow per fog2 node
        # Shrink the budget to exactly the resident set: a third district's
        # hydration must evict the least-recently-served shadow store.
        service.cold_store_capacity_bytes = resident
        durable.query(since=0.0, until=900.0, section_id="district-03/section-01")
        stats = service.stats()
        assert stats["cold_store_evictions"] >= 1
        assert stats["cold_store_bytes"] <= stats["cold_store_capacity_bytes"]
        health = durable.health()["queries"]
        assert health["cold_store_evictions"] == stats["cold_store_evictions"]
        assert health["cold_store_capacity_bytes"] == resident
        durable.system.durable.close()

    def test_oversized_hydration_is_served_uncached(self, golden, tmp_path):
        durable = run_workload(
            stream_workload(golden),
            durable_dir=str(tmp_path / "state"),
            durable_fog2=True,
        )
        evict_fog_stores(durable)
        service = durable.queries
        service.cold_store_capacity_bytes = 1  # smaller than any hydration
        window = {"since": 0.0, "until": 900.0, "section_id": "district-01/section-01"}
        first = durable.query(**window)
        assert len(first) > 0  # still answered, just not cached
        assert service.stats()["cold_stores"] == 0
        assert service.stats()["cold_store_evictions"] == 0  # refused up front
        builds = service.stats()["cold_store_builds"]
        service.invalidate()  # drop the window memo so the store is consulted
        durable.query(**window)
        assert service.stats()["cold_store_builds"] > builds  # rebuilt per use
        durable.system.durable.close()

    def test_cold_store_capacity_flows_from_config(self, golden, tmp_path):
        durable = run_workload(
            stream_workload(golden),
            durable_dir=str(tmp_path / "state"),
            cold_store_cache_bytes=12345,
        )
        assert durable.queries.cold_store_capacity_bytes == 12345
        assert durable.health()["queries"]["cold_store_capacity_bytes"] == 12345
        durable.system.durable.close()

    def test_ttl_eviction_drops_whole_segments_from_the_index(self, golden, tmp_path):
        durable = run_workload(
            stream_workload(golden),
            durable_dir=str(tmp_path / "state"),
            durable_fog2=True,
        )
        fog2 = next(iter(durable.system.fog2_nodes()))
        log = fog2.segment_log
        assert log.segment_count > 0
        max_age = fog2.storage.retention.max_age_seconds
        before_bytes = log.stats()["log_bytes"]
        fog2.enforce_retention(now=2700.0 + max_age + 1.0)
        assert log.segment_count == 0
        assert log.dropped_segments > 0
        # O(1) index drops: the bytes wait for compact().
        assert log.stats()["log_bytes"] == before_bytes
        assert log.compact() > 0
        durable.system.durable.close()
