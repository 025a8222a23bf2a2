"""Cross-worker equivalence, determinism and fault tests for sharded ingest.

The contract under test: ``run_sharded(workers=N)`` — acquisition and fog
layer-1 aggregation in N worker processes, results shipped to the
supervisor as binary column frames over pipes — produces **byte-identical**
Table-I reports and cloud contents for every worker count, equal to the
single-process frame path and to the pre-refactor golden fixture; and a
worker killed mid-round is re-run without changing any of that.

Real ``fork`` workers are exercised at workers ∈ {1, 2, 4} (the CI matrix
selects one leg via ``-k``); the inline (in-process channel) mode covers
the identical protocol bytes under coverage measurement.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.architecture import F2CDataManagement
from repro.messaging.broker import Broker
from repro.runtime import (
    ShardedWorkload,
    ShardSupervisor,
    WorkerFault,
    cloud_digest,
    run_sharded,
)
from repro.sensors.catalog import BARCELONA_CATALOG
from repro.sensors.generator import ReadingGenerator

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "ingest_golden.json"

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def frame_path_digest():
    """Cloud digest of the single-process binary-frame ingest path."""
    system = F2CDataManagement(catalog=BARCELONA_CATALOG)
    generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=5, seed=2024)
    sections = [s.section_id for s in system.city.sections]
    for index, device in enumerate(generator.all_devices()):
        system.assign_sensor(device.sensor_id, sections[index % len(sections)])
    broker = Broker()
    pipeline = system.api_pipeline
    pipeline.attach_broker(broker)
    for round_index, batch in enumerate(
        generator.transactions(count=4, start=0.0, interval=900.0)
    ):
        pipeline.publish_frames(broker, batch, timestamp=round_index * 900.0)
        pipeline.flush_broker(now=round_index * 900.0)
    system.synchronise(now=3600.0)
    return cloud_digest(system)


class TestThreeWayShardedEquivalence:
    """Sharded (1/2/4 workers) ≡ single-process frames ≡ golden fixture."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS, ids=lambda w: f"workers{w}")
    def test_process_workers_match_golden_and_frame_path(
        self, workers, golden, frame_path_digest
    ):
        result = run_sharded(workers=workers, workload=ShardedWorkload.golden())
        assert result.golden_report() == golden
        assert result.cloud_digest() == frame_path_digest
        assert result.worker_restarts == 0
        assert result.dropped_ipc_frames == 0
        assert result.total_readings_absorbed > 0

    @pytest.mark.parametrize("workers", WORKER_COUNTS, ids=lambda w: f"workers{w}")
    def test_inline_workers_match_golden_and_frame_path(
        self, workers, golden, frame_path_digest
    ):
        result = run_sharded(workers=workers, workload=ShardedWorkload.golden(), inline=True)
        assert result.golden_report() == golden
        assert result.cloud_digest() == frame_path_digest

    def test_full_storage_report_matches_in_process_run(self):
        """Beyond the golden keys: the whole merged report, all counters."""
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=5, seed=2024)
        sections = [s.section_id for s in system.city.sections]
        for index, device in enumerate(generator.all_devices()):
            system.assign_sensor(device.sensor_id, sections[index % len(sections)])
        for round_index, batch in enumerate(
            generator.transactions(count=4, start=0.0, interval=900.0)
        ):
            system.api_pipeline.ingest_rows(batch, now=round_index * 900.0)
        system.synchronise(now=3600.0)
        result = run_sharded(workers=2, workload=ShardedWorkload.golden(), inline=True)
        assert result.storage == system.storage_report()
        assert result.traffic == system.traffic_report()


class TestShardedDeterminism:
    """Same seed ⇒ identical output across worker counts, shard orderings
    and ``PYTHONHASHSEED`` values (PR 1's routing determinism, extended to
    the process boundary)."""

    def test_identical_across_worker_counts_including_odd(self, golden):
        digests = set()
        for workers in (1, 2, 3, 5):
            result = run_sharded(
                workers=workers, workload=ShardedWorkload.golden(), inline=True
            )
            assert result.golden_report() == golden
            digests.add(result.cloud_digest())
        assert len(digests) == 1

    def test_identical_under_reversed_shard_ordering(self, golden):
        """Worker arrival/processing order must not affect the output."""
        supervisor = ShardSupervisor(workers=4, workload=ShardedWorkload.golden(), inline=True)
        supervisor._shards.reverse()
        result = supervisor.run()
        assert result.golden_report() == golden

    def test_spread_assignment_is_deterministic_across_worker_counts(self):
        workload = ShardedWorkload(assignment="spread", devices_per_type=3, seed=5)
        reference = run_sharded(workers=1, workload=workload, inline=True)
        other = run_sharded(workers=3, workload=workload, inline=True)
        assert reference.cloud_digest() == other.cloud_digest()
        assert reference.traffic == other.traffic

    @pytest.mark.parametrize("hash_seeds", [("0", "12345")])
    def test_identical_across_interpreter_hash_seeds(self, hash_seeds):
        """Two interpreters with different hash salts, real fork workers."""
        src_path = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        snippet = (
            "import sys\n"
            f"sys.path.insert(0, {src_path!r})\n"
            "from repro.runtime import run_sharded, ShardedWorkload\n"
            "w = ShardedWorkload(devices_per_type=3, seed=99)\n"
            "r = run_sharded(workers=2, workload=w)\n"
            "print(r.cloud_digest())\n"
            "print(sorted(r.traffic.items()))\n"
        )
        outputs = []
        for seed in hash_seeds:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, env=env, check=True, timeout=300,
            )
            outputs.append(proc.stdout)
        assert outputs[0]
        assert outputs[0] == outputs[1]


class TestWorkerFaults:
    """A worker killed mid-round is detected, its sections re-run, and the
    final report still matches golden (the FailureState hook records it)."""

    @pytest.mark.parametrize("die_after_round", [0, 2], ids=["round0", "round2"])
    def test_killed_worker_is_rerun_and_report_matches_golden(
        self, golden, die_after_round
    ):
        result = run_sharded(
            workers=2,
            workload=ShardedWorkload.golden(),
            faults=[WorkerFault(shard_index=1, die_after_round=die_after_round)],
        )
        assert result.golden_report() == golden
        assert result.worker_restarts == 1
        assert result.failure_state.is_node_failed("worker-1")
        assert not result.failure_state.is_node_failed("worker-0")
        assert result.worker_faults and result.worker_faults[0]["worker"] == 1

    def test_inline_fault_recovery_matches_golden(self, golden):
        result = run_sharded(
            workers=3,
            workload=ShardedWorkload.golden(),
            faults=[WorkerFault(shard_index=0, die_after_round=1)],
            inline=True,
        )
        assert result.golden_report() == golden
        assert result.worker_restarts == 1

    def test_fault_mid_multi_sync_run_replays_absorbed_points_safely(self):
        """Death *after* an absorbed sync point: the replacement's replay of
        that point must be discarded, not double-ingested."""
        workload = ShardedWorkload.stream_rounds(devices_per_type=3, seed=7)
        clean = run_sharded(workers=2, workload=workload, inline=True)
        faulted = run_sharded(
            workers=2,
            workload=workload,
            faults=[WorkerFault(shard_index=0, die_after_round=2)],
            inline=True,
        )
        assert faulted.worker_restarts == 1
        assert faulted.golden_report() == clean.golden_report()
        assert faulted.cloud_digest() == clean.cloud_digest()

    def test_inline_worker_exception_reports_error_like_a_real_worker(self, monkeypatch):
        """Inline mode mirrors fork-worker fault semantics: a raising worker
        emits an ERROR message and is restarted; a deterministic error
        exhausts the budget as WorkerFailure instead of escaping raw."""
        from repro.runtime.supervisor import WorkerFailure
        import repro.runtime.shards as shards_module

        original = shards_module.run_shard

        def exploding_run_shard(spec, send, wait_for_go=None, die=None):
            if spec.shard_index == 0:
                raise RuntimeError("acquisition exploded")
            return original(spec, send, wait_for_go=wait_for_go, die=die or (lambda c: None))

        monkeypatch.setattr(shards_module, "run_shard", exploding_run_shard)
        supervisor = ShardSupervisor(
            workers=2, workload=ShardedWorkload.golden(), max_restarts=1, inline=True
        )
        with pytest.raises(WorkerFailure) as excinfo:
            supervisor.run()
        assert "acquisition exploded" in str(excinfo.value)
        assert supervisor.worker_faults
        assert all(fault["worker"] == 0 for fault in supervisor.worker_faults)

    def test_abandoned_run_tears_down_every_worker_and_pipe(self, monkeypatch):
        """WorkerFailure must not leak the other shards' processes or fds."""
        import multiprocessing
        import os
        from multiprocessing.process import BaseProcess

        from repro.runtime.supervisor import WorkerFailure

        killed = []
        kill = BaseProcess.kill

        def recording_kill(process):
            killed.append(process.pid)
            kill(process)

        monkeypatch.setattr(BaseProcess, "kill", recording_kill)
        # Enough rounds that the sibling's stream (~156 kB as binary-v2)
        # cannot fit a 64 KiB pipe: it is still blocked writing when the run
        # is abandoned, whichever frame format the workers ship.
        supervisor = ShardSupervisor(
            workers=2,
            workload=ShardedWorkload(rounds=24, sync_plan=((24, 21600.0),)),
            faults=[WorkerFault(shard_index=0, die_after_round=0)],
            max_restarts=0,
        )
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(WorkerFailure):
            supervisor.run()
        for shard in supervisor._shards:
            assert shard.channel is None  # closed and joined by run()'s finally
        # Everything is already reaped and closed when run() returns — pipes
        # and process sentinels alike.  The faulted worker exited by itself;
        # its sibling, blocked on a pipe nobody reads any more, was signalled
        # rather than waited for.
        assert not multiprocessing.active_children()
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert len(killed) == 1

    def test_restart_budget_exhaustion_raises(self):
        from repro.runtime.supervisor import WorkerFailure

        class _AlwaysDying(ShardSupervisor):
            def _spawn(self, shard):
                # Re-arm the fault on every (re)spawn so the shard can
                # never complete.
                if shard.spec.fault is None:
                    from dataclasses import replace

                    shard.spec = replace(
                        shard.spec, fault=WorkerFault(shard_index=shard.spec.shard_index)
                    )
                super()._spawn(shard)

        supervisor = _AlwaysDying(
            workers=2,
            workload=ShardedWorkload.golden(),
            faults=[WorkerFault(shard_index=0, die_after_round=0)],
            max_restarts=1,
            inline=True,
        )
        with pytest.raises(WorkerFailure):
            supervisor.run()
