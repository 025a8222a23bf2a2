"""Unit tests for the shard model, the worker loop, and the merge APIs.

Everything here runs in-process: :func:`run_shard` writes through a plain
callable and the supervisor-side merge entries on
:class:`F2CDataManagement` are exercised directly, so the whole sharded
pipeline minus ``fork`` is under coverage.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.architecture import F2CDataManagement
from repro.network.topology import LayerName
from repro.runtime import ipc
from repro.runtime.shards import (
    ShardedWorkload,
    WorkerFault,
    WorkerSpec,
    build_shard_rounds,
    run_shard,
    shard_of_section,
    shard_section_ids,
)
from repro.sensors.catalog import BARCELONA_CATALOG
from repro.sensors.generator import ReadingGenerator
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns
from tests.conftest import make_reading


class TestShardPartition:
    def test_partition_is_total_and_disjoint(self):
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        sections = [s.section_id for s in system.city.sections]
        for workers in (1, 2, 3, 4, 7):
            owned = [shard_section_ids(system.city, workers, i) for i in range(workers)]
            flattened = [s for shard in owned for s in shard]
            assert sorted(flattened) == sorted(sections)
            assert len(flattened) == len(set(flattened))

    def test_partition_is_stable_crc32(self):
        import zlib

        assert shard_of_section("d-01/s-01", 4) == zlib.crc32(b"d-01/s-01") % 4

    def test_single_worker_owns_everything(self):
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        assert len(shard_section_ids(system.city, 1, 0)) == system.city.section_count

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_of_section("d-01/s-01", 0)


class TestWorkloadValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedWorkload(kind="nope")

    def test_bad_assignment_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedWorkload(assignment="nope")

    def test_decreasing_sync_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedWorkload(sync_plan=((2, 1800.0), (1, 3600.0)))

    def test_empty_sync_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedWorkload(sync_plan=())

    def test_sync_plan_must_cover_every_round(self):
        # Rounds past the last sync point would silently never be ingested.
        with pytest.raises(ConfigurationError):
            ShardedWorkload(rounds=6)  # default plan syncs after round 4
        with pytest.raises(ConfigurationError):
            ShardedWorkload(
                kind="stream", duration_s=3600.0, round_s=900.0,
                sync_plan=((2, 1800.0),),
            )
        # Covering more rounds than exist is fine (run_shard caps).
        ShardedWorkload(rounds=2)

    def test_stream_rounds_plan_covers_duration(self):
        workload = ShardedWorkload.stream_rounds(duration_s=3600.0, round_s=900.0)
        assert workload.sync_plan == ((1, 900.0), (2, 1800.0), (3, 2700.0), (4, 3600.0))
        assert workload.round_count() == 4

    def test_shard_index_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            WorkerSpec(shard_index=2, workers=2, workload=ShardedWorkload.golden())


class TestPerShardGeneration:
    """Per-shard regeneration must be bit-identical to the full stream."""

    def test_shard_rounds_are_a_partition_of_the_full_transactions(self):
        workload = ShardedWorkload.golden()
        workers = 3
        full_generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=5, seed=2024)
        full_rounds = [
            list(batch)
            for batch in full_generator.transactions(count=4, start=0.0, interval=900.0)
        ]
        merged = [dict() for _ in range(4)]
        for shard_index in range(workers):
            spec = WorkerSpec(
                shard_index=shard_index, workers=workers, workload=workload,
                catalog=BARCELONA_CATALOG,
            )
            system = F2CDataManagement(catalog=BARCELONA_CATALOG)
            generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=5, seed=2024)
            rounds = build_shard_rounds(spec, system, generator)
            assert len(rounds) == 4
            for round_index, (timestamp, readings) in enumerate(rounds):
                assert timestamp == round_index * 900.0
                for reading in readings:
                    assert reading.sensor_id not in merged[round_index]
                    merged[round_index][reading.sensor_id] = reading
        for round_index, full in enumerate(full_rounds):
            assert len(full) == len(merged[round_index])
            for reading in full:
                assert merged[round_index][reading.sensor_id] == reading

    def test_stream_kind_matches_benchmark_round_grouping(self):
        workload = ShardedWorkload.stream_rounds(devices_per_type=3, seed=7)
        spec = WorkerSpec(shard_index=0, workers=1, workload=workload,
                          catalog=BARCELONA_CATALOG)
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=3, seed=7)
        rounds = build_shard_rounds(spec, system, generator)
        assert [t for t, _ in rounds] == [900.0, 1800.0, 2700.0, 3600.0]
        for round_end, readings in rounds:
            assert list(readings) == sorted(readings, key=lambda r: r.timestamp)
            for reading in readings:
                assert round_end - 900.0 <= reading.timestamp < round_end

    @pytest.mark.parametrize("assignment", ["round_robin", "spread"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_stream_rounds_materialise_to_the_sorted_reading_stream(self, assignment, workers):
        from dataclasses import replace

        workload = replace(
            ShardedWorkload.stream_rounds(devices_per_type=3, seed=7), assignment=assignment
        )
        for shard_index in range(workers):
            spec = WorkerSpec(
                shard_index=shard_index, workers=workers, workload=workload,
                catalog=BARCELONA_CATALOG,
            )
            generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=3, seed=7)
            rounds = build_shard_rounds(spec, F2CDataManagement(catalog=BARCELONA_CATALOG), generator)
            # The reference: the same shard's devices, sampled reading by
            # reading, sorted by timestamp and bucketed per round.
            system = F2CDataManagement(catalog=BARCELONA_CATALOG)
            sections = [s.section_id for s in system.city.sections]
            twin = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=3, seed=7)
            devices = twin.shard_devices(
                lambda index, device: shard_of_section(
                    sections[index % len(sections)]
                    if assignment == "round_robin"
                    else system.spread_section(device.sensor_id),
                    workers,
                )
                == shard_index
            )
            stream = sorted(
                ReadingGenerator.stream_for(devices, 0.0, workload.duration_s),
                key=lambda r: r.timestamp,
            )
            assert len(rounds) == workload.round_count()
            for slot, (round_end, batch) in enumerate(rounds):
                assert isinstance(batch, ReadingBatch)
                assert round_end == (slot + 1) * workload.round_s
                expected = [r for r in stream if int(r.timestamp // workload.round_s) == slot]
                assert len(batch) == len(expected) and bool(batch) == bool(expected)
                assert list(batch) == expected
            # Sampled column-wise, the devices are left exactly where the
            # reading-by-reading twin's are.
            state = lambda d: (d.sensor_id, d.samples_emitted, d._last_value, d._rng.getstate())
            assert [state(d) for d in generator.all_devices() if d.samples_emitted] == [
                state(d) for d in devices
            ]

    @pytest.mark.parametrize("transport", ["direct", "frames-binary-v2"])
    def test_stream_rounds_are_ingested_without_building_a_reading(self, transport, monkeypatch):
        from repro.api import connect

        built = []
        init = Reading.__init__

        def counting_init(reading, *args, **kwargs):
            built.append(reading)
            init(reading, *args, **kwargs)

        monkeypatch.setattr(Reading, "__init__", counting_init)
        workload = ShardedWorkload.stream_rounds(devices_per_type=3, seed=7)
        client = connect(transport=transport, catalog=BARCELONA_CATALOG)
        spec = WorkerSpec(shard_index=0, workers=1, workload=workload, catalog=BARCELONA_CATALOG)
        generator = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=3, seed=7)
        rounds = build_shard_rounds(spec, client.system, generator)
        offered = acquired = 0
        for timestamp, batch in rounds:
            offered += len(batch)
            acquired += sum(client.ingest(batch, now=timestamp).values())
            client.synchronise(now=timestamp)
        assert 0 < acquired < offered  # the batch-scope dedup dropped the repeats
        assert len(client.system.cloud.storage) == acquired
        assert built == []
        # The counter does count: asking for per-reading access builds them.
        assert len(list(rounds[0][1])) == len(built) > 0

    def test_generator_shard_helpers_sample_identically(self):
        full = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=4, seed=11)
        subset = ReadingGenerator(BARCELONA_CATALOG, devices_per_type=4, seed=11)
        keep = lambda index, device: index % 3 == 1
        kept = subset.shard_devices(keep)
        batch = ReadingGenerator.transaction_for(kept, 900.0)
        full_batch = full.transaction(900.0)
        by_id = {r.sensor_id: r for r in full_batch}
        assert len(batch) == len(kept) > 0
        for reading in batch:
            assert reading == by_id[reading.sensor_id]


class TestRunShardProtocol:
    @staticmethod
    def _run(spec):
        messages = []
        run_shard(spec, lambda payload: messages.append(ipc.decode_message(payload)))
        return messages

    @pytest.mark.parametrize("workers", [1, 2, 4], ids=lambda w: f"workers{w}")
    def test_message_sequence_shape(self, workers):
        """READY, then per sync point one BATCH (if anything drained) and one
        SYNC_DONE, then FINAL; the shards' tables partition the sections."""
        workload = ShardedWorkload(sync_plan=((2, 1800.0), (4, 3600.0)))
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        canonical = [node.node_id for node in system.fog1_nodes()]
        seen_per_sync = [[] for _ in workload.sync_plan]
        for shard_index in range(workers):
            spec = WorkerSpec(shard_index=shard_index, workers=workers,
                              workload=workload, catalog=BARCELONA_CATALOG)
            messages = self._run(spec)
            # Every shard owns sections with devices, so neither sync point
            # is empty: exactly one BATCH, then the SYNC_DONE closing it.
            assert [(t, body.get("sync_index")) for t, body in messages] == [
                (ipc.MSG_READY, None),
                (ipc.MSG_BATCH, 0), (ipc.MSG_SYNC_DONE, 0),
                (ipc.MSG_BATCH, 1), (ipc.MSG_SYNC_DONE, 1),
                (ipc.MSG_FINAL, None),
            ]
            owned = {f"fog1/{s}" for s in shard_section_ids(system.city, workers, shard_index)}
            for msg_type, body in messages:
                if msg_type != ipc.MSG_BATCH:
                    continue
                # One BATCH carries the whole sync point: owned nodes only,
                # each non-empty, in canonical section order.
                table = list(body["batches"])
                assert set(table) <= owned
                assert table == [node_id for node_id in canonical if node_id in set(table)]
                assert all(len(columns) for columns in body["batches"].values())
                seen_per_sync[body["sync_index"]].extend(table)
        # Every section has devices on the golden layout: over all shards,
        # each sync point's tables name every section exactly once.
        for table in seen_per_sync:
            assert sorted(table) == sorted(canonical)

    def test_sync_point_with_nothing_drained_sends_no_batch(self):
        # Two sync points after the only rounds: the second has nothing
        # pending, so it is closed by a bare SYNC_DONE.
        workload = ShardedWorkload(sync_plan=((4, 3600.0), (4, 7200.0)))
        spec = WorkerSpec(shard_index=0, workers=2, workload=workload, catalog=BARCELONA_CATALOG)
        types = [(t, body.get("sync_index")) for t, body in self._run(spec)]
        assert types == [
            (ipc.MSG_READY, None), (ipc.MSG_BATCH, 0), (ipc.MSG_SYNC_DONE, 0),
            (ipc.MSG_SYNC_DONE, 1), (ipc.MSG_FINAL, None),
        ]

    def test_edge_transfers_cover_only_own_sections(self):
        spec = WorkerSpec(shard_index=1, workers=2,
                          workload=ShardedWorkload.golden(), catalog=BARCELONA_CATALOG)
        messages = self._run(spec)
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        own_sections = set(shard_section_ids(system.city, 2, 1))
        sync_done = next(body for t, body in messages if t == ipc.MSG_SYNC_DONE)
        assert sync_done["edge_transfers"]
        for record in sync_done["edge_transfers"]:
            assert record["source"].startswith("sensors/")
            assert record["source"].split("sensors/")[1] in own_sections
            assert record["target"].split("fog1/")[1] in own_sections

    def test_final_stats_cover_every_owned_section_even_idle_ones(self):
        spec = WorkerSpec(shard_index=0, workers=4,
                          workload=ShardedWorkload.golden(), catalog=BARCELONA_CATALOG)
        messages = self._run(spec)
        final = next(body for t, body in messages if t == ipc.MSG_FINAL)
        system = F2CDataManagement(catalog=BARCELONA_CATALOG)
        owned = {f"fog1/{s}" for s in shard_section_ids(system.city, 4, 0)}
        assert set(final["fog1_stats"]) == owned
        assert final["counters"] == {"dropped_payloads": 0}

    def test_fault_injection_dies_at_the_requested_round(self):
        died = []

        def fake_die(code):
            died.append(code)
            raise _Died()

        class _Died(Exception):
            pass

        messages = []
        spec = WorkerSpec(
            shard_index=0, workers=1, workload=ShardedWorkload.golden(),
            catalog=BARCELONA_CATALOG, fault=WorkerFault(shard_index=0, die_after_round=1),
        )
        with pytest.raises(_Died):
            run_shard(spec, lambda p: messages.append(ipc.decode_message(p)), die=fake_die)
        assert died == [17]
        # Nothing past READY was shipped: death precedes the only sync.
        assert [t for t, _ in messages] == [ipc.MSG_READY]

    def test_fault_for_other_shard_is_ignored(self):
        spec = WorkerSpec(
            shard_index=0, workers=2, workload=ShardedWorkload.golden(),
            catalog=BARCELONA_CATALOG, fault=WorkerFault(shard_index=1, die_after_round=0),
        )
        messages = self._run(spec)
        assert messages[-1][0] == ipc.MSG_FINAL

    def test_without_fault_strips_the_fault(self):
        spec = WorkerSpec(
            shard_index=0, workers=1, workload=ShardedWorkload.golden(),
            fault=WorkerFault(shard_index=0),
        )
        assert spec.without_fault().fault is None


class TestArchitectureMergeApis:
    def test_receive_worker_columns_matches_local_drain(self, small_city, small_catalog):
        """The absorb hop must equal the in-process fog1→fog2 sync."""

        def seeded_system():
            system = F2CDataManagement(city=small_city, catalog=small_catalog)
            readings = [
                make_reading(sensor_id=f"rwb-{i}", timestamp=1.0, size_bytes=40)
                for i in range(6)
            ]
            system.api_pipeline.ingest_rows(readings, now=1.0, default_section="d-01/s-01")
            return system

        local = seeded_system()
        local.synchronise(now=10.0)

        remote = F2CDataManagement(city=small_city, catalog=small_catalog)
        worker = seeded_system()
        node = worker.fog1_for_section("d-01/s-01")
        drained = node.drain_for_upward()
        moved = remote.receive_worker_columns(node.node_id, drained.columns, now=10.0)
        assert moved == drained.total_bytes
        for record in worker.simulator.accountant.records:
            remote.merge_edge_transfers([
                {
                    "timestamp": record.timestamp,
                    "source": record.source,
                    "target": record.target,
                    "size_bytes": record.size_bytes,
                    "message_count": record.message_count,
                }
            ])
        remote.scheduler.sync_fog2_to_cloud(now=10.0)
        assert remote.traffic_report() == local.traffic_report()
        assert len(remote.cloud.storage) == len(local.cloud.storage)

    def test_receive_worker_columns_validates_node_id(self, small_city, small_catalog):
        from repro.common.errors import RoutingError

        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        with pytest.raises(RoutingError):
            system.receive_worker_columns("fog1/not-a-section", ReadingColumns(), now=0.0)

    def test_merge_edge_transfers_lands_in_fog1_layer(self, small_city, small_catalog):
        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        merged = system.merge_edge_transfers(
            [
                {"timestamp": 1.0, "source": "sensors/a", "target": "fog1/d-01/s-01",
                 "size_bytes": 100, "message_count": 3},
                {"timestamp": 2.0, "source": "sensors/b", "target": "fog1/d-01/s-02",
                 "size_bytes": 50},
            ]
        )
        assert merged == 2
        assert system.traffic_report()["fog_layer_1"] == 150
        assert system.simulator.accountant.messages_into_layer(LayerName.FOG_1) == 4

    def test_merge_fog1_stats_overlays_storage_report(self, small_city, small_catalog):
        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        node_id = "fog1/d-01/s-01"
        reported = {"stored_readings": 9, "stored_bytes": 999,
                    "ingested_readings": 9, "ingested_bytes": 999}
        system.merge_fog1_stats({node_id: reported})
        report = system.storage_report()
        assert report[node_id] == reported
        # Other nodes keep their local (empty) stats.
        assert report["fog1/d-01/s-02"]["stored_readings"] == 0

    def test_merge_fog1_stats_validates_node_id(self, small_city, small_catalog):
        from repro.common.errors import RoutingError

        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        with pytest.raises(RoutingError):
            system.merge_fog1_stats({"fog1/bogus": {}})
