"""Perf smoke test: the ingest throughput benchmark must stay runnable.

Runs a deliberately tiny workload through all benchmark pipelines —
including all three column-frame wire formats and the multi-process
sharded runtime under both BATCH codecs — and asserts the result dict has
the ``BENCH_ingest.json`` v5 schema plus the digest, byte-count and
equivalence facts the run establishes.  Nothing here reads the clock:
wall-clock comparisons belong to ``benchmarks/f2cbench/compare.py``.
"""

import importlib.util
import pathlib

import pytest

BENCH_PATH = pathlib.Path(__file__).parent / ".." / ".." / "benchmarks" / "bench_ingest_throughput.py"

PIPELINES = (
    "per_message",
    "batched_broker",
    "columnar_frames_json",
    "columnar_frames_binary",
    "columnar_frames_binary_v2",
    "direct_batch",
    "direct_batch_durable",
)


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_ingest_throughput", BENCH_PATH.resolve())
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke_result(bench_module):
    return bench_module.run_benchmark(
        devices_per_type=3, duration_s=900.0, round_s=300.0, with_micro=False,
        repetitions=1, sharded_workers=(1, 2),
    )


class TestIngestBenchmarkSmoke:
    def test_result_schema(self, smoke_result):
        result = smoke_result
        assert result["schema"] == "bench_ingest/v5"
        assert result["workload"]["total_readings"] > 0
        assert result["environment"]["cpu_count"] >= 1
        for name in PIPELINES:
            stats = result["pipelines"][name]
            assert stats["readings_per_sec"] > 0
            assert stats["wall_s"] > 0
            assert stats["cloud_readings"] > 0
        assert set(result["speedup"]) == {
            "batched_broker_vs_per_message",
            "columnar_frames_json_vs_per_message",
            "columnar_frames_binary_vs_per_message",
            "columnar_frames_binary_v2_vs_per_message",
            "direct_batch_vs_per_message",
            "sharded_frames_workers_1_vs_frames_binary",
            "sharded_frames_workers_2_vs_frames_binary",
            "sharded_frames_v2_workers_1_vs_frames_binary_v2",
            "sharded_frames_v2_workers_2_vs_frames_binary_v2",
        }
        assert result["pr1_record"]["direct_batch_readings_per_sec"] > 0
        assert result["pr2_record"]["columnar_frames_readings_per_sec"] > 0
        assert result["pr3_record"]["columnar_frames_binary_readings_per_sec"] > 0
        assert result["pr6_record"]["sharded_workers_1_readings_per_sec"] > 0

    def test_sharded_pipeline_schema_and_equivalence(self, smoke_result):
        # run_benchmark itself raises when a sharded run's cloud digest
        # diverges from the single-process binary-frames pipeline, so a
        # returned result implies the byte-identical check passed.
        result = smoke_result
        reference = result["pipelines"]["columnar_frames_binary"]
        for leg, frame_format in (
            ("sharded_frames", "binary"),
            ("sharded_frames_v2", "binary-v2"),
        ):
            sharded = result["pipelines"][leg]
            assert set(sharded) == {"workers_1", "workers_2"}
            for stats in sharded.values():
                assert stats["readings_per_sec"] > 0
                assert stats["frame_format"] == frame_format
                assert stats["worker_restarts"] == 0
                assert stats["dropped_ipc_frames"] == 0
                assert stats["ipc_bytes"] > 0
                assert stats["cloud_readings"] == reference["cloud_readings"]
                assert stats["cloud_digest"] == reference["cloud_digest"]
        equivalence = result["sharded_equivalence"]
        assert equivalence["verified"] is True
        assert equivalence["reference_pipeline"] == "columnar_frames_binary"
        # The v2 BATCH codec folds the JSON sidecars into the frame and
        # compresses against the shared dictionary — same sync points, so
        # it must ship fewer IPC bytes, not just fewer wire bytes.
        assert result["ipc_bytes"]["v2_shrink_factor"] > 1.0

    def test_durable_leg_schema_and_digest(self, smoke_result):
        # run_benchmark raises when the durable leg's cloud digest diverges
        # from direct_batch, so a returned result implies byte-identity.
        result = smoke_result
        durable = result["durable"]
        assert durable["digest_verified"] is True
        assert durable["overhead_vs_direct"] > 0
        assert durable["segments"] > 0
        assert durable["log_bytes"] > 0
        stats = result["pipelines"]["direct_batch_durable"]
        assert stats["cloud_digest"] == result["pipelines"]["direct_batch"]["cloud_digest"]

    def test_binary_frames_ship_fewer_bytes_than_json(self, smoke_result):
        # The tight ≥2.5x floor lives in test_frame_shrink.py on a
        # city-scale workload; the smoke workload is tiny (a handful of
        # rows per frame), so only the direction is asserted here.
        result = smoke_result
        wire = result["frame_wire_bytes"]
        assert wire["binary"] < wire["json"]
        assert wire["shrink_factor"] > 1.0
        assert wire["binary_v2"] < wire["binary"]
        assert wire["v2_shrink_factor"] > 1.0

    def test_frame_paths_match_direct_ingest_outcome(self, smoke_result):
        # Column frames carry the readings losslessly (no CSV truncation to
        # the Table-I wire size), so both frame wire formats must preserve
        # exactly what direct in-process ingestion preserves — same
        # readings, same byte accounting.
        result = smoke_result
        direct_stats = result["pipelines"]["direct_batch"]
        for name in (
            "columnar_frames_json",
            "columnar_frames_binary",
            "columnar_frames_binary_v2",
        ):
            frame_stats = result["pipelines"][name]
            for key in ("cloud_readings", "fog1_bytes_received", "cloud_bytes_received"):
                assert frame_stats[key] == direct_stats[key]

    def test_legacy_mode_restores_patched_classes(self, bench_module):
        import repro.storage.tiered as tiered_module
        from repro.messaging.broker import Broker
        from repro.sensors.readings import ReadingBatch
        from repro.storage.timeseries import TimeSeriesStore

        original_publish = Broker.publish
        original_store_cls = tiered_module.TimeSeriesStore
        original_total_bytes = ReadingBatch.total_bytes
        assert original_store_cls is TimeSeriesStore
        with bench_module.legacy_mode():
            assert Broker.publish is not original_publish
            assert tiered_module.TimeSeriesStore is bench_module.LegacyTimeSeriesStore
        assert Broker.publish is original_publish
        assert tiered_module.TimeSeriesStore is original_store_cls
        assert ReadingBatch.total_bytes is original_total_bytes
