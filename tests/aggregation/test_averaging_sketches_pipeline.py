"""Tests for window averaging, sketches and the aggregation pipeline."""

import hashlib
import json

import pytest

from repro.aggregation.averaging import WindowAveraging
from repro.aggregation.compression import CalibratedCompression
from repro.aggregation.pipeline import AggregationPipeline
from repro.aggregation.redundancy import RedundantDataElimination
from repro.aggregation import sketches
from repro.aggregation.sketches import CountMinSketch, DistinctCounter, SketchSummaryAggregation
from repro.common.errors import ConfigurationError
from repro.sensors.readings import ReadingBatch
from tests.conftest import make_reading


class TestWindowAveraging:
    def test_replaces_window_with_average(self):
        batch = ReadingBatch(
            [
                make_reading(sensor_id="s1", value=10.0, timestamp=0.0, size_bytes=22),
                make_reading(sensor_id="s1", value=20.0, timestamp=100.0, size_bytes=22),
                make_reading(sensor_id="s1", value=30.0, timestamp=200.0, size_bytes=22),
            ]
        )
        result = WindowAveraging(window_seconds=900.0).apply(batch)
        assert result.output_readings == 1
        summary = result.batch[0]
        assert summary.value == pytest.approx(20.0)
        assert summary.tags["aggregated_count"] == 3
        assert result.reduction_ratio == pytest.approx(2 / 3)

    def test_separate_windows_not_merged(self):
        batch = ReadingBatch(
            [
                make_reading(sensor_id="s1", value=10.0, timestamp=0.0),
                make_reading(sensor_id="s1", value=30.0, timestamp=1_000.0),
            ]
        )
        result = WindowAveraging(window_seconds=900.0).apply(batch)
        assert result.output_readings == 2

    def test_non_numeric_passthrough(self):
        batch = ReadingBatch([make_reading(value="offline")])
        result = WindowAveraging().apply(batch)
        assert result.output_readings == 1
        assert result.batch[0].value == "offline"

    def test_combine_averages_weighted(self):
        averaging = WindowAveraging(window_seconds=1_000.0)
        node_a = averaging.apply(
            ReadingBatch(
                [make_reading(sensor_id="s1", value=10.0, timestamp=t) for t in (0.0, 1.0, 2.0, 3.0)]
            )
        ).batch
        node_b = averaging.apply(
            ReadingBatch([make_reading(sensor_id="s1", value=50.0, timestamp=5.0)])
        ).batch
        merged = ReadingBatch(list(node_a) + list(node_b))
        combined = WindowAveraging.combine_averages(merged)
        # (10*4 + 50*1) / 5 = 18
        assert combined["s1"] == pytest.approx(18.0)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            WindowAveraging(window_seconds=0.0)


def _clear_key_caches():
    for cache in (sketches._digest64, sketches._cells, sketches._register_rank):
        cache.cache_clear()


class TestHashMemo:
    """Digests and per-key cells are memoised on the key's ``repr`` — the text digested."""

    def test_equal_but_differently_printed_keys_keep_their_own_hashes(self):
        # 1 == 1.0 == True and all three hash alike as dict keys; a memo
        # keyed on the value itself would hand all of them one key's cells,
        # whichever came first.
        keys = [1, 1.0, True, "1"]

        def fold(order):
            _clear_key_caches()
            sketch, counter = CountMinSketch(64, 4), DistinctCounter(8)
            for position in order:
                sketch.add(keys[position], position + 1)
                counter.add(keys[position])
            return sketch, counter

        forward, backward = fold(range(4)), fold(range(3, -1, -1))
        assert forward[0]._table == backward[0]._table
        assert forward[1]._registers == backward[1]._registers
        cells = {sketches._cells(repr(key), 64, 4) for key in keys}
        assert len(cells) == 4
        assert [forward[0].estimate(key) for key in keys] == [1, 2, 3, 4]

    def test_memo_hits_and_is_bounded(self):
        _clear_key_caches()
        sketch = CountMinSketch(256, 4)
        sketch.add("sensor-1")
        sketch.add("sensor-1")
        CountMinSketch(128, 4).add("sensor-1")  # the shape is part of the key
        cells = sketches._cells.cache_info()
        assert (cells.hits, cells.misses) == (1, 2)
        counter = DistinctCounter(10)
        counter.add("sensor-1")
        counter.add("sensor-1")
        DistinctCounter(8).add("sensor-1")  # so is the precision
        ranks = sketches._register_rank.cache_info()
        assert (ranks.hits, ranks.misses) == (1, 2)
        digests = sketches._digest64.cache_info()
        # Digests are shared across shapes: 4 count-min rows plus 1 register hash.
        assert (digests.hits, digests.misses) == (5, 5)
        for cache in (sketches._digest64, sketches._cells, sketches._register_rank):
            maxsize = cache.cache_info().maxsize
            assert maxsize is not None and maxsize <= 1 << 16

    def test_counted_add_equals_repeated_adds(self):
        # What summarize() relies on: count-min is linear in the count and
        # the distinct counter's register max is idempotent.
        weighted, repeated = CountMinSketch(32, 3), CountMinSketch(32, 3)
        once, thrice = DistinctCounter(6), DistinctCounter(6)
        for key, count in (("a", 3), ("b", 1), (7, 5)):
            weighted.add(key, count)
            once.add(key)
            for _ in range(count):
                repeated.add(key)
                thrice.add(key)
        assert weighted._table == repeated._table and weighted.total == repeated.total
        assert once._registers == thrice._registers


class TestPinnedCells:
    """Cells of a fixed fold, pinned to digests recorded before the per-key caches.

    Two folds through the same per-key cache always agree with each other;
    only a recorded value catches a cache that maps a key to the wrong cell.
    """

    KEYS = [f"sensor-{i:04d}" for i in range(400)] + [1, 1.0, True, "1", (2, "b"), -7, 3.5]

    @staticmethod
    def _sha256(cells) -> str:
        return hashlib.sha256(json.dumps(cells).encode()).hexdigest()

    def test_count_min_and_distinct_cells_match_the_recorded_fold(self):
        sketch, counter = CountMinSketch(256, 4), DistinctCounter(10)
        for index, key in enumerate(self.KEYS):
            sketch.add(key, index % 5 + 1)
            counter.add(key)
        assert self._sha256(sketch._table) == (
            "01a7f47cd588db2b596f3244f75db604344e70fcc335c4764ec74bd62860b81b"
        )
        assert self._sha256(counter._registers) == (
            "76852f57cc50fb78da917f0b6d2d3d3254beaf151925dbeb4be4c5ea6bb4d47c"
        )
        assert sketch.total == 1218
        assert round(counter.estimate(), 2) == 405.74


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=4)
        for i in range(100):
            sketch.add(f"key-{i % 10}")
        for i in range(10):
            assert sketch.estimate(f"key-{i}") >= 10

    def test_exact_for_sparse_keys(self):
        sketch = CountMinSketch(width=1024, depth=5)
        sketch.add("a", 3)
        sketch.add("b", 7)
        assert sketch.estimate("a") == 3
        assert sketch.estimate("b") == 7
        assert sketch.estimate("never-seen") == 0

    def test_merge(self):
        a = CountMinSketch(width=64, depth=4)
        b = CountMinSketch(width=64, depth=4)
        a.add("x", 5)
        b.add("x", 3)
        merged = a.merge(b)
        assert merged.estimate("x") >= 8
        assert merged.total == 8

    def test_merge_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(64, 4).merge(CountMinSketch(32, 4))

    def test_update_folds_in_place_without_mutating_the_source(self):
        accumulator = CountMinSketch(width=64, depth=4)
        segment = CountMinSketch(width=64, depth=4)
        accumulator.add("x", 5)
        segment.add("x", 3)
        segment.add("y", 2)
        before = [row[:] for row in segment._table]
        accumulator.update(segment)
        assert accumulator.estimate("x") >= 8
        assert accumulator.estimate("y") >= 2
        assert accumulator.total == 10
        assert segment._table == before  # the folded-from sketch is untouched
        assert segment.total == 5

    def test_update_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(64, 4).update(CountMinSketch(64, 2))

    def test_update_matches_row_wise_adds(self):
        # Folding per-node sketches must equal adding every row directly
        # (the decomposability that lets nodes merge their summaries).
        direct = CountMinSketch(width=128, depth=4)
        seg_a = CountMinSketch(width=128, depth=4)
        seg_b = CountMinSketch(width=128, depth=4)
        for i in range(200):
            key = f"key-{i % 7}"
            direct.add(key)
            (seg_a if i % 2 == 0 else seg_b).add(key)
        folded = CountMinSketch(width=128, depth=4)
        folded.update(seg_a)
        folded.update(seg_b)
        assert folded._table == direct._table
        assert folded.total == direct.total

    def test_from_error_bounds(self):
        sketch = CountMinSketch.from_error_bounds(epsilon=0.01, delta=0.01)
        assert sketch.width >= 100
        assert sketch.depth >= 2

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch().add("x", count=-1)


class TestDistinctCounter:
    def test_estimate_within_tolerance(self):
        counter = DistinctCounter(precision=12)
        true_count = 5_000
        for i in range(true_count):
            counter.add(f"sensor-{i}")
        assert counter.estimate() == pytest.approx(true_count, rel=0.1)

    def test_duplicates_do_not_inflate(self):
        counter = DistinctCounter(precision=10)
        for _ in range(50):
            for i in range(100):
                counter.add(f"sensor-{i}")
        assert counter.estimate() == pytest.approx(100, rel=0.25)

    def test_merge_counts_union(self):
        a = DistinctCounter(precision=12)
        b = DistinctCounter(precision=12)
        for i in range(1_000):
            a.add(f"a-{i}")
            b.add(f"b-{i}")
        merged = a.merge(b)
        assert merged.estimate() == pytest.approx(2_000, rel=0.15)

    def test_invalid_precision(self):
        with pytest.raises(ConfigurationError):
            DistinctCounter(precision=2)

    def test_merge_precision_mismatch(self):
        with pytest.raises(ConfigurationError):
            DistinctCounter(10).merge(DistinctCounter(12))

    def test_update_matches_row_wise_adds(self):
        direct = DistinctCounter(precision=10)
        seg_a = DistinctCounter(precision=10)
        seg_b = DistinctCounter(precision=10)
        for i in range(500):
            direct.add(f"s-{i}")
            (seg_a if i % 2 == 0 else seg_b).add(f"s-{i}")
        registers_a = list(seg_a._registers)
        folded = DistinctCounter(precision=10)
        folded.update(seg_a)
        folded.update(seg_b)
        assert folded._registers == direct._registers
        assert seg_a._registers == registers_a  # source untouched

    def test_update_precision_mismatch(self):
        with pytest.raises(ConfigurationError):
            DistinctCounter(10).update(DistinctCounter(12))


class TestSketchSummaryAggregation:
    def test_constant_size_output_per_category(self):
        batch = ReadingBatch(
            [make_reading(sensor_id=f"s{i}", category="energy", size_bytes=22) for i in range(500)]
            + [make_reading(sensor_id=f"n{i}", category="noise", size_bytes=22) for i in range(100)]
        )
        result = SketchSummaryAggregation().apply(batch)
        assert result.output_readings == 2
        assert result.output_bytes < batch.total_bytes
        energy_summary = next(r for r in result.batch if r.category == "energy")
        assert energy_summary.value == pytest.approx(500, rel=0.2)


class TestAggregationPipeline:
    def test_stage_series_matches_fig7_shape(self):
        batch = ReadingBatch(
            [make_reading(sensor_id="s1", value=20.0, timestamp=float(t), size_bytes=100) for t in range(10)]
        )
        pipeline = AggregationPipeline(
            [RedundantDataElimination(scope="batch"), CalibratedCompression(ratio=0.25)]
        )
        result = pipeline.apply(batch)
        series = pipeline.stage_bytes()
        assert len(series) == 3  # raw, after redundancy, after compression
        assert series[0] == 1_000
        assert series[1] == 100  # nine duplicates removed
        assert series[2] == 25
        assert result.output_bytes == 25
        assert result.reduction_ratio == pytest.approx(0.975)

    def test_describe(self):
        pipeline = AggregationPipeline([RedundantDataElimination(), CalibratedCompression()])
        assert pipeline.describe() == "redundant_data_elimination -> calibrated_compression"

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigurationError):
            AggregationPipeline([])

    def test_stage_bytes_before_apply_rejected(self):
        pipeline = AggregationPipeline([RedundantDataElimination()])
        with pytest.raises(ConfigurationError):
            pipeline.stage_bytes()

    def test_details_report_each_stage(self):
        pipeline = AggregationPipeline([RedundantDataElimination(), CalibratedCompression()])
        result = pipeline.apply(ReadingBatch([make_reading(size_bytes=100)]))
        stages = result.details["stages"]
        assert [s["technique"] for s in stages] == [
            "redundant_data_elimination",
            "calibrated_compression",
        ]
