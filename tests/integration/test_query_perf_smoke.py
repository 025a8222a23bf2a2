"""Perf smoke test: the query latency benchmark must stay runnable.

Runs the query benchmark on a deliberately tiny workload and asserts
structure only: the result dict has the ``BENCH_query.json`` v2 schema,
every scenario was served from the tier it names, and the memo stayed
inside its byte budget.  No timing or latency ratio is asserted here —
tier-1 is deterministic, and wall clock is owned by f2cbench's
``compare.py`` (``benchmarks/f2cbench``).
"""

import importlib.util
import pathlib

import pytest

BENCH_PATH = (
    pathlib.Path(__file__).parent / ".." / ".." / "benchmarks" / "bench_query_latency.py"
)

SCENARIOS = (
    "nearest_tier_hit",
    "scatter_gather",
    "memoized_hit",
    "memoized_hit_adopted",
    "fog2_fallthrough",
    "cloud_fallthrough",
    "cloud_fallthrough_scan",
    "cloud_scatter_gather",
    "cloud_scatter_gather_legacy",
    "summarize",
)

RATIOS = (
    "cloud_fallthrough_vs_nearest",
    "memoized_vs_nearest",
    "indexed_speedup",
    "partitioned_speedup",
    "cloud_scatter_vs_fog1_scatter",
)


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_query_latency", BENCH_PATH.resolve())
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke_result(bench_module):
    # gate=False: the tiny workload's per-query times are tens of
    # microseconds, where constant overheads dominate and the acceptance
    # ceilings of the committed full-size run do not apply.
    return bench_module.run_benchmark(devices_per_type=3, repetitions=30, gate=False)


class TestQueryBenchmarkSmoke:
    def test_result_schema(self, smoke_result):
        result = smoke_result
        assert result["schema"] == "bench_query/v2"
        assert result["workload"]["cloud_readings"] > 0
        assert result["environment"]["cpu_count"] >= 1
        assert set(result["scenarios"]) == set(SCENARIOS)
        for name in SCENARIOS:
            stats = result["scenarios"][name]
            assert stats["avg_ms"] > 0
            assert stats["queries"] > 0
            assert stats["rows_per_query"] > 0
        assert set(result["ratios"]) == set(RATIOS)
        assert result["scenarios"]["summarize"]["summary_bytes"] > 0

    def test_serving_tiers_are_asserted_per_scenario(self, smoke_result):
        scenarios = smoke_result["scenarios"]
        assert scenarios["nearest_tier_hit"]["tiers"] == ["fog_layer_1"]
        assert scenarios["fog2_fallthrough"]["tiers"] == ["fog_layer_2"]
        assert scenarios["cloud_fallthrough"]["tiers"] == ["cloud"]
        assert scenarios["cloud_scatter_gather"]["tiers"] == ["cloud"]
        assert scenarios["cloud_scatter_gather_legacy"]["tiers"] == ["cloud"]

    def test_memo_stayed_bounded(self, smoke_result):
        served = smoke_result["served_from"]
        assert served["cache_bytes"] <= served["cache_capacity_bytes"]
