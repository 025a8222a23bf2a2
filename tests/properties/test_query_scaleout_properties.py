"""Property tests for the query-side scale-out machinery.

Four layers of row-identity, checked with Hypothesis across random
ingest / eviction / sync interleavings:

1. **Store**: a filtered ``query_window`` is row-identical (order
   included) to a plain-list filter over the store's full contents, for
   every category / fog-node filter combo — including after partial and
   total eviction, and with sensors reporting through several fog nodes or
   categories.  (That the full contents are in the documented order is
   ``test_store_model.py``'s job.)
2. **Store**: every bucket of ``query_window_partitioned`` is
   row-identical to the corresponding filtered ``query_window``, and the
   buckets partition the window (no loss, no duplication).
3. **Service**: ``QueryService.query`` equals a brute-force answer built
   from the same chain resolution — per chain, per tier slice, a
   plain-list filter over the serving store's full contents — columns
   (order included), sources and rows-by-tier, including after tier
   evictions and under a simulated sharded run where fog layer-1 stores
   are non-authoritative.
4. **Service**: ``QueryService.summarize`` — which counts (category,
   sensor) keys per segment and hashes each distinct key once — yields
   sketches cell-identical to a per-row fold over the exact query's
   columns, cold and warm from the segment cache, with the exact query's
   rows, rows-by-tier and sources.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation.sketches import CountMinSketch, DistinctCounter
from repro.api import F2CClient, PipelineConfig
from repro.api.query import TIER_FOG_1, TIERS
from repro.core.architecture import F2CDataManagement
from repro.sensors.readings import Reading
from repro.storage.timeseries import TimeSeriesStore
from tests.conftest import make_reading

# --------------------------------------------------------------------- #
# Store-level strategies: small pools so collisions (same sensor, new
# fog node / category) happen often.
# --------------------------------------------------------------------- #
SENSORS = tuple(f"s-{i}" for i in range(5))
CATEGORIES = ("energy", "traffic", "waste")
FOGS = ("fog1/a", "fog1/b", None)

inserts = st.tuples(
    st.sampled_from(SENSORS),
    st.sampled_from(CATEGORIES),
    st.sampled_from(FOGS),
    st.integers(min_value=0, max_value=40),  # timestamp
)

ops = st.one_of(
    st.tuples(st.just("insert"), inserts),
    st.tuples(st.just("evict_older"), st.integers(min_value=0, max_value=45)),
    st.tuples(st.just("evict_oldest"), st.integers(min_value=0, max_value=10)),
)


def _apply(store: TimeSeriesStore, program) -> None:
    for op, arg in program:
        if op == "insert":
            sensor_id, category, fog, ts = arg
            store.append(
                make_reading(
                    sensor_id=sensor_id,
                    category=category,
                    timestamp=float(ts),
                    fog_node_id=fog,
                )
            )
        elif op == "evict_older":
            store.remove_older_than(float(arg))
        else:
            store.remove_oldest(arg)


def _rows(batch):
    cols = batch.columns
    return list(
        zip(
            cols.sensor_ids,
            cols.timestamps,
            cols.categories,
            cols.fog_node_ids,
            cols.sequences,
        )
    )


class TestFilteredWindowMatchesBruteForce:
    @given(program=st.lists(ops, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_every_filter_combo_is_row_identical(self, program):
        store = TimeSeriesStore()
        _apply(store, program)
        everything = _rows(store.query_window())
        assert len(everything) == len(store)
        windows = [(float("-inf"), float("inf")), (10.0, 30.0), (0.0, 0.0)]
        for category in (None, *CATEGORIES):
            for fog in (None, *FOGS[:2]):
                for since, until in windows:
                    expected = [
                        row
                        for row in everything
                        if since <= row[1] < until
                        and (category is None or row[2] == category)
                        and (fog is None or row[3] == fog)
                    ]
                    filtered = store.query_window(
                        since=since, until=until, category=category, fog_node_id=fog
                    )
                    assert _rows(filtered) == expected


class TestPartitionedMatchesFiltered:
    @given(program=st.lists(ops, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_buckets_are_the_filtered_queries(self, program):
        store = TimeSeriesStore()
        _apply(store, program)
        for since, until in [(float("-inf"), float("inf")), (10.0, 30.0)]:
            buckets = store.query_window_partitioned(since=since, until=until)
            whole_window = _rows(store.query_window(since=since, until=until))
            # Every bucket matches the equivalent filtered query.  (A None
            # key — rows never routed through a fog node — has no filtered
            # equivalent, since fog_node_id=None means *unfiltered*; those
            # buckets are checked against the window's None-fog rows.)
            for fog, bucket in buckets.items():
                if fog is None:
                    expected = [row for row in whole_window if row[3] is None]
                else:
                    expected = _rows(
                        store.query_window(since=since, until=until, fog_node_id=fog)
                    )
                assert _rows(bucket) == expected
            # ...no empty buckets are emitted...
            assert all(len(b) for b in buckets.values())
            # ...and together they partition the window exactly.
            assert sum(len(b) for b in buckets.values()) == len(whole_window)

    @given(program=st.lists(ops, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_partition_by_category(self, program):
        store = TimeSeriesStore()
        _apply(store, program)
        buckets = store.query_window_partitioned(partition_by="category")
        for category, bucket in buckets.items():
            filtered = store.query_window(category=category)
            assert _rows(bucket) == _rows(filtered)
        assert sum(len(b) for b in buckets.values()) == len(store.query_window())


# --------------------------------------------------------------------- #
# Service level: random ingest / sync / evict rounds over the small city,
# then every answer against a brute-force one.
# --------------------------------------------------------------------- #
SECTIONS = ("d-01/s-01", "d-01/s-02", "d-02/s-01", "d-02/s-02")

rounds = st.lists(
    st.tuples(
        st.lists(  # readings this round: (sensor index, section index, category)
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=3),
                st.sampled_from(("energy", "traffic")),
            ),
            max_size=6,
        ),
        st.booleans(),  # synchronise after ingesting?
        st.sampled_from((None, "fog1", "fog2", "both")),  # evict which tiers?
    ),
    min_size=1,
    max_size=4,
)


def _brute_force(client, since, until, sensor_id=None, section_id=None, category=None):
    """The query answered by hand: same chain resolution, plain-list filters."""
    service, system = client.queries, client.system
    if section_id is not None:
        chains = [system.fog1_for_section(section_id)]
    elif sensor_id is not None:
        chains = [service._node_for_sensor(sensor_id)]
    else:
        chains = system.fog1_chain()
    scatter = sensor_id is None and section_id is None
    rows, sources, rows_by_tier = [], [], {}
    for fog1 in chains:
        for node, tier, low, high in service._chain_slices(fog1, since, until):
            cols = node.storage.store.query_window().columns
            part = [
                row
                for row in zip(
                    cols.sensor_ids, cols.timestamps, cols.values, cols.categories,
                    cols.fog_node_ids, cols.sequences,
                )
                if low <= row[1] < high
                and (tier == TIER_FOG_1 or row[4] == fog1.node_id)
                and (sensor_id is None or row[0] == sensor_id)
                and (category is None or row[3] == category)
            ]
            rows += part
            if part:
                rows_by_tier[tier] = rows_by_tier.get(tier, 0) + len(part)
            if part or not scatter:
                sources.append((node.node_id, tier, fog1.section_id, len(part)))
    return (
        [list(column) for column in zip(*rows)] if rows else [[] for _ in range(6)],
        sources,
        rows_by_tier,
    )


def _answer(result):
    cols = result.columns
    return (
        [
            list(cols.sensor_ids),
            list(cols.timestamps),
            list(cols.values),
            list(cols.categories),
            list(cols.fog_node_ids),
            list(cols.sequences),
        ],
        [(s.node_id, s.tier, s.section_id, s.rows) for s in result.sources],
        dict(result.rows_by_tier),
    )


def _run_rounds(client, program, sharded: bool):
    clock = 0.0
    for index, (readings, sync, evict) in enumerate(program):
        batch = []
        for offset, (sensor, section, category) in enumerate(readings):
            clock = index * 1000.0 + offset
            batch.append(
                Reading(
                    sensor_id=f"p-{sensor}",
                    sensor_type="temperature" if category == "energy" else "traffic",
                    category=category,
                    value=float(offset),
                    timestamp=clock,
                )
            )
            client.system.assign_sensor(f"p-{sensor}", SECTIONS[section])
        if batch:
            # Round-robin the default section so unassigned routing stays stable.
            client.ingest(batch, now=clock, default_section=SECTIONS[index % 4])
        if sync:
            client.synchronise(now=clock)
        if evict in ("fog1", "both"):
            for fog1 in client.system.fog1_nodes():
                fog1.enforce_retention(clock + 9 * 3600)
        if evict in ("fog2", "both"):
            for fog2 in client.system.fog2_nodes():
                fog2.enforce_retention(clock + 81 * 3600)
    if sharded:
        # Simulate a sharded supervisor: fog L1 acquisition happened in
        # workers, so the local stores are empty and non-authoritative.
        client.synchronise(now=clock)
        for fog1 in client.system.fog1_nodes():
            fog1.storage.store.clear()
            client.system.merge_fog1_stats({fog1.node_id: {"stored_readings": 0}})
        client.queries.invalidate()


class TestServiceAnswersMatchBruteForce:
    @pytest.mark.parametrize("sharded", [False, True])
    @given(program=rounds)
    # The fixtures are read-only descriptors (City / SensorCatalog); every
    # example deploys its own F2CDataManagement over them, so sharing them
    # across examples is safe.
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_query_is_the_brute_force_answer(self, small_city, small_catalog, program, sharded):
        client = _deployed(small_city, small_catalog, program, sharded)
        scopes = [
            {},  # city-wide scatter
            {"category": "energy"},
            {"section_id": "d-01/s-01"},
            {"sensor_id": "p-0"},
        ]
        for scope in scopes:
            for since, until in [(float("-inf"), float("inf")), (500.0, 2500.0)]:
                client.queries.invalidate()
                answer = _answer(client.queries.query(since=since, until=until, **scope))
                assert answer == _brute_force(client, since, until, **scope), scope


# --------------------------------------------------------------------- #
# summarize(): the count-then-hash fold against a per-row reference fold.
# --------------------------------------------------------------------- #
def _per_row_fold(columns, width, depth, precision):
    """The obviously-correct fold: one sketch add per row, in row order."""
    frequency, distinct = {}, {}
    for sensor_id, category in zip(columns.sensor_ids, columns.categories):
        if category not in frequency:
            frequency[category] = CountMinSketch(width, depth)
            distinct[category] = DistinctCounter(precision)
        frequency[category].add(sensor_id)
        distinct[category].add(sensor_id)
    return frequency, distinct


def _assert_summary_is_the_per_row_fold(client, since, until, scope, params):
    exact = client.query(since=since, until=until, **scope)
    frequency, distinct = _per_row_fold(exact.columns, **params)
    # Cold, then warm from the broad tiers' segment cache — which is keyed
    # without the sketch sizes, so the second pass also proves a cached
    # segment serves whatever sizes are asked for.
    client.queries.invalidate()
    for _ in ("cold", "warm"):
        summary = client.queries.summarize(since=since, until=until, **scope, **params)
        assert summary.rows == len(exact)
        assert summary.rows_by_tier == exact.rows_by_tier
        assert summary.sources == exact.sources
        assert list(summary.frequency) == list(frequency) == list(summary.distinct)
        for category, sketch in frequency.items():
            assert summary.frequency[category]._table == sketch._table
            assert summary.frequency[category].total == sketch.total
            assert summary.distinct[category]._registers == distinct[category]._registers


def _deployed(small_city, small_catalog, program, sharded):
    system = F2CDataManagement(
        city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
    )
    client = F2CClient(system=system, config=PipelineConfig())
    _run_rounds(client, program, sharded)
    return client


SUMMARY_SCOPES = ({}, {"category": "energy"}, {"section_id": "d-01/s-01"})
SKETCH_PARAMS = (
    {"width": 256, "depth": 4, "precision": 10},
    {"width": 7, "depth": 2, "precision": 4},  # tiny: collisions everywhere
)


class TestSummarizeMatchesPerRowFold:
    @pytest.mark.parametrize("sharded", [False, True])
    @given(program=rounds)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cold_and_warm_summaries_are_cell_identical(
        self, small_city, small_catalog, program, sharded
    ):
        client = _deployed(small_city, small_catalog, program, sharded)
        for scope in SUMMARY_SCOPES:
            for since, until in [(float("-inf"), float("inf")), (500.0, 2500.0)]:
                for params in SKETCH_PARAMS:
                    _assert_summary_is_the_per_row_fold(client, since, until, scope, params)

    def test_a_window_spanning_all_three_tiers(self, small_city, small_catalog):
        # Round 0 survives only in the cloud, round 1 also in fog L2, round 2
        # only in fog L1 (not yet synced): one chain, three serving tiers.
        program = [
            ([(0, 0, "energy"), (1, 0, "traffic"), (2, 1, "energy")], True, "both"),
            ([(0, 0, "energy"), (1, 0, "traffic"), (3, 1, "energy")], True, "fog1"),
            ([(0, 0, "energy"), (0, 0, "energy"), (4, 1, "traffic")], False, None),
        ]
        client = _deployed(small_city, small_catalog, program, sharded=False)
        window = (float("-inf"), float("inf"))
        assert client.summarize(*window, section_id="d-01/s-01").tiers() == TIERS
        for scope in SUMMARY_SCOPES:
            for params in SKETCH_PARAMS:
                _assert_summary_is_the_per_row_fold(client, *window, scope, params)
        assert client.queries.sketch_cache_hits > 0
