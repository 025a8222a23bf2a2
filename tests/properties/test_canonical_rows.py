"""Canonical cloud rows against the Reading-based reference model.

:func:`~repro.core.architecture.cloud_contents` builds the canonical rows
straight from the cloud store's columns, one tag tuple per distinct tag
dict, and :func:`~repro.core.architecture.cloud_digest` renders each
distinct tag tuple once.  The reference below is the definition they
replaced, written naively: every row materialized as a ``Reading`` with a
freshly sorted tag tuple, then one sort, then SHA-256 over each row's
``repr``.  Hypothesis drives a cloud store through in-order and
out-of-order appends — ``None``, empty, shared and equal-but-distinct tag
dicts; int, bool, str, ``None`` and NaN values; sensors re-homed across
fog partitions — and TTL evictions, and the fast path must equal the
reference row for row, in order, and hash to the same digest.
"""

from __future__ import annotations

import hashlib
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_workload
from repro.core.architecture import F2CDataManagement, cloud_contents, cloud_digest
from repro.runtime import ShardedWorkload
from repro.sensors.readings import ReadingColumns


def reference_rows(system):
    """The canonical rows by definition: one ``Reading`` and one sorted tag tuple per row."""
    return sorted(
        (
            r.sensor_id,
            r.sensor_type,
            r.category,
            r.value,
            r.timestamp,
            r.size_bytes,
            r.sequence,
            tuple(sorted(r.tags.items())),
        )
        for r in system.cloud.storage.store.all_readings()
    )


def reference_digest(rows):
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode("utf-8"))
    return digest.hexdigest()


NAN = float("nan")

#: Each sensor keeps one value type, so rows that tie up to the value never
#: compare an int with a str (the sort would raise in both models alike).
#: NaN comes as one shared object and as fresh objects.
VALUES = {
    "s-int": st.integers(min_value=-3, max_value=3),
    "s-bool": st.booleans(),
    "s-str": st.sampled_from(["", "a", "b"]),
    "s-none": st.none(),
    "s-float": st.sampled_from([0.5, 1.5, NAN]) | st.builds(float, st.just("nan")),
}

#: Each tag key keeps one value type too, for the same reason.
SHARED = {"quality_score": 1.0, "fog_node": "fog1/x", "flag": True}
SHARED_NAN = {"quality_score": NAN, "count": 3, "note": None}
tag_dicts = st.one_of(
    st.none(),
    st.builds(dict),  # empty, a fresh object per row
    st.just(SHARED),  # one object shared by many rows
    st.just(SHARED_NAN),
    st.builds(dict, st.just(SHARED)),  # equal to a shared dict, a distinct object
    st.builds(dict, st.just(SHARED_NAN)),
    st.fixed_dictionaries(
        {},
        optional={
            "quality_score": st.sampled_from([0.5, 1.0, NAN]),
            "count": st.integers(min_value=0, max_value=2),
            "note": st.none(),
            "fog_node": st.sampled_from(["fog1/x", "fog1/y"]),
            "flag": st.booleans(),
        },
    ),
)

# (sensor, type, category, value, timestamp, fog, size, sequence, tags):
# small pools, so sensors switch fog partition and timestamps and
# sequences tie often.
rows = st.sampled_from(sorted(VALUES)).flatmap(
    lambda sensor: st.tuples(
        st.just(sensor),
        st.sampled_from(["temperature", "sound"]),
        st.sampled_from(["energy", "noise"]),
        VALUES[sensor],
        st.integers(min_value=0, max_value=12).map(float),
        st.sampled_from(["fog1/x", "fog1/y", None]),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=3),
        tag_dicts,
    )
)

#: A batch of rows (in any timestamp order) to append, or a TTL cutoff.
operations = st.lists(
    st.lists(rows, min_size=1, max_size=8) | st.integers(min_value=0, max_value=14).map(float),
    max_size=8,
)


def _apply(system, ops) -> None:
    store = system.cloud.storage.store
    store.clear()
    for op in ops:
        if isinstance(op, float):
            store.remove_older_than(op)
            continue
        columns = ReadingColumns()
        for row in op:
            columns.append_row(*row)
        store.extend_columns(columns)


class TestCanonicalRowsMatchTheReference:
    def test_contents_and_digest_equal_the_reference_model(self):
        system = F2CDataManagement()  # one deployment; every example clears its cloud store

        @settings(max_examples=100, deadline=None)
        @given(ops=operations)
        def check(ops):
            _apply(system, ops)
            expected = reference_rows(system)
            assert cloud_contents(system) == expected  # element for element, in order
            assert cloud_digest(system) == reference_digest(expected)

        check()

    def test_an_empty_cloud_has_no_rows_and_the_empty_digest(self):
        system = F2CDataManagement()
        assert cloud_contents(system) == []
        assert cloud_digest(system) == hashlib.sha256().hexdigest()


def _traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canonical_rows_allocate_under_half_the_reference_model(small_city):
    """Allocation guard, no wall clock: a relative tracemalloc peak.

    A toy city of four sections, 20 devices per type for 4 h (~10 k cloud
    rows, each tag dict shared by ~35 rows).  Reintroducing a per-row
    ``Reading`` or a per-row tag tuple pushes the ratio to about 1.
    """
    workload = ShardedWorkload.stream_rounds(devices_per_type=20, seed=7, duration_s=4 * 3600.0)
    system = run_workload(workload, city=small_city).system
    reference_rows(system)  # both paths once first: interned strings, free lists
    cloud_contents(system)
    fast = _traced_peak(lambda: cloud_contents(system))
    reference = _traced_peak(lambda: reference_rows(system))
    assert fast <= 0.5 * reference, (fast, reference)
