"""Result assembly on the read side: owned rows, one traced scan per tier slice.

A cold query adopts the columns its store scan sliced out instead of
copying them again, so two things must hold:

* a result owns its rows — later appends (in order or merged into a
  partition's tail), upward syncs and retention's prefix deletes on the
  stores it was read from leave it, and every memo hit of it, unchanged;
* every scan still goes through ``TieredStore.query_window``, once per tier
  slice, and the rows it returns add up to the answer — the boundary
  f2cbench's tracer wraps to count ``query.scan_calls`` and
  ``query.rows_returned``.
"""

from __future__ import annotations

import pytest

from repro.api import F2CClient, PipelineConfig
from repro.core.architecture import F2CDataManagement
from repro.storage.tiered import TieredStore
from repro.storage.timeseries import TimeSeriesStore
from tests.conftest import make_reading

#: Default retention: fog L1 keeps 6 h, fog L2 keeps 72 h (TTL).
FOG1_TTL = 6 * 3600.0
FOG2_TTL = 72 * 3600.0
HOUR = 3600.0
SECTION = "d-01/s-01"


def _sections(city):
    return [section.section_id for district in city.districts for section in district.sections]


def _rows(section_index, start, stop, step=300.0):
    return [
        make_reading(
            sensor_id=f"a{section_index}-{i % 3}",
            value=float(i),
            timestamp=start + i * step,
            tags={"row": i},
        )
        for i in range(int((stop - start) // step))
    ]


@pytest.fixture()
def client(small_city, small_catalog):
    """Three hours per section: the cloud holds [0, 1 h) alone, fog L2
    [1 h, 2 h) and fog L1 [2 h, 3 h)."""
    system = F2CDataManagement(
        city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
    )
    client = F2CClient(system=system, config=PipelineConfig())
    for index, section in enumerate(_sections(small_city)):
        client.ingest(_rows(index, 0.0, 3 * HOUR), now=3 * HOUR, default_section=section)
    client.synchronise(now=3 * HOUR)
    for fog1 in system.fog1_nodes():
        fog1.enforce_retention(FOG1_TTL + 2 * HOUR)
    for fog2 in system.fog2_nodes():
        fog2.enforce_retention(FOG2_TTL + 1 * HOUR)
    client.queries.invalidate()
    return client


#: (query keywords, tiers expected to serve rows)
SHAPES = {
    "point": (
        {"since": 2 * HOUR, "until": 3 * HOUR, "section_id": SECTION},
        ("fog_layer_1",),
    ),
    "span": (
        {"since": 0.0, "until": 3 * HOUR, "section_id": SECTION},
        ("fog_layer_1", "fog_layer_2", "cloud"),
    ),
    "scatter": (
        {"since": 0.0, "until": 3 * HOUR},
        ("fog_layer_1", "fog_layer_2", "cloud"),
    ),
}


class TestResultsOwnTheirRows:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_store_mutations_leave_cold_results_and_hits_unchanged(
        self, client, small_city, shape
    ):
        query, tiers = SHAPES[shape]
        cold = client.query(**query)
        hit = client.query(**query)
        assert not cold.cache_hit and hit.cache_hit
        assert cold.tiers() == tiers
        before = cold.readings()
        volume = cold.columns.total_bytes
        assert len(before) > 0 and hit.readings() == before

        system = client.system
        for index, section in enumerate(_sections(small_city)):
            fresh = _rows(index, 3 * HOUR, 3.5 * HOUR)
            # One row older than the partition's tail: merged, not appended.
            late = make_reading(sensor_id=f"a{index}-0", value=-1.0, timestamp=2.5 * HOUR + 1)
            client.ingest(fresh + [late], now=3.5 * HOUR, default_section=section)
        client.synchronise(now=3.5 * HOUR)
        evicted = sum(
            fog1.enforce_retention(FOG1_TTL + 2.75 * HOUR) for fog1 in system.fog1_nodes()
        )
        evicted += sum(
            fog2.enforce_retention(FOG2_TTL + 1.5 * HOUR) for fog2 in system.fog2_nodes()
        )
        assert evicted > 0

        for result in (cold, hit):
            assert result.readings() == before
            assert result.columns.total_bytes == volume
        # ...while a fresh answer does see the new state.
        assert client.query(**query).readings() != before


class TestScansStayOnTheTracedBoundary:
    @pytest.fixture()
    def scans(self, monkeypatch):
        """Every ``TieredStore.query_window`` call's row count, and how many
        store scans ran in all."""
        calls = []
        store_scans = []
        window = TieredStore.query_window
        scan = TimeSeriesStore._scan

        def traced_window(self, *args, **kwargs):
            batch = window(self, *args, **kwargs)
            calls.append(len(batch))
            return batch

        def counted_scan(self, *args, **kwargs):
            store_scans.append(1)
            return scan(self, *args, **kwargs)

        monkeypatch.setattr(TieredStore, "query_window", traced_window)
        monkeypatch.setattr(TimeSeriesStore, "_scan", counted_scan)
        return calls, store_scans

    @staticmethod
    def _slices(client, since, until, section_id=None):
        system, service = client.system, client.queries
        chains = (
            [system.fog1_for_section(section_id)] if section_id else system.fog1_chain()
        )
        return sum(len(service._chain_slices(fog1, since, until)) for fog1 in chains)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_one_scan_per_tier_slice_and_rows_sum_to_the_answer(self, client, scans, shape):
        query, _ = SHAPES[shape]
        calls, store_scans = scans
        result = client.query(**query)
        expected = self._slices(client, query["since"], query["until"], query.get("section_id"))
        assert len(calls) == expected == len(store_scans)
        assert sum(calls) == len(result) > 0
        assert expected == {"point": 1, "span": 3, "scatter": 12}[shape]

    def test_summarize_scans_the_same_slices(self, client, scans):
        calls, store_scans = scans
        summary = client.summarize(since=0.0, until=3 * HOUR)
        assert len(calls) == self._slices(client, 0.0, 3 * HOUR) == len(store_scans)
        assert sum(calls) == summary.rows == len(client.query(since=0.0, until=3 * HOUR))
