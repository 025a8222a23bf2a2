"""Round-level acquisition is the sequential phases, observably.

On a deployment whose fog layer-1 blocks are in the default configuration,
``Pipeline.ingest_columns`` acquires every round once for all its fog
nodes (``repro.dlc.acquisition.acquire_round``): a flawed row is scored
alone and the rest of the round stays columnar.  The reference is the
block's phases run one after the other (``LifeCycleBlock.run``), node by
node.  Hypothesis draws multi-node rounds mixing clean rows with every
flaw; each round goes through ``ingest_columns`` on one deployment and
through a ~20-line reference (route, ``record_transfer``, the sequential
phases, ``accept_acquired`` per node) on a twin, and everything an
observer can see must agree: acquired rows in order, tag dicts with their
key order, block results, quality reports, counters, the returned counts
in order, the accountant's records and the fog layer-1 stores.  Tag-dict
*sharing* is checked on its own, against the rule: untagged admitted rows
share one dict per (node, quality score, category, fog node), a row that
arrives tagged has a dict of its own.  A default block never enters the
sequential phases; any other block always does.

``Pipeline.flush_broker`` is the same round entry behind the broker: a
third twin receives each drawn round as column frames (``publish_frames``)
and flushes, next to a reference that drains, decodes and acquires inbox
by inbox.  What the wire adds is drawn too — two messages in one inbox, a
corrupted frame, a CSV line among the frames, ``now=None`` (each node
acquires at its latest finite timestamp), and a sensor published on two
sections' topics (dedup is per node, so both copies are admitted).

States are compared through ``repr``: it keeps dict key order, tells
``-0.0`` from ``0.0`` and equates NaNs, none of which ``==`` does.
"""

from __future__ import annotations

import contextlib
from math import isfinite
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.aggregation.redundancy import RedundantDataElimination
from repro.api.pipeline import Pipeline
from repro.city.barcelona import fog1_node_id
from repro.city.model import City, District, Section
from repro.core.architecture import F2CDataManagement, cloud_digest
from repro.dlc.acquisition import acquire_round
from repro.dlc.model import LifeCycleBlock
from repro.network.topology import LayerName
from repro.messaging.broker import Broker
from repro.sensors.catalog import SensorCatalog, SensorCategory, SensorTypeSpec
from repro.sensors.readings import Reading, ReadingBatch, ReadingColumns

NOW = 100_000.0
NAN = float("nan")
INF = float("inf")
SECTIONS = ("d-01/s-01", "d-01/s-02", "d-02/s-01", "d-02/s-02")
#: The first four sensors are assigned to a section each; the rest are
#: spread by the stable hash (or sent to a drawn ``default_section``).
SENSORS = tuple(f"s-{i}" for i in range(8))
TYPE_OF = {sensor_id: ("temperature", "traffic")[i % 2] for i, sensor_id in enumerate(SENSORS)}
CATEGORY_OF = {"temperature": "energy", "traffic": "urban"}
RANGE_OF = {"temperature": (0.0, 50.0), "traffic": (0.0, 200.0)}


def _catalog() -> SensorCatalog:
    def spec(name, category, size, value_range):
        return SensorTypeSpec(
            name=name, category=category, sensor_count=20, message_size_bytes=size,
            daily_bytes_per_sensor=2_112, value_range=value_range, value_resolution=0.5,
        )

    return SensorCatalog(
        [
            spec("temperature", SensorCategory.ENERGY, 22, RANGE_OF["temperature"]),
            spec("traffic", SensorCategory.URBAN, 44, RANGE_OF["traffic"]),
        ]
    )


#: Fog layer-1 filters: the paper's default, none (both default
#: configurations) and one that sends every node to the sequential phases.
FILTERS = {
    "batch": RedundantDataElimination,
    "none": None,
    "consecutive": lambda: RedundantDataElimination(scope="consecutive"),
}


def _deployment(filtering: str = "batch") -> F2CDataManagement:
    districts = [
        District(
            district_id=district_id,
            name=district_id,
            sections=tuple(
                Section(section_id=section_id, district_id=district_id, area_km2=1.0)
                for section_id in SECTIONS
                if section_id.startswith(district_id)
            ),
        )
        for district_id in ("d-01", "d-02")
    ]
    system = F2CDataManagement(
        city=City(name="Toyville", districts=districts),
        catalog=_catalog(),
        fog1_aggregator_factory=FILTERS[filtering],
    )
    for sensor_id, section_id in zip(SENSORS, SECTIONS):
        system.assign_sensor(sensor_id, section_id)
    return system


# --------------------------------------------------------------------- #
# Rows: (sensor_id, sensor_type, category, value, timestamp, fog_node_id,
# size, tags) — the sequence column is the row's position in the round.
# --------------------------------------------------------------------- #
# Few distinct in-range values, so duplicates within a sensor (dropped by
# the batch-scope dedup) and across sensors (kept) are the norm.
clean_values = st.sampled_from([0.0, -0.0, 21.5, 22.0, 50.0])
clean_rows = st.builds(
    lambda sensor_id, value, age, size: (
        sensor_id, TYPE_OF[sensor_id], CATEGORY_OF[TYPE_OF[sensor_id]], value, NOW - age, None, size, None,
    ),
    st.sampled_from(SENSORS),
    clean_values,
    st.sampled_from([0.0, 1.0, 450.0, 86_400.0]),
    st.sampled_from([0, 22, 44]),
)
#: One field of an otherwise clean row replaced: every flaw on its own,
#: plus look-alikes of one (an in-range value of a type the catalog does
#: not know, an empty tag dict).
ODD_VALUES = [7, True, "21.5", None, NAN, INF, -INF, 60.0, -1.0, 500.0, -300.0]
ODD_TIMESTAMPS = [NOW + 60.0, NOW + 61.0, NOW + 1e6, NOW - 86_401.0, NAN, INF, -INF]
ODD_TAGS = [{}, {"source": "field-kit"}, {"city": "preset", "quality_score": 0.1}]
flaws = st.one_of(
    st.tuples(st.just(0), st.just("")),
    st.tuples(st.just(1), st.sampled_from(["", "seismograph"])),
    st.tuples(st.just(2), st.just("other")),
    st.tuples(st.just(3), st.sampled_from(ODD_VALUES)),
    st.tuples(st.just(4), st.sampled_from(ODD_TIMESTAMPS)),
    st.tuples(st.just(5), st.sampled_from(["fog1/elsewhere", ""])),
    st.tuples(st.just(7), st.sampled_from(ODD_TAGS)),
)
flawed_rows = st.builds(
    lambda row, flaw: row[: flaw[0]] + (flaw[1],) + row[flaw[0] + 1:], clean_rows, flaws
)
#: Several flaws at once, in any combination.
wild_rows = st.tuples(
    st.sampled_from(SENSORS + ("",)),
    st.sampled_from(["temperature", "traffic", "seismograph", ""]),
    st.sampled_from(["energy", "urban", "other"]),
    st.one_of(clean_values, st.sampled_from(ODD_VALUES)),
    st.sampled_from([NOW, NOW - 450.0] + ODD_TIMESTAMPS),
    st.sampled_from([None, None, "fog1/elsewhere", ""]),
    st.sampled_from([0, 22, 44]),
    st.sampled_from([None, None] + ODD_TAGS),
)


@st.composite
def rounds(draw):
    """A round (clean, or clean rows with flawed ones mixed in) and its default section."""
    rows = draw(st.lists(clean_rows, min_size=1, max_size=30))
    for dirty in draw(st.lists(st.one_of(flawed_rows, wild_rows), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), dirty)
    return rows, draw(st.sampled_from([None, None, SECTIONS[1]]))


def _columns(rows) -> ReadingColumns:
    columns = ReadingColumns()
    for sequence, (sensor_id, sensor_type, category, value, timestamp, fog, size, tags) in enumerate(rows):
        columns.append_row(sensor_id, sensor_type, category, value, timestamp, fog, size, sequence, tags)
    return columns


def _nine(columns: ReadingColumns) -> str:
    return repr(
        [
            columns.sensor_ids, columns.sensor_types, columns.categories, columns.values,
            list(columns.timestamps), columns.fog_node_ids, list(columns.sizes), columns.sequences,
            columns.tags,
        ]
    )


#: What the broker adds to a round on its way to the flush.
wires = st.fixed_dictionaries(
    {
        "now": st.sampled_from([NOW, NOW, NOW, None]),
        "split_at": st.one_of(st.none(), st.integers(0, 30)),  # the round as two frames per inbox
        "corrupted": st.sampled_from([None, None, *SECTIONS]),  # inbox that also gets a torn frame
        "csv": st.sampled_from([None, None, *SECTIONS]),  # inbox that also gets a CSV line
        "echoed": st.sampled_from([None, None, *SECTIONS]),  # section the first row is republished on
    }
)


def _acquire_sequentially(fog1, columns: ReadingColumns, now: float) -> int:
    """The reference acquisition of one node's rows: its phases one after the other."""
    batch = ReadingBatch.from_columns(columns)
    acquired, result = LifeCycleBlock.run(fog1.acquisition, batch, now)
    fog1.accept_acquired(len(batch), acquired, result)
    return len(acquired)


def _reference_ingest(system: F2CDataManagement, rows, default_section):
    """Route, account and run the sequential phases per node."""
    per_node = {}
    for sequence, row in enumerate(rows):
        section_id = system.section_of_sensor(row[0]) or default_section or system.spread_section(row[0])
        per_node.setdefault(fog1_node_id(section_id), []).append((sequence, row))
    counts = {}
    for node_id, node_rows in per_node.items():
        fog1 = system.fog1_node(node_id)
        columns = ReadingColumns()
        for sequence, (sensor_id, sensor_type, category, value, timestamp, fog, size, tags) in node_rows:
            columns.append_row(sensor_id, sensor_type, category, value, timestamp, fog, size, sequence, tags)
        system.simulator.accountant.record_transfer(
            timestamp=NOW,
            source=f"sensors/{fog1.section_id}",
            target=node_id,
            target_layer=LayerName.FOG_1,
            size_bytes=columns.total_bytes,
            message_count=len(columns),
        )
        counts[node_id] = _acquire_sequentially(fog1, columns, NOW)
    return counts


def _deliver(system: F2CDataManagement, rows, default_section, wire) -> Broker:
    """Attach a broker and publish the drawn round (and the wire's extras) on it."""
    pipeline = Pipeline.for_system(system)
    broker = Broker()
    pipeline.attach_broker(broker)
    columns = _columns(rows)
    split_at = wire["split_at"]
    pieces = [columns] if split_at is None else columns.split([min(split_at, len(rows)), len(rows)])
    for piece in pieces:
        pipeline.publish_frames(broker, piece, default_section=default_section, timestamp=NOW)
    if wire["corrupted"] is not None:
        torn = _columns(CLEAN_ROUND).encode_frame()[:-3]
        broker.publish(f"city/bcn/{wire['corrupted']}/frame", torn, timestamp=NOW)
    if wire["csv"] is not None:
        line = Reading(
            sensor_id="s-csv", sensor_type="temperature", category="energy", value=21.5,
            timestamp=NOW - 1.0, size_bytes=64,
        )
        broker.publish(f"city/bcn/{wire['csv']}/energy/temperature", line.encode(), timestamp=NOW)
    if wire["echoed"] is not None:
        echo = _columns(rows[:1]).encode_frame()
        broker.publish(f"city/bcn/{wire['echoed']}/frame", echo, timestamp=NOW)
    return broker


def _reference_flush(system: F2CDataManagement, broker: Broker, now):
    """Drain, decode and run the sequential phases inbox by inbox."""
    decode = Pipeline.for_system(system)._decode_message_columns
    counts = {}
    for fog1 in system.fog1_nodes():
        columns = ReadingColumns()
        for message in broker.drain_inbox(fog1.node_id):
            decoded = decode(message)
            if decoded is not None:
                columns.extend_columns(decoded)
        if not len(columns):
            continue
        timestamp = now
        if timestamp is None:
            finite = [timestamp for timestamp in columns.timestamps if isfinite(timestamp)]
            timestamp = max(finite) if finite else system.simulator.clock.now()
        system.simulator.accountant.record_transfer(
            timestamp=timestamp,
            source=f"broker/{fog1.node_id}",
            target=fog1.node_id,
            target_layer=LayerName.FOG_1,
            size_bytes=columns.total_bytes,
            message_count=len(columns),
        )
        counts[fog1.node_id] = _acquire_sequentially(fog1, columns, timestamp)
    return counts


def _observable_state(system: F2CDataManagement) -> str:
    state = {"records": system.simulator.accountant.records, "dropped": system.dropped_payloads}
    for fog1 in system.fog1_nodes():
        state[fog1.node_id] = (
            _nine(fog1.storage._pending_upward.columns),
            fog1.last_acquisition_result,
            fog1.acquisition.quality.last_report,
            fog1.rejected_readings,
            fog1.stats(),
            list(fog1.storage.store.all_readings()),
        )
    return repr(state)


def _check_tag_sharing(system: F2CDataManagement, tagged_sequences=frozenset()) -> None:
    """One tag dict per (node, quality score, category, fog node) for untagged rows, and
    one per row for the rows whose sequence is in *tagged_sequences*."""
    owner_of = {}
    for fog1 in system.fog1_nodes():
        pending = fog1.storage._pending_upward.columns
        for sequence, category, fog, tags in zip(
            pending.sequences, pending.categories, pending.fog_node_ids, pending.tags
        ):
            if sequence in tagged_sequences:
                owner = ("tagged", fog1.node_id, sequence)
            else:
                owner = (fog1.node_id, tags["quality_score"], category, fog)
            assert owner_of.setdefault(id(tags), owner) == owner
    assert len(set(owner_of.values())) == len(owner_of)


@contextlib.contextmanager
def _counting_sequential_runs():
    """The blocks that ran their phases one by one (``LifeCycleBlock.run``) inside the ``with``."""
    block_runs = []
    run = LifeCycleBlock.run

    def counting_run(block, batch, now):
        block_runs.append(block)
        return run(block, batch, now)

    with mock.patch.object(LifeCycleBlock, "run", counting_run):
        yield block_runs


def _rejected(system: F2CDataManagement) -> int:
    """Rows the quality phase rejected in each node's last acquisition."""
    reports = [fog1.acquisition.quality.last_report for fog1 in system.fog1_nodes()]
    return sum(report.rejected for report in reports if report is not None)


def _check_round(rows, default_section, filtering: str = "batch") -> int:
    """Ingest *rows* both ways and compare; returns how many rows quality rejected."""
    columns = _columns(rows)
    before = _nine(columns)

    round_level, reference = _deployment(filtering), _deployment(filtering)
    with _counting_sequential_runs() as block_runs:
        counts = Pipeline.for_system(round_level).ingest_columns(
            columns, now=NOW, default_section=default_section
        )
    # The deployment's configuration alone picks the path: a default block
    # never runs its phases one by one, any other block always does.
    assert len(block_runs) == (len(counts) if filtering == "consecutive" else 0)
    expected = _reference_ingest(reference, rows, default_section)

    assert list(counts.items()) == list(expected.items())
    assert _observable_state(round_level) == _observable_state(reference)
    if filtering != "consecutive":
        _check_tag_sharing(round_level, {sequence for sequence, row in enumerate(rows) if row[7]})

    # Rounds are replayed: the caller's columns are untouched, and the same
    # round object gives a fresh deployment the same cloud.
    assert _nine(columns) == before
    replay = _deployment(filtering)
    Pipeline.for_system(replay).ingest_columns(columns, now=NOW, default_section=default_section)
    round_level.synchronise(now=NOW)
    replay.synchronise(now=NOW)
    reference.synchronise(now=NOW)
    assert cloud_digest(replay) == cloud_digest(round_level) == cloud_digest(reference)
    return _rejected(reference)


def _check_flush(rows, default_section, wire) -> int:
    """Deliver *rows* over the broker both ways and compare; returns how many rows quality rejected."""
    flushed, reference = _deployment(), _deployment()
    flushed_broker = _deliver(flushed, rows, default_section, wire)
    reference_broker = _deliver(reference, rows, default_section, wire)
    now = wire["now"]

    expected = _reference_flush(reference, reference_broker, now)
    with _counting_sequential_runs() as block_runs:
        counts = Pipeline.for_system(flushed).flush_broker(now=now)
    assert block_runs == []

    assert list(counts.items()) == list(expected.items())
    assert _observable_state(flushed) == _observable_state(reference)
    _check_tag_sharing(flushed)  # tags do not travel in a frame
    flushed.synchronise(now=NOW)
    reference.synchronise(now=NOW)
    assert cloud_digest(flushed) == cloud_digest(reference)
    return _rejected(reference)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rounds(), st.sampled_from(["batch", "batch", "none", "consecutive"]))
def test_round_ingest_is_the_sequential_phases(drawn, filtering):
    rows, default_section = drawn
    event("rows rejected" if _check_round(rows, default_section, filtering) else "no row rejected")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rounds(), wires)
def test_broker_flush_is_the_sequential_phases(drawn, wire):
    rows, default_section = drawn
    event("rows rejected" if _check_flush(rows, default_section, wire) else "no row rejected")


#: A clean round over three nodes with duplicates within and across sensors.
CLEAN_ROUND = [
    (sensor_id, TYPE_OF[sensor_id], CATEGORY_OF[TYPE_OF[sensor_id]], value, NOW - age, None, 22, None)
    for sensor_id, value, age in [
        ("s-0", 21.5, 450.0), ("s-1", 21.5, 450.0), ("s-2", 0.0, 0.0), ("s-0", 21.5, 0.0),
        ("s-1", 22.0, 0.0), ("s-2", -0.0, 1.0), ("s-0", 50.0, 86_400.0),
    ]
]
SINGLE_FLAWS = [
    (0, ""), (1, ""), (1, "seismograph"), (2, "other"), (5, "fog1/elsewhere"), (5, ""),
    *((3, value) for value in ODD_VALUES),
    *((4, timestamp) for timestamp in ODD_TIMESTAMPS),
    *((7, tags) for tags in ODD_TAGS),
]


def test_the_clean_round_is_the_sequential_phases():
    assert _check_round(CLEAN_ROUND, None) == 0
    assert _check_round(CLEAN_ROUND, SECTIONS[1]) == 0


@pytest.mark.parametrize("position", [0, 3, len(CLEAN_ROUND)])
@pytest.mark.parametrize("flaw", SINGLE_FLAWS, ids=repr)
def test_every_flaw_alone_is_acquired_in_the_round(flaw, position):
    index, value = flaw
    row = CLEAN_ROUND[2]
    rows = list(CLEAN_ROUND)
    rows.insert(position, row[:index] + (value,) + row[index + 1:])
    _check_round(rows, None)


PLAIN_WIRE = {"now": NOW, "split_at": None, "corrupted": None, "csv": None, "echoed": None}


def test_the_clean_round_is_flushed_in_one_pass():
    assert _check_flush(CLEAN_ROUND, None, PLAIN_WIRE) == 0
    assert _check_flush(CLEAN_ROUND, SECTIONS[1], PLAIN_WIRE) == 0
    assert _check_flush(CLEAN_ROUND, None, {**PLAIN_WIRE, "split_at": 3}) == 0
    assert _check_flush(CLEAN_ROUND, None, {**PLAIN_WIRE, "corrupted": SECTIONS[2], "csv": SECTIONS[3]}) == 0
    # ("s-0" is assigned to SECTIONS[0]: echoed there it is one sensor in one inbox.)
    assert _check_flush(CLEAN_ROUND, None, {**PLAIN_WIRE, "echoed": SECTIONS[0]}) == 0


@pytest.mark.parametrize(
    "wire", [{"now": None}, {"echoed": SECTIONS[3]}], ids=["now-is-none", "sensor-in-two-inboxes"]
)
def test_a_flush_without_one_now_or_one_owner_per_sensor_is_one_pass(wire):
    assert _check_flush(CLEAN_ROUND, None, {**PLAIN_WIRE, **wire}) == 0


def _row(sensor_id, value, timestamp):
    """A clean row of *sensor_id* but for its value and timestamp."""
    sensor_type = TYPE_OF[sensor_id]
    return (sensor_id, sensor_type, CATEGORY_OF[sensor_type], value, timestamp, None, 22, None)


def test_a_flush_without_now_ages_each_row_against_its_own_node():
    """A row stale at its node's ``now`` is penalised though another node acquires earlier."""
    rows = [_row("s-0", 21.5, NOW), _row("s-0", 22.0, NOW - 86_401.0), _row("s-1", 21.5, NOW - 30.0)]
    assert _check_flush(rows, None, {**PLAIN_WIRE, "now": None}) == 0


def test_each_block_of_a_round_acquires_at_its_own_now():
    """A row from the future at its own block's ``now`` is rejected though another block's is later."""
    rows = [_row("s-0", 21.5, NOW), _row("s-1", 21.5, NOW), _row("s-1", 22.0, NOW - 100.0)]
    ranks, nows = [0, 1, 1], [NOW, NOW - 100.0]
    blocks = [fog1.acquisition for fog1 in _deployment().fog1_nodes()[:2]]
    references = [fog1.acquisition for fog1 in _deployment().fog1_nodes()[:2]]
    outcomes = acquire_round(blocks, _columns(rows), ranks, nows)
    for rank, (block, reference, (acquired, result)) in enumerate(zip(blocks, references, outcomes)):
        own_rows = _columns(rows).gather([row for row, row_rank in enumerate(ranks) if row_rank == rank])
        batch = ReadingBatch.from_columns(own_rows)
        expected, expected_result = LifeCycleBlock.run(reference, batch, nows[rank])
        assert repr((list(acquired), result)) == repr((list(expected), expected_result))
        assert repr(block.quality.last_report) == repr(reference.quality.last_report)
    assert blocks[1].quality.last_report.rejection_reasons == {"timestamp_in_future": 1}


@pytest.mark.parametrize("flaw", [flaw for flaw in SINGLE_FLAWS if flaw[0] in (0, 1, 2, 3, 4)], ids=repr)
def test_every_flaw_the_wire_carries_is_flushed_in_one_pass(flaw):
    """Fog ids and tags do not travel in a broker frame; every other flaw does."""
    index, value = flaw
    row = CLEAN_ROUND[2]
    rows = [*CLEAN_ROUND[:3], row[:index] + (value,) + row[index + 1:], *CLEAN_ROUND[3:]]
    _check_flush(rows, None, PLAIN_WIRE)
