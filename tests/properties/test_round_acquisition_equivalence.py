"""Round-level acquisition is the per-node row loop, observably.

``Pipeline.ingest_columns`` acquires a *clean* round once for all its fog
nodes (``repro.dlc.acquisition.acquire_round``) and hands any other round,
grouped per node, to ``FogNodeLevel1.ingest`` — the general row loop.  Both
must leave a deployment in exactly the state the row loop alone leaves it
in.  Hypothesis draws multi-node rounds mixing clean rows with every
disqualifier; each round goes through ``ingest_columns`` on one deployment
and through a ~20-line reference (route, ``record_transfer``,
``FogNodeLevel1.ingest`` per node) on a twin, and everything an observer
can see must agree: acquired rows in order, tag dicts with their key order
and sharing, block results, quality reports, counters, the returned counts
in order, the accountant's records and the fog layer-1 stores.

``Pipeline.flush_broker`` is the same round entry behind the broker: a
third twin receives each drawn round as column frames (``publish_frames``)
and flushes, next to a reference that drains, decodes and acquires inbox
by inbox.  What the wire adds is drawn too — two messages in one inbox, a
corrupted frame, a CSV line among the frames, ``now=None``, and a sensor
published on two sections' topics (per-node dedup admits both copies, a
round-wide pass would not, so such a flush must take the row loop).

States are compared through ``repr``: it keeps dict key order, tells
``-0.0`` from ``0.0`` and equates NaNs, none of which ``==`` does.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.api.pipeline import Pipeline
from repro.city.barcelona import fog1_node_id
from repro.city.model import City, District, Section
from repro.core.architecture import F2CDataManagement, cloud_digest
from repro.dlc.acquisition import AcquisitionBlock
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


def _deployment() -> F2CDataManagement:
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
    system = F2CDataManagement(city=City(name="Toyville", districts=districts), catalog=_catalog())
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
#: One field of an otherwise clean row replaced: every disqualifier on its
#: own, plus look-alikes that must *not* disqualify (an in-range value of a
#: type the catalog does not know, an empty tag dict).
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
    """A round (clean, or clean rows with disqualified ones mixed in) and its default section."""
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


def _is_clean(rows) -> bool:
    """The documented meaning of a clean round, row by row."""

    def clean(sensor_id, sensor_type, _category, value, timestamp, fog, _size, tags):
        low, high = RANGE_OF.get(sensor_type, (-INF, INF))
        return (
            type(value) is float
            and low <= value <= high
            and bool(sensor_id)
            and bool(sensor_type)
            and not tags
            and fog is None
            and timestamp <= NOW + 60.0
            and NOW - timestamp <= 86_400.0
        )

    return all(clean(*row) for row in rows)


def _reference_ingest(system: F2CDataManagement, rows, default_section):
    """The row loop alone: route, account and ``FogNodeLevel1.ingest`` per node."""
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
        counts[node_id] = len(fog1.ingest(ReadingBatch.from_columns(columns), NOW))
    return counts


def _deliver(system: F2CDataManagement, rows, default_section, wire) -> Broker:
    """Attach a broker and publish the drawn round (and the wire's extras) on it."""
    pipeline = Pipeline.for_system(system)
    broker = Broker()
    pipeline.attach_broker(broker, batched=True)
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
        broker.publish_columns(f"city/bcn/{wire['echoed']}/frame", _columns(rows[:1]), timestamp=NOW)
    return broker


def _reference_flush(system: F2CDataManagement, broker: Broker, now):
    """The row loop alone, inbox by inbox; also returns what each inbox decoded to."""
    decode = Pipeline.for_system(system)._decode_message_columns
    counts, inboxes = {}, {}
    for fog1 in system.fog1_nodes():
        columns = ReadingColumns()
        for message in broker.drain_inbox(fog1.node_id):
            decoded = decode(message)
            if decoded is not None:
                columns.extend_columns(decoded)
        if not len(columns):
            continue
        inboxes[fog1.node_id] = columns
        timestamp = now if now is not None else max(columns.timestamps)
        system.simulator.accountant.record_transfer(
            timestamp=timestamp,
            source=f"broker/{fog1.node_id}",
            target=fog1.node_id,
            target_layer=LayerName.FOG_1,
            size_bytes=columns.total_bytes,
            message_count=len(columns),
        )
        counts[fog1.node_id] = len(fog1.ingest(ReadingBatch.from_columns(columns), timestamp))
    return counts, inboxes


def _observable_state(system: F2CDataManagement) -> str:
    state = {"records": system.simulator.accountant.records, "dropped": system.dropped_payloads}
    for fog1 in system.fog1_nodes():
        pending = fog1.storage._pending_upward.columns
        dict_ids = {}
        state[fog1.node_id] = (
            _nine(pending),
            [dict_ids.setdefault(id(tags), len(dict_ids)) for tags in pending.tags],
            fog1.last_acquisition_result,
            fog1.acquisition.quality.last_report,
            fog1.rejected_readings,
            fog1.stats(),
            list(fog1.storage.store.all_readings()),
        )
    return repr(state)


@contextlib.contextmanager
def _counting_block_runs():
    """The blocks whose row loop (``AcquisitionBlock.run``) ran inside the ``with``."""
    block_runs = []
    run = AcquisitionBlock.run

    def counting_run(block, batch, now):
        block_runs.append(block)
        return run(block, batch, now)

    with mock.patch.object(AcquisitionBlock, "run", counting_run):
        yield block_runs


def _check_round(rows, default_section) -> bool:
    """Ingest *rows* both ways and compare; returns whether the round was clean."""
    columns = _columns(rows)
    before = _nine(columns)

    round_level, row_loop = _deployment(), _deployment()
    with _counting_block_runs() as block_runs:
        counts = Pipeline.for_system(round_level).ingest_columns(
            columns, now=NOW, default_section=default_section
        )
    # Which path ran is a property of the round alone: a clean round never
    # enters a block's row loop, any other round enters it once per node.
    clean = _is_clean(rows)
    assert len(block_runs) == (0 if clean else len(counts))
    expected = _reference_ingest(row_loop, rows, default_section)

    assert list(counts.items()) == list(expected.items())
    assert _observable_state(round_level) == _observable_state(row_loop)

    # Rounds are replayed: the caller's columns are untouched, and the same
    # round object gives a fresh deployment the same cloud.
    assert _nine(columns) == before
    replay = _deployment()
    Pipeline.for_system(replay).ingest_columns(columns, now=NOW, default_section=default_section)
    round_level.synchronise(now=NOW)
    replay.synchronise(now=NOW)
    row_loop.synchronise(now=NOW)
    assert cloud_digest(replay) == cloud_digest(round_level) == cloud_digest(row_loop)
    return clean


def _check_flush(rows, default_section, wire) -> bool:
    """Deliver *rows* over the broker both ways and compare; returns whether one pass acquired the flush."""
    flushed, row_loop = _deployment(), _deployment()
    flushed_broker = _deliver(flushed, rows, default_section, wire)
    row_loop_broker = _deliver(row_loop, rows, default_section, wire)
    now = wire["now"]

    expected, inboxes = _reference_flush(row_loop, row_loop_broker, now)
    with _counting_block_runs() as block_runs:
        counts = Pipeline.for_system(flushed).flush_broker(now=now)

    # One pass for the whole flush exactly when there is one `now`, no sensor
    # id sits in two inboxes, and every decoded row is clean.
    decoded_rows = [
        (sensor_id, sensor_type, category, value, timestamp, fog, size, tags)
        for columns in inboxes.values()
        for sensor_id, sensor_type, category, value, timestamp, fog, size, tags in zip(
            columns.sensor_ids, columns.sensor_types, columns.categories, columns.values,
            columns.timestamps, columns.fog_node_ids, columns.sizes, columns.tags,
        )
    ]
    inboxes_of = {}
    for node_id, columns in inboxes.items():
        for sensor_id in set(columns.sensor_ids):
            inboxes_of.setdefault(sensor_id, []).append(node_id)
    shared_sensor = any(len(node_ids) > 1 for node_ids in inboxes_of.values())
    one_pass = now is not None and not shared_sensor and _is_clean(decoded_rows)
    assert len(block_runs) == (0 if one_pass else len(counts))

    assert list(counts.items()) == list(expected.items())
    assert _observable_state(flushed) == _observable_state(row_loop)
    flushed.synchronise(now=NOW)
    row_loop.synchronise(now=NOW)
    assert cloud_digest(flushed) == cloud_digest(row_loop)
    return one_pass


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rounds())
def test_round_ingest_is_the_row_loop(drawn):
    rows, default_section = drawn
    event("clean round" if _check_round(rows, default_section) else "row loop")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rounds(), wires)
def test_broker_flush_is_the_row_loop(drawn, wire):
    rows, default_section = drawn
    event("one pass" if _check_flush(rows, default_section, wire) else "row loop")


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
#: The look-alikes: flaws a round stays clean with.
HARMLESS = [(1, "seismograph"), (2, "other"), (4, NOW + 60.0), (7, {})]


def test_the_clean_round_is_clean():
    assert _check_round(CLEAN_ROUND, None)
    assert _check_round(CLEAN_ROUND, SECTIONS[1])


@pytest.mark.parametrize("position", [0, 3, len(CLEAN_ROUND)])
@pytest.mark.parametrize("flaw", SINGLE_FLAWS, ids=repr)
def test_every_disqualifier_alone_sends_the_round_to_the_row_loop(flaw, position):
    index, value = flaw
    row = CLEAN_ROUND[2]
    rows = list(CLEAN_ROUND)
    rows.insert(position, row[:index] + (value,) + row[index + 1:])
    assert _check_round(rows, None) == (flaw in HARMLESS)


PLAIN_WIRE = {"now": NOW, "split_at": None, "corrupted": None, "csv": None, "echoed": None}


def test_the_clean_round_is_flushed_in_one_pass():
    assert _check_flush(CLEAN_ROUND, None, PLAIN_WIRE)
    assert _check_flush(CLEAN_ROUND, SECTIONS[1], PLAIN_WIRE)
    # Nothing the wire adds to an inbox disqualifies a flush by itself.
    assert _check_flush(CLEAN_ROUND, None, {**PLAIN_WIRE, "split_at": 3})
    assert _check_flush(CLEAN_ROUND, None, {**PLAIN_WIRE, "corrupted": SECTIONS[2], "csv": SECTIONS[3]})
    # ("s-0" is assigned to SECTIONS[0]: echoed there it is one sensor in one inbox.)
    assert _check_flush(CLEAN_ROUND, None, {**PLAIN_WIRE, "echoed": SECTIONS[0]})


@pytest.mark.parametrize(
    "wire", [{"now": None}, {"echoed": SECTIONS[3]}], ids=["now-is-none", "sensor-in-two-inboxes"]
)
def test_a_flush_without_one_now_or_one_owner_per_sensor_takes_the_row_loop(wire):
    assert not _check_flush(CLEAN_ROUND, None, {**PLAIN_WIRE, **wire})


@pytest.mark.parametrize("flaw", [flaw for flaw in SINGLE_FLAWS if flaw[0] in (0, 1, 2, 3, 4)], ids=repr)
def test_every_disqualifier_the_wire_carries_sends_the_flush_to_the_row_loop(flaw):
    """Fog ids and tags do not travel in a broker frame; every other flaw does."""
    index, value = flaw
    row = CLEAN_ROUND[2]
    rows = [*CLEAN_ROUND[:3], row[:index] + (value,) + row[index + 1:], *CLEAN_ROUND[3:]]
    assert _check_flush(rows, None, PLAIN_WIRE) == (flaw in HARMLESS)
