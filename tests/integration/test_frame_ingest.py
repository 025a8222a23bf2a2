"""Integration tests for the columnar wire-frame ingest path.

One encoded column frame per (section, round) must land the same data in
the hierarchy as per-reading delivery, with identical byte accounting (the
frame carries each reading's Table-I wire size).
"""

import base64
import itertools
import json
import pathlib
import struct
import zlib

import pytest

from repro.api import Pipeline, PipelineConfig, connect
from repro.common import serialization as ser
from repro.core.architecture import F2CDataManagement
from repro.messaging.broker import Broker
from repro.sensors.readings import ReadingColumns
from tests.conftest import make_reading


REJECTED_FRAMES = pathlib.Path(__file__).parent / ".." / "common" / "data" / "rejected_frames.json"


def _readings(count=12, timestamp=5.0):
    return [
        make_reading(
            sensor_id=f"fr-{i:02d}", sensor_type="temperature", value=20.0 + i,
            timestamp=timestamp, size_bytes=64,
        )
        for i in range(count)
    ]


class TestFramePathEquivalence:
    """Frames vs direct batch ingest: identical storage and traffic reports."""

    @staticmethod
    def _sections(system):
        return [s.section_id for s in system.city.sections]

    @staticmethod
    def _assign(system, readings):
        sections = [s.section_id for s in system.city.sections]
        for i, reading in enumerate(readings):
            system.assign_sensor(reading.sensor_id, sections[i % len(sections)])

    def _run_frames(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        readings = _readings()
        self._assign(system, readings)
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        system.api_pipeline.publish_frames(broker, readings, city_slug="toyville", timestamp=5.0)
        system.api_pipeline.flush_broker(now=5.0)
        system.synchronise(now=10.0)
        return system

    def _run_direct(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        readings = _readings()
        self._assign(system, readings)
        system.api_pipeline.ingest_rows(readings, now=5.0)
        system.synchronise(now=10.0)
        return system

    def test_frames_match_direct_ingest(self, small_city, small_catalog):
        frames = self._run_frames(small_city, small_catalog)
        direct = self._run_direct(small_city, small_catalog)
        # The sensors→fog1 hop is recorded from a different source label but
        # the per-layer byte totals must be identical.
        assert frames.traffic_report() == direct.traffic_report()
        assert frames.storage_report() == direct.storage_report()
        frames_cloud = sorted(
            (r.sensor_id, r.timestamp, r.value, r.size_bytes, tuple(r.tags.items()))
            for r in frames.cloud.storage.store.all_readings()
        )
        direct_cloud = sorted(
            (r.sensor_id, r.timestamp, r.value, r.size_bytes, tuple(r.tags.items()))
            for r in direct.cloud.storage.store.all_readings()
        )
        assert frames_cloud == direct_cloud

    def test_mixed_frame_and_csv_messages_in_one_flush(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        # One frame with two readings…
        frame_readings = [
            make_reading(sensor_id="mx-1", value=20.0, timestamp=5.0, size_bytes=64),
            make_reading(sensor_id="mx-2", value=21.0, timestamp=5.0, size_bytes=64),
        ]
        columns = ReadingColumns.from_readings(frame_readings)
        broker.publish("city/toyville/d-01/s-01/frame", columns.encode_frame(), timestamp=5.0)
        # …plus one classic CSV payload for the same section.
        csv_reading = make_reading(sensor_id="mx-3", value=22.0, timestamp=5.0, size_bytes=64)
        broker.publish(
            "city/toyville/d-01/s-01/energy/temperature", csv_reading.encode(), timestamp=5.0
        )
        counts = system.api_pipeline.flush_broker(now=5.0)
        assert counts == {"fog1/d-01/s-01": 3}
        fog1 = system.fog1_for_section("d-01/s-01")
        for sensor_id in ("mx-1", "mx-2", "mx-3"):
            assert fog1.has_series(sensor_id)
        # Frame readings keep their Table-I wire size for accounting.
        assert fog1.storage.store.total_bytes == 3 * 64

    def test_publish_frames_routes_by_assignment(self, small_city, small_catalog):
        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        system.assign_sensor("pf-a", "d-01/s-01")
        system.assign_sensor("pf-b", "d-02/s-02")
        published = system.api_pipeline.publish_frames(
            broker,
            [
                make_reading(sensor_id="pf-a", value=1.0, timestamp=1.0, size_bytes=64),
                make_reading(sensor_id="pf-b", value=2.0, timestamp=1.0, size_bytes=64),
                make_reading(sensor_id="pf-b", value=3.0, timestamp=2.0, size_bytes=64),
            ],
            city_slug="toyville",
            timestamp=2.0,
        )
        assert published == {"d-01/s-01": 1, "d-02/s-02": 2}
        assert broker.published_count == 2  # one frame per section
        counts = system.api_pipeline.flush_broker(now=2.0)
        assert counts == {"fog1/d-01/s-01": 1, "fog1/d-02/s-02": 2}

    def test_publish_frames_requires_a_broker(self, small_city, small_catalog):
        from repro.common.errors import ConfigurationError

        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        with pytest.raises(ConfigurationError):
            system.api_pipeline.publish_frames(None, [make_reading()])

    def test_malformed_frame_is_dropped_without_losing_the_flush(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        good = make_reading(sensor_id="ok-1", value=20.0, timestamp=5.0, size_bytes=64)
        broker.publish(
            "city/toyville/d-01/s-01/energy/temperature", good.encode(), timestamp=5.0
        )
        # A corrupt frame (truncated) must neither raise nor discard the
        # other drained messages.
        torn = ReadingColumns.from_readings([make_reading(size_bytes=64)]).encode_frame()[:-3]
        broker.publish("city/toyville/d-01/s-01/frame", torn, timestamp=5.0)
        counts = system.api_pipeline.flush_broker(now=5.0)
        assert counts == {"fog1/d-01/s-01": 1}
        assert system.fog1_for_section("d-01/s-01").has_series("ok-1")

    def test_negative_wire_size_binary_frame_is_rejected(self):
        payload = ser.encode_columns_binary_v2(
            {
                "sensor_ids": ["s-1"],
                "sensor_types": ["temperature"],
                "categories": ["energy"],
                "values": [20.0],
                "timestamps": [1.0],
                "sizes": [-64],
                "sequences": [0],
            }
        )
        with pytest.raises(ValueError):
            ReadingColumns.decode_frame(payload)

    def test_dropped_payload_counter_tracks_malformed_messages(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        topic = "city/toyville/d-01/s-01/energy/temperature"
        torn_frame = ReadingColumns.from_readings(_readings(2)).encode_frame()[:-1]
        broker.publish(topic, make_reading(sensor_id="ok", size_bytes=64).encode())
        broker.publish(topic, b"too,few,fields\n")                     # short CSV
        broker.publish(topic, b"\xfe\xfd\xfc not utf-8 \xff")          # undecodable bytes
        broker.publish(topic, torn_frame)                              # truncated frame
        broker.publish(topic, b"a,b,c,not-a-timestamp\n")              # bad timestamp field
        counts = system.api_pipeline.flush_broker(now=0.0)
        assert counts == {"fog1/d-01/s-01": 1}
        assert system.dropped_payloads == 4

    def test_a_csv_line_cut_by_its_table_i_size_is_dropped_and_counted(
        self, small_city, small_catalog
    ):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        reading = make_reading(sensor_id="s1", value=20.5, timestamp=1234.5, size_bytes=24)
        payload = reading.encode()
        assert payload == b"s1,temperature,20.5,1234"  # ".500\n" did not fit in 24 B
        broker.publish("city/toyville/d-01/s-01/energy/temperature", payload)
        assert system.api_pipeline.flush_broker(now=1234.5) == {}
        assert system.dropped_payloads == 1
        assert not system.fog1_for_section("d-01/s-01").has_series("s1")

    def test_readings_view_is_a_frozen_snapshot(self):
        from repro.sensors.readings import ReadingBatch

        batch = ReadingBatch([make_reading(value=1.0)])
        view = batch.readings
        batch.append(make_reading(value=2.0))
        assert len(view) == 1  # frozen at access time
        assert len(batch.readings) == 2

    def test_out_of_order_frame_rows_not_rejected_as_future(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        readings = [
            make_reading(sensor_id="oof-1000", value=20.0, timestamp=1000.0, size_bytes=64),
            make_reading(sensor_id="oof-100", value=20.0, timestamp=100.0, size_bytes=64),
        ]
        columns = ReadingColumns.from_readings(readings)
        broker.publish("city/toyville/d-01/s-01/frame", columns.encode_frame(), timestamp=1000.0)
        counts = system.api_pipeline.flush_broker()  # no explicit now: batch max wins
        assert counts == {"fog1/d-01/s-01": 2}
        fog1 = system.fog1_for_section("d-01/s-01")
        assert fog1.has_series("oof-1000") and fog1.has_series("oof-100")


class TestFlushIsARound:
    """``flush_broker`` acquires a flush once for all its nodes, with the
    per-node semantics of acquiring each inbox on its own."""

    @staticmethod
    def _flush_counting_block_runs(system, now):
        from unittest import mock

        from repro.dlc.acquisition import AcquisitionBlock

        run = AcquisitionBlock.run
        block_runs = []

        def counting_run(block, batch, timestamp):
            block_runs.append(block)
            return run(block, batch, timestamp)

        with mock.patch.object(AcquisitionBlock, "run", counting_run):
            counts = system.api_pipeline.flush_broker(now=now)
        return counts, len(block_runs)

    @staticmethod
    def _attached(small_city, small_catalog):
        # The default deployment: fog layer 1 deduplicates per batch.
        system = F2CDataManagement(city=small_city, catalog=small_catalog)
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        return system, broker

    def test_a_clean_flush_never_enters_a_node_row_loop(self, small_city, small_catalog):
        system, broker = self._attached(small_city, small_catalog)
        for index, section in enumerate(("d-01/s-01", "d-01/s-02", "d-02/s-01")):
            readings = [
                make_reading(sensor_id=f"cf-{index}", value=20.0, timestamp=4.0, size_bytes=22),
                make_reading(sensor_id=f"cf-{index}", value=20.0, timestamp=5.0, size_bytes=22),
                make_reading(sensor_id=f"cf-{index}b", value=21.0, timestamp=5.0, size_bytes=22),
            ]
            broker.publish(
                f"city/toyville/{section}/frame",
                ReadingColumns.from_readings(readings).encode_frame(),
                timestamp=5.0,
            )
        counts, block_runs = self._flush_counting_block_runs(system, now=5.0)
        assert block_runs == 0
        # Deployment order, the repeated value deduplicated at each node.
        assert list(counts.items()) == [
            ("fog1/d-01/s-01", 2), ("fog1/d-01/s-02", 2), ("fog1/d-02/s-01", 2),
        ]
        assert [
            (record.source, record.size_bytes, record.message_count)
            for record in system.simulator.accountant.records
        ] == [(f"broker/{node_id}", 66, 3) for node_id in counts]
        assert all(system.fog1_node(node_id).rejected_readings == 1 for node_id in counts)

    def test_a_sensor_on_two_sections_topics_is_admitted_at_both_nodes(self, small_city, small_catalog):
        """Dedup is per node: the same reading in two inboxes is two admissions."""
        system, broker = self._attached(small_city, small_catalog)
        twice = make_reading(sensor_id="dup-1", value=20.0, timestamp=5.0, size_bytes=22)
        alone = make_reading(sensor_id="solo-1", value=21.0, timestamp=5.0, size_bytes=22)
        broker.publish(
            "city/toyville/d-01/s-01/frame",
            ReadingColumns.from_readings([twice, alone]).encode_frame(),
            timestamp=5.0,
        )
        broker.publish(
            "city/toyville/d-02/s-01/frame",
            ReadingColumns.from_readings([twice]).encode_frame(),
            timestamp=5.0,
        )
        counts, block_runs = self._flush_counting_block_runs(system, now=5.0)
        assert counts == {"fog1/d-01/s-01": 2, "fog1/d-02/s-01": 1}
        assert block_runs == 0  # one pass: the node leads the dedup key
        for section in ("d-01/s-01", "d-02/s-01"):
            fog1 = system.fog1_for_section(section)
            assert fog1.has_series("dup-1")
            assert fog1.rejected_readings == 0


    @pytest.mark.parametrize("wire", ["frame", "csv"])
    @pytest.mark.parametrize("non_finite", [float("nan"), float("inf"), float("-inf")], ids=repr)
    def test_a_non_finite_timestamp_does_not_move_its_siblings_now(
        self, small_city, small_catalog, non_finite, wire
    ):
        """Given no ``now``, a batch is acquired at its latest finite timestamp, in any row order.

        Either wire lands in the same inbox and the same flush: one column
        frame for the batch, or one CSV payload per reading.
        """
        timestamp_of = {"broken": non_finite, "old": 0.0, "new": 200_000.0}
        for order in itertools.permutations(timestamp_of):
            system = F2CDataManagement(city=small_city, catalog=small_catalog)
            broker = Broker()
            system.api_pipeline.attach_broker(broker, city_slug="toyville")
            readings = [
                make_reading(
                    sensor_id=sensor_id, value=20.0, timestamp=timestamp_of[sensor_id],
                    size_bytes=64,
                )
                for sensor_id in order
            ]
            if wire == "frame":
                broker.publish(
                    "city/toyville/d-01/s-01/frame",
                    ReadingColumns.from_readings(readings).encode_frame(),
                    timestamp=0.0,
                )
            else:
                for reading in readings:
                    broker.publish(
                        "city/toyville/d-01/s-01/energy/temperature", reading.encode(),
                        timestamp=0.0,
                    )
            system.api_pipeline.flush_broker()
            assert system.dropped_payloads == 0
            fog1 = system.fog1_for_section("d-01/s-01")
            report = fog1.acquisition.quality.last_report
            assert report.rejection_reasons == {"non_finite_timestamp": 1}
            score_of = dict(zip(order, report.scores))
            assert (score_of["old"], score_of["new"]) == (pytest.approx(0.7), 1.0), order
            stored = list(fog1.storage.store.all_readings())
            assert sorted(reading.sensor_id for reading in stored) == ["new", "old"]
            assert all(reading.tags["collected_at"] == 200_000.0 for reading in stored), order
            assert [record.timestamp for record in system.simulator.accountant.records] == [200_000.0]


class TestBinaryFrameDecoderFuzz:
    """Corrupted binary frames: always rejected whole, never a crash.

    The decoder contract is atomicity — a frame decodes completely or
    raises ``ValueError`` — and the ingest contract is that a bad payload
    is dropped (and counted) without aborting the flush or partially
    ingesting rows.  These tests sweep truncations and single-bit flips
    across entire frames, including the header and the CRC itself.
    """

    @staticmethod
    def _frame(rows=6):
        columns = ReadingColumns.from_readings(
            [
                make_reading(
                    sensor_id=f"fz-{i:02d}", sensor_type="temperature",
                    value=20.0 + i, timestamp=5.0 + i, size_bytes=64 + i, sequence=i,
                )
                for i in range(rows)
            ]
        )
        return columns, columns.encode_frame()

    @staticmethod
    def _rebuild_binary(raw_body, n, version=None, flags=None, raw_len=None):
        """A syntactically valid frame around *raw_body* (CRC recomputed)."""
        version = ser.BINARY_FRAME_VERSION_2 if version is None else version
        flags = 0 if flags is None else flags
        raw_len = len(raw_body) if raw_len is None else raw_len
        prefix = ser._HEADER_V2_CRC_PREFIX.pack(version, flags, n, len(raw_body), raw_len, 0)
        crc = zlib.crc32(raw_body, zlib.crc32(prefix))
        return ser.BINARY_FRAME_MAGIC + prefix + struct.pack("<I", crc) + raw_body

    @classmethod
    def _raw_body(cls, payload):
        _, flags, n, _, raw_len, _, _ = ser._HEADER_V2.unpack_from(
            payload, len(ser.BINARY_FRAME_MAGIC)
        )
        stored = payload[len(ser.BINARY_FRAME_MAGIC) + ser._HEADER_V2.size:]
        if flags & ser._FLAG_DICT_COMPRESSED:
            stored = ser._inflate_body(stored, raw_len, ser._v2_codec()[2].copy())
        return stored, n

    def test_every_truncation_is_rejected_cleanly(self):
        _, payload = self._frame()
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                ReadingColumns.decode_frame(payload[:cut])

    def test_every_single_bit_flip_is_rejected_or_not_a_frame(self):
        columns, payload = self._frame()
        original = ReadingColumns.decode_frame(payload)
        for position in range(len(payload)):
            for bit in range(8):
                mutated = bytearray(payload)
                mutated[position] ^= 1 << bit
                mutated = bytes(mutated)
                if not ReadingColumns.is_frame(mutated):
                    continue  # leading NUL destroyed: handled by the CSV path
                try:
                    decoded = ReadingColumns.decode_frame(mutated)
                except ValueError:
                    continue
                # The only acceptable silent survivor is a flip the CRC
                # provably cannot see — and CRC-32 sees every single-bit
                # flip over header+body, so a successful decode must be
                # the unmodified frame (position inside the magic keeping
                # the prefix valid cannot happen for single-bit flips).
                raise AssertionError(
                    f"bit flip at byte {position} bit {bit} decoded to {decoded!r}"
                )

    def test_corrupted_frames_drop_without_crash_or_partial_ingest(self, small_city, small_catalog):
        import random

        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        _, payload = self._frame()
        rng = random.Random(20260729)
        corrupt = []
        for _ in range(40):
            mutated = bytearray(payload)
            if rng.random() < 0.5:
                mutated = mutated[: rng.randrange(len(mutated))]  # truncate
            else:
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            corrupt.append(bytes(mutated))
        good = make_reading(sensor_id="good-1", value=20.0, timestamp=5.0, size_bytes=64)
        topic = "city/toyville/d-01/s-01/frame"
        for mutated in corrupt:
            broker.publish(topic, mutated, timestamp=5.0)
        broker.publish(
            "city/toyville/d-01/s-01/energy/temperature", good.encode(), timestamp=5.0
        )
        counts = system.api_pipeline.flush_broker(now=5.0)
        fog1 = system.fog1_for_section("d-01/s-01")
        # Either a corrupt frame was dropped (counted) or — if a mutation
        # left the frame intact semantically — it ingested *whole*; what can
        # never happen is a crash, a partial row set, or losing "good-1".
        assert fog1.has_series("good-1")
        assert counts["fog1/d-01/s-01"] >= 1
        assert system.dropped_payloads >= 1
        stored = len(fog1.storage.store)
        assert stored == counts["fog1/d-01/s-01"]

    def test_rebuilt_frame_decodes(self):
        # Keeps the helpers honest: an unmodified rebuild is a valid frame.
        columns, payload = self._frame()
        raw_body, n = self._raw_body(payload)
        decoded = ReadingColumns.decode_frame(self._rebuild_binary(raw_body, n))
        assert decoded.sensor_ids == columns.sensor_ids

    @pytest.mark.parametrize("version", [1, 3])
    def test_wrong_version_is_rejected_even_with_a_valid_crc(self, version):
        _, payload = self._frame()
        raw_body, n = self._raw_body(payload)
        bad = self._rebuild_binary(raw_body, n, version=version)
        with pytest.raises(ValueError, match="version"):
            ReadingColumns.decode_frame(bad)

    @pytest.mark.parametrize("flags", [0x08, 0x80])
    def test_unknown_flags_are_rejected(self, flags):
        _, payload = self._frame()
        raw_body, n = self._raw_body(payload)
        bad = self._rebuild_binary(raw_body, n, flags=flags)
        with pytest.raises(ValueError, match="flags"):
            ReadingColumns.decode_frame(bad)

    def test_row_count_mismatch_is_rejected(self):
        _, payload = self._frame()
        raw_body, n = self._raw_body(payload)
        with pytest.raises(ValueError):
            ReadingColumns.decode_frame(self._rebuild_binary(raw_body, n + 1))

    def test_raw_length_mismatch_is_rejected(self):
        _, payload = self._frame()
        raw_body, n = self._raw_body(payload)
        with pytest.raises(ValueError):
            ReadingColumns.decode_frame(self._rebuild_binary(raw_body, n, raw_len=len(raw_body) + 1))

    def test_trailing_bytes_are_rejected(self):
        _, payload = self._frame()
        raw_body, n = self._raw_body(payload)
        with pytest.raises(ValueError, match="trailing|truncated"):
            ReadingColumns.decode_frame(self._rebuild_binary(raw_body + b"\x00", n))

    def test_wrong_magic_falls_back_to_the_csv_drop_path(self, small_city, small_catalog):
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        _, payload = self._frame()
        impostor = b"\x01" + payload[1:]  # no NUL prefix: not a frame at all
        assert not ReadingColumns.is_frame(impostor)
        broker.publish("city/toyville/d-01/s-01/frame", impostor, timestamp=5.0)
        counts = system.api_pipeline.flush_broker(now=5.0)
        assert counts == {}
        assert system.dropped_payloads == 1

    def test_malformed_binary_frame_never_partially_ingests(self, small_city, small_catalog):
        """A frame that dies mid-decode must not leave any of its rows behind."""
        system = F2CDataManagement(
            city=small_city, catalog=small_catalog, fog1_aggregator_factory=None
        )
        broker = Broker()
        system.api_pipeline.attach_broker(broker, city_slug="toyville")
        _, payload = self._frame(rows=8)
        raw_body, n = self._raw_body(payload)
        # Claim more rows than the body carries: column parsing dies after
        # the string table, long after some columns were readable.
        broker.publish(
            "city/toyville/d-01/s-01/frame", self._rebuild_binary(raw_body, n + 4), timestamp=5.0
        )
        counts = system.api_pipeline.flush_broker(now=5.0)
        assert counts == {}
        assert len(system.fog1_for_section("d-01/s-01").storage.store) == 0
        assert system.dropped_payloads == 1


def _published_frame(publisher, small_city, small_catalog, transport="direct") -> bytes:
    """The one frame *publisher* emits for three readings of one section.

    ``publish_frames`` publishes on a deployment built apart from its
    pipeline, whose *transport* is varied.
    """
    readings = _readings(3)
    if publisher == "encode_frame":
        return ReadingColumns.from_readings(readings).encode_frame()
    broker = Broker()
    broker.subscribe("tap", "city/#")
    system = F2CDataManagement(city=small_city, catalog=small_catalog)
    pipeline = Pipeline(PipelineConfig(transport=transport), system=system)
    pipeline.publish_frames(
        broker, readings, city_slug="toyville", default_section="d-01/s-01", timestamp=5.0
    )
    (message,) = broker.drain_inbox("tap")
    return message.payload


class TestRetiredFrameLayout:
    """One binary layout is written; a version-1 or JSON frame is one dropped payload."""

    @pytest.mark.parametrize("publisher", ["encode_frame", "publish_frames"])
    def test_publishers_default_to_the_binary_layout(self, publisher, small_city, small_catalog):
        payload = _published_frame(publisher, small_city, small_catalog)
        assert payload.startswith(ser.BINARY_FRAME_MAGIC)
        assert payload[len(ser.BINARY_FRAME_MAGIC)] == ser.BINARY_FRAME_VERSION_2
        decoded = ReadingColumns.decode_frame(payload)
        assert decoded.sensor_ids == [reading.sensor_id for reading in _readings(3)]

    @pytest.mark.parametrize("transport", ["frames-binary-v2", "direct", "broker-csv"])
    def test_publish_frames_writes_its_transports_layout(
        self, transport, small_city, small_catalog
    ):
        payload = _published_frame(
            "publish_frames", small_city, small_catalog, transport=transport
        )
        assert payload.startswith(ser.BINARY_FRAME_MAGIC)
        assert payload[len(ser.BINARY_FRAME_MAGIC)] == ser.BINARY_FRAME_VERSION_2
        decoded = ReadingColumns.decode_frame(payload)
        assert decoded.sensor_ids == [reading.sensor_id for reading in _readings(3)]

    @pytest.mark.parametrize("retired", ["v1_section_frame", "json_section_frame"])
    def test_golden_retired_frame_is_dropped_and_the_flush_continues(
        self, retired, small_city, small_catalog
    ):
        fixture = json.loads(REJECTED_FRAMES.read_text(encoding="utf-8"))[retired]
        frame = base64.b64decode(fixture["base64"])
        assert ReadingColumns.is_frame(frame) and fixture["rows"] > 0
        assert not frame.startswith(ser.BINARY_FRAME_MAGIC + bytes([ser.BINARY_FRAME_VERSION_2]))
        client = connect(
            city=small_city, catalog=small_catalog, transport="frames-binary-v2", city_slug="toyville"
        )
        client.session.broker.publish("city/toyville/d-01/s-01/frame", frame, timestamp=5.0)
        # The same flush drains the parked retired frame and this ingest's frame.
        readings = _readings()
        counts = client.ingest(readings, now=5.0, default_section="d-01/s-01")
        assert counts == {"fog1/d-01/s-01": len(readings)}
        assert client.health()["conservation"]["dropped_payloads"] == 1
        fog1 = client.system.fog1_for_section("d-01/s-01")
        assert len(fog1.storage.store) == len(readings)
        assert all(fog1.has_series(reading.sensor_id) for reading in readings)
