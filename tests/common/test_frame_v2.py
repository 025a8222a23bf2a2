"""Tests for the shared-dictionary binary column frames.

The binary layout carries deployment-dictionary compression, a dictionary
CRC handshake, and optional in-body identity columns (tags + fog-node ids)
under one safety contract: a frame decodes completely or raises
``ValueError``; truncations and single-bit flips are always rejected.
Version edges are pinned explicitly: a frame of any other layout version
(the retired version 1 included) is rejected, and a decoder holding a
*different* dictionary rejects the frame instead of mis-inflating it.
"""

import base64
import json
import pathlib
import struct
import zlib

import pytest

from repro.common import serialization as ser
from repro.sensors.readings import ReadingColumns


REJECTED_FRAMES = pathlib.Path(__file__).parent / "data" / "rejected_frames.json"


def _record(n=6):
    return {
        "sensor_ids": [f"noise_level_basic-{i:05d}" for i in range(n)],
        "sensor_types": ["noise_level_basic"] * n,
        "categories": ["noise"] * n,
        "values": [40.0 + i for i in range(n)],
        "timestamps": [900.0 + i for i in range(n)],
        "sizes": [28] * n,
        "sequences": list(range(n)),
    }


def _identity_columns(n=6):
    shared = {"category": "noise", "city": "barcelona", "quality_score": 0.9}
    tags = [shared if i % 2 == 0 else {"solo": i} for i in range(n)]
    fogs = ["fog1/district-01/section-01" if i % 2 == 0 else None for i in range(n)]
    return tags, fogs


class TestV2RoundTrip:
    def test_plain_round_trip(self):
        record = _record()
        decoded = ser.decode_columns_binary_v2(ser.encode_columns_binary_v2(record))
        assert decoded["sensor_ids"] == record["sensor_ids"]
        assert decoded["values"] == record["values"]
        assert list(decoded["timestamps"]) == record["timestamps"]
        assert list(decoded["sizes"]) == record["sizes"]
        assert "tags" not in decoded and "fog_node_ids" not in decoded

    def test_extended_round_trip_carries_identity_columns(self):
        record = _record()
        tags, fogs = _identity_columns()
        payload = ser.encode_columns_binary_v2(record, tags=tags, fog_node_ids=fogs)
        decoded = ser.decode_columns_binary_v2(payload)
        assert decoded["tags"] == tags
        assert decoded["fog_node_ids"] == fogs

    def test_extended_frame_preserves_tag_identity_sharing(self):
        # Rows that shared one tag dict must decode back to one shared dict
        # (the fused acquisition memo's memory shape), not three copies.
        record = _record()
        tags, fogs = _identity_columns()
        decoded = ser.decode_columns_binary_v2(
            ser.encode_columns_binary_v2(record, tags=tags, fog_node_ids=fogs)
        )
        out = decoded["tags"]
        assert out[0] is out[2] is out[4]
        assert out[1] is not out[3]  # distinct dicts stay distinct

    def test_empty_frame_round_trips(self):
        empty = {name: [] for name in _record(0)}
        decoded = ser.decode_columns_binary_v2(
            ser.encode_columns_binary_v2(empty, tags=[], fog_node_ids=[])
        )
        assert decoded["sensor_ids"] == [] and decoded["tags"] == []

    def test_encoding_is_deterministic(self):
        record = _record()
        tags, fogs = _identity_columns()
        a = ser.encode_columns_binary_v2(record, tags=tags, fog_node_ids=fogs)
        b = ser.encode_columns_binary_v2(record, tags=tags, fog_node_ids=fogs)
        assert a == b

    def test_identity_columns_must_come_together_and_match_length(self):
        record = _record()
        tags, fogs = _identity_columns()
        with pytest.raises(ValueError, match="both tags and fog_node_ids"):
            ser.encode_columns_binary_v2(record, tags=tags)
        with pytest.raises(ValueError, match="both tags and fog_node_ids"):
            ser.encode_columns_binary_v2(record, fog_node_ids=fogs)
        with pytest.raises(ValueError, match="wrong length"):
            ser.encode_columns_binary_v2(record, tags=tags[:-1], fog_node_ids=fogs)

    def test_identity_entries_are_type_checked(self):
        record = _record()
        tags, fogs = _identity_columns()
        with pytest.raises(ValueError, match="tags entry must be dict"):
            ser.encode_columns_binary_v2(
                record, tags=["not-a-dict"] * len(fogs), fog_node_ids=fogs
            )
        with pytest.raises(ValueError, match="fog ids entry must be str"):
            ser.encode_columns_binary_v2(record, tags=tags, fog_node_ids=[7] * len(tags))

    def test_unencodable_tag_entries_raise_what_json_raises(self):
        # The table encodes in one C-level pass; an entry that pass cannot
        # encode raises exactly what ``json.dumps`` raises for it.
        record = _record()
        tags, fogs = _identity_columns()
        before = ser.encode_columns_binary_v2(record, tags=tags, fog_node_ids=fogs)
        circular = {"category": "noise"}
        circular["self"] = circular
        for bad, error, message in (
            ({"readings": {1, 2}}, TypeError, "not JSON serializable"),
            (circular, ValueError, "Circular reference"),
        ):
            with pytest.raises(error, match=message):
                ser.encode_columns_binary_v2(record, tags=[bad] + tags[1:], fog_node_ids=fogs)
        # A failed table leaves nothing behind for the next frame.
        assert ser.encode_columns_binary_v2(record, tags=tags, fog_node_ids=fogs) == before

    def test_non_string_id_column_is_rejected(self):
        record = _record()
        record["sensor_types"] = [5] * len(record["sensor_types"])
        with pytest.raises(ValueError, match="require string ids/types/categories"):
            ser.encode_columns_binary_v2(record)
        record["sensor_types"] = [["unhashable"]] * len(record["sensor_types"])
        with pytest.raises(ValueError, match="require string ids/types/categories"):
            ser.encode_columns_binary_v2(record)


def _forge(flags: int, raw: bytes, stored: bytes, n: int) -> bytes:
    """A frame with a valid CRC over whatever header fields it is given."""
    prefix = ser._HEADER_V2_CRC_PREFIX.pack(ser.BINARY_FRAME_VERSION_2, flags, n, len(stored), len(raw), 0)
    crc = zlib.crc32(stored, zlib.crc32(prefix))
    return ser.BINARY_FRAME_MAGIC + prefix + struct.pack("<I", crc) + stored


class TestVersioning:
    """Binary frames of any other layout version are rejected."""

    def test_the_encoder_speaks_the_binary_layout(self):
        payload = ser.encode_columns_binary_v2(_record())
        assert payload[len(ser.BINARY_FRAME_MAGIC)] == ser.BINARY_FRAME_VERSION_2
        assert ser.is_column_frame(payload)
        assert ser.decode_columns_binary_v2(payload)["sensor_ids"] == _record()["sensor_ids"]

    def test_retired_version_1_frame_is_rejected(self):
        fixture = json.loads(REJECTED_FRAMES.read_text(encoding="utf-8"))["v1_section_frame"]
        payload = base64.b64decode(fixture["base64"])
        assert payload.startswith(ser.BINARY_FRAME_MAGIC)
        assert payload[len(ser.BINARY_FRAME_MAGIC)] == 1
        assert ser.is_column_frame(payload)
        with pytest.raises(ValueError, match="version: 1"):
            ser.decode_columns_binary_v2(payload)
        with pytest.raises(ValueError, match="version: 1"):
            ReadingColumns.decode_frame(payload)

    def test_retired_json_frame_is_rejected(self):
        fixture = json.loads(REJECTED_FRAMES.read_text(encoding="utf-8"))["json_section_frame"]
        payload = base64.b64decode(fixture["base64"])
        assert not payload.startswith(ser.BINARY_FRAME_MAGIC)
        assert ser.is_column_frame(payload)  # goes to the frame decoder, not the CSV parser
        with pytest.raises(ValueError, match="missing magic prefix"):
            ser.decode_columns_binary_v2(payload)
        with pytest.raises(ValueError, match="missing magic prefix"):
            ReadingColumns.decode_frame(payload)


class TestDictionaryHandshake:
    def test_deployment_dictionary_is_stable_and_bounded(self):
        blob = ser.deployment_dictionary()
        assert blob is ser.deployment_dictionary()  # built once, cached
        assert 0 < len(blob) <= 32 * 1024
        assert b"fog1/district-01/section-01" in blob
        assert b"noise" in blob

    def test_dictionary_mismatch_is_rejected_via_crc(self, monkeypatch):
        # Encode with the real dictionary, then impersonate a decoder whose
        # deployment derived different bytes: the CRC handshake must reject
        # the frame instead of mis-inflating it against the wrong dictionary.
        payload = ser.encode_columns_binary_v2(_record(64))
        flags = payload[len(ser.BINARY_FRAME_MAGIC) + 1]
        assert flags & 0x02  # vocabulary-shaped rows must hit the dict path
        monkeypatch.setattr(ser, "_v2_dictionary_crc", ser._v2_dictionary_crc ^ 0xDEAD)
        with pytest.raises(ValueError, match="dictionary mismatch"):
            ser.decode_columns_binary_v2(payload)

    def test_dict_crc_without_dict_flag_is_rejected(self):
        raw = ser._encode_binary_body(_record(), 6)
        prefix = ser._HEADER_V2_CRC_PREFIX.pack(
            ser.BINARY_FRAME_VERSION_2, 0, 6, len(raw), len(raw), 12345
        )
        crc = zlib.crc32(bytes(raw), zlib.crc32(prefix))
        forged = ser.BINARY_FRAME_MAGIC + prefix + struct.pack("<I", crc) + bytes(raw)
        with pytest.raises(ValueError, match="without the dictionary flag"):
            ser.decode_columns_binary_v2(forged)

    @pytest.mark.parametrize("flags", [0x01, 0x03, 0x05])
    def test_flag_bit_0_is_rejected(self, flags):
        # Bit 0 (dictionary-less zlib) was never written by any encoder; a
        # frame setting it — alone or beside a valid bit — is an unknown
        # flag, even when its body is a well-formed zlib stream.
        raw = bytes(ser._encode_binary_body(_record(64), 64))
        compressed = zlib.compress(raw, 6)
        with pytest.raises(ValueError, match="unknown flags"):
            ser.decode_columns_binary_v2(_forge(flags, raw, compressed, 64))


class TestV2DecoderFuzz:
    """Truncations and single-bit flips: always rejected whole, never a crash."""

    @staticmethod
    def _payloads():
        record = _record()
        tags, fogs = _identity_columns()
        return [
            ser.encode_columns_binary_v2(record),
            ser.encode_columns_binary_v2(record, tags=tags, fog_node_ids=fogs),
        ]

    def test_every_truncation_is_rejected_cleanly(self):
        for payload in self._payloads():
            for cut in range(len(payload)):
                with pytest.raises(ValueError):
                    ReadingColumns.decode_frame(payload[:cut])

    def test_every_single_bit_flip_is_rejected_or_not_a_frame(self):
        for payload in self._payloads():
            for position in range(len(payload)):
                for bit in range(8):
                    mutated = bytearray(payload)
                    mutated[position] ^= 1 << bit
                    mutated = bytes(mutated)
                    if not ReadingColumns.is_frame(mutated):
                        continue  # magic destroyed: handled by the CSV path
                    try:
                        decoded = ReadingColumns.decode_frame(mutated)
                    except ValueError:
                        continue
                    # CRC-32 over header+body sees every single-bit flip —
                    # including flips of the dict_crc field itself — so a
                    # successful decode here is a contract violation.
                    raise AssertionError(
                        f"bit flip at byte {position} bit {bit} decoded to {decoded!r}"
                    )


class TestV2WireShrink:
    def test_vocabulary_frames_shrink_against_self_contained_zlib(self):
        # A per-section frame is dominated by deployment vocabulary; the
        # shared dictionary must beat compressing the same body on its own.
        # (The city-hour acceptance floor lives in the integration suite.)
        record = _record(48)
        raw = bytes(ser._encode_binary_body(record, 48))
        header = len(ser.BINARY_FRAME_MAGIC) + ser._HEADER_V2.size
        frame = ser.encode_columns_binary_v2(record)
        assert len(frame) - header < len(zlib.compress(raw, 9))
