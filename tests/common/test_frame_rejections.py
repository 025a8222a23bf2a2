"""Damaged v2 frames are rejected with the error each check has always raised.

The body codec reads narrow integer columns and ASCII string tables in one
call each, and interns fog ids with one pass; every other input goes the
general way.  Each case here damages a frame inside the part such a fast
path reads — a truncated narrow column, an invalid or split UTF-8 table,
an index past the end of the table, an unknown width, a wide integer —
and pins the exact ``ValueError`` message of the check that rejects it.
The frames are stored uncompressed with a valid CRC, so the damage
reaches the body decoder.
"""

import re
import struct
import zlib

import pytest

from repro.common import serialization as ser

#: One two-row body, part by part, in layout order.
PARTS = {
    "count": struct.pack("<I", 4),
    "lengths": b"\x01" + bytes([2, 2, 1, 1]),
    "blob": b"s0s1tk",
    "ids": b"\x00\x01",
    "types": b"\x02\x02",
    "categories": b"\x03\x03",
    "values": b"\x00\x00" + struct.pack("<2d", 1.0, 2.0),
    "timestamps": b"\x00" + struct.pack("<2d", 900.0, 900.0),
    "sizes": b"\x01" + bytes([28, 28]),
    "sequences": b"\x01" + bytes([0, 1]),
}

RECORD = {
    "sensor_ids": ["s0", "s1"],
    "sensor_types": ["t", "t"],
    "categories": ["k", "k"],
    "values": [1.0, 2.0],
    "timestamps": [900.0, 900.0],
    "sizes": [28, 28],
    "sequences": [0, 1],
}


def frame(cut=None, **damaged) -> bytes:
    """The two-row frame with *damaged* parts, or ending one byte into *cut*."""
    parts = {**PARTS, **damaged}
    if cut is not None:
        names = list(parts)
        parts = {name: parts[name] for name in names[:names.index(cut) + 1]}
        parts[cut] = parts[cut][:-1]
    body = b"".join(parts.values())
    prefix = ser._HEADER_V2_CRC_PREFIX.pack(ser.BINARY_FRAME_VERSION_2, 0, 2, len(body), len(body), 0)
    crc = zlib.crc32(body, zlib.crc32(prefix))
    return ser.BINARY_FRAME_MAGIC + prefix + struct.pack("<I", crc) + body


def test_the_undamaged_parts_are_the_encoders_body():
    assert bytes(ser._encode_binary_body(RECORD, 2)) == b"".join(PARTS.values())
    decoded = ser.decode_columns_binary_v2(frame())
    assert decoded["sensor_ids"] == RECORD["sensor_ids"]
    assert list(decoded["sequences"]) == RECORD["sequences"]


DAMAGED = [
    # Narrow integer columns, widened in one call.
    (dict(cut="lengths"), "binary column frame truncated in string table column"),
    (dict(lengths=b"\x05" + bytes([2, 2, 1, 1])), "binary column frame has unknown string table width tag 5"),
    (dict(lengths=b"\x09" + struct.pack("<4q", 2, 2, 1, -1)), "binary column frame has a negative string length"),
    (dict(cut="sizes"), "binary column frame truncated in sizes column"),
    (dict(sizes=b"\x03" + bytes([28, 28])), "binary column frame has unknown sizes width tag 3"),
    (dict(sizes=b"\x02" + struct.pack("<H", 28)), "binary column frame truncated in sequences column"),
    (dict(cut="sequences"), "binary column frame truncated in sequences column"),
    (dict(sequences=b"\x08" + struct.pack("<2Q", 0, 2**63)), "binary column frame integer does not fit in 64 bits"),
    (dict(sequences=b"\x01" + bytes([0, 1, 2])), "binary column frame has trailing bytes"),
    # The string table, decoded once as ASCII text and sliced.
    (dict(cut="blob"), "binary column frame truncated in string table column"),
    (dict(blob=b"s0s1t\xff"), "binary column frame string table is not valid UTF-8"),
    (dict(blob=b"s0s1\xc3\xa9"), "binary column frame string table is not valid UTF-8"),
    (dict(ids=b"\x00\x04"), "binary column frame has out-of-range sensor_ids index"),
    (dict(categories=b"\x03\xff"), "binary column frame has out-of-range categories index"),
    (dict(cut="types"), "binary column frame truncated in sensor_types column"),
]


@pytest.mark.parametrize("damage, message", DAMAGED, ids=[message for _, message in DAMAGED])
def test_a_damaged_fast_path_part_raises_its_checks_error(damage, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ser.decode_columns_binary_v2(frame(**damage))


def test_a_split_multibyte_entry_is_rejected_but_a_whole_one_decodes():
    # b"\xc3\xa9" is one character: split over two entries it is invalid,
    # as one entry of two bytes it is "é".
    whole = frame(lengths=b"\x01" + bytes([2, 2, 1, 2]), blob=b"s0s1t\xc3\xa9")
    assert ser.decode_columns_binary_v2(whole)["categories"] == ["é", "é"]


INVALID_INTS = [
    ([1.5, 28], "binary column frames require integer sizes/sequences: "
                "'float' object cannot be interpreted as an integer"),
    ([2**64, 28], "integer column value does not fit in 64 bits"),
    ([-(2**63) - 1, 28], "integer column value does not fit in 64 bits"),
]


@pytest.mark.parametrize("sizes, message", INVALID_INTS, ids=["float", "wide", "below-i64"])
def test_an_unencodable_int_column_raises_the_general_paths_error(sizes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ser.encode_columns_binary_v2({**RECORD, "sizes": sizes})


def test_fog_ids_are_interned_by_value_and_checked_per_entry():
    # The fog-id table closes an extended body: its entries in first-seen
    # order, one per distinct value, then one index a row.
    record = {name: column * 2 for name, column in RECORD.items()}
    payload = ser.encode_columns_binary_v2(
        record, tags=[None] * 4, fog_node_ids=["fog1/b", None, "fog1/a", "fog1/b"]
    )
    header = len(ser.BINARY_FRAME_MAGIC) + ser._HEADER_V2.size
    body = zlib.decompressobj(zdict=ser.deployment_dictionary()).decompress(payload[header:])
    entries = [b'"fog1/b"', b"null", b'"fog1/a"']
    assert body.endswith(struct.pack("<I", 3) + b"".join(
        struct.pack("<I", len(entry)) + entry for entry in entries
    ) + bytes([0, 1, 2, 0]))
    tags = [None, None]
    payload = ser.encode_columns_binary_v2(RECORD, tags=tags, fog_node_ids=["fog1/a", "fog1/a"])
    assert ser.decode_columns_binary_v2(payload)["fog_node_ids"] == ["fog1/a", "fog1/a"]
    with pytest.raises(ValueError, match="^binary column frame fog ids entry must be str or None, got int$"):
        ser.encode_columns_binary_v2(RECORD, tags=tags, fog_node_ids=["fog1/a", 7])
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        ser.encode_columns_binary_v2(RECORD, tags=tags, fog_node_ids=["fog1/a", ["fog1/b"]])
