"""Payload serialization helpers.

Sensor readings travel through the messaging and network substrates as byte
payloads.  The encoders here produce Sentilo-flavoured representations: a
compact CSV-like line format (what a constrained device would send), a JSON
format (what the platform API exposes), and a *column frame* format (one
self-describing payload carrying a whole batch of readings as parallel
columns — the high-throughput broker wire format, one frame per node-round
instead of one CSV payload per reading).  The encoded size is what the
traffic accounting measures, so encoders are deliberately simple and
deterministic.

A column frame has one wire layout, **binary version 2** (``RBB`` +
version byte 2): struct-packed little-endian numeric columns, one
length-prefixed interned string table shared by the three string columns,
adaptive 1/2/4/8-byte widths for the small-integer columns, and a CRC-32
over header and body so truncation and bit flips are always detected (a
corrupted frame decodes to a ``ValueError``, never to silently wrong data).
The body is compressed against a *deployment-scoped shared dictionary*
built once from the city's interned vocabulary (sensor type names,
categories, section and fog-node ids, tag-template JSON fragments): small
per-section frames are dominated by exactly those strings, and one primed
``compressobj`` is reused (via ``.copy()``) per frame instead of paying
zlib setup each time.  The header carries the dictionary's CRC-32 so a
decoder with a different dictionary rejects the frame instead of
mis-inflating it, and an *extended* flag lets a frame carry the per-row
tag/fog-node identity columns in dictionary-coded form (the shard IPC
batch and the durable segment log use it).  A binary frame with any other
version byte is rejected, and so is a payload in any retired layout (the
JSON frame, ``\\x00RBF1``): every frame magic starts with a NUL byte,
which never starts a CSV line, so receivers send every NUL-led payload to
the frame decoder.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from itertools import chain, repeat
from sys import intern
from typing import Any, Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.common.typedcols import as_float_column, column_from_bytes, column_to_bytes

#: Leading marker of a packed binary column frame (NUL + "RBB"); the byte
#: after the magic is the layout version.
BINARY_FRAME_MAGIC = b"\x00RBB"

#: The binary frame layout version.  Decoders reject every other version,
#: so the layout can evolve without ever misreading an old frame.
BINARY_FRAME_VERSION_2 = 2

#: The column names a frame must carry, all lists of equal length — also the
#: exact column order of the binary layout's body.
COLUMN_FRAME_FIELDS = (
    "sensor_ids",
    "sensor_types",
    "categories",
    "values",
    "timestamps",
    "sizes",
    "sequences",
)

_STRING_FIELDS = ("sensor_ids", "sensor_types", "categories")

#: Binary header after the magic: version(u8) + flags(u8) + row count(u32)
#: + stored body length(u32) + raw body length(u32) + dictionary CRC-32(u32)
#: + CRC-32(u32), all little-endian.  See the layout comment in the
#: binary-frames section.
_HEADER_V2 = struct.Struct("<BBIIIII")
_HEADER_V2_CRC_PREFIX = struct.Struct("<BBIIII")

#: Header flag bits.  Bit 0 is unassigned: a frame setting it is rejected
#: as carrying unknown flags.
_FLAG_DICT_COMPRESSED = 0x02
_FLAG_EXTENDED = 0x04
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")

#: Per-row value type tags on the mixed-values path.
_VAL_FLOAT = 0
_VAL_INT = 1
_VAL_STR = 2
_VAL_TRUE = 3
_VAL_FALSE = 4
_VAL_NONE = 5
_VAL_BIGINT = 6

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


#: Canonical (sorted-key, compact) JSON, built once: ``json.dumps`` with
#: these arguments constructs an encoder per call, and every extended frame
#: — IPC and segment log — encodes several identity-table entries.
_canonical_encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_canonical_json = _canonical_encoder.encode

#: The C encoder ``_canonical_json`` builds on every call, built once with
#: the same arguments so a whole identity table encodes without a Python
#: step per entry; ``None`` where the json C accelerator is missing.  It
#: keeps no circular-reference markers: a circular entry ends in a
#: ``RecursionError`` here, and the per-entry path then raises the error
#: ``_canonical_json`` raises.
_c_canonical = (
    json.encoder.c_make_encoder(
        None, _canonical_encoder.default, json.encoder.encode_basestring_ascii,
        None, ":", ",", True, False, True,
    )
    if json.encoder.c_make_encoder is not None
    else None
)


def encode_json(record: Mapping[str, Any]) -> bytes:
    """Encode a mapping as canonical (sorted-key, compact) JSON bytes."""
    return _canonical_json(record).encode("utf-8")


def encode_csv_line(values: Iterable[Any]) -> bytes:
    """Encode a flat sequence of values as a single CSV line (no quoting).

    Values containing commas or newlines are rejected to keep the format
    unambiguous; telemetry values never legitimately contain them.
    """
    parts = []
    for value in values:
        text = str(value)
        if "," in text or "\n" in text:
            raise ValueError(f"value not representable in CSV line format: {text!r}")
        parts.append(text)
    return (",".join(parts) + "\n").encode("utf-8")


def decode_csv_line(payload: bytes) -> list[str]:
    """Inverse of :func:`encode_csv_line` (values come back as strings)."""
    text = payload.decode("utf-8")
    if text.endswith("\n"):
        text = text[:-1]
    if not text:
        return []
    return text.split(",")


# --------------------------------------------------------------------------- #
# Column frames — shared validation and dispatch
# --------------------------------------------------------------------------- #
def _checked_lengths(columns: Mapping[str, List[Any]]) -> int:
    lengths = {name: len(columns[name]) for name in COLUMN_FRAME_FIELDS}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"column lengths differ: {lengths}")
    return next(iter(lengths.values()))


def is_column_frame(payload: bytes) -> bool:
    """Whether *payload* goes to the frame decoder (vs the CSV line parser).

    Every frame magic, current or retired, starts with a NUL byte, which
    never starts a CSV line; an unknown or retired frame therefore fails in
    :func:`decode_columns_binary_v2`, not in the CSV parser.
    """
    return payload[:1] == b"\x00"


# --------------------------------------------------------------------------- #
# Binary column frames
#
# Layout (all integers little-endian):
#
#   magic       4 bytes   b"\x00RBB"
#   version     u8        BINARY_FRAME_VERSION_2
#   flags       u8        bit 1: body zlib-compressed with the deployment
#                                dictionary
#                         bit 2: extended body (tag + fog-node columns)
#                         (every other bit is rejected)
#   rows        u32       number of rows n
#   stored_len  u32       length of the stored (possibly compressed) body
#   raw_len     u32       length of the body after decompression (equal to
#                         stored_len when flags bit 1 is clear)
#   dict_crc    u32       CRC-32 of the deployment dictionary when bit 1 is
#                         set, 0 otherwise — a decoder holding a different
#                         dictionary rejects the frame instead of
#                         mis-inflating it
#   crc         u32       CRC-32 (zlib) of the header fields above (version
#                         through dict_crc) + the stored body
#   body (after optional decompression):
#     string table      u32 entry count, then the entries' UTF-8 byte
#                       lengths as one small-integer column, then the
#                       entries back to back; one table shared by the
#                       three string columns
#     sensor_ids        n indices into the table (width below)
#     sensor_types      n indices
#     categories        n indices
#     values            u8 layout tag: 0 = an f64 column (all values are
#                       floats, the telemetry fast path — see below);
#                       1 = n tagged rows (u8 type + payload: f64 / i64 /
#                       u32-length-prefixed UTF-8 / true / false / null /
#                       u32-length-prefixed decimal bigint)
#     timestamps        one f64 column
#     sizes             one small-integer column
#     sequences         one small-integer column
#     then iff flags bit 2:
#     tags              u32 entry count; per entry a u32-length-prefixed
#                       canonical JSON document (an object or null); then n
#                       indices into the table.  Entries are interned by
#                       *identity*, so rows sharing one tag dict share one
#                       table entry and decode back to one shared dict object.
#     fog ids           same shape; entries are JSON strings or null.
#
# An **f64 column** is a u8 tag + payload: tag 0 = n packed f64; tag 2 =
# dictionary-coded — u32 entry count, the distinct 8-byte values, then n
# narrow indices.  Distinctness is by *bit pattern* (so ``-0.0`` vs ``0.0``
# and NaN payloads survive exactly), and the encoder picks whichever layout
# is smaller — sensor rounds repeat few distinct timestamps, so the
# dictionary usually collapses that column to ~1 byte per row.
#
# A **small-integer column** is a u8 tag + payload: tags 1/2/4/8 = packed
# unsigned elements of that byte width (the narrowest that fits); tag 9 =
# packed signed 8-byte elements (any negative value present); tag 10 =
# dictionary-coded like the f64 columns but with i64 entries.  Again the
# encoder picks the smallest.
#
# Index width is always derived from the table/dictionary entry count
# (u8 ≤ 256 entries, u16 ≤ 65536, u32 beyond), so it needs no tag.
#
# The shared dictionary is deployment-scoped and deterministic: it is built
# once per process from the city's interned vocabulary (section topics and
# ids, fog-node ids, sensor type names, categories, tag-template JSON
# fragments), so every encoder and decoder of one deployment derives the
# same bytes — there is no dictionary exchange on the wire, only the CRC
# handshake in the header.  Small per-section frames are dominated by
# exactly that vocabulary and carry too little internal repetition to
# compress on their own; the dictionary gives the compressor those strings
# up front.  One primed ``compressobj``/``decompressobj`` pair is built with
# the dictionary and ``.copy()``-ed per frame, so the per-frame cost is a
# cheap state clone instead of a fresh zlib setup + dictionary priming.
# The encoder keeps the compressed body only when it is smaller
# (``raw_len`` bounds the decompression, so a crafted frame cannot balloon
# memory).
#
# Every decoder-visible inconsistency — bad magic, unknown version/flags,
# wrong stored/raw length, CRC mismatch, dictionary mismatch, out-of-range
# table index, trailing bytes — raises ``ValueError``; the CRC covers the
# header fields and the stored body, so truncation and bit flips are
# detectable even when they land in packed numeric data that would
# otherwise "decode".
# --------------------------------------------------------------------------- #
_SIGNED_TAG = 9
_DICT_TAG = 10
_PLAIN_F64_TAG = 0
_DICT_F64_TAG = 2

#: Columns shorter than this never try dictionary coding.  Small frames
#: don't win (the u32 entry count + table overhead, plus the body is
#: zlib-compressed anyway, which picks up the repetition); the dictionary
#: pays off on city-scale frames where it also speeds compression up by
#: shrinking its input.
_DICT_MIN_ROWS = 256

_INDEX_DTYPES = {"B": "u1", "H": "<u2", "I": "<u4"}

#: Little-endian element types of the plain small-integer layouts, by tag.
_PLAIN_DTYPES = {1: "u1", 2: "<u2", 4: "<u4", 8: "<u8", _SIGNED_TAG: "<i8"}


def _index_typecode(table_size: int) -> str:
    if table_size <= 1 << 8:
        return "B"
    if table_size <= 1 << 16:
        return "H"
    return "I"


def _pack_string_column(values: List[Any], table: Dict[str, int]) -> List[int]:
    """Intern *values* into *table*, returning their indices.

    Key validation happens once per distinct entry (in the caller), not once
    per row — the interning listcomp is the per-row hot loop.
    """
    intern = table.setdefault
    try:
        return [intern(value, len(table)) for value in values]
    except TypeError as exc:
        raise ValueError(f"binary column frames require string ids/types/categories: {exc}") from exc


def _pack_indices(code: str, indices) -> bytes:
    return indices.astype(_INDEX_DTYPES[code]).tobytes()


def _pack_index_list(code: str, indices: List[int]) -> bytes:
    """A list of table indices in the width *code* (one C call)."""
    return bytes(indices) if code == "B" else column_to_bytes(array(code, indices))


def _pack_f64_column(column: array) -> bytes:
    """One f64 column: plain packed doubles, or a bit-exact dictionary."""
    n = len(column)
    plain = column_to_bytes(column)
    if n >= _DICT_MIN_ROWS:
        # Dictionary distinctness runs on the raw 64-bit patterns, so
        # -0.0/0.0 and NaN payloads round-trip exactly.
        bits = np.frombuffer(column, dtype=np.int64)
        entries, inverse = np.unique(bits, return_inverse=True)
        count = len(entries)
        code = _index_typecode(count)
        dict_size = _U32.size + 8 * count + struct.calcsize(code) * n
        if dict_size < len(plain):
            return (
                bytes([_DICT_F64_TAG])
                + _U32.pack(count)
                + entries.astype("<i8", copy=False).tobytes()
                + _pack_indices(code, inverse)
            )
    return bytes([_PLAIN_F64_TAG]) + plain


def _read_block(view: memoryview, offset: int, size: int, what: str) -> tuple:
    if offset + size > len(view):
        raise ValueError(f"binary column frame truncated in {what} column")
    return bytes(view[offset:offset + size]), offset + size


def _unpack_dict_indices(
    view: memoryview, offset: int, n: int, what: str
) -> tuple:
    """Read a dictionary header: (entry count, index column, new offset)."""
    if offset + _U32.size > len(view):
        raise ValueError(f"binary column frame truncated in {what} column")
    (count,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    code = _index_typecode(count)
    entries, offset = _read_block(view, offset, 8 * count, what)
    index_bytes, offset = _read_block(view, offset, struct.calcsize(code) * n, what)
    indices = column_from_bytes(code, index_bytes)
    if n and (not count or max(indices) >= count):
        raise ValueError(f"binary column frame has out-of-range {what} dictionary index")
    return count, entries, indices, offset


def _unpack_f64_column(view: memoryview, offset: int, n: int, what: str) -> tuple:
    if offset >= len(view):
        raise ValueError(f"binary column frame truncated in {what} column")
    tag = view[offset]
    offset += 1
    if tag == _PLAIN_F64_TAG:
        raw, offset = _read_block(view, offset, 8 * n, what)
        return column_from_bytes("d", raw), offset
    if tag != _DICT_F64_TAG:
        raise ValueError(f"binary column frame has unknown {what} layout tag {tag}")
    count, entries, indices, offset = _unpack_dict_indices(view, offset, n, what)
    table = np.frombuffer(entries, dtype="<f8")
    gathered = table[np.asarray(indices)].astype("<f8", copy=False)
    return column_from_bytes("d", gathered.tobytes()), offset


def _pack_small_ints(values) -> bytes:
    """One small-integer column: narrowest plain width, or a dictionary."""
    n = len(values)
    if type(values) is list:
        # One C call per width tried.  A dictionary never beats one byte a
        # row and is not tried below _DICT_MIN_ROWS, so there the first
        # width that takes every value is the column; negative, wide and
        # non-integer values go on to the general path.
        try:
            return b"\x01" + bytes(values)
        except (TypeError, ValueError):
            pass
        if n < _DICT_MIN_ROWS:
            for tag, code in ((2, "H"), (4, "I")):
                try:
                    return bytes((tag,)) + column_to_bytes(array(code, values))
                except (TypeError, OverflowError):
                    pass
    if not n:
        return bytes([1])
    if type(values) is array and values.typecode == "q":
        column = values
    else:
        try:
            column = array("q", values)
        except TypeError as exc:
            raise ValueError(f"binary column frames require integer sizes/sequences: {exc}") from exc
        except OverflowError as exc:
            raise ValueError("integer column value does not fit in 64 bits") from exc
    ints = np.frombuffer(column, dtype=np.int64)
    low, high = ints.min(), ints.max()
    if low < 0:
        width = 8
        plain_tag = _SIGNED_TAG
    else:
        if high <= 0xFF:
            width = 1
        elif high <= 0xFFFF:
            width = 2
        elif high <= 0xFFFFFFFF:
            width = 4
        else:
            width = 8
        plain_tag = width
    if n >= _DICT_MIN_ROWS:
        entries, inverse = np.unique(ints, return_inverse=True)
        count = len(entries)
        icode = _index_typecode(count)
        dict_size = _U32.size + 8 * count + struct.calcsize(icode) * n
        if dict_size < width * n:
            return (
                bytes([_DICT_TAG])
                + _U32.pack(count)
                + entries.astype("<i8", copy=False).tobytes()
                + _pack_indices(icode, inverse)
            )
    return bytes([plain_tag]) + ints.astype(_PLAIN_DTYPES[plain_tag]).tobytes()


def _unpack_small_ints(view: memoryview, offset: int, n: int, what: str) -> tuple:
    if offset >= len(view):
        raise ValueError(f"binary column frame truncated in {what} column")
    tag = view[offset]
    offset += 1
    if tag == _DICT_TAG:
        _, entries, indices, offset = _unpack_dict_indices(view, offset, n, what)
        table = np.frombuffer(entries, dtype="<i8")
        gathered = table[np.asarray(indices)].astype("<i8", copy=False)
        return column_from_bytes("q", gathered.tobytes()), offset
    dtype = _PLAIN_DTYPES.get(tag)
    if dtype is None:
        raise ValueError(f"binary column frame has unknown {what} width tag {tag}")
    end = offset + (8 if tag == _SIGNED_TAG else tag) * n
    if end > len(view):
        raise ValueError(f"binary column frame truncated in {what} column")
    # Widened to the canonical signed-64 column type in one numpy call.
    ints = np.frombuffer(view, dtype, n, offset)
    if tag == 8 and n and ints.max() >> 63:
        raise ValueError("binary column frame integer does not fit in 64 bits")
    return column_from_bytes("q", ints.astype("<i8").tobytes()), end


def _encode_binary_body(columns: Mapping[str, List[Any]], n: int) -> bytearray:
    """The packed seven-column body of a binary frame (before any extension)."""
    table: Dict[str, int] = {}
    id_ix = _pack_string_column(columns["sensor_ids"], table)
    type_ix = _pack_string_column(columns["sensor_types"], table)
    cat_ix = _pack_string_column(columns["categories"], table)
    try:
        texts = list(map(str.encode, table))  # UTF-8; insertion order == index order
    except TypeError as exc:
        raise ValueError(
            "binary column frames require string ids/types/categories"
        ) from exc

    body = bytearray()
    body += _U32.pack(len(table))
    body += _pack_small_ints(list(map(len, texts)))
    body += b"".join(texts)
    index_code = _index_typecode(len(table))
    body += _pack_index_list(index_code, id_ix)
    body += _pack_index_list(index_code, type_ix)
    body += _pack_index_list(index_code, cat_ix)

    values = columns["values"]
    if {float}.issuperset(map(type, values)):
        body.append(0)
        body += _pack_f64_column(array("d", values))
    else:
        body.append(1)
        append = body.append
        for value in values:
            if type(value) is bool:
                append(_VAL_TRUE if value else _VAL_FALSE)
            elif isinstance(value, float):
                append(_VAL_FLOAT)
                body += _F64.pack(value)
            elif isinstance(value, int):
                if _I64_MIN <= value <= _I64_MAX:
                    append(_VAL_INT)
                    body += _I64.pack(value)
                else:
                    raw = str(value).encode("ascii")
                    append(_VAL_BIGINT)
                    body += _U32.pack(len(raw))
                    body += raw
            elif isinstance(value, str):
                raw = value.encode("utf-8")
                append(_VAL_STR)
                body += _U32.pack(len(raw))
                body += raw
            elif value is None:
                append(_VAL_NONE)
            else:
                raise ValueError(
                    f"value not representable in a column frame: {type(value).__name__}"
                )

    try:
        timestamps = as_float_column(columns["timestamps"])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"binary column frames require numeric timestamps: {exc}") from exc
    body += _pack_f64_column(timestamps)
    body += _pack_small_ints(columns["sizes"])
    body += _pack_small_ints(columns["sequences"])
    return body


def _inflate_body(stored, raw_len: int, decompressor) -> bytes:
    try:
        # raw_len bounds the decompression so a crafted frame cannot
        # balloon memory past its declared body size.
        raw = decompressor.decompress(bytes(stored), raw_len)
    except zlib.error as exc:
        raise ValueError(f"binary column frame body does not decompress: {exc}") from exc
    if (
        decompressor.unconsumed_tail
        or decompressor.unused_data
        or not decompressor.eof
        or len(raw) != raw_len
    ):
        raise ValueError("binary column frame decompressed length mismatch")
    return raw


def _decode_binary_body(body: memoryview, body_len: int, n: int) -> tuple:
    """Decode the shared seven-column body; returns (record, end offset)."""
    offset = 0
    if body_len < _U32.size:
        raise ValueError("binary column frame truncated in string table")
    (table_size,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    lengths, offset = _unpack_small_ints(body, offset, table_size, "string table")
    if table_size and min(lengths) < 0:
        raise ValueError("binary column frame has a negative string length")
    blob, offset = _read_block(body, offset, sum(lengths), "string table")
    # Interned: ids, types and categories recur in every frame, and the
    # stores keep them per row, so each distinct string is held once.  An
    # ASCII table is decoded once and sliced; any other goes entry by entry.
    table: List[str] = []
    table_append = table.append
    position = 0
    if blob.isascii():
        text = str(blob, "ascii")
        for length in lengths:
            end = position + length
            table_append(intern(text[position:end]))
            position = end
    else:
        try:
            for length in lengths:
                table_append(intern(str(blob[position:position + length], "utf-8")))
                position += length
        except UnicodeDecodeError as exc:
            raise ValueError("binary column frame string table is not valid UTF-8") from exc

    index_code = _index_typecode(table_size)
    index_size = struct.calcsize(index_code) * n
    string_columns: Dict[str, List[str]] = {}
    for name in _STRING_FIELDS:
        if offset + index_size > body_len:
            raise ValueError(f"binary column frame truncated in {name} column")
        indices = bytes(body[offset:offset + index_size])
        if index_code != "B":
            indices = column_from_bytes(index_code, indices)
        offset += index_size
        try:
            string_columns[name] = [table[i] for i in indices]
        except IndexError as exc:
            raise ValueError(f"binary column frame has out-of-range {name} index") from exc

    if offset >= body_len:
        raise ValueError("binary column frame truncated in values column")
    values: List[Any]
    values_tag = body[offset]
    offset += 1
    if values_tag == 0:
        values_column, offset = _unpack_f64_column(body, offset, n, "values")
        values = values_column.tolist()
    elif values_tag == 1:
        values = []
        values_append = values.append
        for _ in range(n):
            if offset >= body_len:
                raise ValueError("binary column frame truncated in values column")
            tag = body[offset]
            offset += 1
            if tag == _VAL_FLOAT:
                if offset + 8 > body_len:
                    raise ValueError("binary column frame truncated in values column")
                values_append(_F64.unpack_from(body, offset)[0])
                offset += 8
            elif tag == _VAL_INT:
                if offset + 8 > body_len:
                    raise ValueError("binary column frame truncated in values column")
                values_append(_I64.unpack_from(body, offset)[0])
                offset += 8
            elif tag in (_VAL_STR, _VAL_BIGINT):
                if offset + _U32.size > body_len:
                    raise ValueError("binary column frame truncated in values column")
                (length,) = _U32.unpack_from(body, offset)
                offset += _U32.size
                if offset + length > body_len:
                    raise ValueError("binary column frame truncated in values column")
                try:
                    text = str(body[offset:offset + length], "utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError("binary column frame value is not valid UTF-8") from exc
                offset += length
                if tag == _VAL_BIGINT:
                    try:
                        values_append(int(text))
                    except ValueError as exc:
                        raise ValueError("binary column frame bigint is not decimal") from exc
                else:
                    values_append(text)
            elif tag == _VAL_TRUE:
                values_append(True)
            elif tag == _VAL_FALSE:
                values_append(False)
            elif tag == _VAL_NONE:
                values_append(None)
            else:
                raise ValueError(f"binary column frame has unknown value tag {tag}")
    else:
        raise ValueError("binary column frame has unknown values layout tag")

    timestamps, offset = _unpack_f64_column(body, offset, n, "timestamps")
    sizes, offset = _unpack_small_ints(body, offset, n, "sizes")
    sequences, offset = _unpack_small_ints(body, offset, n, "sequences")
    return {
        "sensor_ids": string_columns["sensor_ids"],
        "sensor_types": string_columns["sensor_types"],
        "categories": string_columns["categories"],
        "values": values,
        "timestamps": timestamps,
        "sizes": sizes,
        "sequences": sequences,
    }, offset


#: zlib level for broker-wire frame bodies: compressing against the shared
#: dictionary, higher levels keep finding matches; the default level buys
#: ~10-15% more shrink on small frames than level 1, for an encode cost
#: that the per-stream compressor reuse already paid back.
_V2_ZLIB_LEVEL = 6

#: zlib level for the *fast* path (local IPC pipes): the dictionary does
#: nearly all the work there — level 1 gives up ~3% of the shrink for a
#: ~40% cheaper deflate, the right trade when the bytes never leave the
#: machine and the encoder shares a core with the decoder.
_V2_ZLIB_FAST_LEVEL = 1

_v2_dictionary: Optional[bytes] = None
_v2_dictionary_crc: int = 0
_v2_compressor = None
_v2_fast_compressor = None
_v2_decompressor = None


def deployment_dictionary() -> bytes:
    """The deterministic deployment-scoped zlib dictionary for binary frames.

    Built once per process from the city's interned string vocabulary and
    cached; every process of one deployment derives byte-identical
    dictionaries, so only the CRC travels in the frame header.
    """
    global _v2_dictionary, _v2_dictionary_crc, _v2_compressor
    global _v2_fast_compressor, _v2_decompressor
    if _v2_dictionary is not None:
        return _v2_dictionary
    # Lazy imports: the city/catalog layers import this module, so their
    # vocabulary is pulled in at first use rather than at import time.
    from repro.city.barcelona import BARCELONA, CLOUD_NODE_ID, fog1_node_id, fog2_node_id
    from repro.sensors.catalog import BARCELONA_CATALOG

    # zlib rewards material near the *end* of the dictionary (closest match
    # offsets), so parts run from least to most frequent wire material.
    parts: List[str] = []
    for district in BARCELONA.districts:
        for section in district.sections:
            parts.append(f"city/barcelona/{section.section_id}/frame")
    parts.append(CLOUD_NODE_ID)
    for district in BARCELONA.districts:
        parts.append(fog2_node_id(district.district_id))
        for section in district.sections:
            parts.append(fog1_node_id(section.section_id))
    # Tag-template fragments in the canonical (sorted-key, compact) JSON
    # shape the acquisition layer emits for every reading's tag dict.
    parts.extend(
        (
            '{"category":"',
            '","city":"barcelona","collected_at":',
            ',"fog_node":"fog1/district-',
            '","quality_score":0.9',
        )
    )
    # Sensor ids are "<type name>-<5 digits>": the name plus leading zeros
    # covers most of every string-table entry.  Type names and categories
    # go last — they are the most repeated strings on the wire.
    for name in BARCELONA_CATALOG.type_names:
        parts.append(f"{name}-000")
    parts.extend(str(category) for category in BARCELONA_CATALOG.categories)
    blob = "".join(parts).encode("utf-8")
    if len(blob) > 32 * 1024:  # pragma: no cover - vocabulary growth guard
        blob = blob[-32 * 1024:]  # zlib dictionaries cap at 32 KiB; keep the tail
    _v2_dictionary = blob
    _v2_dictionary_crc = zlib.crc32(blob)
    _v2_compressor = zlib.compressobj(_V2_ZLIB_LEVEL, zlib.DEFLATED, zdict=blob)
    _v2_fast_compressor = zlib.compressobj(_V2_ZLIB_FAST_LEVEL, zlib.DEFLATED, zdict=blob)
    _v2_decompressor = zlib.decompressobj(zdict=blob)
    return blob


def deployment_dictionary_crc() -> int:
    """CRC-32 of :func:`deployment_dictionary` (the wire handshake value)."""
    deployment_dictionary()
    return _v2_dictionary_crc


def _v2_codec(fast: bool = False) -> tuple:
    """(dictionary crc, primed compressor, primed decompressor), built once."""
    deployment_dictionary()
    compressor = _v2_fast_compressor if fast else _v2_compressor
    return _v2_dictionary_crc, compressor, _v2_decompressor


def _intern_column(values, key) -> tuple:
    """Intern *values* into (table, indices) using *key* for equality.

    With *key* ``None`` the values are their own keys, and interning runs
    in C: one pass builds the table, one maps the rows to indices.
    """
    if key is None:
        index_for = dict(zip(dict.fromkeys(values), range(len(values))))
        return list(index_for), list(map(index_for.__getitem__, values))
    table: List[Any] = []
    indices: List[int] = []
    index_for: Dict[Any, int] = {}
    table_append = table.append
    indices_append = indices.append
    for value in values:
        marker = key(value)
        index = index_for.get(marker)
        if index is None:
            index = index_for[marker] = len(table)
            table_append(value)
        indices_append(index)
    return table, indices


def _entries_are(table, expect: type) -> bool:
    """Whether every identity-table entry is an *expect* or None."""
    kinds = set(map(type, table))
    kinds.discard(type(None))
    return all(issubclass(kind, expect) for kind in kinds)


def _append_json_table(body: bytearray, values, key, what: str, expect: type) -> None:
    """Append one dictionary-coded JSON column (table + narrow indices)."""
    table, indices = _intern_column(values, key)
    raws = None
    if _c_canonical is not None and _entries_are(table, expect):
        try:
            raws = list(map(str.encode, map("".join, map(_c_canonical, table, repeat(0)))))
        except (TypeError, ValueError, RecursionError):
            pass  # the per-entry loop below raises what ``_canonical_json`` raises
    if raws is None:
        raws = []
        for entry in table:
            if entry is not None and not isinstance(entry, expect):
                raise ValueError(
                    f"binary column frame {what} entry must be {expect.__name__} or None, "
                    f"got {type(entry).__name__}"
                )
            raws.append(_canonical_json(entry).encode("utf-8"))
    body += _U32.pack(len(table))
    body += b"".join(chain.from_iterable(zip(map(_U32.pack, map(len, raws)), raws)))
    body += _pack_index_list(_index_typecode(len(table) or 1), indices)


def _interned_object(pairs) -> dict:
    """A JSON object whose keys and string values are interned.

    Tag dicts decode once per frame and live on in the stores; interning
    makes every frame's ``"section"`` / ``"barcelona"`` the same object.
    """
    return {intern(key): intern(value) if type(value) is str else value for key, value in pairs}


#: The scanner of one decoder built once for every identity-table entry
#: (``json.loads`` with a hook builds a new decoder per call).  It is the
#: C scanner ``json.loads`` itself runs, with the same hook.
_scan_entry = json.JSONDecoder(object_pairs_hook=_interned_object).scan_once


def _scan_json_table(
    body: memoryview, body_len: int, offset: int, count: int, expect: type
) -> Optional[tuple]:
    """Decode *count* identity-table entries from one joined text, or ``None``.

    The entries are joined with commas into one ASCII text and the scanner
    starts at each entry's first byte.  The result is kept only if every
    entry parses to a value of the expected type (or null) that ends
    exactly at the entry's own boundary.  Each value is then the one a
    per-entry ``json.loads`` gives: past an entry's last byte the scanner
    sees only the comma, which ends a value just as the end of the text
    does.  Anything else — non-ASCII text, truncation, whitespace around
    an entry, an invalid or run-on entry, a wrong type — returns ``None``,
    and :func:`_decode_json_entries` decodes the table and raises exactly
    as it always has.  Returns ``(table, end offset)``.
    """
    parts = []
    starts = []
    stops = []
    position = 0
    for _ in range(count):
        if offset + _U32.size > body_len:
            return None
        (length,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        if offset + length > body_len:
            return None
        parts.append(body[offset:offset + length])
        offset += length
        starts.append(position)
        position += length
        stops.append(position)
        position += 1  # the joining comma
    if not count:
        return [], offset
    joined = b",".join(parts)
    if not joined.isascii():
        return None
    text = joined.decode("ascii")
    try:
        # An entry the scanner cannot start raises StopIteration, which
        # ends the map early: the length check below catches it.
        scanned = list(map(_scan_entry, repeat(text, count), starts))
    except (ValueError, RecursionError):
        return None
    if len(scanned) != count:
        return None
    table, ends = zip(*scanned)
    if list(ends) != stops or not _entries_are(table, expect):
        return None
    if expect is str:
        return [None if entry is None else intern(entry) for entry in table], offset
    return list(table), offset


def _decode_json_entries(
    body: memoryview, body_len: int, offset: int, count: int, what: str, expect: type
) -> tuple:
    """The per-entry reference decoder of one identity table.

    One ``json.loads`` per entry; it defines which tables are accepted and
    with which error, and decodes every table :func:`_scan_json_table`
    declines.  Returns ``(table, end offset)``.
    """
    table: List[Any] = []
    for _ in range(count):
        if offset + _U32.size > body_len:
            raise ValueError(f"binary column frame truncated in {what} column")
        (length,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        raw, offset = _read_block(body, offset, length, what)
        try:
            entry = json.loads(raw.decode("utf-8"), object_pairs_hook=_interned_object)
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValueError(f"binary column frame {what} entry is not valid JSON") from exc
        if type(entry) is str:
            entry = intern(entry)
        if entry is not None and not isinstance(entry, expect):
            raise ValueError(
                f"binary column frame {what} entry must be {expect.__name__} or None"
            )
        table.append(entry)
    return table, offset


def _decode_json_table(
    body: memoryview, body_len: int, offset: int, n: int, what: str, expect: type
) -> tuple:
    """Inverse of :func:`_append_json_table`; validates per table entry."""
    if offset + _U32.size > body_len:
        raise ValueError(f"binary column frame truncated in {what} column")
    (count,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    scanned = _scan_json_table(body, body_len, offset, count, expect)
    if scanned is None:
        scanned = _decode_json_entries(body, body_len, offset, count, what, expect)
    table, offset = scanned
    code = _index_typecode(count or 1)
    raw, offset = _read_block(body, offset, struct.calcsize(code) * n, what)
    indices = column_from_bytes(code, raw)
    try:
        # Gathering through the table preserves entry identity: all rows
        # that shared one tag dict at encode time share one object again.
        column = [table[i] for i in indices]
    except IndexError as exc:
        raise ValueError(f"binary column frame has out-of-range {what} index") from exc
    return column, offset


def encode_columns_binary_v2(
    columns: Mapping[str, List[Any]],
    tags: Optional[List[Any]] = None,
    fog_node_ids: Optional[List[Any]] = None,
    *,
    fast: bool = False,
) -> bytes:
    """Encode columns as one shared-dictionary binary frame.

    Passing *tags* and *fog_node_ids* (both or neither) produces an
    *extended* frame carrying the per-row identity columns inside the frame
    body — the shard IPC batch and the durable segment log write these.
    *fast* trades ~3% of the shrink for a much cheaper deflate (the IPC
    path sets it: local pipes are CPU-bound, not bandwidth-bound); the
    frame layout and decoder are identical either way.
    """
    n = _checked_lengths(columns)
    body = _encode_binary_body(columns, n)
    flags = 0
    if tags is not None or fog_node_ids is not None:
        if tags is None or fog_node_ids is None:
            raise ValueError("extended v2 frames need both tags and fog_node_ids")
        if len(tags) != n or len(fog_node_ids) != n:
            raise ValueError("extended v2 frame identity columns have the wrong length")
        flags |= _FLAG_EXTENDED
        _append_json_table(body, tags, key=id, what="tags", expect=dict)
        _append_json_table(body, fog_node_ids, key=None, what="fog ids", expect=str)
    raw = bytes(body)
    dict_crc, compressor, _ = _v2_codec(fast=fast)
    deflater = compressor.copy()
    compressed = deflater.compress(raw) + deflater.flush()
    stored = raw
    stored_dict_crc = 0
    if len(compressed) < len(raw):
        stored = compressed
        flags |= _FLAG_DICT_COMPRESSED
        stored_dict_crc = dict_crc
    prefix = _HEADER_V2_CRC_PREFIX.pack(
        BINARY_FRAME_VERSION_2, flags, n, len(stored), len(raw), stored_dict_crc
    )
    crc = zlib.crc32(stored, zlib.crc32(prefix))
    return BINARY_FRAME_MAGIC + prefix + _U32.pack(crc) + stored


def decode_columns_binary_v2(payload: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_columns_binary_v2`; validates exhaustively.

    Extended frames decode with two extra keys, ``"tags"`` and
    ``"fog_node_ids"``, validated per table entry (dict-or-None and
    str-or-None respectively).  Raises ``ValueError`` for any structural
    problem, including a dictionary CRC that does not match the local
    deployment dictionary.
    """
    if not payload.startswith(BINARY_FRAME_MAGIC):
        raise ValueError("payload is not a binary column frame (missing magic prefix)")
    header_end = len(BINARY_FRAME_MAGIC) + _HEADER_V2.size
    if len(payload) < header_end:
        raise ValueError("binary column frame truncated in header")
    version, flags, n, stored_len, raw_len, dict_crc, crc = _HEADER_V2.unpack_from(
        payload, len(BINARY_FRAME_MAGIC)
    )
    if version != BINARY_FRAME_VERSION_2:
        raise ValueError(f"unsupported binary column frame version: {version}")
    if flags & ~(_FLAG_DICT_COMPRESSED | _FLAG_EXTENDED):
        raise ValueError(f"binary column frame has unknown flags: {flags:#x}")
    if len(payload) != header_end + stored_len:
        raise ValueError("binary column frame body length mismatch")
    stored = memoryview(payload)[header_end:]
    prefix = payload[len(BINARY_FRAME_MAGIC):header_end - _U32.size]
    if zlib.crc32(stored, zlib.crc32(prefix)) != crc:
        raise ValueError("binary column frame checksum mismatch")
    if flags & _FLAG_DICT_COMPRESSED:
        local_crc, _, inflater = _v2_codec()
        if dict_crc != local_crc:
            raise ValueError(
                "binary column frame dictionary mismatch: frame dictionary "
                f"CRC {dict_crc:#010x}, local {local_crc:#010x}"
            )
        body = memoryview(_inflate_body(stored, raw_len, inflater.copy()))
        body_len = raw_len
    else:
        if dict_crc:
            raise ValueError(
                "binary column frame declares a dictionary CRC without the dictionary flag"
            )
        if raw_len != stored_len:
            raise ValueError("binary column frame raw length mismatch")
        body = stored
        body_len = stored_len

    record, offset = _decode_binary_body(body, body_len, n)
    if flags & _FLAG_EXTENDED:
        record["tags"], offset = _decode_json_table(body, body_len, offset, n, "tags", dict)
        record["fog_node_ids"], offset = _decode_json_table(
            body, body_len, offset, n, "fog ids", str
        )
    if offset != body_len:
        raise ValueError("binary column frame has trailing bytes")
    return record


# --------------------------------------------------------------------------- #
# Stream framing — length-prefixed frames over byte pipes
#
# Column frames are self-delimiting only as whole payloads; a byte *stream*
# (a ``multiprocessing`` pipe between an ingest worker and its supervisor, a
# socket, a spool file) needs record boundaries.  Each stream record is::
#
#   magic     4 bytes   b"\x00RBS"
#   length    u32       payload length (bounded by the reader's max)
#   crc       u32       CRC-32 (zlib) of magic + length + payload
#   payload   length bytes
#
# The CRC covers the length field, so a corrupted prefix cannot silently
# re-frame the stream.  Readers distinguish two failure classes:
#
# * a record whose header parsed but whose CRC failed leaves the reader at
#   the next record boundary — the frame is lost, the stream is usable
#   (:attr:`StreamFrameError.resynced` is true);
# * structural damage (bad magic, truncated header/payload, oversized
#   length) makes the boundary itself untrustworthy — the reader raises
#   with ``resynced=False`` and the caller must abandon the stream.
#
# Either way a damaged record is rejected whole: stream framing can lose a
# frame, never deliver part of one.
# --------------------------------------------------------------------------- #

#: Leading marker of one stream record.
STREAM_FRAME_MAGIC = b"\x00RBS"

#: Upper bound a reader accepts for one record's payload; a corrupted (or
#: hostile) length field must not make the reader try to buffer gigabytes.
MAX_STREAM_FRAME_BYTES = 1 << 30

_STREAM_PREFIX = struct.Struct("<4sI")  # magic + payload length


class StreamFrameError(ValueError):
    """A corrupt record in a length-prefixed frame stream.

    ``resynced`` is true when the reader consumed exactly the span the
    stream's length field declared, leaving it at what the stream *claims*
    is the next record boundary.  That claim holds when the damage was in
    the payload; if the length field itself was corrupted (the CRC covers
    it, so the mismatch is still detected) the position is arbitrary and
    subsequent reads will fail structurally.  Callers that keep reading
    after a resynced error must therefore still treat the stream as
    unreliable: count every loss, and abandon the source wholesale on any
    follow-up error (the sharded supervisor goes further and re-runs the
    worker on *any* drop).  ``resynced`` false means the position is known
    to be untrustworthy — stop immediately.
    """

    def __init__(self, message: str, resynced: bool = False) -> None:
        super().__init__(message)
        self.resynced = resynced


def encode_stream_frame(payload: bytes) -> bytes:
    """One length-prefixed, CRC-protected stream record around *payload*."""
    prefix = _STREAM_PREFIX.pack(STREAM_FRAME_MAGIC, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(prefix))
    return prefix + _U32.pack(crc) + payload


class FrameStreamWriter:
    """Writes length-prefixed frames through a ``write(bytes)`` callable.

    The callable may perform partial writes (``os.write`` on a pipe); the
    writer loops until the whole record is out.  It must return the number
    of bytes written (every ``io`` writer and ``os.write`` do); a ``None``
    return is rejected rather than guessed at — a non-blocking raw writer
    returns ``None`` for "wrote nothing", and treating that as success
    would silently truncate a record mid-wire.
    """

    def __init__(self, write) -> None:
        self._write = write

    def write_frame(self, payload: bytes) -> int:
        """Frame *payload* and write it; returns the bytes put on the wire."""
        data = encode_stream_frame(bytes(payload))
        view = memoryview(data)
        remaining = len(data)
        while remaining:
            written = self._write(view[-remaining:])
            if written is None or written <= 0:
                raise StreamFrameError("stream writer made no progress", resynced=False)
            remaining -= written
        return len(data)


class FrameStreamReader:
    """Reads length-prefixed frames through a ``read(n) -> bytes`` callable.

    ``read`` may return fewer than *n* bytes (pipe semantics); empty bytes
    mean end of stream.  :meth:`read_frame` returns one payload, ``None`` on
    a clean end of stream (EOF exactly at a record boundary), and raises
    :class:`StreamFrameError` for anything corrupt.
    """

    def __init__(self, read, max_frame_bytes: int = MAX_STREAM_FRAME_BYTES) -> None:
        self._read = read
        self._max_frame_bytes = max_frame_bytes

    def _read_exact(self, size: int, what: str, allow_eof: bool = False):
        chunks = []
        remaining = size
        while remaining:
            chunk = self._read(remaining)
            if not chunk:
                if allow_eof and remaining == size:
                    return None
                raise StreamFrameError(f"frame stream truncated in {what}", resynced=False)
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def read_frame(self):
        prefix = self._read_exact(_STREAM_PREFIX.size, "record header", allow_eof=True)
        if prefix is None:
            return None
        magic, length = _STREAM_PREFIX.unpack(prefix)
        if magic != STREAM_FRAME_MAGIC:
            raise StreamFrameError("frame stream record has a bad magic prefix", resynced=False)
        if length > self._max_frame_bytes:
            raise StreamFrameError(
                f"frame stream record length {length} exceeds the "
                f"{self._max_frame_bytes}-byte bound", resynced=False,
            )
        (crc,) = _U32.unpack(self._read_exact(_U32.size, "record checksum"))
        payload = b"" if not length else self._read_exact(length, "record payload")
        if zlib.crc32(payload, zlib.crc32(prefix)) != crc:
            # The declared span was consumed whole, so the reader sits at
            # what the stream claims is the next boundary — a real boundary
            # only if the length field was undamaged (see StreamFrameError).
            raise StreamFrameError("frame stream record checksum mismatch", resynced=True)
        return payload


def pad_to_size(payload: bytes, target_size: int, fill: bytes = b" ") -> bytes:
    """Pad *payload* with *fill* bytes up to *target_size*.

    Used by the synthetic reading generator to make every message of a sensor
    type occupy exactly the wire size the paper's Table I specifies,
    regardless of how many digits the particular measurement happened to
    have.  Payloads already longer than the target are returned unchanged.
    """
    if target_size < 0:
        raise ValueError("target_size must be non-negative")
    if len(fill) != 1:
        raise ValueError("fill must be a single byte")
    if len(payload) >= target_size:
        return payload
    return payload + fill * (target_size - len(payload))
