"""A reference model of the plain v2 frame body, checked byte for byte.

``reference_body`` is a naive encoder of the seven-column body (before
deflate) written from the layout description in
``repro.common.serialization`` with ``struct`` only: no numpy, no typed
arrays, no fast paths.  Hypothesis draws column sets at every layout
boundary — integers at 0 / 255 / 256 / 65535 / 65536 / 2**32, negatives
and bools; 255, 256 and 257 rows around the dictionary threshold; string
tables of 256 and 257 entries; non-ASCII ids — and the codec's
``_encode_binary_body`` must produce the model's bytes exactly, which its
decoder must turn back into the columns.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import serialization as ser

DICT_MIN_ROWS = 256  # columns this long may be dictionary-coded
STRING_FIELDS = ("sensor_ids", "sensor_types", "categories")


def u32(value):
    return struct.pack("<I", value)


def index_format(count):
    return "B" if count <= 1 << 8 else "H" if count <= 1 << 16 else "I"


def dictionary(patterns, plain_size, tag):
    """The dictionary layout of 64-bit *patterns* if smaller than plain."""
    entries = sorted(set(patterns))
    fmt, n = index_format(len(entries)), len(patterns)
    if n < DICT_MIN_ROWS or 4 + 8 * len(entries) + struct.calcsize("<" + fmt) * n >= plain_size:
        return None
    position = {entry: index for index, entry in enumerate(entries)}
    return (bytes([tag]) + u32(len(entries)) + struct.pack(f"<{len(entries)}q", *entries)
            + struct.pack(f"<{n}{fmt}", *(position[p] for p in patterns)))


def f64_column(floats):
    patterns = [struct.unpack("<q", struct.pack("<d", value))[0] for value in floats]
    plain = b"\x00" + struct.pack(f"<{len(floats)}d", *floats)
    return dictionary(patterns, 8 * len(floats), 2) or plain


def int_column(ints):
    if ints and min(ints) < 0:
        width, fmt, tag = 8, "q", 9
    else:
        width = next(w for w in (1, 2, 4, 8) if max(ints, default=0) < 1 << 8 * w)
        fmt, tag = {1: "B", 2: "H", 4: "I", 8: "Q"}[width], width
    plain = bytes([tag]) + struct.pack(f"<{len(ints)}{fmt}", *ints)
    return dictionary(list(map(int, ints)), width * len(ints), 10) or plain


def value_rows(values):
    if all(type(value) is float for value in values):
        return b"\x00" + f64_column(values)
    out = b"\x01"
    for value in values:
        if type(value) is bool:
            out += bytes([3 if value else 4])
        elif isinstance(value, float):
            out += b"\x00" + struct.pack("<d", value)
        elif isinstance(value, int) and -(2**63) <= value < 2**63:
            out += b"\x01" + struct.pack("<q", value)
        elif value is None:
            out += b"\x05"
        else:
            raw = str(value).encode("utf-8")
            out += (b"\x06" if isinstance(value, int) else b"\x02") + u32(len(raw)) + raw
    return out


def reference_body(columns):
    n = len(columns["sensor_ids"])
    strings = [value for name in STRING_FIELDS for value in columns[name]]
    table = list(dict.fromkeys(strings))  # first-seen order: ids, types, categories
    texts = [entry.encode("utf-8") for entry in table]
    position = {entry: index for index, entry in enumerate(table)}
    body = u32(len(table)) + int_column([len(text) for text in texts]) + b"".join(texts)
    for name in STRING_FIELDS:
        body += struct.pack(f"<{n}{index_format(len(table))}", *(position[v] for v in columns[name]))
    body += value_rows(columns["values"])
    body += f64_column([float(stamp) for stamp in columns["timestamps"]])
    return body + int_column(columns["sizes"]) + int_column(columns["sequences"])


# --------------------------------------------------------------------------- #
# Column sets at the layout's boundaries
# --------------------------------------------------------------------------- #
BOUNDARY_INTS = [0, 1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63 - 1, -1, -(2**63), True, False]
ROW_COUNTS = [0, 1, 2, 37, 255, 256, 257]
PREFIXES = ["s-", "sensor-é-", "日本-計測-", "noise_level_basic-"]
ASCII = st.characters(max_codepoint=127)
FLOATS = [0.0, -0.0, 1.5, 900.0, 5e-324, float("inf"), float("-inf"), float("nan")]
MIXED = [1.5, 7, True, False, None, "on", "é", 2**70, -(2**70), 2**63 - 1]


def cycle(pool, n):
    return [pool[index % len(pool)] for index in range(n)]


@st.composite
def int_columns(draw, n):
    if draw(st.booleans()):  # few distinct values: a dictionary can win
        pool = draw(st.lists(st.sampled_from(BOUNDARY_INTS) | st.integers(-(2**63), 2**63 - 1),
                             min_size=1, max_size=5))
        return cycle(pool, n)
    start = draw(st.sampled_from([0, 200, 65400, 2**32 - 100, -50]))
    return [start + index for index in range(n)]  # one distinct value a row


@st.composite
def column_sets(draw):
    n = draw(st.sampled_from(ROW_COUNTS))
    # With one type and one category, 254 / 255 distinct ids make tables
    # of 256 / 257 entries.
    ids = draw(st.sampled_from([1, 3, 254, 255, 257]))
    if draw(st.booleans()):  # an ASCII table, which decodes as one text
        prefix, words = draw(st.sampled_from(PREFIXES[::3])), st.text(ASCII, max_size=6)
    else:
        prefix, words = draw(st.sampled_from(PREFIXES)), st.text(max_size=6)
    if draw(st.booleans()):
        values = cycle(draw(st.lists(st.sampled_from(FLOATS) | st.floats(), min_size=1, max_size=4)), n)
    else:
        values = cycle(draw(st.lists(st.sampled_from(MIXED), min_size=1, max_size=4)), n)
    stamps = draw(st.sampled_from(["few", "distinct", "ints"]))
    return {
        "sensor_ids": [f"{prefix}{index % ids}" for index in range(n)],
        "sensor_types": cycle(draw(st.lists(words, min_size=1, max_size=2)), n),
        "categories": cycle(draw(st.lists(words, min_size=1, max_size=2)), n),
        "values": values,
        "timestamps": (cycle([900.0, 1800.0, -0.0], n) if stamps == "few"
                       else [900.0 + index / 8 for index in range(n)] if stamps == "distinct"
                       else list(range(n))),
        "sizes": draw(int_columns(n)),
        "sequences": draw(int_columns(n)),
    }


def bits(floats):
    return [struct.pack("<d", value) for value in floats]


@given(columns=column_sets())
@settings(max_examples=150, deadline=None)
def test_body_matches_the_reference_model_and_decodes_back(columns):
    n = len(columns["sensor_ids"])
    body = bytes(ser._encode_binary_body(columns, n))
    assert body == reference_body(columns)

    record, end = ser._decode_binary_body(memoryview(body), len(body), n)
    assert end == len(body)
    for name in STRING_FIELDS:
        assert record[name] == columns[name]
    assert [type(value) for value in record["values"]] == [type(value) for value in columns["values"]]
    floats = [value for value in columns["values"] if type(value) is float]
    assert bits([value for value in record["values"] if type(value) is float]) == bits(floats)
    assert [v for v in record["values"] if type(v) is not float] == [
        v for v in columns["values"] if type(v) is not float
    ]
    assert bits(record["timestamps"]) == bits(map(float, columns["timestamps"]))
    assert list(record["sizes"]) == list(map(int, columns["sizes"]))
    assert list(record["sequences"]) == list(map(int, columns["sequences"]))


def test_the_model_covers_every_layout():
    """Each column layout the model writes is reached by a pinned example."""
    assert int_column([255])[:1] == b"\x01" and int_column([256])[:1] == b"\x02"
    assert int_column([65536])[:1] == b"\x04" and int_column([2**32])[:1] == b"\x08"
    assert int_column([-1])[:1] == b"\x09" and int_column([300] * 256)[:1] == b"\x0a"
    assert int_column([300] * 255)[:1] == b"\x02"  # below the threshold: plain
    assert int_column([7] * 300)[:1] == b"\x01"  # one byte a row beats any dictionary
    assert f64_column([1.0] * 256)[:1] == b"\x02" and f64_column([1.0] * 255)[:1] == b"\x00"
    assert index_format(256) == "B" and index_format(257) == "H"
