"""The one-scan identity-table decoder against its per-entry reference.

An extended binary frame carries two identity tables (tag dicts and fog
ids), each a run of u32-length-prefixed JSON entries.  The reference,
``_decode_json_entries``, runs one ``json.loads`` per entry and defines
which tables are accepted and with which error.  ``_scan_json_table``
decodes a whole table from one joined text and returns ``None`` for any
table it cannot prove it decodes identically; the frame decoder then runs
the reference.  The properties below hold the combination to the
reference on random tables: the same result or the same ``ValueError``,
equal objects with the same key order and the same types, and the same
interned objects for object keys, object string values and top-level
strings.

The tables mix canonical and non-canonical JSON (any separators, key
order and padding, non-ASCII text) with fragments that are invalid alone
but valid joined (``1,"`` then ``"``), empty entries, ``{}{}``, duplicate
keys, nested values and ``NaN``.  On the encoding side, one C encoder
pass over a table must write the bytes ``json.dumps`` writes per entry.
"""

import json
import struct
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import serialization as ser

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def json_entries(draw):
    """One entry as some JSON encoder might have written it."""
    value = draw(json_values)
    text = json.dumps(
        value,
        ensure_ascii=draw(st.booleans()),
        sort_keys=draw(st.booleans()),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " :")])),
    )
    left = draw(st.sampled_from(["", "", "", " ", "\n"]))
    right = draw(st.sampled_from(["", "", "", " ", "\t"]))
    return (left + text + right).encode("utf-8")


#: Entries that are invalid alone, valid only joined to a neighbour, or
#: otherwise awkward for a scan over the joined text.
FRAGMENTS = [
    b'1,"', b'"', b"{}{}", b"", b" ", b"[1", b"2]", b'{"a":', b"1}", b'"a', b'b"',
    b"1e", b"1.", b"-", b"01", b"1 2", b"tru", b"true", b"NaN", b"-Infinity",
    b'{"a":1,"a":2}', b'{"b":1,"a":{"c":[NaN,{"d":"x"}]}}', b"\xff", '"é"'.encode(),
    b'"\\u00e9"', b'"a\\"b"', b'"fog1/district-01/section-01"', b"null", b"{}", b"[]",
    b'{"city":"barcelona","quality_score":0.9}', b"nullx", b'"a"b', b"{}]", b"{}x",
]

#: Tables that are invalid entry by entry but parse as a joined text.
JOINED_ONLY = [
    [b'1,"', b'"'],
    [b"[1", b"2]"],
    [b'{"a":', b"1}"],
    [b'"a', b'b"'],
    [b"[[3", b"4]]", b"1],[2"],
]


@st.composite
def tables(draw):
    """(entries, expected type): arbitrary entries, or one fragment among
    canonical entries of the expected type — the tables a one-text scan
    would otherwise accept."""
    expect = draw(st.sampled_from([dict, str]))
    typed = st.text(max_size=6) if expect is str else st.dictionaries(
        st.text(max_size=4), json_values, max_size=3
    )
    canonical = (st.none() | typed).map(
        lambda value: json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")
    )
    kind = draw(st.sampled_from(["mixed", "one fragment", "joined only"]))
    if kind == "mixed":
        entries = draw(st.lists(st.one_of(json_entries(), st.sampled_from(FRAGMENTS)), max_size=8))
    elif kind == "one fragment":
        entries = (
            draw(st.lists(canonical, max_size=4))
            + [draw(st.sampled_from(FRAGMENTS))]
            + draw(st.lists(canonical, max_size=4))
        )
    else:
        entries = draw(st.sampled_from(JOINED_ONLY))
    return entries, expect


def _table(entries, rows=None):
    """A table body: count, the entries, then one index row per entry."""
    count = len(entries)
    body = struct.pack("<I", count)
    body += b"".join(struct.pack("<I", len(entry)) + entry for entry in entries)
    rows = list(range(count)) if rows is None else rows
    code = ser._index_typecode(count or 1)
    return body + struct.pack(f"<{len(rows)}{code}", *rows), len(rows)


def _decode(body, n, expect, reference_only):
    declined = mock.patch.object(ser, "_scan_json_table", lambda *args: None)
    with declined if reference_only else nullcontext():
        try:
            column, offset = ser._decode_json_table(
                memoryview(body), len(body), 0, n, "tags", expect
            )
        except ValueError as exc:
            return ("error", type(exc), str(exc))
    return ("ok", column, offset)


def _shape(value):
    """Value, exact types and key order, with NaN and -0.0 made comparable."""
    if type(value) is dict:
        return ("dict", [(key, _shape(item)) for key, item in value.items()])
    if type(value) is list:
        return ("list", [_shape(item) for item in value])
    if type(value) is float:
        return ("float", repr(value))
    return (type(value).__name__, value)


def _same_interned(fast, reference):
    """Object keys, object string values and top-level strings are the same objects."""
    if type(fast) is str:
        return fast is reference
    if type(fast) is dict:
        return all(
            key is ref_key
            and (item is ref_item if type(item) is str else _same_interned(item, ref_item))
            for (key, item), (ref_key, ref_item) in zip(fast.items(), reference.items())
        )
    if type(fast) is list:
        return all(
            _same_interned(item, ref_item)
            for item, ref_item in zip(fast, reference)
            if type(item) is not str  # strings inside arrays are not interned
        )
    return True


def _assert_equivalent(body, n, expect):
    fast = _decode(body, n, expect, reference_only=False)
    reference = _decode(body, n, expect, reference_only=True)
    assert fast[0] == reference[0]
    if fast[0] == "error":
        assert fast == reference
        return fast
    assert fast[2] == reference[2]
    assert [_shape(entry) for entry in fast[1]] == [_shape(entry) for entry in reference[1]]
    for entry, ref_entry in zip(fast[1], reference[1]):
        assert _same_interned(entry, ref_entry)
    # Rows sharing one table entry share one object, as in the reference.
    assert _sharing(fast[1]) == _sharing(reference[1])
    return fast


def _sharing(column):
    """Each row's first row holding the same object."""
    first = {}
    return [first.setdefault(id(entry), row) for row, entry in enumerate(column)]


@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_scan_matches_the_per_entry_reference(table):
    entries, expect = table
    body, n = _table(entries)
    _assert_equivalent(body, n, expect)
    # Whenever the scan keeps its result, that result is the reference's.
    scanned = ser._scan_json_table(memoryview(body), len(body), 4, len(entries), expect)
    if scanned is not None:
        table, offset = ser._decode_json_entries(
            memoryview(body), len(body), 4, len(entries), "tags", expect
        )
        assert offset == scanned[1]
        assert [_shape(entry) for entry in scanned[0]] == [_shape(entry) for entry in table]


@settings(max_examples=100, deadline=None)
@given(
    table=tables(),
    cut=st.integers(min_value=0, max_value=400),
    rows=st.lists(st.integers(min_value=0, max_value=9), max_size=6),
)
def test_truncated_tables_and_stray_indices_fail_alike(table, cut, rows):
    entries, expect = table
    body, n = _table(entries, rows)
    _assert_equivalent(body[:cut], n, expect)


@pytest.mark.parametrize(
    "entries,expect,scanned",
    [
        # Canonical tables, duplicate keys, nesting, NaN and nulls: one scan.
        ([b'{"category":"noise","city":"barcelona"}', b"null", b'{"a":1,"a":2}'], dict, True),
        ([b'{"b":{"c":[NaN,{"d":"x"}]},"a":-0.0}'], dict, True),
        ([b'"fog1/district-01/section-01"', b"null"], str, True),
        ([], dict, True),
        # Everything else goes to the reference, which accepts or rejects.
        ([b'1,"', b'"'], str, False),
        ([b"[1", b"2]"], dict, False),
        ([b"{}{}"], dict, False),
        ([b" {}", b"{} "], dict, False),
        ([b""], dict, False),
        (['{"é":1}'.encode()], dict, False),
        ([b'"x"'], dict, False),
        ([b"{}", b"1"], dict, False),
        ([b"\xff"], str, False),
    ],
)
def test_which_tables_one_scan_decodes(entries, expect, scanned):
    body, n = _table(entries)
    result = ser._scan_json_table(memoryview(body), len(body), 4, len(entries), expect)
    assert (result is not None) is scanned
    _assert_equivalent(body, n, expect)


# --------------------------------------------------------------------------- #
# Encoding: one C encoder pass over a table writes the bytes of the
# per-entry ``json.dumps`` reference.
# --------------------------------------------------------------------------- #
def _reference_table_bytes(values, by_identity):
    """The identity-table encoding with one ``json.dumps`` per entry."""
    table, indices, index_for = [], [], {}
    for value in values:
        marker = id(value) if by_identity else value
        index = index_for.get(marker)
        if index is None:
            index = index_for[marker] = len(table)
            table.append(value)
        indices.append(index)
    out = struct.pack("<I", len(table))
    for entry in table:
        raw = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    code = ser._index_typecode(len(table) or 1)
    return out + struct.pack(f"<{len(indices)}{code}", *indices)


@st.composite
def shared_rows(draw, entries):
    """Rows drawn from a small pool, so rows share entries by identity."""
    pool = draw(st.lists(entries, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=12))
    return [pool[pick] for pick in picks]


@settings(max_examples=100, deadline=None)
@given(
    tags=shared_rows(st.none() | st.dictionaries(st.text(max_size=4), json_values, max_size=4)),
    fog_ids=shared_rows(st.none() | st.text(max_size=8)),
)
def test_table_encoding_matches_per_entry_json_dumps(tags, fog_ids):
    for values, by_identity, expect in ((tags, True, dict), (fog_ids, False, str)):
        body = bytearray()
        key = id if by_identity else (lambda value: value)
        ser._append_json_table(body, values, key, "tags", expect)
        assert bytes(body) == _reference_table_bytes(values, by_identity)


@pytest.mark.parametrize("expect", [dict, str])
def test_a_stray_row_index_is_rejected_after_either_decoder(expect):
    entry = b"{}" if expect is dict else b'"fog1/district-01/section-01"'
    body, n = _table([entry, b"null"], rows=[0, 1, 2])
    assert _assert_equivalent(body, n, expect) == (
        "error", ValueError, "binary column frame has out-of-range tags index",
    )
