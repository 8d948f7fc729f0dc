"""Event line parsing and stream reading."""

import json

import pytest

from zsd.ingest import EventStream, ParseError, SchemaError, parse_event_line, read_stream
from zsd.types import Event, EventKind, Truth


def test_parse_write_event():
    e = parse_event_line(
        '{"ts":0,"entity":"p1","kind":"file_write","bytes":4096,"entropy":7.9,"path":"/a.docx"}'
    )
    assert e.ts == 0
    assert e.entity == "p1"
    assert e.kind is EventKind.FILE_WRITE
    assert e.bytes == 4096
    assert e.entropy == 7.9
    assert e.path == "/a.docx"
    assert e.truth is None


def test_parse_rename_event():
    e = parse_event_line(
        '{"ts":5,"entity":"p1","kind":"file_rename","path":"/a.docx",'
        '"ext_before":"docx","ext_after":"lock"}'
    )
    assert e.kind is EventKind.FILE_RENAME
    assert e.ext_before == "docx"
    assert e.ext_after == "lock"


def test_entropy_out_of_range_rejected():
    with pytest.raises(SchemaError, match="entropy"):
        parse_event_line('{"ts":1,"entity":"p1","kind":"file_write","entropy":9.5}')


@pytest.mark.parametrize("field,value,fragment", [
    ("ts", 2**63, "ts"),
    ("ts", 10**400, "ts"),
    ("bytes", 2**63, "bytes"),
    ("bytes", 10**400, "bytes"),
    ("entropy", 10**400, "entropy"),
    ("entropy", -10**400, "entropy"),
    ("ts", 2**63 - 1, None),
    ("bytes", 2**63 - 1, None),
    ("entropy", 8, None),
])
def test_numbers_out_of_range_are_schema_errors(field, value, fragment):
    # a value the features' float arithmetic would overflow is rejected
    record = {"ts": 1, "entity": "p", "kind": "net_send", field: value}
    line = json.dumps(record)
    if fragment is None:
        assert getattr(parse_event_line(line), field) == value
    else:
        with pytest.raises(SchemaError, match=fragment):
            parse_event_line(line)


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        parse_event_line("{not json", line_no=7)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ('{"entity":"p","kind":"file_read"}', "ts"),
        ('{"ts":1,"kind":"file_read"}', "entity"),
        ('{"ts":1,"entity":"p"}', "kind"),
        ('{"ts":-1,"entity":"p","kind":"file_read"}', "ts"),
        ('{"ts":1.5,"entity":"p","kind":"file_read"}', "ts"),
        ('{"ts":1,"entity":"p","kind":"nope"}', "kind"),
        ('{"ts":1,"entity":"p","kind":"file_read","bytes":-4}', "bytes"),
        ('{"ts":1,"entity":"p","kind":"file_read","truth":"evil"}', "truth"),
        ('{"ts":1,"entity":"p","kind":"file_rename","path":"/a"}', "file_rename"),
        ('{"ts":1,"entity":"p","kind":"file_read","ext_before":"a","ext_after":"b"}',
         "ext_before"),
        # values json cannot hash: a lookup table keyed by str must not see them
        ('{"ts":1,"entity":"p","kind":["file_read"]}', "kind"),
        ('{"ts":1,"entity":"p","kind":{}}', "kind"),
        ('{"ts":1,"entity":"p","kind":"file_read","truth":{}}', "truth"),
        ('{"ts":1,"entity":"p","kind":"file_read","truth":["benign"]}', "truth"),
    ],
)
def test_schema_violations(line, fragment):
    with pytest.raises(SchemaError, match=fragment):
        parse_event_line(line)


def test_truth_parsed_when_present():
    e = parse_event_line('{"ts":1,"entity":"p","kind":"proc_spawn","truth":"malicious"}')
    assert e.truth is Truth.MALICIOUS


def test_unknown_fields_ignored_unless_strict():
    line = '{"ts":1,"entity":"p","kind":"file_read","wat":1}'
    parse_event_line(line)
    with pytest.raises(SchemaError, match="wat"):
        parse_event_line(line, strict=True)


def _write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p)


def test_read_stream_in_order(tmp_path):
    path = _write(tmp_path, "a.jsonl", [
        '{"ts":1,"entity":"a","kind":"file_read"}',
        '{"ts":2,"entity":"b","kind":"file_read"}',
        '{"ts":3,"entity":"a","kind":"file_write"}',
    ])
    events = list(read_stream(EventStream(source=path)))
    assert [e.ts for e in events] == [1, 2, 3]


def test_read_stream_skips_and_counts_bad_lines(tmp_path):
    path = _write(tmp_path, "b.jsonl", [
        '{"ts":1,"entity":"a","kind":"file_read"}',
        "garbage",
        '{"ts":2,"entity":"a","kind":"file_read"}',
    ])
    stream = EventStream(source=path)
    events = list(read_stream(stream))
    assert len(events) == 2
    assert stream.skipped_count == 1


def test_read_stream_skips_and_counts_hostile_values(tmp_path):
    # values on which json or a dict lookup raises TypeError, ValueError or
    # RecursionError: each must come out as a bad line
    path = _write(tmp_path, "h.jsonl", [
        '{"ts":1,"entity":"a","kind":"file_read"}',
        '{"ts":2,"entity":"a","kind":["file_read"]}',
        '{"ts":3,"entity":"a","kind":"file_read","truth":{}}',
        '{"ts":' + "1" * 5000 + ',"entity":"a","kind":"file_read"}',
        "[" * 100_000,
        '{"ts":4,"entity":"a","kind":"file_read"}',
    ])
    stream = EventStream(source=path)
    assert [e.ts for e in read_stream(stream)] == [1, 4]
    assert stream.skipped_count == 4
    with pytest.raises(SchemaError, match="kind"):
        list(read_stream(EventStream(source=path, strict=True)))


def test_read_stream_strict_aborts(tmp_path):
    path = _write(tmp_path, "c.jsonl", [
        '{"ts":1,"entity":"a","kind":"file_read"}',
        "garbage",
    ])
    with pytest.raises(ParseError):
        list(read_stream(EventStream(source=path, strict=True)))


def test_empty_file_yields_nothing(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert list(read_stream(EventStream(source=str(path)))) == []


def test_monotonicity_warning_counter(tmp_path):
    path = _write(tmp_path, "d.jsonl", [
        '{"ts":5,"entity":"a","kind":"file_read"}',
        '{"ts":3,"entity":"b","kind":"file_read"}',
        '{"ts":9,"entity":"a","kind":"file_read"}',
    ])
    stream = EventStream(source=path)
    events = list(read_stream(stream))
    assert len(events) == 3
    assert stream.monotonicity_warnings == 1


def test_per_entity_subsequences_recover_the_multiset(tmp_path):
    import random
    rng = random.Random(4)
    lines = []
    for i in range(200):
        ent = f"e{rng.randrange(5)}"
        lines.append(f'{{"ts":{i},"entity":"{ent}","kind":"file_read"}}')
    path = _write(tmp_path, "e.jsonl", lines)
    events = list(read_stream(EventStream(source=path)))
    by_entity = {}
    for e in events:
        by_entity.setdefault(e.entity, []).append(e)
    # per-entity order is file order restricted to that entity
    for ent, seq in by_entity.items():
        assert [e.ts for e in seq] == sorted(e.ts for e in seq)
    flat = [e for seq in by_entity.values() for e in seq]
    assert sorted(e.ts for e in flat) == [e.ts for e in events]


def _reference_parse(line, line_no=0, strict=False):
    """A parser built on json.loads and isinstance checks: the reference
    for the values parse_event_line accepts and the messages it gives."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, f"bad JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError(line_no, "record must be a JSON object")
    for key in ("ts", "entity", "kind"):
        if key not in obj:
            raise SchemaError(f"missing required field {key}")
    if strict:
        unknown = set(obj) - {"ts", "entity", "kind", "path", "ext_before",
                              "ext_after", "bytes", "entropy", "dst", "truth"}
        if unknown:
            raise SchemaError(f"unknown field {sorted(unknown)[0]}")

    def opt_str(key):
        v = obj.get(key)
        if v is not None and not isinstance(v, str):
            raise SchemaError(f"{key} must be a string")
        return v

    ts = obj["ts"]
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise SchemaError("ts must be an integer")
    if ts < 0:
        raise SchemaError("ts must be >= 0")
    if ts >= 2**63:
        raise SchemaError("ts must be < 2**63")
    entity = obj["entity"]
    if not isinstance(entity, str) or not entity:
        raise SchemaError("entity must be a non-empty string")
    kind = None
    if isinstance(obj["kind"], str):
        kind = {k.value: k for k in EventKind}.get(obj["kind"])
    if kind is None:
        raise SchemaError(f"unknown kind {obj['kind']!r}")
    nbytes = obj.get("bytes")
    if nbytes is not None:
        if isinstance(nbytes, bool) or not isinstance(nbytes, int):
            raise SchemaError("bytes must be an integer")
        if nbytes < 0:
            raise SchemaError("bytes must be >= 0")
        if nbytes >= 2**63:
            raise SchemaError("bytes must be < 2**63")
    entropy = obj.get("entropy")
    if entropy is not None:
        if isinstance(entropy, bool) or not isinstance(entropy, (int, float)):
            raise SchemaError("entropy must be a number")
        # compared before float(), which a huge integer overflows
        if not (0 <= entropy <= 8):
            raise SchemaError("entropy out of [0,8]")
        entropy = float(entropy)
    ext_before = opt_str("ext_before")
    ext_after = opt_str("ext_after")
    if kind is EventKind.FILE_RENAME:
        if ext_before is None or ext_after is None:
            raise SchemaError("file_rename requires ext_before and ext_after")
    elif ext_before is not None or ext_after is not None:
        raise SchemaError("ext_before/ext_after only valid on file_rename")
    truth = None
    if obj.get("truth") is not None:
        if isinstance(obj["truth"], str):
            truth = {t.value: t for t in Truth}.get(obj["truth"])
        if truth is None:
            raise SchemaError(f"unknown truth {obj['truth']!r}")
    return Event(ts=ts, entity=entity, kind=kind, path=opt_str("path"),
                 ext_before=ext_before, ext_after=ext_after, bytes=nbytes,
                 entropy=entropy, dst=opt_str("dst"), truth=truth)


def _outcome(parse, line, strict):
    try:
        return parse(line, 7, strict=strict)
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)


_READ = '{"ts":1,"entity":"p","kind":"file_read"'


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("line", [
    # whitespace around the record, and data after it
    "  " + _READ + "}\t",
    "\r\n" + _READ + "}\n",
    _READ + "} x",
    _READ + "}{}",
    _READ + "}  ]",
    _READ + "",
    "",
    "\ufeff" + _READ + "}",
    # NaN and the infinities
    _READ + ',"entropy":NaN}',
    _READ + ',"entropy":Infinity}',
    _READ + ',"entropy":-Infinity}',
    '{"ts":NaN,"entity":"p","kind":"file_read"}',
    '{"ts":Infinity,"entity":"p","kind":"file_read"}',
    # bool and float where an integer belongs, int where a float does
    '{"ts":true,"entity":"p","kind":"file_read"}',
    '{"ts":1.0,"entity":"p","kind":"file_read"}',
    '{"ts":-0,"entity":"p","kind":"file_read"}',
    _READ + ',"entropy":7}',
    _READ + ',"entropy":0}',
    _READ + ',"entropy":false}',
    _READ + ',"bytes":true}',
    _READ + ',"bytes":1.5}',
    _READ + ',"bytes":0}',
    # unknown fields: ignored, or under strict the first one named
    _READ + ',"wat":1,"abc":2}',
    '{"entity":"p","wat":1}',
    # not an object
    "[1,2]",
    '"file_read"',
    "3",
    "null",
    # strings and nulls
    '{"ts":1,"entity":"","kind":"file_read"}',
    '{"ts":1,"entity":7,"kind":"file_read"}',
    _READ + ',"path":3}',
    _READ + ',"path":null,"dst":null,"truth":null,"bytes":null,"entropy":null}',
    _READ + ',"path":"/caf\\u00e9","dst":"h\\"x"}',
    '{"ts":1,"entity":"p","kind":"file_rename","ext_before":"a","ext_after":"b",'
    '"truth":"malicious","bytes":5,"entropy":2.5}',
    '{"ts":1,"entity":"p","kind":"file_rename","ext_before":"a","ext_after":7}',
    '{"ts":-1,"entity":"","kind":"nope","bytes":-1}',
    # numbers at and past the 64-bit and float limits
    '{"ts":%d,"entity":"p","kind":"file_read"}' % (2**63 - 1),
    '{"ts":%d,"entity":"p","kind":"file_read"}' % 2**63,
    _READ + ',"bytes":%d}' % 10**400,
    _READ + ',"entropy":%d}' % 10**400,
    _READ + ',"entropy":1e400}',
    # values a lookup table keyed by str cannot hash
    '{"ts":1,"entity":"p","kind":[1]}',
    _READ + ',"truth":{}}',
])
def test_parser_matches_the_json_loads_reference(line, strict):
    assert _outcome(parse_event_line, line, strict) == _outcome(_reference_parse, line, strict)


def test_entities_and_paths_share_one_string():
    a = parse_event_line('{"ts":1,"entity":"proc-7","kind":"file_read","path":"/a/b"}')
    b = parse_event_line('{"ts":2,"entity":"proc-7","kind":"file_write","path":"/a/b"}')
    assert a.entity is b.entity
    assert a.path is b.path
