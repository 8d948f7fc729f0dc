"""Telemetry stream parsing: JSON Lines in, schema-checked Events out.

One record per line. Lines are delivered in file order; ingestion never
reorders, so an entity's events arrive in the order the producer wrote
them. Out-of-order timestamps are the producer's bug and are surfaced via
a monotonicity warning counter rather than rejection.

A line is decoded by one call of ``json.JSONDecoder().raw_decode``, the C
scanner without the wrappers ``json.loads`` adds per call. A line that
scanner does not consume whole (surrounding whitespace, trailing data or
bad JSON) goes through ``json.loads`` instead, so the values accepted and
the error messages are exactly those of ``json.loads``. Fields are checked
with exact type tests, which for the values ``json`` produces are the same
tests as ``isinstance`` with ``bool`` excluded from the numbers.

Entity names and paths are interned with ``sys.intern``, so every event of
an entity, and every event on a path, shares one string: the pipeline keeps
one table entry per entity for the whole run and one window entry per path,
and the equal-name comparisons of the verdict sort and the path lookups of
the feature window become identity checks. An interned string is freed with
its last event.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass
from typing import IO, Iterator

from .types import Event, EventKind, Truth, ZsdError

STDIN_MARKER = "-"

_KNOWN_KEYS = frozenset(
    {"ts", "entity", "kind", "path", "ext_before", "ext_after", "bytes", "entropy", "dst", "truth"}
)
_KIND_VALUES = {k.value: k for k in EventKind}
_TRUTH_VALUES = {t.value: t for t in Truth}
# ts and bytes must fit a signed 64-bit integer: the features convert them
# (and their differences and sums) to float, which a larger integer overflows
_INT_LIMIT = 2**63

_raw_decode = json.JSONDecoder().raw_decode


class ParseError(ZsdError):
    """Line is not a well-formed event record."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class SchemaError(ZsdError):
    """Record parsed but violates an Event invariant."""


class EncodingError(ZsdError):
    """Input bytes that are not UTF-8. Text is decoded a chunk at a time,
    so the bad bytes lie somewhere after the last line read, which is all
    the message can name."""

    def __init__(self, source: str, line_no: int, exc: UnicodeDecodeError):
        super().__init__(
            f"{source}: can't decode byte 0x{exc.object[exc.start]:02x} as UTF-8 "
            f"({exc.reason}) after line {line_no}")


def _decode(line: str, line_no: int):
    """The JSON value of the line, as ``json.loads`` would return it."""
    try:
        obj, end = _raw_decode(line)
        if end == len(line):
            return obj
    except (ValueError, TypeError, RecursionError):
        pass
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, or a number too long to convert or nesting too
        # deep to decode, which json raises as ValueError and RecursionError
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise ParseError(line_no, f"bad JSON: {reason}") from None


def _opt_str(obj: dict, key: str) -> str | None:
    v = obj.get(key)
    if v is None or type(v) is str:
        return v
    raise SchemaError(f"{key} must be a string")


def parse_event_line(line: str, line_no: int = 0, strict: bool = False) -> Event:
    """Parse one JSON-Lines record into an Event.

    Unknown fields are ignored unless strict, in which case they are a
    SchemaError. Raises ParseError for malformed JSON and SchemaError for
    invariant violations.
    """
    obj = _decode(line, line_no)
    if type(obj) is not dict:
        raise ParseError(line_no, "record must be a JSON object")

    try:
        ts = obj["ts"]
        entity = obj["entity"]
        kind_raw = obj["kind"]
    except KeyError as exc:
        raise SchemaError(f"missing required field {exc.args[0]}") from None
    if strict:
        unknown = set(obj) - _KNOWN_KEYS
        if unknown:
            raise SchemaError(f"unknown field {sorted(unknown)[0]}")

    if type(ts) is not int:
        raise SchemaError("ts must be an integer")
    if ts < 0:
        raise SchemaError("ts must be >= 0")
    if ts >= _INT_LIMIT:
        raise SchemaError("ts must be < 2**63")

    if type(entity) is not str or not entity:
        raise SchemaError("entity must be a non-empty string")

    kind = _KIND_VALUES.get(kind_raw) if type(kind_raw) is str else None
    if kind is None:
        raise SchemaError(f"unknown kind {kind_raw!r}")

    nbytes = obj.get("bytes")
    if nbytes is not None:
        if type(nbytes) is not int:
            raise SchemaError("bytes must be an integer")
        if nbytes < 0:
            raise SchemaError("bytes must be >= 0")
        if nbytes >= _INT_LIMIT:
            raise SchemaError("bytes must be < 2**63")

    entropy = obj.get("entropy")
    if entropy is not None:
        if type(entropy) is not float and type(entropy) is not int:
            raise SchemaError("entropy must be a number")
        # checked before float(), which a huge integer overflows
        if not (0 <= entropy <= 8):
            raise SchemaError("entropy out of [0,8]")
        if type(entropy) is int:
            entropy = float(entropy)

    ext_before = _opt_str(obj, "ext_before")
    ext_after = _opt_str(obj, "ext_after")
    if kind is EventKind.FILE_RENAME:
        if ext_before is None or ext_after is None:
            raise SchemaError("file_rename requires ext_before and ext_after")
    elif ext_before is not None or ext_after is not None:
        raise SchemaError("ext_before/ext_after only valid on file_rename")

    truth_raw = obj.get("truth")
    truth = None
    if truth_raw is not None:
        truth = _TRUTH_VALUES.get(truth_raw) if type(truth_raw) is str else None
        if truth is None:
            raise SchemaError(f"unknown truth {truth_raw!r}")

    path = _opt_str(obj, "path")
    if path is not None:
        path = sys.intern(path)
    return Event(ts, sys.intern(entity), kind, path,
                 ext_before, ext_after, nbytes, entropy, _opt_str(obj, "dst"), truth)


@dataclass
class EventStream:
    """A single-consumer event source: a file path or '-' for stdin."""

    source: str
    strict: bool = False
    skipped_count: int = 0
    monotonicity_warnings: int = 0

    def _open(self) -> IO[str]:
        if self.source == STDIN_MARKER:
            return io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
        return open(self.source, "r", encoding="utf-8")


def read_stream(stream: EventStream) -> Iterator[Event]:
    """Yield events from the stream in input order.

    Non-strict mode skips malformed or schema-violating lines, counting them
    in stream.skipped_count; strict mode aborts on the first bad line.
    """
    fh = stream._open()
    line_no = 0
    last_ts = -1
    try:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                event = parse_event_line(line, line_no, strict=stream.strict)
            except (ParseError, SchemaError):
                if stream.strict:
                    raise
                stream.skipped_count += 1
                continue
            if event.ts < last_ts:
                stream.monotonicity_warnings += 1
            last_ts = event.ts
            yield event
    except UnicodeDecodeError as exc:
        raise EncodingError(stream.source, line_no, exc) from None
    finally:
        if stream.source != STDIN_MARKER:
            fh.close()
