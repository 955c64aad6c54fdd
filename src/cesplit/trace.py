"""JSON Lines trace files: the ``Trace`` value, writing, reading, and the
one record schema.

One object per line, every record carrying an "op" field.  Event records
("op": "event") and construction decisions make a trace file that replays
on its own.  Files are byte-identical across runs with the same inputs:
keys are sorted and separators fixed.  In memory the events are never
records: a ``Trace`` holds them in its ``EventLog``, and the writer and
the reader take each event line straight from and to the log's columns.

``_SHAPES``, the one table of record keys, gives each op's row: the kind
of each field, per op (``req`` is an integer in ``pull``, a list or null in
``route``), and for ``meta`` a row per construction ``kind``.
``read_trace`` checks every record against its row as it reads it:
exactly the row's keys, integers of type int (not bool, not a subclass),
addresses of 0s and 1s only, lists of such integers.

The writer fills a row's line template, such as
``{"e":E,"op":"event","s":S,"x":X}``, for a record that fits the row (every
row but ``route``'s and ``meta``'s has one), and hands every other record
to the ``json`` module, with the same bytes.  The reader takes the
canonical event line by template and hands every other line to the
``json`` module, so it accepts any JSON spelling of any record and gives
the same log and records either way.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, Sequence

from .kernel import EventLog, KernelError


class TraceError(Exception):
    """A trace that cannot be read or replayed; ``line`` names the culprit."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.line is None else f"line {self.line}: {message}"


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _ints(value) -> bool:
    return type(value) is list and all(type(i) is int for i in value)


# a field's kind: what its value is, in words, and the test of a value
_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "address": ("an address", lambda v: type(v) is str and not v.strip("01")),
    "ints": ("a list of integers", _ints),
    "ints or null": ("a list of integers or null", lambda v: v is None or _ints(v)),
    "pairs": ("a list of [position, index] pairs", lambda v: type(v) is list and all(
        _ints(p) and len(p) == 2 for p in v)),
}
# the type and template slot of each kind a line template can write
_SLOTS = {"int": (int, "%d"), "address": (str, '"%s"'), "ints": (list, "[%s]")}


class _Shape(NamedTuple):
    kinds: dict          # field name -> kind, in key order; the op (and a meta's kind) aside
    optional: frozenset  # the fields a record may leave out
    fill: Optional[tuple]  # the writer's template, or None


def _shape(op: str, optional: dict = None, **kinds: str) -> _Shape:
    """A row.  Its template, when every kind has a slot, is the record's
    size, a getter of its values in sorted key order, their types, the
    positions of its addresses and lists, and its line."""
    fill = None
    if op != "meta" and not optional and all(kind in _SLOTS for kind in kinds.values()):
        keys = sorted(kinds)
        slots = {k: _SLOTS[kinds[k]][1] for k in keys}
        slots["op"] = '"%s"' % op
        fill = (
            len(keys) + 1,
            itemgetter(*keys),
            tuple(_SLOTS[kinds[k]][0] for k in keys),
            tuple(i for i, k in enumerate(keys) if kinds[k] == "address"),
            tuple(i for i, k in enumerate(keys) if kinds[k] == "ints"),
            "{%s}\n" % ",".join('"%s":%s' % (k, slots[k]) for k in sorted(slots)),
        )
    kinds.update(optional or {})
    return _Shape(dict(sorted(kinds.items())), frozenset(optional or ()), fill)


_SHAPES = {
    "event": _shape("event", s="int", e="int", x="int"),
    "route": _shape("route", s="int", x="int", req="ints or null", side="int"),
    "hk": _shape("hk", s="int", x="int", triple="ints", l="int", r="int", side="int"),
    "f": _shape("f", s="int", ks="int", node="address"),
    "left": _shape("left", **{"from": "address"}, balls="ints"),
    "pull": _shape("pull", ks="int", node="address", req="int", x0="int", x1="int", mid="ints"),
    "patch": _shape("patch", node="address", x="int"),
    "dump-orig": _shape("dump-orig", ks="int", node="address", e="int", i="int", balls="ints"),
    "dump-extra": _shape("dump-extra", ks="int", node="address", idx="int", x="int"),
    # by the record's kind
    "meta": {
        "friedberg": _shape("meta", a="int", a0="int", a1="int"),
        "hk": _shape("meta", {"y_over": "pairs", "z_over": "pairs"},
                     b="int", a="int", b0="int", b1="int"),
        "tree": _shape("meta", e_a="int", e0="int", e1="int", depth="int", feeder="int"),
    },
}
_EVENT_LINE = _SHAPES["event"].fill[-1]  # '{"e":%d,"op":"event","s":%d,"x":%d}\n'

# the spellings JSON accepts for an integer, and only those: [0-9], not \d
_INT = r"(-?(?:0|[1-9][0-9]*))"
_EVENT_RE = re.compile(r'\{"e":%s,"op":"event","s":%s,"x":%s\}' % (_INT, _INT, _INT))


def _line(record: dict) -> str:
    op = record.get("op")
    if type(op) is str and op != "meta" and op in _SHAPES:
        line = _filled(_SHAPES[op], record)
        if line is not None:
            return line
    return _encode(record) + "\n"


def _filled(shape: _Shape, record: dict) -> Optional[str]:
    """The row's template filled from the record, or None when the row has
    none or the record does not fit it (as ``_misfit`` finds, only slower)."""
    if shape.fill is None:
        return None
    size, values_of, types, addresses, lists, template = shape.fill
    if len(record) != size:
        return None
    try:
        values = values_of(record)
    except KeyError:  # another key in place of one of the row's
        return None
    if tuple(map(type, values)) != types:
        return None
    for i in addresses:
        if values[i].strip("01"):
            return None
    if lists:
        values = list(values)
        for i in lists:
            if not set(map(type, values[i])) <= {int}:
                return None
            values[i] = ",".join(map(str, values[i]))
    return template % tuple(values)


def _misfit(record: dict) -> Optional[str]:
    """Why a record does not fit its row of ``_SHAPES``, or None if it does."""
    op = record.get("op")
    shape = _SHAPES.get(op) if type(op) is str else None
    known = ("op",)
    if op == "meta":
        kind, known = record.get("kind"), ("op", "kind")
        shape = shape.get(kind) if type(kind) is str else None
        if shape is None:
            return f"unknown meta kind {kind!r}"
    if shape is None:
        return f"unknown op {op!r}"
    for name in record:
        if name not in shape.kinds and name not in known:
            return f"{op} record has an unknown field {name!r}"
    for name, kind in shape.kinds.items():
        what, fits = _KINDS[kind]
        if name in record and not fits(record[name]):
            return f"{op} field {name!r} is not {what}: {record[name]!r}"
        if name not in record and name not in shape.optional:
            return f"{op} record lacks {name!r}"
    return None


@dataclass
class Trace:
    """One trace: the event log, every other record in file order, the file
    line each of those sits on, and ``end``, the line after the last record,
    where a missing record is named.  ``len`` is the record count."""

    log: EventLog
    records: list
    lines: Sequence[int]
    end: int

    def __len__(self) -> int:
        return len(self.log) + len(self.records)

    def numbered(self) -> Iterator[tuple[int, dict]]:
        """(file line, record) of every record but the events, in file order."""
        return zip(self.lines, self.records)


def merge_for_file(log: EventLog, decisions: list) -> Trace:
    """The trace a run writes, over its live log: events first, then the
    decisions in order, each on the line it takes in the file."""
    first = len(log) + 1
    return Trace(log, decisions, range(first, first + len(decisions)), first + len(decisions))


def write_trace(path, trace: Trace) -> None:
    """The events, straight from the log's columns, then every other record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_EVENT_LINE % (e, s, x) for s, e, x in trace.log.events())
        fh.writelines(map(_line, trace.records))


def read_trace(path) -> Trace:
    """The trace a file holds, checked line by line in file order.

    Each event line goes straight into the event log; every other record is
    checked against its row of ``_SHAPES`` and kept with its file line.  The
    first line that cannot be parsed, does not fit its row, or holds an
    event the log cannot take (a stage out of order, an element entering one
    index twice) raises ``TraceError`` naming that line.  Blank lines are
    legal and skipped.  Bytes that are not UTF-8 are carried through as lone
    surrogates and reported on the line they sit on; a canonical event line
    never holds one.
    """
    log, records, lines, last = EventLog(), [], [], 0
    append, fullmatch = log.append, _EVENT_RE.fullmatch
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            last = lineno
            match = fullmatch(line)
            try:
                if match is not None:  # nearly every line
                    e, s, x = match.groups()
                    append(int(s), int(e), int(x))
                    continue
                line.encode("utf-8")  # fails on the lone surrogate of a bad byte
                record = json.loads(line)
                if not isinstance(record, dict) or "op" not in record:
                    raise TraceError("record lacks an op field", lineno)
                misfit = _misfit(record)
                if misfit is not None:
                    raise TraceError(misfit, lineno)
                if record["op"] == "event":
                    append(record["s"], record["e"], record["x"])
                else:
                    records.append(record)
                    lines.append(lineno)
            except KernelError as err:
                raise TraceError(str(err), lineno) from None
            except UnicodeEncodeError:
                raise TraceError("record holds bytes that are not UTF-8", lineno) from None
            # JSONDecodeError, an integer too long to convert, or nesting too deep
            except (ValueError, RecursionError) as err:
                raise TraceError(f"unparsable record: {err}", lineno) from None
    return Trace(log, records, lines, last + 1)
