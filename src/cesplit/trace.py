"""JSON Lines trace files: the ``Trace`` value, writing, reading, and the
one record schema.

One object per line, every record carrying an "op" field.  Event records
("op": "event") and construction decisions make a trace file that replays
on its own.  Files are byte-identical across runs with the same inputs:
keys are sorted and separators fixed.  In memory the events are never
records: a ``Trace`` holds them in its ``EventLog``, and the writer and
the reader take each event line straight from and to the log's columns.

``_SHAPES``, the one table of record keys, gives each op's row: the kind
of each field, per op (``req`` is an integer in ``pull``, a list in
``route``), and for ``meta`` a row per construction ``kind``.  Each row has
one check, which says why a record does not fit it: exactly the row's keys,
integers of type int (not bool, not a subclass), addresses of 0s and 1s
only, lists of such integers.  ``ADDRESS_FIELDS`` is read off the rows.

The writer and the reader call that one check.  The writer fills a row's
line template, such as ``{"e":E,"op":"event","s":S,"x":X}``, for a record
the check passes (every row but ``meta``'s has one), and hands meta
records and misfits to the ``json`` module, with the same bytes.  The
reader takes the canonical event line by a pattern made from the event
row's template, hands every other line to the ``json`` module and checks
the record it gives, so it accepts any JSON spelling of any record and
gives the same log and records either way.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

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
    "pairs": ("a list of [position, index] pairs", lambda v: type(v) is list and all(
        _ints(p) and len(p) == 2 for p in v)),
}
# the template slot of each kind a line template can write, by field name
_SLOTS = {"int": "%%(%s)d", "address": '"%%(%s)s"', "ints": "[%%(%s)s]"}
_ABSENT = object()  # the value of a field the record lacks: of no kind


class _Shape(NamedTuple):
    kinds: dict            # field name -> kind, in key order; the op (and a meta's kind) aside
    fill: Optional[tuple]  # the writer's template, or None
    misfit: Callable[[dict], Optional[str]]  # the row's check of a record of its op


def _shape(op: str, **kinds: str) -> _Shape:
    """A row.  Its check gives None for a record of the op that fits, else why
    not: a field the row lacks, looked for only when the key sets differ, or
    else the first in key order that is missing or not of its kind.  Its
    template, for every op but meta: its list fields' names and its line."""
    kinds = dict(sorted(kinds.items()))
    keys = frozenset(kinds) | ({"op", "kind"} if op == "meta" else {"op"})
    # each field, its kind's test (None for an integer: tested inline) and words
    fields = tuple((k, None if kind == "int" else _KINDS[kind][1], _KINDS[kind][0])
                   for k, kind in kinds.items())

    def misfit(record: dict) -> Optional[str]:
        if record.keys() != keys:
            for name in record:
                if name not in keys:
                    return f"{op} record has an unknown field {name!r}"
        for name, test, what in fields:
            value = record.get(name, _ABSENT)
            if test is None:
                if type(value) is int:
                    continue
            elif test(value):
                continue
            if value is _ABSENT:
                return f"{op} record lacks {name!r}"
            return f"{op} field {name!r} is not {what}: {value!r}"
        return None

    fill = None
    if op != "meta":
        slots = {k: _SLOTS[kind] % k for k, kind in kinds.items()}
        slots["op"] = '"%s"' % op
        fill = (tuple(k for k, kind in kinds.items() if kind == "ints"),
                "{%s}\n" % ",".join('"%s":%s' % (k, slots[k]) for k in sorted(slots)))
    return _Shape(kinds, fill, misfit)


_SHAPES = {
    "event": _shape("event", s="int", e="int", x="int"),
    "route": _shape("route", req="ints"),
    "hk": _shape("hk", triple="ints", l="int", r="int"),
    "f": _shape("f", s="int", ks="int", node="address"),
    "left": _shape("left", **{"from": "address"}, balls="ints"),
    "pull": _shape("pull", ks="int", node="address", req="int", x0="int", x1="int", mid="ints"),
    "dump-orig": _shape("dump-orig", ks="int", node="address", e="int", i="int"),
    "dump-extra": _shape("dump-extra", ks="int", node="address", idx="int"),
    # by the record's kind
    "meta": {
        "friedberg": _shape("meta", a="int", a0="int", a1="int"),
        "hk": _shape("meta", b="int", a="int", b0="int", b1="int", y_over="pairs",
                     z_over="pairs"),
        "tree": _shape("meta", e_a="int", e0="int", e1="int", depth="int"),
    },
}
# the address fields of each op but meta, whose rows have none
ADDRESS_FIELDS = {op: tuple(k for k, kind in row.kinds.items() if kind == "address")
                  for op, row in _SHAPES.items() if op != "meta"}
# '{"e":%d,"op":"event","s":%d,"x":%d}\n', filled from a tuple in key order
_EVENT_LINE = re.sub(r"%\(\w+\)", "%", _SHAPES["event"].fill[-1])

# the spellings JSON accepts for an integer, and only those: [0-9], not \d
_INT = r"(-?(?:0|[1-9][0-9]*))"
_EVENT_RE = re.compile(re.escape(_EVENT_LINE.rstrip("\n")).replace("%d", _INT))


def _line(record: dict) -> str:
    """The record's line: its row's template filled, when it fits the row."""
    op = record.get("op")
    shape = _SHAPES.get(op) if type(op) is str and op != "meta" else None
    if shape is None or shape.misfit(record) is not None:
        return _encode(record) + "\n"
    lists, template = shape.fill
    if lists:
        record = dict(record, **{k: ",".join(map(str, record[k])) for k in lists})
    return template % record


def _misfit(record: dict) -> Optional[str]:
    """Why a record does not fit its row of ``_SHAPES``, or None if it does."""
    op = record.get("op")
    shape = _SHAPES.get(op) if type(op) is str else None
    if op == "meta":
        kind = record.get("kind")
        shape = shape.get(kind) if type(kind) is str else None
        if shape is None:
            return f"unknown meta kind {kind!r}"
    if shape is None:
        return f"unknown op {op!r}"
    return shape.misfit(record)


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
