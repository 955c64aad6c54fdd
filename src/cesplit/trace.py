"""JSON Lines trace files: writing, parsing, and the one record schema.

One object per line, every record carrying an "op" field.  Event records
("op": "event") interleave the kernel's released events with construction
decisions so a trace file replays on its own.  Files are byte-identical
across runs with the same inputs: keys are sorted and separators fixed.

``_SHAPES``, the one table of record keys, gives each op's row: the kind
of each field, per op (``req`` is an integer in ``pull``, a list or null in
``route``), and for ``meta`` a row per construction ``kind``.
``split_events`` checks every record against its row once, before any
replay reads it: exactly the row's keys, integers of type int (not bool,
not a subclass), addresses of 0s and 1s only, lists of such integers.  A
record that does not fit raises ``TraceError`` on its line.

The writer fills a row's line template, such as
``{"e":E,"op":"event","s":S,"x":X}``, for a record that fits the row (every
row but ``route``'s and ``meta``'s has one), and hands every other record
to the ``json`` module, with the same bytes.  The
reader takes the canonical event line by template and hands every other
line to the ``json`` module, so it accepts any JSON spelling of any record
and gives the same dicts either way.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional


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
    "chip": _shape("chip", s="int", node="address", c="int"),
    "enter": _shape("enter", s="int", x="int", node="address"),
    "left": _shape("left", s="int", **{"from": "address"}, to="address", balls="ints"),
    "void": _shape("void", s="int", node="address", n="int"),
    "pull": _shape("pull", s="int", ks="int", node="address", req="int", x0="int", x1="int",
                   mid="ints"),
    "patch": _shape("patch", s="int", node="address", x="int"),
    "dump-orig": _shape("dump-orig", s="int", ks="int", node="address", e="int", i="int",
                        balls="ints"),
    "dump-extra": _shape("dump-extra", s="int", ks="int", gamma="address", node="address",
                         idx="int", x="int"),
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
    if op == "event":
        # nearly every line of every trace, so its check is spelled out
        if len(record) == 4:
            s, e, x = record.get("s"), record.get("e"), record.get("x")
            if type(s) is int and type(e) is int and type(x) is int:
                return _EVENT_LINE % (e, s, x)
    elif type(op) is str and op != "meta" and op in _SHAPES:
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


def write_trace(path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_line, records))


def read_trace(path) -> list[dict]:
    return read_trace_lines(path)[0]


def read_trace_lines(path) -> tuple[list[dict], list[int]]:
    """The records of a trace file and the file line each sits on.

    Blank lines are legal and skipped, so from the first one on the record
    count and the file line part ways.  Bytes that are not UTF-8 are
    carried through as lone surrogates and reported on the line they sit
    on; a canonical event line never holds one.
    """
    records, lines = [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                match = _EVENT_RE.fullmatch(line)
                if match:
                    e, s, x = match.groups()
                    records.append({"e": int(e), "op": "event", "s": int(s), "x": int(x)})
                    lines.append(lineno)
                    continue
                line.encode("utf-8")  # fails on the lone surrogate of a bad byte
                record = json.loads(line)
            except UnicodeEncodeError:
                raise TraceError("record holds bytes that are not UTF-8", lineno) from None
            except ValueError as err:  # JSONDecodeError, or an integer too long to convert
                raise TraceError(f"unparsable record: {err}", lineno) from None
            if not isinstance(record, dict) or "op" not in record:
                raise TraceError("record lacks an op field", lineno)
            if not isinstance(record["op"], str) or record["op"] not in _SHAPES:
                raise TraceError(f"unknown op {record['op']!r}", lineno)
            records.append(record)
            lines.append(lineno)
    return records, lines


def split_events(records: list[dict]):
    """The event log the interleaved event records build, once every record
    has been checked against its row of ``_SHAPES``.

    A record that does not fit its row (a field missing, unknown or of the
    wrong kind), and an event the log cannot take (a stage out of order, an
    element entering one index twice), raise ``TraceError`` naming its
    line, counted in records from 1.
    """
    from .kernel import EventLog, KernelError

    log = EventLog()
    append = log.append
    for line, record in enumerate(records, start=1):
        # nearly every record is an event, so its row is checked inline
        if record.get("op") == "event" and len(record) == 4:
            s, e, x = record.get("s"), record.get("e"), record.get("x")
            if type(s) is int and type(e) is int and type(x) is int:
                try:
                    append(s, e, x)
                except KernelError as err:
                    raise TraceError(str(err), line) from None
                continue
        misfit = _misfit(record)
        if misfit is not None:
            raise TraceError(misfit, line)
    return log


def merge_for_file(log, decisions: list[dict]) -> Iterator[dict]:
    """Events first, then decisions in order: a self-contained file, one
    record at a time."""
    for s, e, x in log.events():
        yield {"op": "event", "s": s, "e": e, "x": x}
    yield from decisions
