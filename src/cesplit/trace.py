"""JSON Lines trace files: writing, parsing, and the record vocabulary.

One object per line, every record carrying an "op" field.  Event records
("op": "event") interleave the kernel's released events with construction
decisions so a trace file replays on its own.  Files are byte-identical
across runs with the same inputs: keys are sorted and separators fixed.

Nearly every line is an event or a tree decision, so this module alone
knows their canonical lines.  ``_SHAPES`` maps the event op and each tree
decision op but ``meta`` (``f``, ``chip``, ``enter``, ``left``, ``void``,
``pull``, ``patch``, ``dump-orig``, ``dump-extra``) to its sorted keys and
line template, such as ``{"e":E,"op":"event","s":S,"x":X}``.  A record is
written by its op's template only when it has exactly the op's keys, every
integer field is of type int (not bool, not a subclass), every address
(``node``, ``from``, ``to``, ``gamma``) is a string of 0s and 1s, and every
list (``balls``, ``mid``) holds only such integers.  Every other record
goes through the ``json`` module; a template gives the same bytes, only
faster.  The reader takes the canonical event line by template and hands
every other line to the ``json`` module, so it accepts any JSON spelling
of any record and gives the same dicts either way.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional

RECORD_OPS = {
    "event", "route", "hk",
    "f", "enter", "left", "pull", "patch", "void",
    "dump-orig", "dump-extra", "chip", "meta",
}


class TraceError(Exception):
    """A trace that cannot be read or replayed; ``line`` names the culprit."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.line is None else f"line {self.line}: {message}"


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# A field's kind follows from its name: a node address (a string of 0s and
# 1s, so nothing in it needs escaping), a list of integers, or an integer.
_ADDRESSES = {"node", "from", "to", "gamma"}
_LISTS = {"balls", "mid"}


def _shape(op: str, *fields: str) -> tuple:
    """A record shape: its size, a getter of its values in sorted key order,
    their types, the positions of its addresses and lists, and its line."""
    keys = sorted(fields)
    kinds = tuple(str if k in _ADDRESSES else list if k in _LISTS else int for k in keys)
    slots = {k: {int: "%d", str: '"%s"', list: "[%s]"}[kind] for k, kind in zip(keys, kinds)}
    slots["op"] = '"%s"' % op
    return (
        len(keys) + 1,
        itemgetter(*keys),
        kinds,
        tuple(i for i, kind in enumerate(kinds) if kind is str),
        tuple(i for i, kind in enumerate(kinds) if kind is list),
        "{%s}\n" % ",".join('"%s":%s' % (k, slots[k]) for k in sorted(slots)),
    )


# the records written by template, by op: the event and the tree decisions
_SHAPES = {
    "event": _shape("event", "s", "e", "x"),
    "f": _shape("f", "s", "ks", "node"),
    "chip": _shape("chip", "s", "node", "c"),
    "enter": _shape("enter", "s", "x", "node"),
    "left": _shape("left", "s", "from", "to", "balls"),
    "void": _shape("void", "s", "node", "n"),
    "pull": _shape("pull", "s", "ks", "node", "req", "x0", "x1", "mid"),
    "patch": _shape("patch", "s", "node", "x"),
    "dump-orig": _shape("dump-orig", "s", "ks", "node", "e", "i", "balls"),
    "dump-extra": _shape("dump-extra", "s", "ks", "gamma", "node", "idx", "x"),
}
_EVENT_LINE = _SHAPES["event"][-1]  # '{"e":%d,"op":"event","s":%d,"x":%d}\n'

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
    elif type(op) is str and op in _SHAPES:
        line = _filled(_SHAPES[op], record)
        if line is not None:
            return line
    return _encode(record) + "\n"


def _filled(shape: tuple, record: dict) -> Optional[str]:
    """The shape's template filled from the record, or None unless the record
    has exactly the shape's keys, integers of type int (not bool or a
    subclass), addresses of 0s and 1s only, and lists of such integers."""
    size, values_of, kinds, addresses, lists, template = shape
    if len(record) != size:
        return None
    try:
        values = values_of(record)
    except KeyError:  # another key in place of one of the shape's
        return None
    if tuple(map(type, values)) != kinds:
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
            if not isinstance(record["op"], str) or record["op"] not in RECORD_OPS:
                raise TraceError(f"unknown op {record['op']!r}", lineno)
            records.append(record)
            lines.append(lineno)
    return records, lines


def split_events(records: list[dict]):
    """The event log the interleaved event records build.

    An event the log cannot take (a missing field, a stage out of order, an
    element entering one index twice, a field that is not an integer) raises
    ``TraceError`` naming its line, counted in records from 1.
    """
    from .kernel import EventLog, KernelError

    log = EventLog()
    for line, record in enumerate(records, start=1):
        if record["op"] == "event":
            try:
                log.append(record["s"], record["e"], record["x"])
            except KeyError as err:
                raise TraceError(f"event record lacks {err}", line) from None
            except KernelError as err:
                raise TraceError(str(err), line) from None
            except TypeError:
                raise _non_integer_event(records, line) from None
    # the log takes any hashable index or element, and strings or bools as
    # stages when they compare, so one pass over the built log checks types
    if not set(map(type, chain.from_iterable(log.events()))) <= {int}:
        raise _non_integer_event(records, len(records))
    return log


def _non_integer_event(records: list[dict], upto: int) -> TraceError:
    """The first event record up to line ``upto`` with a non-integer field.

    The log compares stages only with the previous one, so a bad stage can
    surface an event after its own record; this names the record itself.
    """
    for line, record in enumerate(records[:upto], start=1):
        if record["op"] == "event":
            for name in ("s", "e", "x"):
                value = record[name]
                if type(value) is not int:
                    return TraceError(f"event field {name!r} is not an integer: {value!r}", line)
    return TraceError("event record does not fit the log", upto)


def merge_for_file(log, decisions: list[dict]) -> list[dict]:
    """Events first, then decisions in order: a self-contained file."""
    records = [{"op": "event", "s": s, "e": e, "x": x} for s, e, x in log.events()]
    records += decisions
    return records
