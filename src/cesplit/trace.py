"""JSON Lines trace files: writing, parsing, and the record vocabulary.

One object per line, every record carrying an "op" field.  Event records
("op": "event") interleave the kernel's released events with construction
decisions so a trace file replays on its own.  Files are byte-identical
across runs with the same inputs: keys are sorted and separators fixed.
"""

from __future__ import annotations

import json
from itertools import chain
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


def dumps_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_trace(path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dumps_record(record) + "\n")


def read_trace(path) -> list[dict]:
    return read_trace_lines(path)[0]


def read_trace_lines(path) -> tuple[list[dict], list[int]]:
    """The records of a trace file and the file line each sits on.

    Blank lines are legal and skipped, so from the first one on the record
    count and the file line part ways.
    """
    records, lines = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise TraceError(f"unparsable record: {err}", lineno) from None
            if not isinstance(record, dict) or "op" not in record:
                raise TraceError("record lacks an op field", lineno)
            if record["op"] not in RECORD_OPS:
                raise TraceError(f"unknown op {record['op']!r}", lineno)
            records.append(record)
            lines.append(lineno)
    return records, lines


def split_events(records: list[dict]):
    """Separate interleaved event records from decision records.

    An event the log cannot take (a missing field, a stage out of order, an
    element entering one index twice, a field that is not an integer) raises
    ``TraceError`` naming its line, counted in records from 1.
    """
    from .kernel import EventLog, KernelError

    log = EventLog()
    decisions = []
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
        else:
            decisions.append(record)
    # the log takes any hashable index or element, and strings or bools as
    # stages when they compare, so one pass over the built log checks types
    if not set(map(type, chain.from_iterable(log.events()))) <= {int}:
        raise _non_integer_event(records, len(records))
    return log, decisions


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


def event_records(log) -> Iterable[dict]:
    for s, e, x in log.events():
        yield {"op": "event", "s": s, "e": e, "x": x}


def merge_for_file(log, decisions: list[dict]) -> list[dict]:
    """Events first, then decisions in order: a self-contained file."""
    return list(event_records(log)) + list(decisions)
