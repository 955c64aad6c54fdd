"""Correctness checks computed apart from the workbench.

Everything here reads the files a workload execution wrote (trace files,
the enumerate event list) and the seeded inputs, and recomputes:

  - every released machine event (2m, x) is a halting computation of
    program m mod n, by the closed-form halting sets of ``inputs``;
  - no stage releases more than one event, and no element enters an index
    twice;
  - the split discipline of every split: the halves are disjoint, every
    member of a half entered the input strictly earlier, and every input
    element older than the settle window is in a half;
  - the trace carries exactly the run's event log (same sha256);
  - the workbench's own verdicts: for the splits, replay ok and the split
    check clean; for ``diagonalize`` against hf, verdict 3 at all five
    checkpoints with no violations and no structural problems.

Each check returns a list of problems; an empty list means it passed.
Nothing is compared against a stored copy of an earlier run's output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from inputs import halts

# a Friedberg or HK half receives its ball within a few stages of the
# input's event; 64 stages leaves room without hiding a lost ball
SPLIT_SETTLE = 64


def tree_settle(stages: int) -> int:
    """The tree emits A in bursts that hf routes once they drain: allow the
    trailing tenth of the run, as ``cesplit verify --suite split`` does."""
    return max(64, stages // 10)


def read_events(path: Path) -> list[tuple[int, int, int]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(int(v) for v in line.split()) for line in fh]


def read_trace_file(path: Path) -> tuple[list, list]:
    """(events in file order, other records) parsed line by line."""
    events, records = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["op"] == "event":
                events.append((record["s"], record["e"], record["x"]))
            else:
                records.append(record)
    return events, records


def events_digest(events) -> str:
    h = hashlib.sha256()
    for s, e, x in events:
        h.update(f"{s},{e},{x};".encode())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_machine_events(events, programs, machine_only: bool = False) -> list[str]:
    n = len(programs)
    problems = []
    for s, e, x in events:
        if e % 2:
            if machine_only:
                problems.append(f"stage {s}: host event ({e}, {x}) without generators")
            continue
        spec = programs[(e // 2) % n]
        if not halts(spec, x):
            problems.append(f"stage {s}: ({e}, {x}) but program {spec} diverges on {x}")
        if len(problems) >= 5:
            break
    return problems


def check_one_event_per_stage(events) -> list[str]:
    problems = []
    last = -1
    seen = set()
    for s, e, x in events:
        if s <= last:
            problems.append(f"stage {s} released after stage {last}")
        if (e, x) in seen:
            problems.append(f"element {x} entered index {e} twice")
        seen.add((e, x))
        last = max(last, s)
        if len(problems) >= 5:
            break
    return problems


def check_split(events, a: int, a0: int, a1: int, last: int, settle: int) -> list[str]:
    entered = {}
    halves = ({}, {})
    for s, e, x in events:
        if s > last:
            break
        if e == a:
            entered[x] = s
        for side, idx in enumerate((a0, a1)):
            if e == idx:
                halves[side][x] = s
    problems = []
    for x in sorted(halves[0].keys() & halves[1].keys())[:3]:
        problems.append(f"element {x} is in both halves {a0} and {a1}")
    for side in (0, 1):
        for x, s in sorted(halves[side].items()):
            if x not in entered or entered[x] >= s:
                problems.append(f"element {x} entered half {side} at stage {s} "
                                f"but input {a} at {entered.get(x)}")
                break
    for x, s in sorted(entered.items(), key=lambda item: item[1]):
        if s > last - settle:
            break
        if x not in halves[0] and x not in halves[1]:
            problems.append(f"input element {x} (stage {s}) in no half by stage {last}")
            break
    if not entered:
        problems.append(f"input {a} never received an element")
    return problems


def check_execution(workload: str, inputs: dict, work: Path, out: dict) -> list[str]:
    """Every check for one execution's files and reported outcome."""
    programs = inputs["programs"]
    problems = []
    if workload == "enumerate":
        events = read_events(work / "events.txt")
        problems += check_machine_events(events, programs, machine_only=True)
        problems += check_one_event_per_stage(events)
        if events_digest(events) != out["logs"]["enumerate"]:
            problems.append("event list differs from the kernel's log")
        if not events:
            problems.append("no events released")
        return problems
    if workload == "split":
        runs = [("friedberg", ("a", "a0", "a1"), inputs["friedberg"]["stages"],
                 SPLIT_SETTLE),
                ("hk", ("b", "b0", "b1"), inputs["hk"]["stages"], SPLIT_SETTLE)]
    else:
        runs = [("diagonalize", ("e_a", "e0", "e1"), inputs["stages"],
                 tree_settle(inputs["stages"]))]
    for name, keys, stages, settle in runs:
        events, records = read_trace_file(work / f"{name}.jsonl")
        meta = records[0] if records and records[0]["op"] == "meta" else {}
        if not all(k in meta for k in keys):
            problems.append(f"{name}: trace lacks its meta record")
            continue
        a, a0, a1 = (meta[k] for k in keys)
        found = []
        found += check_machine_events(events, programs)
        found += check_one_event_per_stage(events)
        found += check_split(events, a, a0, a1, stages - 1, settle)
        if events_digest(events) != out["logs"][name]:
            found.append("trace events differ from the kernel's log")
        report = out[name]
        if name != "diagonalize":  # the tree trace is not replayed
            if not report["replay_ok"]:
                found.append(f"replay found {report['replay_divergences']} divergences")
            if report["violation"]:
                found.append(f"split check reported {report['violation']}")
        problems += [f"{name}: {p}" for p in found]
    if workload == "diagonalize":
        d = out["diagonalize"]
        if d["verdict"] != 3 or d["checkpoints"] != [3] * 5 or not d["stable"]:
            problems.append(f"diagonalize: verdict {d['verdict']} ({d['reason']}), "
                            f"checkpoints {d['checkpoints']}, want 3 throughout")
        if d["violations"] or d["problems"]:
            problems.append(f"diagonalize: {d['violations']} violations, "
                            f"structural problems {d['problems']}")
    return problems


def trace_digests(workload: str, work: Path) -> dict:
    names = {"enumerate": (), "split": ("friedberg", "hk"),
             "diagonalize": ("diagonalize",)}[workload]
    return {name: file_digest(work / f"{name}.jsonl") for name in names}
