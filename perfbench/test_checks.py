"""Each benchmark check passes real outputs and rejects a tampered copy.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

The outputs come from short runs of the three workloads (smaller stage
budgets than the benchmark uses), produced by the worker's own workload
functions; each test then tampers with one file or one reported field.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import worker  # noqa: E402
from inputs import make_inputs, write_inputs  # noqa: E402

SMALL = {
    "enumerate": {"stages": 30_000},
    "split": {"friedberg": {"stages": 40_000}, "hk": {"stages": 20_000}},
    "diagonalize": {"stages": 20_000},
}


def _shrink(inputs, small):
    for key, value in small.items():
        if isinstance(value, dict):
            inputs[key].update(value)
        else:
            inputs[key] = value
    return inputs


ALL = ["enumerate", "split", "diagonalize"]
TRACED = ["split", "diagonalize"]  # the workloads that write traces and split


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """workload -> (workload, inputs, work dir, reported outcome)."""
    from cesplit import corpus

    made = {}
    for workload in ALL:
        work = tmp_path_factory.mktemp(workload)
        inputs = _shrink(make_inputs(workload, 7), SMALL[workload])
        write_inputs(inputs, work)
        out: dict = {}
        texts = corpus.load_corpus(work / "corpus.txt")
        worker.WORKLOADS[workload](inputs, texts, work, out, worker.Timeline(), None)
        made[workload] = (workload, inputs, work, out)
    return made


@pytest.fixture
def produced(outputs, workload):
    return outputs[workload]


def _problems(produced, out=None):
    workload, inputs, work, original = produced
    return checks.check_execution(workload, inputs, work, out or original)


def _trace_name(workload):
    return {"split": "friedberg", "diagonalize": "diagonalize"}[workload]


def _rewrite(path: Path, edit):
    """Apply edit(list of parsed lines) and write the file back."""
    if path.suffix == ".jsonl":
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lines = edit(lines)
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in lines))
    else:
        lines = [list(map(int, line.split())) for line in path.read_text().splitlines()]
        lines = edit(lines)
        path.write_text("".join(" ".join(map(str, r)) + "\n" for r in lines))


@pytest.fixture
def tampered(produced, tmp_path):
    """A private copy of the produced files for one test to tamper with."""
    workload, inputs, work, out = produced
    for f in work.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    return workload, inputs, tmp_path, copy.deepcopy(out)


def _events_file(workload, work):
    if workload == "enumerate":
        return work / "events.txt"
    return work / f"{_trace_name(workload)}.jsonl"


def _is_event(row):
    return isinstance(row, list) or row["op"] == "event"


def _fields(row):
    return row if isinstance(row, list) else [row["s"], row["e"], row["x"]]


def _set(row, s=None, e=None, x=None):
    if isinstance(row, list):
        return [s if s is not None else row[0], e if e is not None else row[1],
                x if x is not None else row[2]]
    new = dict(row)
    for key, value in (("s", s), ("e", e), ("x", x)):
        if value is not None:
            new[key] = value
    return new


@pytest.mark.parametrize("workload", ALL)
def test_real_outputs_pass(produced):
    assert _problems(produced) == []


@pytest.mark.parametrize("workload", ALL)
def test_event_outside_the_halting_set_is_rejected(tampered):
    workload, inputs, work, out = tampered
    programs = inputs["programs"]
    empty = next(m for m, spec in enumerate(programs) if spec[0] in ("none", "bad"))

    def edit(rows):
        # a machine code whose program halts nowhere suddenly releases 0
        i = max(k for k, r in enumerate(rows) if _is_event(r))
        s = _fields(rows[i])[0]
        rows.insert(i + 1, _set(rows[i], s=s + 1, e=2 * empty, x=0))
        return rows

    _rewrite(_events_file(workload, work), edit)
    assert any("diverges" in p for p in checks.check_execution(workload, inputs, work, out))


@pytest.mark.parametrize("workload", ALL)
def test_two_events_in_one_stage_are_rejected(tampered):
    workload, inputs, work, out = tampered

    def edit(rows):
        idx = [k for k, r in enumerate(rows) if _is_event(r)]
        rows[idx[-1]] = _set(rows[idx[-1]], s=_fields(rows[idx[-2]])[0])
        return rows

    _rewrite(_events_file(workload, work), edit)
    assert any("released after" in p for p in checks.check_execution(workload, inputs, work, out))


@pytest.mark.parametrize("workload", ALL)
def test_element_entering_twice_is_rejected(tampered):
    workload, inputs, work, out = tampered

    def edit(rows):
        idx = [k for k, r in enumerate(rows) if _is_event(r)]
        first = _fields(rows[idx[0]])
        last = rows[idx[-1]]
        rows.insert(idx[-1] + 1, _set(last, s=_fields(last)[0] + 1, e=first[1], x=first[2]))
        return rows

    _rewrite(_events_file(workload, work), edit)
    assert any("twice" in p for p in checks.check_execution(workload, inputs, work, out))


@pytest.mark.parametrize("workload", ALL)
def test_events_differing_from_the_log_are_rejected(tampered):
    workload, inputs, work, out = tampered
    name = next(iter(out["logs"]))
    out["logs"][name] = "0" * 64
    assert any("differ" in p for p in checks.check_execution(workload, inputs, work, out))


def _split_triple(workload, work):
    name = _trace_name(workload)
    events, records = checks.read_trace_file(work / f"{name}.jsonl")
    keys = ("a", "a0", "a1") if name == "friedberg" else ("e_a", "e0", "e1")
    return name, events, [records[0][k] for k in keys]


@pytest.mark.parametrize("workload", TRACED)
def test_element_in_both_halves_is_rejected(tampered):
    workload, inputs, work, out = tampered
    name, events, (a, a0, a1) = _split_triple(workload, work)
    x = next(x for s, e, x in events if e == a0)
    last = events[-1][0]
    forged = events + [(last + 1, a1, x)]
    assert any("both halves" in p for p in checks.check_split(forged, a, a0, a1, last + 1, 64))


@pytest.mark.parametrize("workload", TRACED)
def test_half_member_not_entering_input_first_is_rejected(tampered):
    workload, inputs, work, out = tampered
    name, events, (a, a0, a1) = _split_triple(workload, work)
    # the input's first element now enters the input only as it lands
    k = next(i for i, (s, e, x) in enumerate(events) if e == a)
    x = events[k][2]
    j = next(i for i, (t, f, y) in enumerate(events) if f in (a0, a1) and y == x)
    forged = list(events)
    forged.insert(j + 1, (events[j][0], a, x))
    del forged[k]
    problems = checks.check_split(forged, a, a0, a1, forged[-1][0], 64)
    assert any("entered half" in p for p in problems)


@pytest.mark.parametrize("workload", TRACED)
def test_input_element_left_out_of_both_halves_is_rejected(tampered):
    workload, inputs, work, out = tampered
    name = _trace_name(workload)

    def edit(rows):
        meta = next(r for r in rows if r["op"] == "meta")
        halves = (meta["a0"], meta["a1"]) if name == "friedberg" else (meta["e0"], meta["e1"])
        drop = next(k for k, r in enumerate(rows) if r["op"] == "event" and r["e"] in halves)
        return rows[:drop] + rows[drop + 1:]

    _rewrite(work / f"{name}.jsonl", edit)
    problems = checks.check_execution(workload, inputs, work, out)
    assert any("in no half" in p for p in problems)


@pytest.mark.parametrize("workload", ["split"])
def test_failed_replay_and_split_check_are_rejected(tampered):
    workload, inputs, work, out = tampered
    out["friedberg"]["replay_ok"] = False
    out["friedberg"]["replay_divergences"] = 1
    problems = checks.check_execution(workload, inputs, work, out)
    assert any("replay found" in p for p in problems)
    out["hk"]["violation"] = [5, "missing", 3]
    problems = checks.check_execution(workload, inputs, work, out)
    assert any("split check reported" in p for p in problems)


@pytest.mark.parametrize("workload", ["diagonalize"])
@pytest.mark.parametrize("field,value", [
    ("verdict", 2),
    ("checkpoints", [3, 3, 2, 3, 3]),
    ("stable", False),
    ("violations", 1),
    ("problems", ["('ball-depth', (4, '0101'))"]),
])
def test_diagonalize_verdicts_are_checked(tampered, field, value):
    workload, inputs, work, out = tampered
    out["diagonalize"][field] = value
    assert any(p.startswith("diagonalize:") for p in
               checks.check_execution(workload, inputs, work, out))
