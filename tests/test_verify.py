import io
import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesplit import corpus
from cesplit.friedberg import run_friedberg
from cesplit.geometry import question_at
from cesplit.hk import run_hk, run_subset_scenario
from cesplit.kernel import EventLog, KernelError, machine_index
from cesplit.pairing import pair, unpair
from cesplit.setalg import before_then
from cesplit.tree import PROCEDURES, Verdict, diagonalize, proc_friedberg, verdict_at
from cesplit.verify import (
    _OPS,
    _NaiveRestraint,
    ComplementEvidence,
    FriedbergEvidence,
    complement_witnesses,
    probe_friedberg,
    replay_check,
    replay_friedberg,
    trailing_window,
)
from cesplit.trace import (
    _KINDS,
    _SHAPES,
    TraceError,
    _misfit,
    merge_for_file,
    read_trace,
    write_trace,
)
from conftest import as_records, covered_prefix, universe_frontier, write_records

TEXTS = [corpus.HALT_ALL, corpus.HALT_EVEN, corpus.HALT_ODD, corpus.DIVERGE, corpus.HALT_SLOW]


def scripted(events):
    log = EventLog()
    for stage, idx, x in events:
        log.append(stage, idx, x)
    return log


def test_covered_prefix_and_frontier():
    log = scripted([(1, 5, 0), (2, 6, 1), (3, 5, 2), (4, 6, 9)])
    assert covered_prefix(log, (5, 6), 4) == 3
    assert covered_prefix(log, (5,), 4) == 1
    assert [log.frontier(s) for s in range(6)] == [0, 0, 1, 2, 9, 9]
    assert EventLog().frontier(5) == 0
    assert scripted([(2, 5, -3), (3, 6, -1)]).frontier(3) == 0


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(-9, 40)), max_size=30), st.data())
def test_frontier_matches_a_walk_of_the_log(steps, data):
    log, stage = EventLog(), data.draw(st.integers(-5, 5))
    for index, (gap, x) in enumerate(steps):
        stage += gap
        log.append(stage, index, x)
    S = data.draw(st.integers(-10, stage + 2))
    assert log.frontier(S) == universe_frontier(log, S)


def test_replay_friedberg_flags_every_field():
    result = run_friedberg(TEXTS, machine_index(4), 4_000)
    records = [dict(r) for r in result.trace]
    log = result.kernel.log
    assert replay_friedberg(merge_for_file(log, records), result.a, result.a0, result.a1) == []
    routes = [i for i, r in enumerate(records) if r["op"] == "route"]
    target = routes[2]
    e, i, k = records[target]["req"]
    # the record keeps only its requirement: a bent one, another side, none
    for value in ([0, 0, 10**6], [e, 1 - i, k], []):
        bad = [dict(r) for r in records]
        bad[target]["req"] = value
        divergences = replay_friedberg(merge_for_file(log, bad), result.a, result.a0, result.a1)
        assert [d.field for d in divergences] == ["req"], value


@pytest.fixture(params=["friedberg", "hk"])
def routed(request):
    """A traced routing run: its file's records, the position (from 0) of
    its last routing record, its halves, and the input's last entrant,
    which that record routes."""
    if request.param == "friedberg":
        result, op = run_friedberg(TEXTS, machine_index(4), 4_000), "route"
        input_idx = result.a
    else:
        result, op = run_hk(TEXTS, machine_index(0), machine_index(1), 4_000), "hk"
        input_idx = result.b
    trace = merge_for_file(result.kernel.log, result.trace)
    assert replay_check(trace)["ok"]
    records = as_records(trace)
    last = max(n for n, r in enumerate(records) if r["op"] == op)
    *_, (_, x) = result.kernel.log.entries(input_idx)
    return records, last, result.splitter.halves, x


def side_of(record):
    """The half a routing record sends its ball to: ``triple[2]``, or
    ``req[1]`` (0 when ``req`` is empty)."""
    if record["op"] == "hk":
        return record["triple"][2]
    return record["req"][1] if record["req"] else 0


def found(path, records):
    """(line, field) of each divergence of the records' file."""
    report = replay_check(read_trace(write_records(path, records)))
    return [(d["line"], d["field"]) for d in report["divergences"]]


def test_replay_routes_missing_record(tmp_path, routed):
    records, last, _, _ = routed
    del records[last]
    assert found(tmp_path / "t.jsonl", records) == [(len(records) + 1, "missing-record")]


def test_replay_routes_extra_record(tmp_path, routed):
    records, last, _, _ = routed
    records.insert(last + 1, dict(records[last]))
    assert found(tmp_path / "t.jsonl", records) == [(last + 2, "extra-record")]


def test_replay_routes_landing(tmp_path, routed):
    records, last, halves, x = routed
    side = side_of(records[last])
    at = next(n for n, r in enumerate(records)
              if r["op"] == "event" and r["e"] == halves[side] and r["x"] == x)
    assert at < last
    del records[at]  # the ball never surfaces in its half
    assert found(tmp_path / "t.jsonl", records) == [(last, "landing")]


HK_META = {"op": "meta", "kind": "hk", "b": 0, "a": 2, "b0": 1, "b1": 3, "y_over": [],
           "z_over": []}


def hk_want(log, x, stage):
    """The triple of a ball x entering B (index 0 of HK_META) at stage, by
    the scan of every triple from the least code up."""
    m = 0
    while True:
        for i in (0, 1):
            e, j = unpair(m)
            if x <= _NaiveRestraint(log, pair(m, i), e, j, (1, 3)[i], 2).r_at(stage):
                return [e, j, i]
        m += 1


@pytest.mark.parametrize("x, want", [
    (10**6, [17, 35, 1]), (10**8, [54, 113, 1]), (4 * 10**9, [233, 189, 1]),
    (10**15, [793, 8663, 1]),
])
def test_replay_hk_huge_ball_is_quick(tmp_path, x, want):
    # the scan once built a restraint for every triple up to code x, so one
    # event of B with x = 4e9 took 2 s and 146 MB of peak RSS on a 2-core
    # VM, growing as the square root of x; the triple, and the line it is
    # named on, stay as they were
    path = write_records(tmp_path / "t.jsonl", [
        HK_META, {"op": "event", "s": 1, "e": 0, "x": x},
        {"op": "hk", "triple": [0, 0, 0], "l": 0, "r": 0}])
    start = time.perf_counter()
    first = replay_check(read_trace(path))["divergences"][0]
    assert time.perf_counter() - start < 1.0
    assert (first["line"], first["field"], first["want"]) == (3, "triple", want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12),
       st.lists(st.tuples(st.integers(1, 5), st.integers(0, 12)), max_size=8, unique=True),
       st.integers(-12, 40))
def test_replay_hk_scan_start_is_the_full_scans(covered, events, beyond):
    # past the log's length a ball is reached by exactly the triples whose
    # code is at least the ball, so the scan may start there.  A trace of
    # 0, 1, ... entering A (index 2), which lifts l of every triple whose
    # Z lacks them, and other events, then ball x of B at the next stage,
    # routed by the least triple: the replay's triple is that or its
    # divergence's want
    events = [(2, y) for y in range(covered)] + [e for e in events if e[0] != 2]
    x, stage = max(0, len(events) + beyond), len(events) + 1
    log = scripted([(s, idx, y) for s, (idx, y) in enumerate(events, start=1)] + [(stage, 0, x)])
    record = {"op": "hk", "triple": [0, 0, 0], "l": 0, "r": 0}
    report = replay_check(merge_for_file(log, [HK_META, record]))
    wants = [d["want"] for d in report["divergences"] if d["field"] == "triple"]
    assert (wants or [[0, 0, 0]])[0] == hk_want(log, x, stage)


ROUTING_RUNS = {
    "friedberg": lambda stages: run_friedberg(TEXTS, machine_index(0), stages),
    "hk": lambda stages: run_hk(TEXTS, machine_index(0), machine_index(1), stages),
    "hk-subset": run_subset_scenario,
}


@pytest.mark.parametrize("construction", ROUTING_RUNS)
def test_routing_trace_verifies_wherever_the_run_stops(construction):
    # a splitter routes an entrant on the stage after it enters, so a run
    # stopped right after an entrant leaves it unrouted, and its trace once
    # failed the replay with missing-record (`split friedberg --index 8
    # --stages 1118`); stop before, right after and one stage after each of
    # the input's last entrants
    run = ROUTING_RUNS[construction]
    result = run(3_000)
    input_idx = result.a if construction == "friedberg" else result.b
    last = [t for t, _ in result.kernel.log.entries(input_idx)][-5:]
    assert len(last) == 5
    for stop in (t + k for t in last for k in range(3)):
        result = run(stop)
        trace = merge_for_file(result.kernel.log, result.trace)
        for suite in ("replay", "split"):
            assert replay_check(trace, suite)["ok"], (stop, suite)


@pytest.mark.parametrize("forge, field", [
    ("non-positive a-node", "endpoint-kind"),
    ("past the cap", "endpoint-length"),
])
def test_replay_tree_checks_f_shape(tmp_path, forge, field):
    # the construction's walk cannot end anywhere else, so the replay is the
    # only check of f's shape
    result = diagonalize(proc_friedberg, 3000, depth=9)
    trace = merge_for_file(result.kernel.log, result.trace)
    assert replay_check(trace)["ok"]
    records = as_records(trace)
    if forge == "non-positive a-node":
        at = max(n for n, r in enumerate(records) if r["op"] == "f" and len(r["node"]) == 9)
        forged = records[at]["node"][:7] + "0"
    else:  # an R-node within the depth bound, past stage 2's cap of 4
        at = next(n for n, r in enumerate(records) if r["op"] == "f" and r["s"] == 2)
        forged = "0" * 9
    records[at] = dict(records[at], node=forged)
    assert [f for line, f in found(tmp_path / "t.jsonl", records) if line <= at + 1] == [field]


@pytest.mark.parametrize("node", ["1", "0", "11", "1011", "100000000"])
def test_replay_tree_checks_the_stage_0_endpoint(hf_depth_9, node):
    # stage 0's cap is min(0 * 0, depth) = 0, so its f record names the root,
    # and a deeper endpoint there is caught like one at any other stage
    log, decisions = hf_depth_9
    decisions = list(decisions)
    at = next(n for n, r in enumerate(decisions) if r["op"] == "f")
    assert decisions[at]["s"] == 0
    decisions[at] = dict(decisions[at], node=node)
    report = replay_check(merge_for_file(log, decisions))
    line = len(log) + 1 + at
    assert [d for d in report["divergences"] if d["line"] == line] == [
        {"line": line, "field": "endpoint-length", "got": len(node), "want": 0}]


@pytest.mark.parametrize("idx", [-1, -(10**6)])
def test_replay_tree_negative_extra_index_names_no_marker(tmp_path, idx):
    # an index below 0 once read the marker table from its end, or past it
    result = diagonalize(proc_friedberg, 3000, depth=9)
    records = as_records(merge_for_file(result.kernel.log, result.trace))
    at = max(n for n, r in enumerate(records) if r["op"] == "f")
    records.insert(at + 1, {"op": "dump-extra", "ks": records[at]["ks"], "node": "1", "idx": idx})
    fields = [f for line, f in found(tmp_path / "t.jsonl", records) if line == at + 2]
    assert "extra-exists" in fields


def test_replay_tree_derives_the_voided_requests():
    # f's left pass at tree stage 530 voided the node's pending requests,
    # request 24 among them; the replay voids them itself at that f record,
    # so a pull that takes request 24 instead of 531 is caught on its line
    result = diagonalize(PROCEDURES["trivial"], 30_000, depth=25)
    decisions = list(result.trace)
    at = next(n for n, r in enumerate(decisions)
              if r["op"] == "pull" and r["node"] == "100000000" and r["req"] == 531)
    decisions[at] = dict(decisions[at], req=24)
    report = replay_check(merge_for_file(result.kernel.log, decisions))
    assert report["divergences"] == [{"line": len(result.kernel.log) + 1 + at,
                                      "field": "pull-request-least", "got": 24, "want": 531}]


@pytest.mark.parametrize("forge", ["forged", "lost", "late"])
def test_replay_tree_checks_a_log_against_the_dumps(forge):
    # at each f record, the balls that entered A before its ks are the balls
    # the records above it dumped: an event that puts ball 0 into A at stage
    # 1006 with no dump (the replay suite once verified it ok, and only the
    # split suite noticed), a dumped ball whose event is gone, and ball 0
    # entering A after the last f record, which is named after the last line
    result = diagonalize(proc_friedberg, 3000, depth=9)
    log, e_a = result.kernel.log, result.e_a
    assert replay_check(merge_for_file(log, result.trace))["ok"]
    events = list(log.events())
    if forge == "lost":
        first_in_a = next(n for n, (_, idx, _) in enumerate(events) if idx == e_a)
        stage, _, x = events.pop(first_in_a)
    else:
        stage, x = (1006, 0) if forge == "forged" else (log.last_stage + 1, 0)
        assert log.entry_stage(e_a, x) is None
        events = sorted(events + [(stage, e_a, x)])  # the log refuses a stage taken
    trace = merge_for_file(scripted(events), result.trace)
    line, ks = next(((line, r["ks"]) for line, r in trace.numbered()
                     if r["op"] == "f" and r["ks"] > stage), (trace.end, None))
    assert (line == trace.end) == (forge == "late")
    want = (f"in A's log before kernel stage {ks}" if forge == "lost"
            else "dumped by a record above")
    report = replay_check(trace)
    assert report["divergences"] == [{"line": line, "field": "a-ledger", "got": x, "want": want}]


def test_replay_tree_extra_dump_check_grows_linearly():
    # a depth-1 tree trace of n f records, then n dump-extra records: each
    # dump-extra check once walked the whole f history, and the replay took
    # 0.57, 1.59 and 7.77 s for n = 1,000, 2,000 and 4,000 on a 2-core VM
    def seconds(n):
        meta = {"op": "meta", "kind": "tree", "e_a": 1, "e0": 3, "e1": 5, "depth": 1}
        records = ([meta] + [{"op": "f", "s": s, "ks": s, "node": "0"} for s in range(n)]
                   + [{"op": "dump-extra", "ks": n - 1, "node": "1", "idx": 0}] * n)
        trace = merge_for_file(EventLog(), records)
        start = time.perf_counter()
        report = replay_check(trace)
        elapsed = time.perf_counter() - start
        # gamma, index and marker, each, and the stage-0 endpoint past its cap
        assert len(report["divergences"]) == 3 * n + 1
        return elapsed

    small, large = (min(seconds(n) for _ in range(3)) for n in (1_000, 8_000))
    assert large < 24 * small, (small, large)  # 8 if linear, 64 if quadratic


@pytest.mark.parametrize("op, name", [
    (op, name) for op, row in _SHAPES.items() if op != "meta"
    for name, kind in row.kinds.items() if kind == "address"
])
def test_replay_check_rejects_an_address_past_the_depth_bound(op, name):
    # every address field of the schema, each on the record's line under
    # either suite; an address as long as the bound is no fault of the trace
    result = diagonalize(proc_friedberg, 3000, depth=9)
    decisions = list(result.trace)
    if op == "dump-extra":  # the run writes none
        decisions.append({"op": "dump-extra", "ks": 1, "node": "1", "idx": 0})
    at = max(n for n, r in enumerate(decisions) if r["op"] == op)
    for bits, rejected in ((9, False), (10, True)):
        decisions[at] = dict(decisions[at], **{name: "0" * bits})
        trace = merge_for_file(result.kernel.log, decisions)
        for suite in ("replay", "split"):
            if not rejected:
                replay_check(trace, suite)
                continue
            with pytest.raises(TraceError) as caught:
                replay_check(trace, suite)
            assert caught.value.line == trace.lines[at]


def tree_report(result, decisions):
    """The divergences of a tree run's trace with its decisions replaced,
    as (line, field, got, want)."""
    report = replay_check(merge_for_file(result.kernel.log, decisions))
    return [(d["line"], d["field"], d["got"], d["want"]) for d in report["divergences"]]


def last_f(decisions, at):
    """The last f record before position ``at``: the stage clock there."""
    return next(r for r in reversed(decisions[:at]) if r["op"] == "f")


def next_f(decisions, at):
    """The position of the first f record at or after position ``at``."""
    return next(n for n in range(at, len(decisions)) if decisions[n]["op"] == "f")


CLOCK = ("stage", "kernel-stage", "left-stage")  # the stage clock's divergences


@pytest.mark.parametrize("tamper", ["f-duplicate", "f-s+1", "f-dropped", "pull-ks+1",
                                    "dump-orig-ks+1", "left-moved"])
def test_replay_tree_stage_clock(tamper):
    # the f records run s = 0, 1, 2, ... with ks rising; every other record
    # belongs to the stage of the last f record before it, and a pull or
    # dump-orig copies its ks; a left record sits only at a stage whose f
    # changed.  Each break is named on the record that makes it
    result = diagonalize(proc_friedberg, 3000, depth=9)
    decisions = list(result.trace)
    line_of = len(result.kernel.log) + 1  # the file line of decisions[0]
    op, change = tamper.rsplit("-", 1)
    at = [n for n, r in enumerate(decisions) if r["op"] == op][20]
    record, clock = decisions[at], last_f(decisions, at)
    if change == "duplicate":
        s, ks = record["s"], record["ks"]
        decisions.insert(at + 1, record)
        want = [(line_of + at + 1, "stage", s, s + 1),
                (line_of + at + 1, "kernel-stage", ks, f"> {ks}")]
    elif change == "dropped":
        # the records up to the next f are read at the stage before, and
        # that f is one stage ahead of the clock
        del decisions[at]
        after = next_f(decisions, at)
        want = [(line_of + n, "kernel-stage", decisions[n]["ks"], clock["ks"])
                for n in range(at, after) if "ks" in decisions[n]]
        want.append((line_of + after, "stage", record["s"] + 1, record["s"]))
    elif change == "s+1":
        decisions[at] = dict(record, s=record["s"] + 1)
        want = [(line_of + at, "stage", record["s"] + 1, record["s"])]
    elif change == "ks+1":
        decisions[at] = dict(record, ks=clock["ks"] + 1)
        want = [(line_of + at, "kernel-stage", clock["ks"] + 1, clock["ks"])]
    else:  # a left record moved below the next f, which repeats its stage's f
        at = [n for n, r in enumerate(decisions) if r["op"] == "left" and
              decisions[next_f(decisions, n)]["node"] == last_f(decisions, n)["node"]][20]
        after = next_f(decisions, at)
        decisions.insert(after, decisions.pop(at))
        want = [(line_of + after, "left-stage", decisions[after - 1]["s"],
                 "a stage whose f differs from the one before")]
    got = [d for d in tree_report(result, decisions) if d[1] in CLOCK]
    assert got[:len(want)] == want, got[:4]


# The replays' tamper tables.  Five records per op, drawn by
# random.Random(op), are each dropped, duplicated, given one integer field
# raised by 1 or one address field with "0" appended, or moved one line:
# swapped with the record above it ("up") and with the one below ("down").
# A tamper is caught when the replay reports a divergence or rejects the
# trace.  Each cell counts the caught tampers.

# The tree: hf, depth 9, 6,000 kernel stages; the run writes no dump-extra
# record.  Every cell below 5 is a miss, named in TREE_MISSES.
TREE_TAMPERS = {
    "f": {"drop": 5, "duplicate": 5, "s+1": 5, "ks+1": 5, "node+0": 5},
    "left": {"drop": 0, "duplicate": 5, "from+0": 5},
    "pull": {"drop": 5, "duplicate": 5, "ks+1": 5, "req+1": 5, "x0+1": 4, "x1+1": 4,
             "node+0": 5},
    "dump-orig": {"drop": 5, "duplicate": 5, "ks+1": 5, "e+1": 5, "i+1": 5, "node+0": 5},
}
TREE_MOVES = {
    "f": {"up": 5, "down": 5},
    "left": {"up": 5, "down": 4},
    "pull": {"up": 4, "down": 4},
    "dump-orig": {"up": 4, "down": 5},
}
TREE_MISSES = {
    # a left record's moves are trusted, not derived from f: without it the
    # balls stay where they were, and no later check of this run reads them
    ("left", "drop"),
    # a pull's pair is checked for eligibility, not for being the least
    # eligible pair: at s 52, balls 36 and 40 could also have been pulled
    ("pull", "x0+1"),
    ("pull", "x1+1"),
    # neutral: records of one stage that share no ball commute, here a left
    # record and the pull or dump-orig beside it, and a pull and a dump-orig
    # below it that its new markers, past the dumped ones, leave least
    ("left", "down"),
    ("pull", "up"),
    ("pull", "down"),
    ("dump-orig", "up"),
}

# The dump-extra records of corpus 102 (all 3 of them; see
# test_extra_dump_trace_pinned), counted out of 3.  The two up misses swap a
# dump-extra with the left record of its stage above it, which share no ball.
EXTRA_TAMPERS = {"dump-extra": {"drop": 3, "duplicate": 3, "ks+1": 3, "idx+1": 3, "node+0": 3,
                                "up": 1, "down": 3}}

# The routing replays, on the `routed` traces and the subset scenario at
# 4,000 stages; "req[0]+1" and "triple[0]+1" raise the first element of the
# list.  No cell of 4 is a miss: the first route record sits below the meta
# record, which may sit on any line, and the last record of each trace is
# drawn and has no record below it.  A routing record names no ball, so two
# neighbours can be equal: the hk trace's records 6 to 10 hold three equal
# pairs, and a swap of one leaves the trace as it was ("unchanged").
ROUTING_TAMPERS = {
    "friedberg": {"route": {"drop": 5, "duplicate": 5, "req[0]+1": 5, "up": 4, "down": 4}},
    "hk": {"hk": {"drop": 5, "duplicate": 5, "l+1": 5, "r+1": 5, "triple[0]+1": 5,
                  "up": 3, "up unchanged": 2, "down": 3, "down unchanged": 1}},
    "subset": {"hk": {"drop": 5, "duplicate": 5, "l+1": 5, "r+1": 5, "triple[0]+1": 5,
                      "up": 5, "down": 4}},
}


def tampers(record, lists=()):
    """(name, replacement records) of each tamper of one record; ``lists``
    names the list fields whose first element is raised by 1."""
    yield "drop", []
    yield "duplicate", [record, record]
    for name, kind in _SHAPES[record["op"]].kinds.items():
        if kind == "int":
            yield f"{name}+1", [dict(record, **{name: record[name] + 1})]
        elif kind == "address":
            yield f"{name}+0", [dict(record, **{name: record[name] + "0"})]
    for name in lists:
        if record[name]:
            first, *rest = record[name]
            yield f"{name}[0]+1", [dict(record, **{name: [first + 1, *rest]})]


def tampered(decisions, n, lists=()):
    """(name, decisions) with record n tampered each way of ``tampers``."""
    for name, replacement in tampers(decisions[n], lists):
        yield name, decisions[:n] + replacement + decisions[n + 1:]


def moved(decisions, n):
    """(name, decisions) with record n swapped with the record above it and
    with the record below it, where there is one."""
    for name, other in (("up", n - 1), ("down", n + 1)):
        if 0 <= other < len(decisions):
            swapped = list(decisions)
            swapped[n], swapped[other] = swapped[other], swapped[n]
            yield name, swapped


def tamper_table(log, decisions, ops, variants, caught=lambda report: not report["ok"],
                 drawn=lambda record: True):
    """{op: {name: caught count}} over five records per op that ``drawn``
    takes, drawn by random.Random(op), each replaced by every variant
    ``variants`` gives.
    A variant that leaves the records as they were, a swap of two equal
    records, is no tamper: it is counted under "<name> unchanged"."""
    table = {}
    for op in ops:
        at = [n for n, r in enumerate(decisions) if r["op"] == op and drawn(r)]
        for n in random.Random(op).sample(at, min(5, len(at))):
            for name, tampered_decisions in variants(decisions, n):
                if tampered_decisions == decisions:
                    name, hit = f"{name} unchanged", True
                else:
                    try:
                        hit = caught(replay_check(merge_for_file(log, tampered_decisions)))
                    except TraceError:
                        hit = True
                row = table.setdefault(op, {})
                row[name] = row.get(name, 0) + hit
    return table


@pytest.fixture(scope="module")
def hf_depth_9():
    result = diagonalize(PROCEDURES["hf"], 6_000, depth=9)
    assert replay_check(merge_for_file(result.kernel.log, result.trace))["ok"]
    return result.kernel.log, result.trace


def test_tree_tamper_table(hf_depth_9):
    table = tamper_table(*hf_depth_9, _OPS["tree"], tampered)
    assert table == TREE_TAMPERS
    moves = tamper_table(*hf_depth_9, _OPS["tree"], moved)
    assert moves == TREE_MOVES
    assert {(op, name) for t in (table, moves) for op, row in t.items()
            for name, n in row.items() if n < 5} == TREE_MISSES


# The tree trace's list fields, each with its first element raised by 1, on
# five records per op whose list is not empty (the tampers above draw
# records that may hold none).  Only four pulls of the trace list
# bystanders.  Every tamper is caught, so none joins TREE_MISSES.
TREE_LIST_TAMPERS = {"left": {"balls[0]+1": 5}, "pull": {"mid[0]+1": 4}}


def test_tree_list_tamper_table(hf_depth_9):
    table = {}
    for op, name in (("left", "balls"), ("pull", "mid")):
        raised = f"{name}[0]+1"
        table.update(tamper_table(
            *hf_depth_9, (op,),
            lambda d, n: ((t, v) for t, v in tampered(d, n, (name,)) if t == raised),
            drawn=lambda record: record[name]))
    assert table == TREE_LIST_TAMPERS


# Tampers of the hf depth-9 trace that the tree replay misses: each still
# verifies ok, and stays a row here until the check that catches it lands,
# when its row moves out.  A dropped pull: the replay checks each pull it
# reads but derives none, so a missing one shows only where a later record
# leans on it (ROADMAP item 2 (c)).  An event inserted at a free stage,
# kernel stage 3002, into a set outside A: the replay checks A's events
# against the dump records and trusts every other index's (item 17).
TREE_EXPECTED_MISSES = {
    "drop the pull at s 301 on 1000": ("pull", 301, "1000", (140, 299)),
    "drop the pull at s 302 on 100000000": ("pull", 302, "100000000", (102, 299)),
    "event into the feeder, W_1": ("event", 1),
    "event into W_3, a spectrum set": ("event", 3),
    "event into W_73, the piece R_1": ("event", 73),
    "event into W_2, a machine set": ("event", 2),
}


@pytest.mark.parametrize("miss", TREE_EXPECTED_MISSES)
def test_tree_expected_misses(hf_depth_9, miss):
    log, decisions = hf_depth_9
    kind, *where = TREE_EXPECTED_MISSES[miss]
    if kind == "pull":
        stage, node, pair = where
        at = next(n for n, r in enumerate(decisions) if r["op"] == "pull" and
                  r["node"] == node and last_f(decisions, n)["s"] == stage)
        assert (decisions[at]["x0"], decisions[at]["x1"]) == pair
        trace = merge_for_file(log, decisions[:at] + decisions[at + 1:])
    else:
        events = list(log.events())
        assert 3002 not in {stage for stage, _, _ in events}
        trace = merge_for_file(scripted(sorted(events + [(3002, where[0], 10**6)])), decisions)
    assert replay_check(trace)["ok"]


@pytest.fixture(scope="module")
def corpus_102():
    """hf at depth 25 for 20,000 stages on corpus 102, whose trace holds the
    three dump-extra records of test_extra_dump_trace_pinned."""
    texts = corpus.load_corpus(Path(__file__).parent / "data" / "diagonalize_seed102.txt")
    result = diagonalize(PROCEDURES["hf"], 20_000, depth=25, corpus_texts=texts)
    return result.kernel.log, result.trace


def first_at(decisions, op, node):
    """The position of the first ``op`` record at ``node``."""
    return next(n for n, r in enumerate(decisions) if r["op"] == op and r["node"] == node)


@pytest.mark.parametrize("check", ["pull-floor", "mid-range", "mid-source", "extra-question"])
def test_replay_tree_bent_record_fires_its_check(hf_depth_9, corpus_102, check):
    # checks that no tamper table reaches: one honest record, bent so that
    # the check fires on its line
    log, decisions = hf_depth_9 if check in ("pull-floor", "mid-range") else corpus_102
    if check == "extra-question":
        # a positive f dumps a piece other than its T question's base
        at = next(n for n, r in enumerate(decisions) if r["op"] == "dump-extra")
        bent = {"node": question_at(last_f(decisions, at)["node"][:-1]).base}
    elif check == "mid-source":
        # a bystander of R-node 1001 comes from the tilde piece of its
        # greatest R prefix, 1: from the x1 of the pulls at 1
        at = first_at(decisions, "pull", "1001")
        tilde = {r["x1"] for r in decisions[:at] if r["op"] == "pull" and r["node"] == "1"}
        bent = {"mid": [next(y for y in range(5, decisions[at]["x1"]) if y not in tilde)]}
    else:  # a pull at 1000, of depth 4, takes no ball at or below 4
        at = first_at(decisions, "pull", "1000")
        bent = {"x0": 4} if check == "pull-floor" else {"mid": [decisions[at]["x1"]]}
    trace = merge_for_file(log, decisions)
    assert check not in {d["field"] for d in replay_check(trace)["divergences"]}
    bent_trace = merge_for_file(log, decisions[:at] + [dict(decisions[at], **bent)]
                                + decisions[at + 1:])
    fired = {(d["line"], d["field"]) for d in replay_check(bent_trace)["divergences"]}
    assert (trace.lines[at], check) in fired


def test_extra_dump_tamper_table(corpus_102):
    log, decisions = corpus_102
    assert replay_check(merge_for_file(log, decisions))["ok"]
    table = {}
    for variants in (tampered, moved):
        for op, row in tamper_table(log, decisions, ("dump-extra",), variants).items():
            table.setdefault(op, {}).update(row)
    assert table == EXTRA_TAMPERS


@pytest.mark.parametrize("construction", ["friedberg", "hk", "subset"])
def test_routing_tamper_table(construction):
    if construction == "friedberg":
        result, op, lists = run_friedberg(TEXTS, machine_index(4), 4_000), "route", ("req",)
    elif construction == "hk":
        result, op, lists = run_hk(TEXTS, machine_index(0), machine_index(1), 4_000), "hk", (
            "triple",)
    else:
        result, op, lists = run_subset_scenario(4_000), "hk", ("triple",)
    log, decisions = result.kernel.log, result.trace
    assert replay_check(merge_for_file(log, decisions))["ok"]
    table = tamper_table(log, decisions, (op,), lambda d, n: tampered(d, n, lists))
    for name, count in tamper_table(log, decisions, (op,), moved)[op].items():
        table[op][name] = count
    assert table == ROUTING_TAMPERS[construction]


def test_replay_check_split_suite(tmp_path):
    result = run_friedberg(TEXTS, machine_index(0), 3_000)
    report = replay_check(merge_for_file(result.kernel.log, result.trace), "split")
    assert report["ok"]


def test_replay_check_needs_a_meta_record_and_a_known_suite():
    # the CLI offers only the two suites, so only a caller in code can ask
    # for another
    result = run_friedberg(TEXTS, machine_index(0), 300)
    with pytest.raises(TraceError, match="trace has no meta record"):
        replay_check(merge_for_file(result.kernel.log, []))
    with pytest.raises(TraceError, match="unknown suite 'routes'"):
        replay_check(merge_for_file(result.kernel.log, result.trace), "routes")


def test_replay_tree_pull_after_the_last_request():
    # node "1" requests at stage 1 alone, and balls 2 and 3 enter right of
    # it; a clean pull takes that request, which empties the node's ledger,
    # so a second pull there finds none
    log = EventLog()
    log.append(1, 1, 2)  # W_1, the feeder, gates the pulls of node "1"
    log.append(2, 1, 3)
    meta = {"op": "meta", "kind": "tree", "e_a": 5, "e0": 7, "e1": 9, "depth": 1}
    fs = [{"op": "f", "s": s, "ks": 2 + s, "node": f} for s, f in enumerate(["", "1", "0", "0", "0"])]
    pull = {"op": "pull", "ks": 6, "node": "1", "req": 1, "x0": 2, "x1": 3, "mid": []}
    report = replay_check(merge_for_file(log, [meta, *fs, pull, pull]))
    assert [(d["line"], d["field"]) for d in report["divergences"]] == [
        (10, "pull-request"), (10, "pull-fresh"), (10, "pull-fresh")]


@pytest.mark.parametrize("construction", ["friedberg", "hk", "tree"])
def test_trace_round_trip(tmp_path, construction):
    # the in-memory trace and its read-back hold the same events and
    # records on the same lines, and replay to the same report; the tree
    # trace's decisions are written by template, and read back by json
    if construction == "friedberg":
        result = run_friedberg(TEXTS, machine_index(0), 2_000)
    elif construction == "hk":
        result = run_hk(TEXTS, machine_index(0), machine_index(1), 2_000)
    else:
        result = diagonalize(proc_friedberg, 3000, depth=9)
    trace = merge_for_file(result.kernel.log, result.trace)
    path = tmp_path / "t.jsonl"
    write_trace(path, trace)
    back = read_trace(path)
    assert list(back.log.events()) == list(result.kernel.log.events())
    assert back.records == result.trace
    assert list(back.numbered()) == list(trace.numbered())
    assert back.end == trace.end == len(path.read_text().splitlines()) + 1
    assert len(back) == len(trace) == len(result.kernel.log) + len(result.trace)
    for suite in ("replay", "split"):
        assert replay_check(back, suite) == replay_check(trace, suite)


def interleaved(trace):
    """A run's file records with the decisions spread among the events, in
    their own order, and a stretch of events after the last of them."""
    events = as_records(merge_for_file(trace.log, []))
    decisions, out, done = trace.records, [], 0
    for n, record in enumerate(decisions):
        upto = 1 + n * (len(events) - 2) // len(decisions)  # one event first, one last
        out += events[done:upto] + [record]
        done = upto
    return out + events[done:]


@pytest.mark.parametrize("construction", ["friedberg", "tree"])
def test_interleaved_events_replay_as_events_first(tmp_path, construction):
    if construction == "friedberg":
        result = run_friedberg(TEXTS, machine_index(4), 4_000)
    else:
        result = diagonalize(proc_friedberg, 3000, depth=9)
    trace = merge_for_file(result.kernel.log, result.trace)
    records = interleaved(trace)
    assert records[0]["op"] == records[-1]["op"] == "event"
    back = read_trace(write_records(tmp_path / "mixed.jsonl", records))
    assert list(back.log.events()) == list(trace.log.events())
    assert back.records == trace.records and back.end == len(records) + 1
    for suite in ("replay", "split"):
        assert replay_check(back, suite) == replay_check(trace, suite)


def test_interleaved_missing_record_named_after_last_line(tmp_path):
    # the line after the file's last record, which is an event here
    result = run_friedberg(TEXTS, machine_index(4), 4_000)
    records = interleaved(merge_for_file(result.kernel.log, result.trace))
    last = max(n for n, r in enumerate(records) if r["op"] == "route")
    del records[last]  # the record of the last entrant
    *_, (_, x) = result.kernel.log.entries(result.a)
    path = write_records(tmp_path / "mixed.jsonl", records)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n\n")  # trailing blank lines hold no record
    report = replay_check(read_trace(path))
    assert report["divergences"] == [
        {"line": len(records) + 1, "field": "missing-record", "got": None, "want": {"x": x}}]


def test_read_trace_memory_per_record(tmp_path):
    # the events go straight into the log's columns: no dict per event line
    # (a list of record dicts held 233 B per record on this trace)
    import tracemalloc

    result = run_friedberg(TEXTS, machine_index(0), 100_000)
    path = tmp_path / "t.jsonl"
    write_trace(path, merge_for_file(result.kernel.log, result.trace))
    del result
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = read_trace(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(back) > 8_000
    assert held / len(back) < 180, held / len(back)


# the writer's template must give json.dumps's bytes for every record, the
# reader's must give json.loads's dicts (or fail on the same line) for every line

# small alphabets: what needs escaping, what is not ASCII, and what
# str.splitlines would split on but a text-mode file does not
tricky_text = st.text(st.sampled_from(' a1-{}":,\\\t\x00\x0b\x1c\x85\xa0\u2028\ud800\U0001f600'),
                      max_size=6)
field_values = st.one_of(
    st.integers(), st.integers(-(2**200), 2**200), st.just(0), st.booleans(),
    st.floats(), tricky_text, st.none(),
)


@st.composite
def event_shaped(draw):
    record = {"op": draw(st.sampled_from(["event", "route", "évent"]))}
    record.update({name: draw(field_values) for name in ("s", "e", "x")})
    for name in draw(st.sets(st.sampled_from(["op", "s", "e", "x"]), max_size=2)):
        del record[name]
    record.update(draw(st.dictionaries(tricky_text, field_values, max_size=2)))
    return record


# the ops the writer has a template for, with their fields besides the op
TEMPLATED = {op: tuple(row.kinds) for op, row in _SHAPES.items() if op != "meta" and row.fill}


def kind(op, name):
    return _SHAPES[op].kinds[name]


exact_ints = st.one_of(st.integers(), st.integers(-(2**200), 2**200))
EXACT = {
    "int": exact_ints,
    "address": st.text(st.sampled_from("01"), max_size=12),
    "ints": st.lists(exact_ints, max_size=4),
}
# values of each kind's field that a template must not take
NEAR_MISSES = {
    "int": [True, False, 1.0, float("nan"), "1", None, [1]],
    "address": ['"', "\\", "0\u00e91", "2", "01x", "10 ", "\u2028", 1, None],
    "ints": [[1, True], [False], ["1"], [2, "0"], (1,), 1, "01", [[2], 3]],
}
BENT = {
    "int": st.one_of(st.sampled_from(NEAR_MISSES["int"]), st.floats(), tricky_text),
    "address": st.one_of(st.sampled_from(NEAR_MISSES["address"]), tricky_text),
    "ints": st.one_of(st.sampled_from(NEAR_MISSES["ints"]),
                      st.lists(st.one_of(exact_ints, st.booleans(), tricky_text), max_size=4),
                      st.lists(st.lists(exact_ints, max_size=2), min_size=1, max_size=2)),
}


@st.composite
def decision_shaped(draw):
    """A record of a templated op's shape, then bent in a place or two: a
    field of the wrong kind, a key too many or too few, another op."""
    op = draw(st.sampled_from(sorted(TEMPLATED)))
    record = {"op": op}
    for name in TEMPLATED[op]:
        record[name] = draw(EXACT[kind(op, name)])
    names = sorted({name for fields in TEMPLATED.values() for name in fields})
    for twist in draw(st.lists(st.sampled_from(["value", "drop", "add", "op"]), max_size=2)):
        if twist == "value":
            name = draw(st.sampled_from(TEMPLATED[op]))
            record[name] = draw(BENT[kind(op, name)])
        elif twist == "drop" and record:
            del record[draw(st.sampled_from(sorted(record)))]
        elif twist == "add":
            name = draw(st.one_of(st.sampled_from(names), tricky_text))
            record[name] = draw(st.one_of(field_values, *EXACT.values()))
        elif twist == "op":
            record["op"] = draw(st.sampled_from(sorted(TEMPLATED) + ["meta", "Void", "évent"]))
    return record


def exact_record(op):
    record = {"op": op}
    record.update((name, {"int": 7, "address": "01", "ints": [2, 3]}[kind(op, name)])
                  for name in TEMPLATED[op])
    return record


def near_misses():
    """Each templated op's record, then that record with one field bent to
    each near miss of its kind, with a key too many and a key too few."""
    out = []
    for op, fields in TEMPLATED.items():
        exact = exact_record(op)
        out.append(exact)
        out += [dict(exact, **{name: bad}) for name in fields
                for bad in NEAR_MISSES[kind(op, name)]]
        out.append(dict(exact, extra=0))
        out += [{k: v for k, v in exact.items() if k != name} for name in fields]
    return out


def doc_tables():
    """The body rows of each table in TRACE_SCHEMA.md, as cells, by the
    table's first header cell."""
    tables, header = {}, None
    text = (Path(__file__).parents[1] / "TRACE_SCHEMA.md").read_text(encoding="utf-8")
    for line in text.splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if header is None:
            header = cells[0]
        elif cells[0].strip("-:"):
            tables.setdefault(header, []).append(cells)
    return tables


def test_trace_schema_doc_lists_the_record_schema():
    # the doc's kinds, and its rows of ops, fields and kinds, are _SHAPES's
    tables = doc_tables()
    assert [row[0] for row in tables["kind"]] == [f"`{kind}`" for kind in _KINDS]
    documented = {}
    for op, fields, _ in tables["op"]:
        row = dict(re.fullmatch(r"`([\w-]+)`: (.+)", item).groups() for item in fields.split(", "))
        key = op.strip("`")
        if key == "meta":
            key = ("meta", json.loads(row.pop("kind").strip("`")))
        assert key not in documented
        documented[key] = row

    schema = {op: row.kinds for op, row in _SHAPES.items() if op != "meta"}
    schema.update((("meta", kind), row.kinds) for kind, row in _SHAPES["meta"].items())
    assert documented == schema


def test_every_row_is_templated_and_every_field_required():
    # every row but meta's has a line template, and a record of any row
    # that lacks one of its fields is rejected: no field is optional
    assert all(row.fill is not None for op, row in _SHAPES.items() if op != "meta")
    rows = [({"op": op}, row) for op, row in _SHAPES.items() if op != "meta"]
    rows += [({"op": "meta", "kind": kind}, row) for kind, row in _SHAPES["meta"].items()]
    values = {"int": 7, "address": "01", "ints": [2, 3], "pairs": [[0, 1]]}
    for head, row in rows:
        record = dict(head, **{name: values[kind] for name, kind in row.kinds.items()})
        assert _misfit(record) is None
        for name in row.kinds:
            lacking = {k: v for k, v in record.items() if k != name}
            assert _misfit(lacking) == f"{head['op']} record lacks {name!r}"


def test_schema_check_agrees_with_the_templates(tmp_path):
    # the writer fills a template only for a record that the reader's check
    # passes; the reader takes each templated op's record, and rejects every
    # near miss of one on its own line: every near miss that JSON can spell,
    # since a tuple is read back as the list a template takes
    exact = [exact_record(op) for op in TEMPLATED]
    path = tmp_path / "t.jsonl"
    read = read_trace(write_records(path, exact))
    assert len(read.log) == 1 and read.records == exact[1:]
    rejected = 0
    for record in near_misses():
        if record in exact:
            continue
        spelled = json.loads(json.dumps(record))
        write_records(path, exact + [record])
        if _misfit(spelled) is None:  # a tuple, read as a list
            assert read_trace(path).records[-1] == spelled
            continue
        with pytest.raises(TraceError) as caught:
            read_trace(path)
        assert caught.value.line == len(exact) + 1, record
        rejected += 1
    # per templated op: each field's near misses but the tuple, which JSON
    # spells as a list, then a key too many and each key too few
    assert rejected == sum(
        1 + sum(len(NEAR_MISSES[kind(op, name)]) - (kind(op, name) == "ints") + 1
                for name in fields)
        for op, fields in TEMPLATED.items())


# (stage gap, index, element) of the events of a log: stages rise, and no
# element enters an index twice
logged_events = st.lists(st.tuples(st.integers(1, 3), exact_ints, exact_ints), max_size=6,
                         unique_by=lambda event: event[1:])


@settings(max_examples=300)
@example(events=[(1, 0, 0), (2, -(2**70), 2**70)], records=near_misses())
@given(logged_events, st.lists(st.one_of(event_shaped(), decision_shaped()), max_size=6))
def test_written_lines_are_json_dumps(tmp_path_factory, events, records):
    # event lines written from a log's columns, then every other record
    log, stage = EventLog(), 0
    for gap, e, x in events:
        stage += gap
        log.append(stage, e, x)
    path = tmp_path_factory.getbasetemp() / "written.jsonl"
    write_trace(path, merge_for_file(log, records))
    expected = "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
        for r in [{"op": "event", "s": s, "e": e, "x": x} for s, e, x in log.events()] + records
    )
    assert path.read_bytes() == expected.encode("utf-8")


def json_reading(data: bytes):
    """``read_trace`` as plain json.loads per text-mode line, the row check
    and ``EventLog.append``: the events, the other records, their lines and
    the line after the last record, or the line of the first bad record."""
    log, records, lines, last = EventLog(), [], [], 0
    for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(data), "utf-8"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return lineno
        if not isinstance(record, dict) or _misfit(record) is not None:
            return lineno
        if record["op"] == "event":
            try:
                log.append(record["s"], record["e"], record["x"])
            except KernelError:
                return lineno
        else:
            records.append(record)
            lines.append(lineno)
        last = lineno
    return list(log.events()), records, lines, last + 1


def reading(data: bytes, path):
    path.write_bytes(data)
    try:
        trace = read_trace(path)
    except TraceError as err:
        return err.line
    return list(trace.log.events()), trace.records, trace.lines, trace.end


def check_reading(data: bytes, path):
    got, want = reading(data, path), json_reading(data)
    assert got == want
    if not isinstance(got, int):  # same dicts, keys in the same order
        assert [list(r) for r in got[1]] == [list(r) for r in want[1]]


ODD_INTS = [
    "-0", "01", "-01", "00", "1.0", "1e2", "-", "+1", "true", "null", '"1"', "\u0661",
    "1\u0661", " 1", "0x1", "[1]", "1" + "0" * 4400,
]


@st.composite
def event_spellings(draw):
    """Event lines as the writer spells them, then bent in a place or two."""
    fields = {"e": draw(st.integers()), "op": '"event"', "s": draw(st.integers()),
              "x": draw(st.integers())}
    keys, comma, colon, lead = sorted(fields), ",", ":", ""
    for twist in draw(st.lists(st.sampled_from(["field", "op", "order", "space", "lead"]),
                               max_size=2)):
        if twist == "field":
            fields[draw(st.sampled_from("esx"))] = draw(st.sampled_from(ODD_INTS))
        elif twist == "op":
            fields["op"] = draw(st.sampled_from(['"route"', '"Event"', "1", "[1]"]))
        elif twist == "order":
            keys = draw(st.permutations(keys))
        elif twist == "space":
            comma, colon = draw(st.sampled_from([(", ", ":"), (",", ": "), (",", " :")]))
        else:
            lead = draw(st.sampled_from([" ", "\t", "\x0b"]))
    return lead + "{" + comma.join(f'"{k}"{colon}{fields[k]}' for k in keys) + "}"


trace_lines = st.one_of(
    event_spellings(),
    st.sampled_from(['{"op":"route","req":[2]}', '{"op":"route","req":null,"s":3,"side":0,"x":2}']),
    st.just(""),
    tricky_text.filter(lambda text: "\ud800" not in text),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(trace_lines, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8))
def test_read_lines_are_json_loads(tmp_path_factory, lines):
    data = "".join(line + end for line, end in lines).encode("utf-8")
    check_reading(data, tmp_path_factory.getbasetemp() / "read.jsonl")


@pytest.mark.parametrize("spelling", ODD_INTS)
@pytest.mark.parametrize("field", "esx")
def test_read_odd_integer_spelling_is_json_loads(tmp_path, field, spelling):
    fields = {"e": 1, "s": 2, "x": 3, field: spelling}
    line = '{"e":%s,"op":"event","s":%s,"x":%s}' % (fields["e"], fields["s"], fields["x"])
    check_reading((line + "\n").encode("utf-8"), tmp_path / "t.jsonl")


@settings(max_examples=300)
@given(event_spellings())
def test_read_event_spellings_are_json_loads(tmp_path_factory, line):
    check_reading((line + "\n").encode("utf-8"),
                  tmp_path_factory.getbasetemp() / "spelling.jsonl")


@settings(max_examples=200)
@given(logged_events.filter(bool), st.sampled_from(["\n", "\r\n", "\r"]), st.data())
def test_bytes_not_utf8_reported_on_their_line(tmp_path_factory, events, end, data):
    # the events around the bad byte are a log's, so the bad byte is the
    # first fault in the file
    stages = [sum(gap for gap, _, _ in events[:n + 1]) for n in range(len(events))]
    good = "".join('{"e":%d,"op":"event","s":%d,"x":%d}' % (e, s, x) + end
                   for s, (_, e, x) in zip(stages, events))
    good = good.encode("utf-8")
    at = data.draw(st.integers(0, len(good)))
    bad = good[:at] + b"\xff" + good[at:]
    # the line the bad byte sits on, counting lines as the text-mode reader does
    line = len(io.TextIOWrapper(io.BytesIO(bad[:at + 1]), "utf-8", errors="replace").readlines())
    assert reading(bad, tmp_path_factory.getbasetemp() / "bad.jsonl") == line


@pytest.mark.parametrize("field, value", [("s", 1.5), ("s", True), ("x", True)])
def test_non_integer_event_field_named_where_the_log_trips_later(tmp_path, field, value):
    # the log would take the first event's field and trip over it only later:
    # a stage of 1.5 or true is out of order with the stage 1 on line 3,
    # and an element true enters index 0 twice with the real 1 on line 4
    events = [(0, 0, 0), (1, 2, 0), (2, 0, 1)]
    records = [{"op": "meta", "kind": "friedberg", "a": 0, "a0": 1, "a1": 2}]
    records += [{"op": "event", "s": s, "e": e, "x": x} for s, e, x in events]
    records[1][field] = value
    path = tmp_path / "t.jsonl"
    with pytest.raises(TraceError) as caught:
        read_trace(write_records(path, records))
    assert caught.value.line == 2
    assert str(caught.value) == f"line 2: event field {field!r} is not an integer: {value!r}"
    # an honest trace that trips the log is still reported on its own line
    records[1][field] = 0
    records[3]["s"] = 1
    with pytest.raises(TraceError) as caught:
        read_trace(write_records(path, records))
    assert str(caught.value) == "line 4: stage 1 is not past 1"


def test_probe_friedberg_vacuous_on_empty_input():
    log = EventLog()
    evidence = probe_friedberg(log, 1, 3, 5, 10, 4)
    assert all(ev.swallowed_total == 0 and ev.signature_side is None for ev in evidence)


def oracle_probe_friedberg(log, a, a0, a1, S, J):
    """probe_friedberg spelled with six before_then sets per W_j."""
    past = S - trailing_window(S)
    out = []
    for j in range(J):
        total_now = len(before_then(log, j, a, S))
        total_past = len(before_then(log, j, a, past))
        side_now = (len(before_then(log, j, a0, S)), len(before_then(log, j, a1, S)))
        side_past = (len(before_then(log, j, a0, past)), len(before_then(log, j, a1, past)))
        recent = total_now - total_past
        side_recent = (side_now[0] - side_past[0], side_now[1] - side_past[1])
        signature = None
        if recent > 0:
            if side_recent[0] == 0:
                signature = 0
            elif side_recent[1] == 0:
                signature = 1
        out.append(FriedbergEvidence(j, total_now, recent, side_recent, signature))
    return out


@st.composite
def probe_cases(draw):
    """A log over indices 0..7 and elements 0..11, a stage and three targets."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 11)),
                          unique=True, max_size=60))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(pairs), max_size=len(pairs)))
    log, stage = EventLog(), 0
    for (idx, x), gap in zip(pairs, gaps):
        stage += gap
        log.append(stage, idx, x)
    targets = draw(st.tuples(*[st.integers(0, 7)] * 3))
    S = draw(st.integers(0, stage + 2))
    return log, targets, S


@given(probe_cases(), st.integers(0, 9))
def test_probe_friedberg_matches_before_then(case, J):
    log, (a, a0, a1), S = case
    assert probe_friedberg(log, a, a0, a1, S, J) == oracle_probe_friedberg(log, a, a0, a1, S, J)


def oracle_complement_witnesses(log, half, S, J):
    """complement_witnesses spelled with members_at and two covered prefixes
    per W_j."""
    out = []
    past_stage = S - trailing_window(S)
    half_members = log.members_at(half, S)
    frontier = universe_frontier(log, S)
    for j in range(J):
        clash = half_members & log.members_at(j, S)
        if clash:
            x = min(clash)
            stage = max(log.entry_stage(half, x), log.entry_stage(j, x))
            out.append(ComplementEvidence(j, "refuted", stage, "intersects-half"))
            continue
        now = covered_prefix(log, (j, half), S)
        past = covered_prefix(log, (j, half), past_stage)
        if now <= past:
            out.append(ComplementEvidence(j, "refuted", S, "coverage-stalled"))
        elif now * 8 < frontier:
            out.append(ComplementEvidence(j, "refuted", S, "coverage-gap"))
        else:
            out.append(ComplementEvidence(j, "live"))
    return out


@given(probe_cases(), st.integers(0, 9))
def test_complement_witnesses_match_covered_prefix(case, J):
    log, (half, _, _), S = case
    assert complement_witnesses(log, half, S, J) == oracle_complement_witnesses(log, half, S, J)


def test_probes_match_oracles_on_a_tree_log():
    # the verdict's own calls, at its five checkpoints, on a depth-25 hf run
    stages = 20_000
    result = diagonalize(proc_friedberg, stages, collect_trace=False)
    log, a, a0, a1 = result.kernel.log, result.e_a, result.e0, result.e1
    probed = set()
    for k in (80, 85, 90, 95, 100):
        S = stages * k // 100 - 1
        got = probe_friedberg(log, a, a0, a1, S, 8)
        assert got == oracle_probe_friedberg(log, a, a0, a1, S, 8)
        probed.update(ev.j for ev in got if ev.swallowed_total)
        for half in (a0, a1):
            got = complement_witnesses(log, half, S, 16)
            assert got == oracle_complement_witnesses(log, half, S, 16)
            probed.update(ev.reason for ev in got)
    # the checkpoints exercise both probes beyond their empty cases
    assert probed & set(range(8)) and {"intersects-half", "coverage-stalled"} <= probed


def test_complement_witness_spec_shapes():
    # half = evens-like, candidate = odds-like: disjoint union covering
    events = []
    stage = 1
    for n in range(40):
        events.append((stage, 50 if n % 2 == 0 else 51, n))
        stage += 1
    log = scripted(events)
    evidence = complement_witnesses(log, 50, stage - 1, 52)
    assert evidence[51].status == "live"
    # a candidate equal to the half itself is refuted
    assert evidence[50].status == "refuted"


# -- verdicts on hand-built logs ---------------------------------------------

A, H0, H1, W = 20, 21, 22, 3  # A, the candidate's halves, one W_j with j < 16
QUIET = [(0, ""), (85, "0"), (90, "01"), (95, "1")]  # 1 positive of 3


def test_verdict_split_violation():
    log = scripted([(1, A, 4), (5, H0, 7)])
    assert verdict_at(log, A, H0, H1, QUIET, 100, 0) == Verdict(
        1, "split-violation", {"stage": 5, "kind": "extra", "x": 7})
    # an entrant of A that no half takes is missing once it sat out the
    # settle window, which grows with the kernel's backlog high-water mark
    log = scripted([(1, A, 4)])
    assert verdict_at(log, A, H0, H1, QUIET, 100, 0) == Verdict(
        1, "split-violation", {"stage": 65, "kind": "missing", "x": 4})
    assert verdict_at(log, A, H0, H1, QUIET, 100, 25).kind == 3


def test_verdict_complement_witness():
    # W_3 covers 0..99, one element a stage, beside the empty half H0
    log = scripted([(n + 1, W, n) for n in range(100)])
    assert verdict_at(log, A, H0, H1, QUIET, 100, 0) == Verdict(
        2, "complement-witness", {"side": 0, "witnesses": [W]})
    # the input itself is no complement candidate
    assert verdict_at(log, A, A, H1, QUIET, 100, 0) == Verdict(
        2, "complement-witness", {"side": 1, "witnesses": [W]})


def test_verdict_positive_endpoint():
    log = scripted([])
    # the tail is the tree stages polled at kernel stage 80 or later, and
    # the positive endpoint "01" at kernel stage 50 is outside it
    history = [(0, ""), (50, "01"), (85, "01"), (90, "00101"), (95, "0")]
    assert verdict_at(log, A, H0, H1, history, 100, 0) == Verdict(
        2, "positive-endpoint", {"fraction": 2 / 3})
    # the stage-0 entry is never in the tail
    assert verdict_at(log, A, H0, H1, [(0, ""), (0, "01")], 1, 0) == Verdict(
        2, "positive-endpoint", {"fraction": 1.0})


def test_verdict_friedberg_like():
    # 4 enters W_3 before A and is routed to H0; W_3 meets H0, so it is no
    # complement, and the tail's endpoints are mostly not positive
    log = scripted([(1, W, 4), (2, A, 4), (3, H0, 4)])
    assert verdict_at(log, A, H0, H1, QUIET, 100, 0) == Verdict(
        3, "friedberg-like", {"per_index": [
            {"j": W, "swallowed_total": 1, "swallowed_recent": 0,
             "side_swallowed_recent": (0, 0), "signature_side": None},
        ]})
    assert verdict_at(log, A, H0, H1, [(0, "")], 100, 0).kind == 3
