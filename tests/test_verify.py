import pytest
from hypothesis import given
from hypothesis import strategies as st

from cesplit import corpus
from cesplit.friedberg import run_friedberg
from cesplit.kernel import EventLog, machine_index
from cesplit.setalg import before_then
from cesplit.verify import (
    DProbeReport,
    FriedbergEvidence,
    complement_witnesses,
    covered_prefix,
    d_probe,
    probe_friedberg,
    replay_check,
    replay_friedberg,
    trailing_window,
    universe_frontier,
)
from cesplit.trace import merge_for_file, read_trace, split_events, write_trace

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
    assert universe_frontier(log, 4) == 9
    assert universe_frontier(log, 2) == 1


def test_d_probe_everything_enumerator():
    # W covers a growing prefix on its own; Z matches the empty difference
    events = [(i + 1, 7, i) for i in range(30)]
    log = scripted(events)
    report = d_probe(log, a=1, w=7, y=2, z=3, S=30)
    assert report.consistent


def test_d_probe_coverage_gap():
    log = scripted([(1, 7, 5)])  # nothing covers 0
    report = d_probe(log, a=1, w=7, y=2, z=3, S=1)
    assert not report.consistent
    assert report.counterexample == (0, "uncovered")


def test_d_probe_agreement_counterexample():
    # W & Y contains 0 outside A, but Z misses it; coverage keeps growing
    events = [(2 * i + 1, 7, i) for i in range(30)]
    events += [(2, 8, 0)]
    log = scripted(sorted(events))
    report = d_probe(log, a=1, w=7, y=8, z=3, S=60)
    assert not report.consistent
    assert report.counterexample == (0, "missing-from-z")


def test_replay_friedberg_flags_every_field():
    result = run_friedberg(TEXTS, machine_index(4), 4_000)
    records = [dict(r) for r in result.trace]
    assert replay_friedberg(result.kernel.log, result.a, result.a0, result.a1, records) == []
    routes = [i for i, r in enumerate(records) if r["op"] == "route"]
    target = routes[2]
    flips = (
        ("side", 1 - records[target]["side"]),
        ("x", 10**9),
        ("req", [0, 0, 10**6]),
        ("s", records[target]["s"] + 1),
    )
    for field, value in flips:
        bad = [dict(r) for r in records]
        bad[target][field] = value
        divergences = replay_friedberg(result.kernel.log, result.a, result.a0, result.a1, bad)
        assert divergences, field


def test_replay_check_split_suite(tmp_path):
    result = run_friedberg(TEXTS, machine_index(0), 3_000)
    records = merge_for_file(result.kernel.log, result.trace)
    report = replay_check(records, "split")
    assert report["ok"]


def test_trace_round_trip(tmp_path):
    result = run_friedberg(TEXTS, machine_index(0), 2_000)
    records = merge_for_file(result.kernel.log, result.trace)
    path = tmp_path / "t.jsonl"
    write_trace(path, records)
    back = read_trace(path)
    assert back == records
    log, decisions = split_events(back)
    assert len(log) == len(result.kernel.log)


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
