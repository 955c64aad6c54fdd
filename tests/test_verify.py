import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesplit import corpus
from cesplit.friedberg import run_friedberg
from cesplit.hk import run_hk
from cesplit.kernel import EventLog, machine_index
from cesplit.setalg import before_then
from cesplit.tree import diagonalize, proc_friedberg
from cesplit.verify import (
    ComplementEvidence,
    FriedbergEvidence,
    complement_witnesses,
    probe_friedberg,
    replay_check,
    replay_friedberg,
    trailing_window,
)
from cesplit.trace import (
    RECORD_OPS,
    TraceError,
    merge_for_file,
    read_trace,
    read_trace_lines,
    split_events,
    write_trace,
)
from conftest import covered_prefix, universe_frontier

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


@pytest.fixture(params=["friedberg", "hk"])
def routed(request):
    """A traced routing run: its records, the position (from 0) of its last
    routing record, and its halves."""
    if request.param == "friedberg":
        result, op = run_friedberg(TEXTS, machine_index(4), 4_000), "route"
    else:
        result, op = run_hk(TEXTS, machine_index(0), machine_index(1), 4_000), "hk"
    records = merge_for_file(result.kernel.log, result.trace)
    assert replay_check(records)["ok"]
    last = max(n for n, r in enumerate(records) if r["op"] == op)
    return records, last, result.splitter.halves


def found(records):
    return [(d["line"], d["field"]) for d in replay_check(records)["divergences"]]


def test_replay_routes_missing_record(routed):
    records, last, _ = routed
    del records[last]
    assert found(records) == [(len(records) + 1, "missing-record")]


def test_replay_routes_extra_record(routed):
    records, last, _ = routed
    records.insert(last + 1, dict(records[last]))
    assert found(records) == [(last + 2, "extra-record")]


def test_replay_routes_landing(routed):
    records, last, halves = routed
    x, side = records[last]["x"], records[last]["side"]
    at = next(n for n, r in enumerate(records)
              if r["op"] == "event" and r["e"] == halves[side] and r["x"] == x)
    assert at < last
    del records[at]  # the ball never surfaces in its half
    assert found(records) == [(last, "landing")]


@pytest.mark.parametrize("forge, field", [
    ("non-positive a-node", "endpoint-kind"),
    ("past the cap", "endpoint-length"),
])
def test_replay_tree_checks_f_shape(forge, field):
    # the construction's walk cannot end anywhere else, so the replay is the
    # only check of f's shape
    result = diagonalize(proc_friedberg, 3000, depth=9)
    records = merge_for_file(result.kernel.log, result.trace)
    assert replay_check(records)["ok"]
    at = max(n for n, r in enumerate(records) if r["op"] == "f" and len(r["node"]) == 9)
    node = records[at]["node"]
    forged = node[:7] + "0" if forge == "non-positive a-node" else node + "0" * 7
    records[at] = dict(records[at], node=forged)
    assert [f for line, f in found(records) if line <= at + 1] == [field]


def test_replay_check_split_suite(tmp_path):
    result = run_friedberg(TEXTS, machine_index(0), 3_000)
    records = merge_for_file(result.kernel.log, result.trace)
    report = replay_check(records, "split")
    assert report["ok"]


@pytest.mark.parametrize("construction", ["friedberg", "tree"])
def test_trace_round_trip(tmp_path, construction):
    # the tree trace's decisions are written by template, and read back by json
    if construction == "friedberg":
        result = run_friedberg(TEXTS, machine_index(0), 2_000)
    else:
        result = diagonalize(proc_friedberg, 3000, depth=9)
    records = merge_for_file(result.kernel.log, result.trace)
    path = tmp_path / "t.jsonl"
    write_trace(path, records)
    back = read_trace(path)
    assert back == records
    assert len(split_events(back)) == len(result.kernel.log)


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
TEMPLATED = {
    "event": ("s", "e", "x"),
    "f": ("s", "ks", "node"),
    "chip": ("s", "node", "c"),
    "enter": ("s", "x", "node"),
    "left": ("s", "from", "to", "balls"),
    "void": ("s", "node", "n"),
    "pull": ("s", "ks", "node", "req", "x0", "x1", "mid"),
    "patch": ("s", "node", "x"),
    "dump-orig": ("s", "ks", "node", "e", "i", "balls"),
    "dump-extra": ("s", "ks", "gamma", "node", "idx", "x"),
}


def kind(name):
    if name in ("node", "from", "to", "gamma"):
        return "address"
    return "list" if name in ("balls", "mid") else "int"


exact_ints = st.one_of(st.integers(), st.integers(-(2**200), 2**200))
EXACT = {
    "int": exact_ints,
    "address": st.text(st.sampled_from("01"), max_size=12),
    "list": st.lists(exact_ints, max_size=4),
}
# values of each kind's field that a template must not take
NEAR_MISSES = {
    "int": [True, False, 1.0, float("nan"), "1", None, [1]],
    "address": ['"', "\\", "0\u00e91", "2", "01x", "10 ", "\u2028", 1, None],
    "list": [[1, True], [False], ["1"], [2, "0"], (1,), 1, "01"],
}
BENT = {
    "int": st.one_of(st.sampled_from(NEAR_MISSES["int"]), st.floats(), tricky_text),
    "address": st.one_of(st.sampled_from(NEAR_MISSES["address"]), tricky_text),
    "list": st.one_of(st.sampled_from(NEAR_MISSES["list"]),
                      st.lists(st.one_of(exact_ints, st.booleans(), tricky_text), max_size=4)),
}


@st.composite
def decision_shaped(draw):
    """A record of a templated op's shape, then bent in a place or two: a
    field of the wrong kind, a key too many or too few, another op."""
    op = draw(st.sampled_from(sorted(TEMPLATED)))
    record = {"op": op}
    for name in TEMPLATED[op]:
        record[name] = draw(EXACT[kind(name)])
    names = sorted({name for fields in TEMPLATED.values() for name in fields})
    for twist in draw(st.lists(st.sampled_from(["value", "drop", "add", "op"]), max_size=2)):
        if twist == "value":
            name = draw(st.sampled_from(TEMPLATED[op]))
            record[name] = draw(BENT[kind(name)])
        elif twist == "drop" and record:
            del record[draw(st.sampled_from(sorted(record)))]
        elif twist == "add":
            name = draw(st.one_of(st.sampled_from(names), tricky_text))
            record[name] = draw(st.one_of(field_values, *EXACT.values()))
        elif twist == "op":
            record["op"] = draw(st.sampled_from(sorted(TEMPLATED) + ["meta", "Void", "évent"]))
    return record


def near_misses():
    """Each templated op's record, then that record with one field bent to
    each near miss of its kind, with a key too many and a key too few."""
    out = []
    for op, fields in TEMPLATED.items():
        exact = {"op": op}
        exact.update((name, {"int": 7, "address": "01", "list": [2, 3]}[kind(name)])
                     for name in fields)
        out.append(exact)
        out += [dict(exact, **{name: bad}) for name in fields for bad in NEAR_MISSES[kind(name)]]
        out.append(dict(exact, extra=0))
        out += [{k: v for k, v in exact.items() if k != name} for name in fields]
    return out


@settings(max_examples=300)
@example(records=near_misses())
@given(st.lists(st.one_of(event_shaped(), decision_shaped()), max_size=6))
def test_written_lines_are_json_dumps(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "written.jsonl"
    write_trace(path, records)
    expected = "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records
    )
    assert path.read_bytes() == expected.encode("utf-8")


def json_reading(data: bytes):
    """``read_trace_lines`` as plain json.loads per text-mode line: the
    records and their lines, or the line of the first bad record."""
    records, lines = [], []
    for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(data), "utf-8"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return lineno
        if not (isinstance(record, dict) and isinstance(record.get("op"), str)
                and record["op"] in RECORD_OPS):
            return lineno
        records.append(record)
        lines.append(lineno)
    return records, lines


def reading(data: bytes, path):
    path.write_bytes(data)
    try:
        return read_trace_lines(path)
    except TraceError as err:
        return err.line


def check_reading(data: bytes, path):
    got, want = reading(data, path), json_reading(data)
    assert got == want
    if not isinstance(got, int):  # same dicts, keys in the same order
        assert [list(r) for r in got[0]] == [list(r) for r in want[0]]


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
    st.just('{"op":"route","req":null,"s":3,"side":0,"x":2}'),
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
@given(st.lists(st.tuples(st.integers(), st.integers(), st.integers()), min_size=1, max_size=6),
       st.sampled_from(["\n", "\r\n", "\r"]), st.data())
def test_bytes_not_utf8_reported_on_their_line(tmp_path_factory, events, end, data):
    good = "".join('{"e":%d,"op":"event","s":%d,"x":%d}' % f + end for f in events)
    good = good.encode("utf-8")
    at = data.draw(st.integers(0, len(good)))
    bad = good[:at] + b"\xff" + good[at:]
    # the line the bad byte sits on, counting lines as the text-mode reader does
    line = len(io.TextIOWrapper(io.BytesIO(bad[:at + 1]), "utf-8", errors="replace").readlines())
    assert reading(bad, tmp_path_factory.getbasetemp() / "bad.jsonl") == line


@pytest.mark.parametrize("field, value", [("s", 1.5), ("s", True), ("x", True)])
def test_non_integer_event_field_named_where_the_log_trips_later(field, value):
    # the log takes the first event's field and trips over it only later:
    # a stage of 1.5 or true is out of order with the stage 1 on line 3,
    # and an element true enters index 0 twice with the real 1 on line 4
    events = [(0, 0, 0), (1, 2, 0), (2, 0, 1)]
    records = [{"op": "meta", "kind": "friedberg"}]
    records += [{"op": "event", "s": s, "e": e, "x": x} for s, e, x in events]
    records[1][field] = value
    with pytest.raises(TraceError) as caught:
        split_events(records)
    assert caught.value.line == 2
    assert str(caught.value) == f"line 2: event field {field!r} is not an integer: {value!r}"
    # an honest trace that trips the log is still reported on its own line
    records[1][field] = 0
    records[3]["s"] = 1
    with pytest.raises(TraceError) as caught:
        split_events(records)
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
