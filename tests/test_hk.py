import pytest

from cesplit import corpus
from cesplit.hk import HKSplitter, install_hk, run_hk, run_subset_scenario
from cesplit.kernel import EventLog, Kernel, machine_index
from cesplit.setalg import check_split_history
from cesplit.trace import merge_for_file, read_trace, write_trace
from cesplit.verify import _NaiveRestraint, replay_check, replay_hk

TEXTS = [corpus.HALT_ALL, corpus.DIVERGE, corpus.HALT_EVEN, corpus.HALT_SLOW]


@pytest.fixture(scope="module")
def default_run():
    # b = everything, a = empty: the b-entrants exercise the routing scan
    return run_hk(TEXTS, machine_index(0), machine_index(1), 8_000)


# -- disagreement truth table on scripted logs -----------------------------


def scripted(events):
    log = EventLog()
    for stage, idx, x in events:
        log.append(stage, idx, x)
    return log


B0, A, Y, Z = 200, 201, 202, 203


def l_at(log, stage, code=0):
    tracker = _NaiveRestraint(log, code, Y, Z, B0, A)
    tracker.advance(stage)
    return tracker.l_at(stage)


def disagreement_value(log, y, z, bi, a, s):
    """l at stage s from its definition, for the sets Y = y, Z = z, B_i = bi
    and A = a: the least x <= s that is uncovered or that disagrees with Z
    as a witness, else s."""
    for x in range(s + 1):
        in_bi = log.member_by(bi, x, s)
        in_a = log.member_by(a, x, s)
        in_y = log.member_by(y, x, s)
        if not (in_bi or in_a or in_y):
            return x
        lhs = in_bi and in_y and not in_a
        if lhs == (not log.member_by(z, x, s)):
            return x
    return s


def test_l_is_stage_when_nothing_qualifies():
    # Y covers [0, s]; everything else empty and agreeing
    s = 6
    log = scripted([(i + 1, Y, i) for i in range(s + 1)])
    # all x <= 6 are covered and agree (not in (B0 & Y) - A, not in Z)
    assert l_at(log, s) == s


def test_l_zero_on_empty_universe():
    assert l_at(EventLog(), 0) == 0
    assert l_at(EventLog(), 5) == 0  # 0 is uncovered: first disjunct


def test_disagreement_truth_table_exact():
    # x in LHS and x in Z -> agree; x in LHS, x not in Z -> qualify;
    # x not in LHS, x in Z -> qualify; neither (covered) -> agree.
    log = scripted(
        [
            (1, Y, 0), (2, B0, 0), (3, Z, 0),   # 0: lhs True, in Z -> agree
            (4, Y, 1), (5, B0, 1),              # 1: lhs True, not in Z -> qualify
            (6, Y, 2), (7, Z, 2),               # 2: lhs False (not in B0), in Z -> qualify
            (8, Y, 3),                          # 3: covered by Y, lhs False, not in Z -> agree
        ]
    )
    tracker = _NaiveRestraint(log, 0, Y, Z, B0, A)
    tracker.advance(8)
    qualifies = {x: tracker._qualifies(x, 8) for x in range(4)}
    assert qualifies == {0: False, 1: True, 2: True, 3: False}
    assert tracker.l_at(8) == 1


def test_lhs_membership_killed_by_a():
    # x in B0 & Y but also in A: lhs False; x not in Z -> iff False==True -> agree
    log = scripted([(1, Y, 0), (2, B0, 0), (3, A, 0)])
    tracker = _NaiveRestraint(log, 0, Y, Z, B0, A)
    tracker.advance(3)
    assert tracker._qualifies(0, 3) is False


# -- restraints and routing -------------------------------------------------


def test_restraint_monotone_everywhere(default_run):
    r = default_run
    codes = sorted({tuple(t["triple"]) for t in r.trace if t["op"] == "hk"})
    from cesplit.pairing import pair

    for e, j, i in codes[:6]:
        code = pair(pair(e, j), i)
        stages = list(range(0, 8_000, 640))
        tracker = _NaiveRestraint(r.kernel.log, code, e, j, r.b0 if i == 0 else r.b1, r.a)
        hist = [tracker.r_at(s) for s in stages]
        assert all(a <= b for a, b in zip(hist, hist[1:]))


def test_ball_zero_goes_to_least_triple(default_run):
    first = [t for t in default_run.trace if t["op"] == "hk" and t["x"] == 0][0]
    assert first["triple"] == [0, 0, 0] and first["side"] == 0


def test_routing_replay_clean(default_run):
    r = default_run
    divergences = replay_hk(merge_for_file(r.kernel.log, r.trace), r.b, r.a, r.b0, r.b1)
    assert divergences == []


def test_routing_replay_catches_tamper(default_run):
    r = default_run
    bad = [dict(rec) for rec in r.trace]
    idx = [i for i, rec in enumerate(bad) if rec["op"] == "hk"][3]
    bad[idx]["side"] = 1 - bad[idx]["side"]

    divergences = replay_hk(merge_for_file(r.kernel.log, bad), r.b, r.a, r.b0, r.b1)
    # the record's line in the written file, after the events
    assert [(d.line, d.field) for d in divergences] == [(len(r.kernel.log) + idx + 1, "side")]


def test_split_discipline(default_run):
    r = default_run
    assert check_split_history(r.kernel.log, r.b, r.b0, r.b1, 7_999) is None


def test_polled_only_when_b_or_a_moves(monkeypatch):
    # one poll at registration, then at most one per released entry of B or A
    calls = []
    ingest = HKSplitter._ingest

    def counted(self, stage):
        calls.append(stage)
        ingest(self, stage)

    monkeypatch.setattr(HKSplitter, "_ingest", counted)
    r = run_hk(TEXTS, machine_index(0), machine_index(1), 8_000)
    log = r.kernel.log
    assert r.trace[1:]  # the splitter did route
    assert len(calls) <= log.count(r.b) + log.count(r.a) + 1


def test_determinism():
    r1 = run_hk(TEXTS, machine_index(0), machine_index(1), 1_500)
    r2 = run_hk(TEXTS, machine_index(0), machine_index(1), 1_500)
    assert r1.trace == r2.trace
    assert list(r1.kernel.log.events()) == list(r2.kernel.log.events())


def test_subset_scenario_one_side_starves():
    r = run_subset_scenario(10_000)
    sides = [t["side"] for t in r.trace if t["op"] == "hk"]
    assert sides and set(sides) == {0}
    # trailing 20% of stages: no new balls on side 1 (indeed none anywhere on 1)
    tail = [t for t in r.trace if t["op"] == "hk" and t["s"] >= 8_000]
    assert tail and all(t["side"] == 0 for t in tail)
    # and it is a genuine split of b
    assert check_split_history(r.kernel.log, r.b, r.b0, r.b1, 9_999) is None


def test_subset_scenario_no_containment_warning():
    r = run_subset_scenario(2_000)
    assert r.warnings == []


def test_containment_warning_when_a_escapes_b():
    # a = everything, b = evens: odd entrants of a violate a <= b stagewise
    with pytest.warns(UserWarning):
        r = run_hk(TEXTS, machine_index(2), machine_index(0), 3_000)
    assert r.warnings


def test_rigged_listing_helper():
    # an override map rigs the listed positions only, and the meta record
    # carries it sorted, for the replay to read
    kernel = Kernel(TEXTS)
    splitter = install_hk(kernel, machine_index(0), machine_index(1), y_over={3: 9, 0: 42})
    assert splitter.trace[0]["y_over"] == [[0, 42], [3, 9]]
    assert "z_over" not in splitter.trace[0]
    assert splitter._get_state(0, 0, 0).y_idx == 42  # m = 0 is (e, j) = (0, 0)
    assert splitter._get_state(1, 0, 0).y_idx == 1  # m = 1 is (1, 0)


def test_rigged_trace_replays_under_its_overrides():
    # the replay reads the listings from the meta record: without the
    # override maps the same routings no longer replay
    r = run_subset_scenario(3_000)
    trace = merge_for_file(r.kernel.log, r.trace)
    assert replay_check(trace)["ok"]
    meta = next(rec for rec in trace.records if rec["op"] == "meta")
    assert meta["z_over"] == [[0, 4]]
    del meta["z_over"]
    assert not replay_check(trace)["ok"]


def test_rigged_trace_reads_back_as_its_records(tmp_path):
    # the override maps are held as the lists the file spells them as, so
    # the records read back from the file are the records in memory
    r = run_subset_scenario(2_000)
    path = tmp_path / "hk.jsonl"
    write_trace(path, merge_for_file(r.kernel.log, r.trace))
    back = read_trace(path)
    assert back.records == r.trace
    assert list(back.log.events()) == list(r.kernel.log.events())


def test_halting_input_empty_modulus_counts():
    # replay-derived behaviour: the least triple races its restraint along
    # the coverage frontier and side 0 absorbs every ball, at S and at 2S
    r1 = run_hk(TEXTS, machine_index(0), machine_index(1), 5_000)
    r2 = run_hk(TEXTS, machine_index(0), machine_index(1), 10_000)
    count = lambda r, side: sum(1 for t in r.trace if t["op"] == "hk" and t["side"] == side)
    assert count(r2, 0) > count(r1, 0) > 0
    assert count(r1, 1) == count(r2, 1) == 0
    assert replay_hk(merge_for_file(r2.kernel.log, r2.trace), r2.b, r2.a, r2.b0, r2.b1) == []


def test_public_disagreement_matches_tracker():
    log = scripted(
        [(1, Y, 0), (2, B0, 0), (3, Z, 0), (4, Y, 1), (5, B0, 1), (6, Y, 2), (7, Z, 2)]
    )
    got = disagreement_value(log, Y, Z, B0, A, 7)
    assert got == l_at(log, 7)
