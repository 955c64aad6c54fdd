import pytest
from hypothesis import given
from hypothesis import strategies as st

from cesplit import corpus
from cesplit.geometry import (
    greatest_r_prefix, is_left_of, is_positive_a, least_dump, mask_bit, node_kind,
    question_at,
)
from cesplit.tree import (
    TreeError,
    TreeRun,
    diagonalize,
    proc_broken,
    proc_friedberg,
    proc_trivial,
    structural_report,
)

addresses = st.text(alphabet="01", min_size=0, max_size=12)


# -- question coding oracle -------------------------------------------------
#
# Enumerate every (j, k, b) the band arithmetic allows and record which
# depth each lands on; exactly one question per depth must come out.


def question_table(max_depth):
    table = {}
    for j in range(2, 40):
        d = j * j - 1
        if 1 <= d <= max_depth:
            table[d] = ("R", j, (j - 1) * (j - 1))
    for j in range(1, 40):
        for k in range(1, j + 1):
            for b, d in ((0, j * j + 2 * k - 2), (1, j * j + 2 * k - 1)):
                if 1 <= d <= max_depth and d not in table:
                    table[d] = ("T", j, k * k, b, k)
    return table


def test_exactly_one_question_per_depth():
    table = question_table(60)
    assert sorted(table) == list(range(1, 61))


@pytest.mark.parametrize("depth", range(1, 40))
def test_question_decode_matches_oracle(depth):
    node = "0" * depth
    table = question_table(40)
    want = table[depth]
    got = question_at(node)
    if want[0] == "R":
        assert got.kind == "R" and got.j == want[1] and len(got.base) == want[2]
    else:
        assert got.kind == "T" and got.j == want[1]
        assert len(got.base) == want[2] and got.b == want[3] and got.k == want[4]


def test_question_examples():
    q3 = question_at("000")
    assert q3.kind == "R" and q3.j == 2 and len(q3.base) == 1
    q6 = question_at("000000")
    assert q6.kind == "T" and q6.j == 2 and q6.b == 0 and len(q6.base) == 4
    # the j=2 band's strictly-between depths carry 2j = 4 questions
    between = [question_at("0" * d) for d in range(5, 9)]
    assert len(between) == 4
    assert between[-1].kind == "R"  # depth 8 opens the j=3 band


def test_root_carries_no_question():
    with pytest.raises(TreeError):
        question_at("")


def test_node_kinds():
    assert node_kind("") == "root"
    assert all(node_kind("0" * d) == "r" for d in (1, 4, 9, 16, 25))
    assert node_kind("00") == "a"
    assert is_positive_a("01") and not is_positive_a("0")  # depth 1 is an R-node
    assert not is_positive_a("00")
    assert greatest_r_prefix("000000") == "0000"
    assert greatest_r_prefix("00") == "0"
    assert greatest_r_prefix("0") == ""


# -- left order ---------------------------------------------------------------


@given(addresses, addresses, addresses)
def test_left_order_transitive(a, b, c):
    if is_left_of(a, b) and is_left_of(b, c):
        assert is_left_of(a, c)


def test_one_branch_is_left():
    assert is_left_of("1", "0")
    assert is_left_of("01", "00")
    assert is_left_of("0", "00")  # prefixes sit left of extensions


# -- runs ----------------------------------------------------------------------


STAGES = 30_000
LAST = STAGES - 1


@pytest.fixture(scope="module")
def hf_run():
    return diagonalize(proc_friedberg, STAGES)


def test_hf_run_verdict(hf_run):
    assert hf_run.verdict.kind == 3
    assert hf_run.stable
    assert hf_run.violations == []


def test_structural_report_clean(hf_run):
    report = structural_report(hf_run.run)
    assert report["problems"] == []
    assert report["partition_exceptions"] == 0
    assert report["dumped"] > 0


def assert_f_endpoints_legal(trace, depth):
    # the walk stops at a positive A-node or at the cap min(s*s, depth), a
    # square, so every other endpoint is the root or an R-node of that length
    fs = [r for r in trace if r["op"] == "f"]
    assert len(fs) > 1 or depth == 0  # at depth 0, f stays the root
    for r in fs:
        f = r["node"]
        if not is_positive_a(f):
            assert len(f) == min(r["s"] * r["s"], depth)
            assert node_kind(f) == "r" or f == ""


def test_f_endpoints_legal(hf_run):
    assert_f_endpoints_legal(hf_run.trace, 25)


@pytest.mark.parametrize("depth", [0, 1, 4, 9])
def test_f_endpoints_legal_at_small_depths(depth):
    assert_f_endpoints_legal(diagonalize(proc_friedberg, 3000, depth=depth).trace, depth)


def test_structural_report_leaves_violations_alone():
    # the audit reports what it finds and nothing more: a second call finds
    # the same problem, and neither call adds to the run's violations
    run = diagonalize(proc_friedberg, 3000, depth=9, collect_trace=False).run
    state = next(st for st in run.nodes.values() if len(st.live_markers) > 1)
    state.live_markers.reverse()
    before = list(run.violations)
    first = structural_report(run)
    assert ("markers-not-increasing", state.address) in first["problems"]
    assert structural_report(run) == first
    assert run.violations == before


def test_ball_entry_records(hf_run):
    # one f record per tree stage, the run's history: with the stage it
    # fixes the ball that enters, s-1 at f[:1], so no record says so
    stages = [(r["s"], r["ks"], r["node"]) for r in hf_run.trace if r["op"] == "f"]
    assert stages == hf_run.run.history
    assert len(stages) == hf_run.run.tree_stage + 1


def test_first_branch_follows_chip_change(hf_run):
    # the walk branches 1 at the root exactly when its counter moved
    fs = [r for r in hf_run.trace if r["op"] == "f"]
    assert any(r["node"].startswith("1") for r in fs)
    assert any(r["node"].startswith("0") for r in fs if r["node"])


def test_pull_records_discipline(hf_run):
    pulls, stage = 0, None
    for r in hf_run.trace:
        if r["op"] == "f":
            stage = r["s"]  # a pull belongs to the stage of the last f record
        elif r["op"] == "pull":
            pulls += 1
            assert r["x0"] < r["x1"]
            assert r["req"] <= stage
            assert all(r["x0"] != y and len(r["node"]) < y < r["x1"] for y in r["mid"])
    assert pulls


def test_dumped_balls_reach_a(hf_run):
    k = hf_run.kernel
    dumped = [r for r in hf_run.trace if r["op"] == "dump-orig"]
    assert dumped
    a_members = k.w_at(hf_run.e_a, LAST)
    sample = [x for r in dumped[:50] for x in r["balls"]]
    assert set(sample) <= a_members


def test_patches_cover_casualties(hf_run):
    patches = [r for r in hf_run.trace if r["op"] == "patch"]
    if patches:
        run = hf_run.run
        for r in patches[:100]:
            assert r["x"] in run.a_committed
            assert r["x"] in run.nodes[r["node"]].r_committed


def test_balls_never_reenter_after_a(hf_run):
    run = hf_run.run
    assert not (set(run.positions) & run.a_committed)


def assert_ball_ledger(run):
    # a ball sits on one node, and the run's map of where balls sit agrees
    # with the nodes themselves
    ledger = {x: state.address for state in run.nodes.values() for x in state.balls}
    assert sum(len(state.balls) for state in run.nodes.values()) == len(ledger)
    assert ledger == run.positions
    # the root's tilde pool is every ball that entered, dumped ones included
    assert run.nodes[""].live_rt == list(range(run.tree_stage))
    # the left order lists the requesting nodes, which the sweep and the
    # pulls walk: only they hold requests, and only they hold balls unless
    # the depth bound is 0, where f stays the root and the root takes them
    requesting = [state for state in run.nodes.values() if state.requesting]
    assert run._left_order == sorted(requesting, key=lambda state: state.key)
    for state in run.nodes.values():
        assert state.requesting or not state.requests, state.address
        assert state.requesting or not state.balls or run.depth == 0, state.address
    # a node's pending requests are stages it was on the path, oldest first
    for state in requesting:
        pending = list(state.requests)
        assert all(a < b for a, b in zip(pending, pending[1:])), state.address
        assert all(stage <= run.tree_stage for stage in pending), state.address


def test_ball_ledger(hf_run):
    assert_ball_ledger(hf_run.run)


def test_ball_ledger_at_depth_9():
    run = diagonalize(proc_friedberg, 3000, depth=9).run
    states = run.nodes.values()
    assert run.a_committed and sum(1 for state in states if state.balls) > 1
    assert any(state.requests for state in states)
    assert_ball_ledger(run)
    assert_marker_ledger(run)


@pytest.mark.parametrize("proc, depth", [(proc_friedberg, 9), (proc_trivial, 4)],
                         ids=["hf-depth-9", "trivial-depth-4"])
def test_no_node_extends_f(monkeypatch, proc, depth):
    # the walk's endpoint only deepens or moves sideways, which is why the
    # sweep takes every requesting node right of f as one f passed on the left
    checked = set()
    brain_pull = TreeRun._brain_pull

    def checking(run, stage):
        out = brain_pull(run, stage)
        f = run.f
        assert not [a for a in run.nodes if a != f and a.startswith(f)], f
        checked.add(run.tree_stage)
        return out

    monkeypatch.setattr(TreeRun, "_brain_pull", checking)
    run = diagonalize(proc, 3000, depth=depth).run
    assert checked >= set(range(1, run.tree_stage + 1)) and run.tree_stage > 100
    assert len(run.nodes) > 2 * depth


def marker_revs(run, state):
    """The masks a scan of a node's marker table reads, in table order."""
    return [run.masks.get(x, 0) for x in state.live_markers]


def assert_marker_ledger(run):
    # the run's masks are the log's: a ball's mask has the bit of every W_idx
    # it entered among the events the brain has read, and no ball has an
    # entry without a bit
    masks = {}
    for _, idx, x in list(run.kernel.log.events())[:run._cursor]:
        if mask_bit(idx):
            masks[x] = masks.get(x, 0) | mask_bit(idx)
    assert run.masks == masks
    # the reverse map lists exactly the live markers, each with the states
    # whose tables hold it
    reverse = {}
    for state in run.nodes.values():
        for x in state.live_markers:
            reverse.setdefault(x, []).append(state)
    assert {x: sorted(s.address for s in states) for x, states in reverse.items()} == {
        x: sorted(s.address for s in states) for x, states in run.marker_nodes.items()}
    assert not set(run.marker_nodes) & run.a_committed
    # each measure and T-counter holds the state at its question's base
    for address, state in run.nodes.items():
        for m in state.measures.values():
            assert m.over is (None if address == "" else state)
            assert m in run.measures_by_index[m.j_index]
        if address:
            q = question_at(address)
            held = state.measure.over if q.kind == "R" else state.tmeasure.beta
            assert held is run.nodes[q.base]
            if q.kind == "T":
                assert state.tmeasure in run.nodes[q.base].tmeasures
        else:
            assert state.measure.over is None


def test_marker_ledger(hf_run):
    run = hf_run.run
    assert run.a_committed and len(run.marker_nodes) > 1
    assert_marker_ledger(run)


def test_determinism_of_full_trace():
    r1 = diagonalize(proc_friedberg, 4_000)
    r2 = diagonalize(proc_friedberg, 4_000)
    assert r1.trace == r2.trace
    assert list(r1.kernel.log.events()) == list(r2.kernel.log.events())


def test_trivial_and_broken_verdicts():
    r_t = diagonalize(proc_trivial, 12_000, collect_trace=False)
    assert r_t.verdict.kind == 2 and r_t.stable
    r_b = diagonalize(proc_broken, 12_000, collect_trace=False)
    assert r_b.verdict.kind == 1 and r_b.stable
    assert r_b.verdict.detail["kind"] == "missing"


def test_depth_bound_must_be_square():
    with pytest.raises(TreeError):
        diagonalize(proc_broken, 100, depth=20)


def test_chip_freeze_is_permanent(hf_run):
    run = hf_run.run
    frozen = [s.tmeasure for s in run.nodes.values() if s.tmeasure and s.tmeasure.frozen]
    assert frozen  # escape violations freeze most T-questions quickly


def test_piece_pairs_stay_disjoint(hf_run):
    run = hf_run.run
    log = hf_run.kernel.log
    r_nodes = [st for st in run.nodes.values() if st.kind == "r" and st.r_committed]
    assert r_nodes
    for state in r_nodes[:4]:
        for s in (STAGES // 4, STAGES - 1):
            assert not log.members_at(state.r_index, s) & log.members_at(state.rt_index, s)
        assert state.r_committed & state.rt_committed == set()


def test_window_gate_hides_no_dump(monkeypatch):
    # a node whose last scan found no dump at a stage past its window's
    # length is flagged only by changes inside the window; any node the gate
    # left unflagged must still scan to no dump
    maximal = TreeRun._maximal
    last_scan = {}  # node -> its table after the stage it was last scanned
    checked = skipped = 0

    def audited(run, st):
        nonlocal checked, skipped
        for state in run._chain:
            if state.needs_scan or state.stage_bound:
                continue
            checked += 1
            revs = marker_revs(run, state)
            assert least_dump(revs, st) is None, (st, state.address)
            if (state.live_markers, revs) != last_scan[state]:
                skipped += 1  # the table changed since, past the window only
        scanned = [state for state in run._chain if state.needs_scan]
        maximal(run, st)
        for state in scanned:
            last_scan[state] = (list(state.live_markers), marker_revs(run, state))

    monkeypatch.setattr(TreeRun, "_maximal", audited)
    diagonalize(proc_friedberg, STAGES, collect_trace=False)
    assert checked > 0 and skipped > 0


def test_polled_only_when_due(polls):
    # the brain is polled on the stages that start with an empty FIFO: its
    # own stages, and stages where a paced source emitted first; a paced
    # source only at its own stages, plus a booking left at the end
    polled, emitted = polls
    run = diagonalize(proc_friedberg, 3000, depth=9).run
    background = [run.feeder_index, *run.spectrum_indexes]
    paced = sum(emitted[i] for i in background)
    assert run.tree_stage > 0
    assert len(polled[run.e_a]) <= run.tree_stage + paced
    for index in background:
        assert emitted[index] > 0
        assert len(polled[index]) <= emitted[index] + 1


def test_witness_split_polled_with_the_brain(polls):
    # the witness split routes from state only the brain's polls change, and
    # it is registered after the brain, so it runs on exactly those stages
    polled, emitted = polls
    result = diagonalize(proc_trivial, 3000, depth=9, with_witness_split=True)
    w0, w1 = result.witness_halves
    assert emitted[w0] + emitted[w1] > 0
    assert polled[w0] == polled[w1] == polled[result.e_a]
