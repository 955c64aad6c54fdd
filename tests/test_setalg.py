from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesplit.kernel import EventLog
from cesplit.setalg import ComputablePair, before, before_then, check_split_history
from conftest import covered_prefix, is_split

A, B = 100, 101


def scripted_log(events):
    log = EventLog()
    for stage, index, element in events:
        log.append(stage, index, element)
    return log


@pytest.fixture
def worked_log():
    return scripted_log([(1, A, 5), (2, B, 5), (3, B, 7), (4, A, 7)])


def test_before_worked_example(worked_log):
    assert before(worked_log, A, B, 4) == {5}
    assert before(worked_log, B, A, 4) == {7}


def test_before_self_is_empty(worked_log):
    for s in range(5):
        assert before(worked_log, A, A, s) == frozenset()


def test_before_then_worked_example(worked_log):
    assert before_then(worked_log, A, B, 4) == {5}
    assert before_then(worked_log, B, A, 4) == {7}


def test_decomposition_at_worked_stage(worked_log):
    # stagewise: before(B,A,4) splits into the plain difference and the
    # entered-then part; here {7} = {} | {7}
    w_b = worked_log.members_at(B, 4)
    w_a = worked_log.members_at(A, 4)
    assert before(worked_log, B, A, 4) == (w_b - w_a) | before_then(worked_log, B, A, 4)
    assert (w_b - w_a) & before_then(worked_log, B, A, 4) == frozenset()


# random scripted logs: distinct (index, element) pairs in random order
log_strategy = st.lists(
    st.tuples(st.sampled_from([A, B, 102]), st.integers(min_value=0, max_value=6)),
    max_size=18,
    unique=True,
)


def build(pairs):
    return scripted_log([(i + 1, idx, x) for i, (idx, x) in enumerate(pairs)])


@given(log_strategy, st.integers(min_value=0, max_value=20))
def test_operator_laws(pairs, s):
    log = build(pairs)
    for a, b in ((A, B), (B, A), (A, 102)):
        bt = before_then(log, a, b, s)
        bf = before(log, a, b, s)
        assert bt <= bf <= log.members_at(a, s)
        diff = log.members_at(a, s) - log.members_at(b, s)
        assert bf == diff | bt
        assert diff & bt == frozenset()


@given(log_strategy, st.integers(min_value=0, max_value=19))
def test_operators_monotone(pairs, s):
    log = build(pairs)
    assert before(log, A, B, s) <= before(log, A, B, s + 1)
    assert before_then(log, A, B, s) <= before_then(log, A, B, s + 1)


def test_is_split_trivial_empty():
    log = EventLog()
    verdict = is_split(log, A, B, 102, 0)
    assert verdict.ok


def test_is_split_settling_then_ok():
    log = scripted_log([(1, A, 5), (2, B, 5)])
    at_entry = is_split(log, A, B, 102, 1)
    assert at_entry.ok and at_entry.settling == (5,)
    assert is_split(log, A, B, 102, 2).ok


def test_is_split_overlap_and_extra():
    log = scripted_log([(1, A, 5), (2, B, 5), (3, 102, 5)])
    verdict = is_split(log, A, B, 102, 3)
    assert not verdict.ok and verdict.overlap == (5,)
    log2 = scripted_log([(1, B, 9)])
    verdict2 = is_split(log2, A, B, 102, 1)
    assert not verdict2.ok and (verdict2.overlap, verdict2.extra) == ((), (9,))


def test_is_split_missing_after_settle_window():
    log = scripted_log([(1, A, 5)])
    assert is_split(log, A, B, 102, 1).ok
    verdict = is_split(log, A, B, 102, 2)
    assert not verdict.ok and verdict.missing == (5,)


def test_strict_mode_flags_fresh_entrants():
    log = scripted_log([(1, A, 5)])
    assert not is_split(log, A, B, 102, 1, settle=0).ok


@settings(max_examples=200)
@given(log_strategy)
def test_history_check_agrees_with_stagewise_verdicts(pairs):
    log = build(pairs)
    S = len(pairs) + 2
    hit = check_split_history(log, A, B, 102, S)
    firsts = [s for s in range(S + 1) if not is_split(log, A, B, 102, s).ok]
    if hit is None:
        assert firsts == []
    else:
        assert firsts and firsts[0] == hit[0]


def split_history_by_walk(log, a, a0, a1, S, settle=1):
    """check_split_history as one walk of the whole log: every event, of any
    set, gives a waiting entrant of a the chance to be found missing."""
    in_a, routed, waiting = {}, {}, deque()
    for t, idx, x in log.events():
        if t > S:
            break
        while waiting:
            t_y, y = waiting[0]
            if y in routed:
                waiting.popleft()
            elif t_y + settle <= t - 1:
                return (t_y + settle, "missing", y)
            else:
                break
        if idx == a:
            in_a[x] = t
            waiting.append((t, x))
        if idx == a0 or idx == a1:
            if x in routed:
                return (t, "overlap", x)
            if x not in in_a:
                return (t, "extra", x)
            routed[x] = 0 if idx == a0 else 1
    for t_y, y in waiting:
        if y not in routed and t_y + settle <= S:
            return (t_y + settle, "missing", y)
    return None


@st.composite
def split_cases(draw):
    """A log over indices 0..4 with stage gaps, three of its indices (a half
    may be the input itself, or the other half), a stage and a settle."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 8)),
                          unique=True, max_size=30))
    log, stage = EventLog(), 0
    for idx, x in pairs:
        stage += draw(st.integers(1, 4))
        log.append(stage, idx, x)
    a, a0, a1 = draw(st.tuples(*[st.integers(0, 4)] * 3))
    S = draw(st.integers(-1, stage + 3))
    settle = draw(st.sampled_from([0, 1, 2, 5, 64]))
    return log, (a, a0, a1), S, settle


@settings(max_examples=500, derandomize=True)
@given(split_cases())
def test_history_check_matches_a_walk_of_the_whole_log(case):
    # the merged entries of a, a0 and a1 find what a walk of every event finds
    log, (a, a0, a1), S, settle = case
    assert (check_split_history(log, a, a0, a1, S, settle)
            == split_history_by_walk(log, a, a0, a1, S, settle))


def test_history_check_names_missing_at_its_own_stage():
    # other sets' events between the entrant's expiry and the next entry of
    # a half change nothing: the element is missing at t_y + settle
    log = scripted_log([(1, A, 5), (3, 103, 9), (9, 104, 7), (20, B, 5)])
    assert check_split_history(log, A, B, 102, 30, settle=2) == (3, "missing", 5)
    assert split_history_by_walk(log, A, B, 102, 30, settle=2) == (3, "missing", 5)


# the computable view of a pair at a stage: the certified interval [0, n)
# both sides cover, inside which the positive side decides membership


def test_computable_view_interval():
    log = scripted_log([(1, A, 0), (2, B, 1), (3, A, 2), (4, A, 3)])
    assert covered_prefix(log, (A, B), 4) == 4
    assert covered_prefix(log, (A, B), 1) == 1
    pos = log.members_at(A, 4)
    assert 0 in pos and 1 not in pos and 3 in pos


def test_computable_view_empty_pair():
    assert covered_prefix(EventLog(), (A, B), 0) == 0


@pytest.mark.parametrize("registered", ["after-both-entries", "first"])
def test_computable_view_disjointness_enforced(scripted, registered):
    # the witness lab reads a pair's increasing enumerations off the
    # certified interval, and refuses a pair whose sides share an element,
    # whether both entries precede the certification or one follows it
    from cesplit.kernel import Kernel
    from cesplit.witness import build_split_witness

    kernel = Kernel()
    pos = scripted(kernel, 0, {1: [0], 3: [1]})
    neg = scripted(kernel, 1, {2: [0]})
    if registered == "after-both-entries":
        kernel.run_to(4)
    build_split_witness(kernel, ComputablePair(pos, neg))
    with pytest.raises(RuntimeError, match="share element 0"):
        kernel.run_to(10)


def test_overlap_violations_are_monotone():
    log = scripted_log([(1, A, 5), (2, B, 5), (3, 102, 5), (4, A, 6)])
    first = next(s for s in range(5) if not is_split(log, A, B, 102, s).ok)
    for s in range(first, 5):
        verdict = is_split(log, A, B, 102, s)
        assert not verdict.ok and verdict.overlap == (5,)


def test_certified_interval_grows_with_stage():
    from cesplit.kernel import Kernel
    from cesplit.witness import register_paced_pair

    kernel = Kernel()
    pair = register_paced_pair(kernel, lambda n: n % 2 == 0, pace=2)
    kernel.run_to(4_000)
    sizes = [covered_prefix(kernel.log, (pair.pos, pair.neg), s) for s in (500, 1_500, 3_999)]
    assert sizes[0] < sizes[1] < sizes[2]
