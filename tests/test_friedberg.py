import pytest

from cesplit import corpus
from cesplit.friedberg import run_friedberg
from cesplit.kernel import Kernel, machine_index
from cesplit.pairing import balance_code
from cesplit.setalg import before, before_then, check_split_history
from cesplit.tree import proc_friedberg

TEXTS = [corpus.HALT_ALL, corpus.HALT_EVEN, corpus.HALT_ODD, corpus.DIVERGE, corpus.HALT_SLOW]


@pytest.fixture(scope="module")
def halting_split():
    return run_friedberg(TEXTS, machine_index(0), 6_000)


def test_divering_input_gives_empty_halves():
    result = run_friedberg(TEXTS, machine_index(3), 2_000)
    last = 1_999
    assert result.kernel.w_at(result.a0, last) == frozenset()
    assert result.kernel.w_at(result.a1, last) == frozenset()
    assert [r for r in result.trace if r["op"] == "route"] == []


def test_split_discipline_at_every_stage(halting_split):
    r = halting_split
    assert check_split_history(r.kernel.log, r.a, r.a0, r.a1, 5_999) is None


def test_every_ball_lands_exactly_one_half_next_stage(halting_split):
    r = halting_split
    log = r.kernel.log
    for entry_stage, x in log.entries(r.a):
        s0 = log.entry_stage(r.a0, x)
        s1 = log.entry_stage(r.a1, x)
        assert (s0 is None) != (s1 is None)
        assert (s0 or s1) == entry_stage + 1


def test_counter_law_at_final_stage(halting_split):
    r = halting_split
    last = 5_999
    seen = {e for e, _ in r.splitter.counters}
    for e in seen:
        measured0 = before_then(r.kernel.log, e, r.a0, last)
        measured1 = before_then(r.kernel.log, e, r.a1, last)
        assert r.splitter.counters.get((e, 0), 0) == len(measured0)
        assert r.splitter.counters.get((e, 1), 0) == len(measured1)


def test_priority_soundness_least_code_scan(halting_split):
    # re-derive every decision with freshly built tables
    r = halting_split
    log = r.kernel.log
    counters = {}
    by_element = {}
    for t, idx, x in log.events():
        by_element.setdefault(x, []).append((t, idx))
    record_iter = iter([rec for rec in r.trace if rec["op"] == "route"])
    for entry_stage, x in log.entries(r.a):
        record = next(record_iter)
        assert record["x"] == x
        candidates = sorted(
            idx for t, idx in by_element.get(x, ()) if t < entry_stage
        )
        options = sorted(
            (balance_code(e, i, counters.get((e, i), 0) + 1), e, i,
             counters.get((e, i), 0) + 1)
            for e in candidates
            for i in (0, 1)
        )
        if not options:
            assert record["side"] == 0 and record["req"] is None
            side = 0
        else:
            _, e, i, k = options[0]
            assert record["req"] == [e, i, k]
            assert record["side"] == i
            side = i
        for e in candidates:
            counters[(e, side)] = counters.get((e, side), 0) + 1


def test_ball_meeting_nothing_goes_left():
    # first entrant of the input can never have been seen elsewhere first
    result = run_friedberg([corpus.HALT_ALL], machine_index(0), 50)
    first = [rec for rec in result.trace if rec["op"] == "route"][0]
    assert first["req"] is None and first["side"] == 0


def test_both_sides_eventually_fed(halting_split):
    r = halting_split
    last = 5_999
    e = machine_index(0)
    grown = before_then(r.kernel.log, e, r.a, last)
    if len(grown) >= 10:
        assert before_then(r.kernel.log, e, r.a0, last)
        assert before_then(r.kernel.log, e, r.a1, last)


def test_uniform_procedure_total_and_deterministic():
    kernel = Kernel(TEXTS)
    pairs = [proc_friedberg(kernel, e) for e in range(0, 25)]
    assert len({p for p in pairs}) == len(pairs)
    kernel.run_to(400)

    kernel2 = Kernel(TEXTS)
    [proc_friedberg(kernel2, e) for e in range(0, 25)]
    kernel2.run_to(400)
    assert list(kernel.log.events()) == list(kernel2.log.events())


def test_half_elements_subset_of_input(halting_split):
    r = halting_split
    last = 5_999
    union = r.kernel.w_at(r.a0, last) | r.kernel.w_at(r.a1, last)
    assert union <= r.kernel.w_at(r.a, last)
    assert r.kernel.w_at(r.a0, last) & r.kernel.w_at(r.a1, last) == frozenset()


def test_before_monotone_through_split(halting_split):
    r = halting_split
    for s in (100, 1_000, 3_000):
        assert before(r.kernel.log, r.a, r.a0, s) <= before(r.kernel.log, r.a, r.a0, s + 500)


def test_uniform_procedure_total_on_first_hundred():
    kernel = Kernel(TEXTS)
    pairs = [proc_friedberg(kernel, e) for e in range(101)]
    assert len(set(pairs)) == 101
    kernel.run_to(200)  # registration alone must never block stepping
