from hypothesis import given, settings
from hypothesis import strategies as st

from cesplit import corpus
from cesplit.machine import (
    OP_DECJZ,
    OP_HALT,
    OP_INC,
    OP_JMP,
    parse_program,
    run_steps,
    step_state,
)
from conftest import halts_within, new_state

BUDGET = 2_000


def halting_set(text, up_to, budget=BUDGET):
    program = parse_program(text)
    return {x for x in range(up_to) if halts_within(program, x, budget) is not None}


def test_parse_example_line():
    program = parse_program("INC 0; DECJZ 0 3; JMP 0; HALT")
    assert program == ((0, 0), (1, 0, 3), (2, 0), (3,))


def test_invalid_texts_are_divergers():
    assert parse_program("") is None
    assert parse_program("NOP 3") is None
    assert parse_program("INC 99") is None  # register out of range
    assert parse_program("DECJZ 0 99") is None  # target out of range
    assert parse_program("JMP") is None
    assert halts_within(None, 0, BUDGET) is None


def test_halt_program_halts_immediately():
    assert halts_within(parse_program("HALT"), 7, BUDGET) == 1


def test_walking_past_the_end_halts():
    assert halts_within(parse_program("INC 0"), 0, BUDGET) == 2


def test_parity_programs():
    assert halting_set(corpus.HALT_EVEN, 20) == {x for x in range(20) if x % 2 == 0}
    assert halting_set(corpus.HALT_ODD, 20) == {x for x in range(20) if x % 2 == 1}


def test_diverger_never_halts():
    assert halting_set(corpus.DIVERGE, 10) == set()


def test_slow_halter_halts_everywhere():
    assert halting_set(corpus.HALT_SLOW, 15) == set(range(15))


def test_mod_family():
    for k in (2, 3, 5):
        for r in range(k):
            expect = {x for x in range(30) if x % k == r}
            assert halting_set(corpus.halt_mod(k, r), 30) == expect, (k, r)


def test_threshold_families():
    assert halting_set(corpus.halt_below(4), 12) == {0, 1, 2, 3}
    assert halting_set(corpus.halt_from(4), 12) == set(range(4, 12))


def test_make_corpus_deterministic_and_parseable_mostly():
    c1 = corpus.make_corpus(64)
    c2 = corpus.make_corpus(64)
    assert c1 == c2
    parsed = [parse_program(t) for t in c1]
    valid = [p for p in parsed if p is not None]
    assert len(valid) >= 48  # a few lines are deliberately unparsable


@st.composite
def programs(draw):
    """Well-formed programs over four registers; targets reach ``size``."""
    size = draw(st.integers(1, 8))
    reg, target = st.integers(0, 3), st.integers(0, size)
    instruction = st.one_of(
        st.tuples(st.just(OP_INC), reg),
        st.tuples(st.just(OP_DECJZ), reg, target),
        st.tuples(st.just(OP_JMP), target),
        st.just((OP_HALT,)),
    )
    return tuple(draw(st.lists(instruction, min_size=size, max_size=size)))


@settings(max_examples=300, deadline=None)
@given(programs(), st.integers(0, 6), st.integers(1, 1100))
def test_run_steps_is_step_state_up_to_the_budget(program, x, budget):
    # items between the registers and the pc are the caller's
    held = ("index", "input", "program")
    burst, stepped = new_state(program, x, *held), new_state(program, x, *held)
    want = settled = False
    for _ in range(budget):
        # a step of a jump to itself: the run sits there, not halted, for good
        pc = stepped[-1]
        settled = pc < len(program) and program[pc] == (OP_JMP, pc)
        if step_state(program, stepped):
            want = True
            break
    result = run_steps(program, burst, budget)
    assert bool(result) == want
    # None exactly when the budget stepped the run's jump to itself
    assert (result is None) == settled
    assert burst == stepped
    assert burst[-4:-1] == list(held)


def test_run_steps_halts_on_jump_to_the_virtual_slot():
    program = parse_program("DECJZ 0 2; JMP 0")
    assert program == ((OP_DECJZ, 0, 2), (OP_JMP, 0))
    state = new_state(program, 1)
    # DECJZ decrements, JMP, DECJZ on zero jumps to slot 2: four calls to halt
    assert run_steps(program, state, 3) is False and state == [0, 2]
    assert run_steps(program, state, 1) is True and state == [0, 2]


def test_run_steps_spends_the_whole_budget_of_a_burst():
    program = parse_program("INC 1; JMP 0")
    state = new_state(program, 5)
    assert run_steps(program, state, 1024) is False
    assert state == [5, 512, 0]
    assert run_steps(program, state, 1023) is False
    assert state == [5, 1024, 1]


# -- the self-loop rule: a JMP to its own address is a fixed point ----------


def stepped(program, state, budget):
    """``step_state`` up to ``budget`` times, stopping at the first True."""
    for _ in range(budget):
        if step_state(program, state):
            return True
    return False


def test_run_steps_settles_a_jump_to_itself_at_once():
    program = parse_program("JMP 0")
    state = new_state(program, 7)
    assert run_steps(program, state, 1024) is None
    assert state == [7, 0]
    # the next burst settles it again, at once
    assert run_steps(program, state, 1) is None
    assert state == [7, 0]


def test_run_steps_reaches_a_self_loop_mid_burst():
    # halt_below(3) on 5: three decrements, then JMP 3 at slot 3 for good;
    # a budget of three arrives there without stepping it, so the burst
    # ends unsettled and the next one settles
    program = parse_program(corpus.halt_below(3))
    assert program[3] == (OP_JMP, 3)
    for budget in (3, 4, 5, 1024):
        burst, slow = new_state(program, 5), new_state(program, 5)
        assert stepped(program, slow, budget) is False
        assert run_steps(program, burst, budget) is (False if budget == 3 else None)
        assert burst == slow
    assert burst == [2, 3]


def test_run_steps_does_not_settle_a_decjz_to_itself():
    # x rounds of DECJZ 0 / JMP 0 count register 0 down, then DECJZ 1 2 at
    # slot 2 jumps to itself on the zero register 1 for good
    program = parse_program("DECJZ 0 2; JMP 0; DECJZ 1 2; HALT")
    for budget in (3, 11, 12, 1024):
        burst, slow = new_state(program, 5), new_state(program, 5)
        assert run_steps(program, burst, budget) is stepped(program, slow, budget) is False
        assert burst == slow
    assert burst == [0, 0, 2]
