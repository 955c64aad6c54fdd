from cesplit import corpus
from cesplit.machine import parse_program
from conftest import halts_within

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
