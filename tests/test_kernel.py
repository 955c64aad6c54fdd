import hashlib
from itertools import count, islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cesplit import corpus
from cesplit.kernel import (
    EventLog,
    HostGenerator,
    Kernel,
    KernelError,
    _BURSTS,
    _SETTLED,
    host_index,
    machine_index,
)
from cesplit.machine import OP_DECJZ, OP_HALT, OP_INC, OP_JMP, parse_program, step_state
from cesplit.pairing import unpair
from conftest import halts_within, new_state


def log_digest(kernel):
    h = hashlib.sha256()
    for s, e, x in kernel.log.events():
        h.update(f"{s},{e},{x};".encode())
    return h.hexdigest()


# -- dovetail oracle ------------------------------------------------------
#
# Re-derives the kernel's documented schedule from scratch: a pair activated
# every third machine tick alternating dense/diagonal lanes, level queues
# served in the ruler sequence with doubling bursts, promotion one level down
# after an unfinished burst, and a halt released at the stage of its burst.
# Each burst steps ``step_state`` one instruction at a time, a settled pair
# too.


def oracle_machine_run(texts, stages, max_level=24, burst_cap=1024):
    """The events and the ladder: per level, [index, input, state, program,
    settled] of each place, where settled says a burst has stepped a JMP to
    its own address."""
    programs = [parse_program(t) for t in texts]
    levels = [[] for _ in range(max_level + 1)]
    if not any(p is not None for p in programs):
        return [], levels
    n = len(programs)
    dense = n + 64
    act_primary = act_pad = 0
    toggle = False
    mtick = stick = 0
    events = []
    for stage in range(stages):
        mtick += 1
        if (mtick - 1) % 3 == 0:
            if not toggle:
                while True:
                    k = act_primary
                    act_primary += 1
                    m, x = k % dense, k // dense
                    if programs[m % n] is not None:
                        break
            else:
                while True:
                    u, v = unpair(act_pad)
                    act_pad += 1
                    if programs[(dense + u) % n] is not None:
                        m, x = dense + u, v
                        break
            toggle = not toggle
            program = programs[m % n]
            levels[0].append([machine_index(m), x, new_state(program, x), program, False])
        stick += 1
        want = min((stick & -stick).bit_length() - 1, max_level)
        level = None
        for lvl in range(want, -1, -1):
            if levels[lvl]:
                level = lvl
                break
        if level is None:
            for lvl in range(want + 1, max_level + 1):
                if levels[lvl]:
                    level = lvl
                    break
        if level is None:
            continue
        entry = levels[level].pop(0)
        burst = burst_cap if level >= 10 else 1 << level
        halted = False
        for _ in range(burst):
            pc = entry[2][-1]
            if pc < len(entry[3]) and entry[3][pc] == (OP_JMP, pc):
                entry[4] = True
            if step_state(entry[3], entry[2]):
                events.append((stage, entry[0], entry[1]))
                halted = True
                break
        if not halted:
            levels[min(level + 1, max_level)].append(entry)
    return events, levels


def oracle_machine_events(texts, stages, **schedule):
    return oracle_machine_run(texts, stages, **schedule)[0]


def assert_kernel_is_oracle(kernel, texts, stages):
    """The kernel run to ``stages`` has the oracle's log, and its ladder is
    the oracle's place for place: a live entry [r0, ..., index, input,
    program, pc] holds the oracle's registers and pc, and ``_SETTLED`` stands
    exactly where the oracle's pair has stepped its jump to itself.  Returns
    the oracle's ladder."""
    events, levels = oracle_machine_run(texts, stages)
    assert list(kernel.log.events()) == events
    assert [list(queue) for queue in kernel._levels] == [
        [_SETTLED if settled else [*state[:-1], index, x, program, state[-1]]
         for index, x, state, program, settled in queue]
        for queue in levels
    ]
    return levels


def closed_form_activations(texts, how_many):
    """The activation order from the lanes' closed forms: dense code
    (k % (n+64), k // (n+64)) and padding code n+64+u with (u, x) = unpair(k),
    alternately, each lane skipping invalid programs; each as the ladder
    entry [r0, ..., r_{R-1}, index, input, program, pc] of a fresh run."""
    programs = [parse_program(t) for t in texts]
    n = len(programs)
    dense = n + 64

    def lane(decode):
        for k in count():
            m, x = decode(k)
            if programs[m % n] is not None:
                yield m, x

    lanes = (lane(lambda k: (k % dense, k // dense)),
             lane(lambda k: (dense + unpair(k)[0], unpair(k)[1])))
    out = []
    for i in range(how_many):
        m, x = next(lanes[i % 2])
        program = programs[m % n]
        out.append(new_state(program, x, machine_index(m), x, program))
    return out


@pytest.mark.parametrize("texts", [
    ["NOP 0", corpus.HALT_ALL, corpus.HALT_EVEN],  # invalid at code 0
    # the last dense code, 4 + 63, decodes to program 67 % 4 = 3
    [corpus.HALT_ALL, corpus.HALT_EVEN, corpus.DIVERGE, "NOP 3"],
    ["NOP 0"] * 5 + [corpus.HALT_SLOW] + ["NOP 6"] * 3,  # one valid program
])
def test_activation_stream_is_the_closed_form_lanes(texts):
    got = list(islice(Kernel(texts)._fresh, 3_000))
    assert got == closed_form_activations(texts, 3_000)
    # every activation of a code holds the one index int made for the code
    # (some past 256, where Python stops sharing small ints by itself), and
    # no entry shares its list with another
    held = {}
    for entry in got:
        assert held.setdefault(entry[-4], entry[-4]) is entry[-4]
    assert max(held) > 256
    assert len({id(entry) for entry in got}) == len(got)


def test_machine_only_run_matches_oracle():
    texts = [corpus.HALT_ALL, corpus.HALT_EVEN, corpus.DIVERGE]
    kernel = Kernel(texts)
    kernel.run_to(3_000)
    got = list(kernel.log.events())
    assert got == oracle_machine_events(texts, 3_000)


# running time about 3x**2: pairs with larger inputs halt only in bursts of
# the deep levels, where BURST_CAP bounds the burst
QUADRATIC = ("DECJZ 0 9; INC 1; DECJZ 1 5; INC 2; JMP 2; DECJZ 2 8; INC 1; JMP 5;"
             " JMP 0; HALT")
# a diverger that never settles: it counts register 1 up for ever
COUNT_UP = "INC 1; JMP 0"


def test_capped_bursts_match_oracle():
    kernel = Kernel([QUADRATIC])
    kernel.run_to(100_000)
    got = list(kernel.log.events())
    assert got == oracle_machine_events([QUADRATIC], 100_000)
    # the run is sensitive to the cap: a smaller one changes its events
    assert got != oracle_machine_events([QUADRATIC], 100_000, burst_cap=512)


# program texts by how their pairs run: settled at pc 0; settled mid-program
# on some inputs (the below/from/mod shapes); looping without ever settling
# (DECJZ 1 0 jumps to itself, which does not settle a pair); halting;
# invalid
DRAWN_TEXTS = st.one_of(
    st.just(corpus.DIVERGE),
    st.integers(1, 6).map(corpus.halt_below),
    st.integers(1, 6).map(corpus.halt_from),
    st.integers(2, 5).flatmap(lambda k: st.integers(0, k - 1).map(
        lambda r: corpus.halt_mod(k, r))),
    st.sampled_from([COUNT_UP, "DECJZ 1 0", "INC 0; JMP 0"]),
    st.sampled_from([corpus.HALT_ALL, corpus.HALT_EVEN, corpus.HALT_SLOW, QUADRATIC]),
    st.sampled_from(["NOP 3", "JMP 9", "INC"]),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(DRAWN_TEXTS, min_size=1, max_size=10))
def test_drawn_corpus_matches_oracle(texts):
    kernel = Kernel(texts)
    kernel.run_to(4_000)
    assert list(kernel.log.events()) == oracle_machine_events(texts, 4_000)


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


NAMES = {OP_INC: "INC", OP_DECJZ: "DECJZ", OP_JMP: "JMP", OP_HALT: "HALT"}


def render(program):
    """The text of a packed program."""
    return "; ".join(" ".join([NAMES[ins[0]], *map(str, ins[1:])]) for ins in program)


@settings(max_examples=150, deadline=None)
@given(st.lists(programs(), min_size=1, max_size=3), st.integers(1, 3_000))
def test_drawn_programs_match_oracle(drawn, stages):
    # drawn programs jump to the virtual slot past their end and to
    # themselves, which settles a pair, and DECJZ to themselves, which
    # does not
    texts = [render(program) for program in drawn]
    assert [parse_program(text) for text in texts] == drawn
    kernel = Kernel(texts)
    kernel.run_to(stages)
    assert_kernel_is_oracle(kernel, texts, stages)


def test_halt_at_the_virtual_slot_matches_oracle():
    # on input x: x rounds of DECJZ 0 / JMP 0, then DECJZ on zero jumps to
    # slot 2, and finding the run there uses a step: 2x + 2 steps to halt
    texts = ["DECJZ 0 2; JMP 0"]
    assert parse_program(texts[0]) == ((OP_DECJZ, 0, 2), (OP_JMP, 0))
    kernel = Kernel(texts)
    kernel.run_to(3_000)
    assert_kernel_is_oracle(kernel, texts, 3_000)
    assert {x for _, _, x in kernel.log.events()} >= set(range(10))


def test_bursts_spend_their_whole_budget():
    # COUNT_UP never halts or settles: a pair at level L has run the bursts
    # of levels 0 to L-1 in full (1, 2, ..., 512, then 1024 each), and s
    # steps leave (s + 1) // 2 in register 1 and the pc at s % 2
    texts = [COUNT_UP]
    kernel = Kernel(texts)
    kernel.run_to(20_000)
    assert_kernel_is_oracle(kernel, texts, 20_000)
    deep = 0
    for level, queue in enumerate(kernel._levels):
        steps = sum(map(len, _BURSTS[:level]))
        for entry in queue:
            assert entry[0] == entry[-3]  # the input, untouched
            assert entry[1] == (steps + 1) // 2 and entry[-1] == steps % 2
        if level >= 11:
            deep += len(queue)  # past the bursts of 1023 and then 1024 steps
    assert deep > 0


def settled_levels(kernel):
    """The levels that hold a ``_SETTLED`` place, and those with a live entry."""
    settled = {level for level, queue in enumerate(kernel._levels) if _SETTLED in queue}
    live = {level for level, queue in enumerate(kernel._levels)
            if any(place is not _SETTLED for place in queue)}
    return settled, live


def test_self_jump_settles_at_once():
    # every pair of JMP 0 settles with the first step of its first burst, and
    # its place gives the HALT pairs the schedule of stepping it for ever
    texts = [corpus.DIVERGE, corpus.HALT_ALL]
    kernel = Kernel(texts)
    kernel.run_to(3_000)
    assert_kernel_is_oracle(kernel, texts, 3_000)
    settled, live = settled_levels(kernel)
    assert live <= {0} and len(settled) > 5


# on inputs x >= k, k decrements bring the run to JMP k at slot k: with k = 3
# it arrives with the last step of the level-1 burst, and the level-2 burst
# settles it at once; with k = 4 the level-2 burst arrives with its first
# step and settles it with its second
@pytest.mark.parametrize("k", [3, 4])
def test_self_jump_settles_mid_program(k):
    texts = [corpus.halt_below(k)]
    kernel = Kernel(texts)
    kernel.run_to(3_000)
    assert_kernel_is_oracle(kernel, texts, 3_000)
    settled, live = settled_levels(kernel)
    assert min(settled) == 3 and live <= {0, 1, 2}


def test_decjz_to_itself_never_settles():
    # x rounds of DECJZ 0 / JMP 0 count register 0 down, then DECJZ 1 2 at
    # slot 2 jumps to itself on the zero register 1 for good, never settled
    texts = ["DECJZ 0 2; JMP 0; DECJZ 1 2; HALT"]
    kernel = Kernel(texts)
    kernel.run_to(3_000)
    assert_kernel_is_oracle(kernel, texts, 3_000)
    settled, live = settled_levels(kernel)
    assert not settled and max(live) >= 8
    assert sum(entry[-1] == 2 for queue in kernel._levels for entry in queue) > 100


def test_halting_semantics_respected():
    texts = [corpus.HALT_EVEN]
    kernel = Kernel(texts)
    kernel.run_to(4_000)
    program = parse_program(corpus.HALT_EVEN)
    for _, e, x in kernel.log.events():
        if e == machine_index(0):
            assert halts_within(program, x, 10_000) is not None


def test_diverging_index_stays_empty():
    kernel = Kernel([corpus.DIVERGE, corpus.HALT_ALL])
    kernel.run_to(2_000)
    assert kernel.w_at(machine_index(0), 1_999) == frozenset()
    assert kernel.w_at(machine_index(1), 1_999) != frozenset()


def test_single_event_per_stage_and_determinism(scripted):
    texts = corpus.make_corpus(16)
    digests = []
    for _ in range(2):
        kernel = Kernel(texts)
        scripted(kernel, 0, {10: [3, 4], 25: [9]})
        kernel.run_to(2_000)
        stages = [s for s, _, _ in kernel.log.events()]
        assert len(stages) == len(set(stages))
        digests.append(log_digest(kernel))
    assert digests[0] == digests[1]


def test_empty_generator_enumerates_nothing(scripted):
    kernel = Kernel([corpus.HALT_ALL])
    idx = scripted(kernel, 0, {})
    kernel.run_to(500)
    assert kernel.w_at(idx, 499) == frozenset()


def test_generator_emission_lands_at_first_free_stage(scripted):
    # empty corpus: the queue is empty at stage 5, so the event lands there
    kernel = Kernel()
    idx = scripted(kernel, 0, {5: [3]})
    kernel.run_to(10)
    assert kernel.log.entry_stage(idx, 3) == 5
    # with a competitor emitting at the same stage from a smaller slot, the
    # FIFO holds our element back exactly one extra stage
    kernel2 = Kernel()
    first = scripted(kernel2, 0, {5: [70]})
    second = scripted(kernel2, 1, {5: [71]})
    kernel2.run_to(10)
    assert kernel2.log.entry_stage(first, 70) == 5
    assert kernel2.log.entry_stage(second, 71) == 6


def test_distinct_slots_distinct_indices(scripted):
    kernel = Kernel()
    i0 = scripted(kernel, 0, {})
    i1 = scripted(kernel, 1, {})
    assert i0 != i1
    with pytest.raises(KernelError, match="slot 0 already registered"):
        scripted(kernel, 0, {})


def test_duplicate_emission_rejected(scripted):
    kernel = Kernel()
    scripted(kernel, 0, {1: [5], 3: [5]})
    with pytest.raises(KernelError, match="element 5 already entered index"):
        kernel.run_to(5)


def test_duplicate_emission_within_one_poll_rejected(scripted):
    # the element is released once, and its second copy fails at release
    kernel = Kernel()
    index = scripted(kernel, 0, {1: [5, 5]})
    with pytest.raises(KernelError, match="element 5 already entered index"):
        kernel.run_to(5)
    assert kernel.log.entry_stage(index, 5) is not None and len(kernel.log) == 1


def test_out_of_order_stepping_rejected():
    kernel = Kernel()
    kernel.run_to(kernel.next_stage + 1)
    with pytest.raises(KernelError, match="stage 50 not reached; kernel is at 1"):
        kernel.w_at(0, 50)
    log = EventLog()
    log.append(3, 0, 7)
    for stage in (3, 2):
        with pytest.raises(KernelError, match=f"stage {stage} is not past 3"):
            log.append(stage, 1, 8)


@st.composite
def event_logs(draw):
    """A log of distinct (index, element) pairs over indices 0 to 5, each
    released some stages past the last."""
    log, stage = EventLog(), -1
    for e, x in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 12)),
                              unique=True, max_size=40)):
        stage += draw(st.integers(1, 3))
        log.append(stage, e, x)
    return log


@settings(max_examples=100, deadline=None)
@given(event_logs())
def test_entries_and_count_are_the_events_of_one_index(log):
    for index in range(7):  # index 6 never enters
        want = [(s, x) for s, e, x in log.events() if e == index]
        assert log.count(index) == len(want)
        for start in range(len(want) + 3):  # starts past the end read nothing
            got = log.entries(index, start)
            assert iter(got) is got
            assert list(got) == want[start:]
        assert list(log.entries(index)) == want
        for stage in range(log.last_stage + 2):
            assert log.members_at(index, stage) == {x for s, x in want if s <= stage}


def test_event_log_holds_no_tuple_per_event():
    # the log's columns share the event's ints: a 1e5-stage run's log takes
    # about 90 bytes per event, where one (stage, element) tuple per entry
    # took about 134
    import tracemalloc

    kernel = Kernel(corpus.BASIC)
    kernel.run_to(100_000)
    events = list(kernel.log.events())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = EventLog()
        for s, e, x in events:
            log.append(s, e, x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(events) < 112


def test_live_ladder_entries_are_flat():
    # a live pair is one list of ints and its program: no register list
    # hangs off it
    texts = [COUNT_UP, corpus.HALT_SLOW, QUADRATIC, corpus.HALT_EVEN]
    kernel = Kernel(texts)
    kernel.run_to(5_000)
    live = [entry for queue in kernel._levels for entry in queue if entry is not _SETTLED]
    assert len(live) > 100
    programs = [parse_program(t) for t in texts]
    for entry in live:
        assert not any(isinstance(item, list) for item in entry)
        assert entry[-2] in programs


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_w_at_monotone(cut):
    kernel = Kernel([corpus.HALT_ALL, corpus.HALT_ODD])
    kernel.run_to(401)
    e = machine_index(0)
    assert kernel.w_at(e, cut - 1) <= kernel.w_at(e, cut)


def test_fairness_every_pair_keeps_getting_ticks():
    # divergers that never settle keep their entry and keep being served:
    # the counter register of every pair live at stage 400 grows by 3,000
    kernel = Kernel([COUNT_UP, COUNT_UP])
    kernel.run_to(400)
    early = [(entry, entry[1]) for queue in kernel._levels for entry in queue]
    kernel.run_to(3_000)
    assert len(early) > 100
    places = [place for queue in kernel._levels for place in queue]
    assert _SETTLED not in places
    live = {id(entry) for entry in places}
    for entry, counter in early:
        assert id(entry) in live and entry[1] > counter


def test_settled_pair_runs_no_burst_after_settling():
    # every pair of DIVERGE settles in its first burst, and halt_below(3)'s
    # pairs on inputs past 2 settle mid-program at JMP 3; a settled pair's
    # ladder place keeps being served, so the schedule is the oracle's
    texts = [corpus.DIVERGE, corpus.halt_below(3), corpus.HALT_ALL]
    diverge, below = parse_program(corpus.DIVERGE), parse_program(corpus.halt_below(3))
    kernel = Kernel(texts)
    for stages in (2_000, 6_000):
        kernel.run_to(stages)
        levels = assert_kernel_is_oracle(kernel, texts, stages)
        places = {diverge: [], below: []}
        for level, queue, want in zip(count(), kernel._levels, levels):
            for place, (_, _, _, program, _) in zip(queue, want):
                if level and program in places:
                    places[program].append(place)
        # a DIVERGE place is _SETTLED from its first service on
        assert len(places[diverge]) > 100
        assert all(place is _SETTLED for place in places[diverge])
        assert places[below].count(_SETTLED) > 50


def test_fixed_point_generator_stream_equals_index_events(scripted):
    emissions = {3: [10], 7: [11, 12], 9: [13]}
    kernel = Kernel([corpus.HALT_ALL])
    idx = scripted(kernel, 0, emissions)
    kernel.run_to(50)
    got = [x for _, x in kernel.log.entries(idx)]
    want = [x for stage in sorted(emissions) for x in emissions[stage]]
    assert got == want


def test_pad_machine_index():
    # every m >= len(corpus) is a padding code for program m % len(corpus)
    texts = [corpus.HALT_ALL, corpus.DIVERGE]
    kernel = Kernel(texts)
    e = machine_index(0)
    p = machine_index(0 + len(texts))
    assert p != e
    kernel.run_to(6_000)
    small = kernel.w_at(p, 5_999)
    assert small  # the pad lane has started enumerating the same program
    assert small <= kernel.w_at(e, 5_999)


def test_host_index_layout():
    assert host_index(0) == 1
    assert host_index(0) != host_index(1)
    assert all(host_index(s) % 2 == 1 for s in range(4))


# -- wakes -------------------------------------------------------------------


def test_wake_at_polls_exactly_at_the_booked_stages():
    kernel = Kernel([corpus.HALT_ALL])
    polled = []

    def pull(stage):
        polled.append(stage)
        if stage < 30:
            kernel.wake_at(idx, stage + 7)
        return [stage]

    idx = kernel.register_generator(HostGenerator(slot=0, pull=pull, wake="timer"))
    kernel.wake_at(idx, 3)
    kernel.wake_at(idx, 3)  # a second booking of one stage polls once
    kernel.run_to(60)
    assert polled == [3, 10, 17, 24, 31]
    assert [x for _, x in kernel.log.entries(idx)] == polled


def test_wake_at_must_lie_ahead():
    kernel = Kernel()
    errors = []

    def pull(stage):
        for at in (stage - 1, stage):
            try:
                kernel.wake_at(idx, at)
            except KernelError:
                errors.append(at)
        return ()

    idx = kernel.register_generator(HostGenerator(slot=0, pull=pull, wake="timer"))
    kernel.wake_at(idx, 0)
    kernel.run_to(5)
    assert errors == [-1, 0]
    with pytest.raises(KernelError):
        kernel.wake_at(idx, 4)  # stage 4 has been stepped
    kernel.wake_at(idx, 5)
    woken = kernel.register_generator(HostGenerator(slot=1, pull=pull, wake=()))
    with pytest.raises(KernelError):
        kernel.wake_at(woken, 9)  # only a timer source books wakes
    with pytest.raises(KernelError):
        kernel.register_generator(HostGenerator(slot=2, pull=pull, wake="stage"))


@pytest.mark.parametrize("start, pace, phase", [(0, 1, 0), (0, 16, 4), (5, 7, 3), (5, 5, 10),
                                               (9, 4, -1)])
def test_pace_polls_at_the_stages_of_its_phase(start, pace, phase):
    kernel = Kernel([corpus.HALT_ALL])
    polled = []

    def pull(stage):
        polled.append(stage)
        return [stage]

    idx = kernel.register_generator(HostGenerator(slot=0, pull=pull, wake="timer"))
    kernel.run_to(start)
    kernel.pace(idx, pace, phase)
    kernel.run_to(80)
    assert polled == [s for s in range(start, 80) if s % pace == phase % pace]
    assert [x for _, x in kernel.log.entries(idx)] == polled


def test_pace_is_the_kernels_schedule():
    # a wake polls a paced source once more and moves none of its stages;
    # only a timer source is paced, and only at a positive pace
    kernel = Kernel()
    polled = []
    idx = kernel.register_generator(
        HostGenerator(slot=0, pull=lambda stage: polled.append(stage) or (), wake="timer"))
    kernel.pace(idx, 7, phase=3)
    kernel.run_to(30)
    kernel.wake(idx)
    kernel.run_to(60)
    assert polled == [3, 10, 17, 24, 30, 31, 38, 45, 52, 59]
    woken = kernel.register_generator(HostGenerator(slot=1, pull=lambda stage: (), wake=()))
    drained = kernel.register_generator(HostGenerator(slot=2, pull=lambda stage: (), wake="drain"))
    for index, pace in ((woken, 7), (drained, 7), (host_index(9), 7), (idx, 0), (idx, -3)):
        with pytest.raises(KernelError):
            kernel.pace(index, pace)
    kernel.run_to(70)
    assert polled[-1] == 66


def test_wake_needs_a_registered_generator():
    # a wake of an index that no generator holds is a construction bug
    kernel = Kernel()
    kernel.register_generator(HostGenerator(slot=0, pull=lambda stage: (), wake=()))
    with pytest.raises(KernelError, match=f"index {host_index(1)} has no registered generator"):
        kernel.wake(host_index(1))


@pytest.mark.parametrize("wake", ["timers", "", [1], None])
def test_unknown_wake_rejected(wake):
    kernel = Kernel()
    with pytest.raises(KernelError):
        kernel.register_generator(HostGenerator(slot=0, pull=lambda stage: (), wake=wake))
    assert kernel.free_slot() == 0  # a rejected generator takes no slot


def test_drain_source_polled_only_when_the_stage_starts_drained(scripted):
    kernel = Kernel([corpus.HALT_ALL])
    backlog_at_start, drained = {}, []

    def probe(stage):
        backlog_at_start[stage] = kernel.backlog  # the first source polled
        kernel.wake_at(probe_idx, stage + 1)
        return ()

    def drain(stage):
        drained.append(stage)
        return [stage] if stage % 5 == 0 else ()

    probe_idx = kernel.register_generator(HostGenerator(slot=0, pull=probe, wake="timer"))
    kernel.wake_at(probe_idx, 0)
    scripted(kernel, 1, {4: [1, 2, 3], 20: [4, 5, 6, 7]})
    kernel.register_generator(HostGenerator(slot=2, pull=drain, wake="drain"))
    kernel.run_to(40)
    assert drained == [s for s, n in backlog_at_start.items() if n == 0]
    assert len(drained) < 40


def test_same_stage_order_puts_due_sources_before_woken_generators(scripted):
    # a watch-driven generator at slot 0 and two sources above it emit at
    # stage 6: the sources go first, in registration order, then slot 0
    kernel = Kernel()
    released = scripted(kernel, 5, {5: [1]})

    def watching(stage):
        return [70] if stage == 6 else ()

    watcher = kernel.register_generator(HostGenerator(slot=0, pull=watching, wake=(released,)))

    def timed(stage):
        return [71] if stage == 6 else ()

    def drained(stage):
        return [72] if stage == 6 else ()

    drain_idx = kernel.register_generator(HostGenerator(slot=9, pull=drained, wake="drain"))
    timer_idx = kernel.register_generator(HostGenerator(slot=8, pull=timed, wake="timer"))
    kernel.wake_at(timer_idx, 6)
    kernel.run_to(12)
    order = [(e, x) for s, e, x in kernel.log.events() if s >= 6]
    assert order == [(drain_idx, 72), (timer_idx, 71), (watcher, 70)]


# -- stretches -----------------------------------------------------------------

DRIVE_STAGES = 1_500


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(valid=st.booleans(), watched=st.integers(0, 70), drain=st.booleans(),
       booked=st.lists(st.integers(0, DRIVE_STAGES), max_size=8),
       cuts=st.lists(st.integers(0, DRIVE_STAGES), max_size=6))
def test_stepping_is_the_same_however_the_kernel_is_driven(
        polls, valid, watched, drain, booked, cuts):
    # a watcher on a machine index, a timer source that emits a small batch
    # at each booked stage and books more, and perhaps a drain source; the
    # kernel stepped one stage at a time, to the end at once, and in chunks
    texts = corpus.make_corpus(64) if valid else ["NOP 0", "JMP 9", ""]
    polled, _ = polls

    def run(drive):
        polled.clear()
        kernel = Kernel(texts)

        def timed(stage):
            if stage % 5 == 0:
                kernel.wake_at(timer, stage + 1 + stage % 37)
            return range(4 * stage, 4 * stage + stage % 4)

        kernel.register_generator(
            HostGenerator(0, lambda stage: [stage], (machine_index(watched),)))
        timer = kernel.register_generator(HostGenerator(1, timed, "timer"))
        for stage in booked:
            kernel.wake_at(timer, stage)
        if drain:
            kernel.register_generator(
                HostGenerator(2, lambda stage: [stage] if stage % 11 == 0 else (), "drain"))
        drive(kernel)
        return (list(kernel.log.events()), {i: list(s) for i, s in polled.items()},
                kernel.max_backlog, kernel.next_stage)

    def per_stage(kernel):
        for _ in range(DRIVE_STAGES):
            kernel.run_to(kernel.next_stage + 1)

    def in_chunks(kernel):
        for stage in sorted(cuts) + [DRIVE_STAGES]:
            kernel.run_to(stage)

    want = run(per_stage)
    assert want[3] == DRIVE_STAGES
    assert run(lambda kernel: kernel.run_to(DRIVE_STAGES)) == want
    assert run(in_chunks) == want
