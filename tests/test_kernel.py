import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesplit import corpus
from cesplit.kernel import (
    DuplicateSlotError,
    EmissionConflictError,
    HostGenerator,
    Kernel,
    OutOfOrderStepError,
    StageNotSteppedError,
    host_index,
    machine_index,
)
from cesplit.machine import halts_within, parse_program
from cesplit.pairing import unpair


def log_digest(kernel):
    h = hashlib.sha256()
    for s, e, x in kernel.log.events():
        h.update(f"{s},{e},{x};".encode())
    return h.hexdigest()


def scripted_generator(slot, emissions, watch=None):
    """Emissions: dict stage -> list of elements."""

    def pull(stage):
        return emissions.get(stage, [])

    return HostGenerator(slot=slot, pull=pull, watch=watch)


# -- dovetail oracle ------------------------------------------------------
#
# Re-derives the kernel's documented schedule from scratch: a pair activated
# every third machine tick alternating dense/diagonal lanes, level queues
# served in the ruler sequence with doubling bursts, promotion one level down
# after an unfinished burst, and a halt released at the stage of its burst.


def oracle_machine_events(texts, stages, max_level=24, burst_cap=1024):
    from cesplit.machine import new_state, step_state

    programs = [parse_program(t) for t in texts]
    if not any(p is not None for p in programs):
        return []
    n = len(programs)
    dense = n + 64
    levels = [[] for _ in range(max_level + 1)]
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
                    if programs[u % n] is not None:
                        m, x = dense + u, v
                        break
            toggle = not toggle
            program = programs[m % n]
            levels[0].append([machine_index(m), x, new_state(program, x), program])
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
            if step_state(entry[3], entry[2]):
                events.append((stage, entry[0], entry[1]))
                halted = True
                break
        if not halted:
            levels[min(level + 1, max_level)].append(entry)
    return events


def test_machine_only_run_matches_oracle():
    texts = [corpus.HALT_ALL, corpus.HALT_EVEN, corpus.DIVERGE]
    kernel = Kernel(texts)
    kernel.run_to(3_000)
    got = list(kernel.log.events())
    assert got == oracle_machine_events(texts, 3_000)


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


def test_single_event_per_stage_and_determinism():
    texts = corpus.make_corpus(16)
    digests = []
    for _ in range(2):
        kernel = Kernel(texts)
        kernel.register_generator(scripted_generator(0, {10: [3, 4], 25: [9]}))
        kernel.run_to(2_000)
        stages = [s for s, _, _ in kernel.log.events()]
        assert len(stages) == len(set(stages))
        digests.append(log_digest(kernel))
    assert digests[0] == digests[1]


def test_empty_generator_enumerates_nothing():
    kernel = Kernel([corpus.HALT_ALL])
    idx = kernel.register_generator(scripted_generator(0, {}))
    kernel.run_to(500)
    assert kernel.w_at(idx, 499) == frozenset()


def test_generator_emission_lands_at_first_free_stage():
    # empty corpus: the queue is empty at stage 5, so the event lands there
    kernel = Kernel()
    idx = kernel.register_generator(scripted_generator(0, {5: [3]}))
    kernel.run_to(10)
    assert kernel.log.entry_stage(idx, 3) == 5
    # with a competitor emitting at the same stage from a smaller slot, the
    # FIFO holds our element back exactly one extra stage
    kernel2 = Kernel()
    first = kernel2.register_generator(scripted_generator(0, {5: [70]}))
    second = kernel2.register_generator(scripted_generator(1, {5: [71]}))
    kernel2.run_to(10)
    assert kernel2.log.entry_stage(first, 70) == 5
    assert kernel2.log.entry_stage(second, 71) == 6


def test_distinct_slots_distinct_indices():
    kernel = Kernel()
    i0 = kernel.register_generator(scripted_generator(0, {}))
    i1 = kernel.register_generator(scripted_generator(1, {}))
    assert i0 != i1
    with pytest.raises(DuplicateSlotError):
        kernel.register_generator(scripted_generator(0, {}))


def test_duplicate_emission_rejected():
    kernel = Kernel()
    kernel.register_generator(scripted_generator(0, {1: [5], 3: [5]}))
    with pytest.raises(EmissionConflictError):
        kernel.run_to(5)


def test_out_of_order_stepping_rejected():
    kernel = Kernel()
    kernel.step(0)
    with pytest.raises(OutOfOrderStepError):
        kernel.step(5)
    with pytest.raises(StageNotSteppedError):
        kernel.w_at(0, 50)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_w_at_monotone(cut):
    kernel = Kernel([corpus.HALT_ALL, corpus.HALT_ODD])
    kernel.run_to(401)
    e = machine_index(0)
    assert kernel.w_at(e, cut - 1) <= kernel.w_at(e, cut)


def test_fairness_every_pair_keeps_getting_ticks(monkeypatch):
    # count machine steps per simulated (program, input) pair: each pair owns
    # one state object from activation on, and divergers never release it
    from cesplit import kernel as kernel_mod

    states, ticks = [], {}
    new_state, step_state = kernel_mod.new_state, kernel_mod.step_state

    def counted_new_state(program, x):
        state = new_state(program, x)
        states.append(state)
        ticks[id(state)] = 0
        return state

    def counted_step_state(program, state):
        ticks[id(state)] += 1
        return step_state(program, state)

    monkeypatch.setattr(kernel_mod, "new_state", counted_new_state)
    monkeypatch.setattr(kernel_mod, "step_state", counted_step_state)
    kernel = Kernel([corpus.DIVERGE, corpus.DIVERGE])
    kernel.run_to(400)
    early = dict(ticks)
    kernel.run_to(3_000)
    assert len(early) > 100
    for key, n in early.items():
        assert ticks[key] > n


def test_fixed_point_generator_stream_equals_index_events():
    emissions = {3: [10], 7: [11, 12], 9: [13]}
    kernel = Kernel([corpus.HALT_ALL])
    idx = kernel.register_generator(scripted_generator(0, emissions))
    kernel.run_to(50)
    got = [x for _, x in kernel.log.entries(idx)]
    want = [x for stage in sorted(emissions) for x in emissions[stage]]
    assert got == want


def test_pad_machine_index():
    texts = [corpus.HALT_ALL, corpus.DIVERGE]
    kernel = Kernel(texts)
    e = machine_index(0)
    p = kernel.pad(e)
    assert p != e
    assert kernel.pad(p) not in (e, p)
    kernel.run_to(6_000)
    small = kernel.w_at(p, 5_999)
    assert small  # the pad lane has started enumerating the same program
    assert small <= kernel.w_at(e, 5_999)


def test_pad_host_index_echoes():
    kernel = Kernel()
    idx = kernel.register_generator(scripted_generator(0, {2: [8], 4: [9]}))
    kernel.run_to(6)
    p = kernel.pad(idx)  # late materialisation replays the backlog
    assert p != idx
    kernel.run_to(20)
    assert kernel.w_at(p, 19) == kernel.w_at(idx, 19) == frozenset({8, 9})
    q = kernel.pad(p)
    kernel.run_to(30)
    assert kernel.w_at(q, 29) == frozenset({8, 9})
    assert len({idx, p, q}) == 3


def test_host_index_layout():
    assert host_index(0, 0) == 1
    assert host_index(0, 0) != host_index(1, 0)
    assert all(host_index(s, p) % 2 == 1 for s in range(4) for p in range(4))
