"""Shared fixtures: scripted host sets, and per-generator poll records; the
one-step machine oracles the tests check the kernel's bursts against; the
stagewise split verdict the one-pass split check is checked against; and the
covered prefix the complement probe is checked against."""

from collections import Counter, defaultdict
from dataclasses import dataclass

import pytest

from cesplit.kernel import HostGenerator, Kernel
from cesplit.machine import register_count, step_state


def new_state(program, x):
    """Mutable configuration [pc, registers]; input goes to register 0."""
    regs = [0] * register_count(program)
    regs[0] = x
    return [0, regs]


def halts_within(program, x, budget):
    """Tick count at which the run halts under ``step_state``, or None if it
    survives the budget (or the program is None, an invalid text)."""
    if program is None:
        return None
    state = new_state(program, x)
    for tick in range(budget):
        if step_state(program, state):
            return tick + 1
    return None


@dataclass(frozen=True)
class SplitVerdict:
    ok: bool
    stage: int
    overlap: tuple = ()
    extra: tuple = ()
    missing: tuple = ()
    settling: tuple = ()


def is_split(log, a, a0, a1, s, settle=1):
    """Check a0 |_| a1 = a at stage s.

    One released event per stage means an entrant of a can reach its half no
    earlier than the following stage, so elements that entered a within the
    last ``settle`` stages are reported as settling rather than missing.
    ``settle=0`` gives the strict reading.
    """
    w0 = log.members_at(a0, s)
    w1 = log.members_at(a1, s)
    wa = log.members_at(a, s)
    overlap = sorted(w0 & w1)
    extra = sorted((w0 | w1) - wa)
    missing, settling = [], []
    for x in sorted(wa - (w0 | w1)):
        if log.entry_stage(a, x) > s - settle:
            settling.append(x)
        else:
            missing.append(x)
    ok = not overlap and not extra and not missing
    return SplitVerdict(ok, s, tuple(overlap), tuple(extra), tuple(missing), tuple(settling))


def covered_prefix(log, indices, stage):
    """The least number that none of the sets holds by the stage."""
    union = set()
    for idx in indices:
        union |= log.members_at(idx, stage)
    n = 0
    while n in union:
        n += 1
    return n


def register_scripted(kernel, slot, emissions):
    """Register a timer source that emits ``emissions[stage]`` at each
    scripted stage (a dict stage -> list of elements); its index."""
    index = kernel.register_generator(
        HostGenerator(slot, lambda stage: emissions.get(stage, []), "timer")
    )
    for stage in emissions:
        kernel.wake_at(index, stage)
    return index


@pytest.fixture
def scripted():
    return register_scripted


@pytest.fixture
def polls(monkeypatch):
    """(polled, emitted): the stages each generator was polled at and the
    number of elements it emitted, by index, for every generator registered
    while the test runs."""
    polled, emitted = defaultdict(list), Counter()
    register = Kernel.register_generator

    def counting(kernel, gen):
        pull, index = gen.pull, []

        def counted(stage):
            out = list(pull(stage))
            polled[index[0]].append(stage)
            emitted[index[0]] += len(out)
            return out

        gen.pull = counted
        index.append(register(kernel, gen))
        return index[0]

    monkeypatch.setattr(Kernel, "register_generator", counting)
    return polled, emitted
