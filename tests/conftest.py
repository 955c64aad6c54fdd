"""Shared fixtures: scripted host sets, and per-generator poll records; and
the one-step machine oracles the tests check the kernel's bursts against."""

from collections import Counter, defaultdict

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
