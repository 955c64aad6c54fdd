"""Shared fixtures: scripted host sets, and per-generator poll records; the
one-step machine oracles the tests check the kernel's bursts against; the
stagewise split verdict the one-pass split check is checked against; the
covered prefix and the universe frontier the complement probe is checked
against; hand-built trace files, written one JSON record a line; and the
tree's full left order, which the geometry's oracles use."""

import json
from collections import Counter, defaultdict
from dataclasses import dataclass

import pytest

from cesplit.geometry import diverges_left
from cesplit.kernel import HostGenerator, Kernel
from cesplit.machine import register_count, step_state


def new_state(program, x, *held):
    """Mutable configuration [r0, ..., r_{R-1}, *held, pc] at pc 0, registers
    first and pc last, as ``step_state`` and ``run_steps`` read it; input goes
    to register 0.  ``held`` is what a caller keeps between the two (the
    kernel keeps a pair's index, input and program there)."""
    state = [0] * register_count(program) + [*held, 0]
    state[0] = x
    return state


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


def universe_frontier(log, stage):
    """The largest element released by the stage, by a walk of the whole
    log; 0 when none is above 0."""
    best = 0
    for t, _, x in log.events():
        if t > stage:
            break
        if x > best:
            best = x
    return best


def as_records(trace):
    """A run's trace as the record dicts of its file, events first."""
    events = [{"op": "event", "s": s, "e": e, "x": x} for s, e, x in trace.log.events()]
    return events + list(trace.records)


def write_records(path, records):
    """Write the records one a line, as ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` spells them (the writer's own bytes for a
    record that fits its row); the path, for ``read_trace``."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return path


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


def is_left_of(a: str, b: str) -> bool:
    """The tree's full left order: a proper prefix, or a leftward divergence."""
    if a != b and b.startswith(a):
        return True
    return diverges_left(a, b)
