"""Deterministic single-event enumeration kernel.

One global stage clock drives both machine simulation and host generators.
Each stage releases at most one membership event (stage, index, element); all
sources share a single FIFO, and machine simulation only advances on stages
with an empty FIFO.  That pause-and-resume discipline is what lets constructed
sets keep pace with their inputs without ever violating the one-event
convention.

Generators are polled only on the stages that can give them work, as their
``wake`` says: a generator that watches indices is polled when one of them
releases an event or ``Kernel.wake`` asks for it; a timer source at the
stages it books with ``Kernel.wake_at`` (a timer heap); a drain source on the
stages that start with an empty FIFO.  Each stage polls the due sources
first, in registration order, and then the woken generators, by slot.

``run_to`` runs one loop, which pays per event rather than per stage.  It
polls only on the stages where something is due: a drain source (on a
drained stage), a woken generator, or a timer booked for that stage.  A
stage that starts with a backlog releases from the FIFO.  Every other stage
belongs to a machine-only stretch, which one tight loop runs with the ladder,
its bitmask and the tick counter in locals.  A stretch ends at the stop
stage, at the next timer booking, or right after a release that woke a
watcher; with a drain source registered, each stretch is one stage long.

Index space:

  even code 2*m                 machine program corpus[m % len(corpus)]
                                (diverging when the corpus is empty or the
                                text is invalid; every m >= len(corpus) is a
                                padding code for the same program)
  odd  code 2*pair(slot, 0)+1   host slot; the other odd codes stay empty

Machine simulation dovetails fairly over (program code, input) pairs.  A new
pair is activated every third machine tick, taken from one activation stream
that alternates between a dense lane cycling over the first len(corpus)+64
codes (so the diagonal pairs (m, 2m) keep arriving at a linear rate) and a
sparse lane walking the diagonals of ``unpair`` over the remaining padding
codes; both skip invalid programs.  Active pairs live in a ladder of level
queues served in the ruler sequence (level i every 2**(i+1) ticks) with
bursts that double per level, so fresh pairs are simulated promptly,
long-running pairs get geometrically growing budgets, and divergers sink to
rarely-served deep levels while still receiving unboundedly many steps in the
limit.  A bitmask of the non-empty levels picks the level to serve.

A ladder entry is the pair's machine state itself, one flat list with the
registers first and the pc last: ``[r0, ..., r_{R-1}, index, input, program,
pc]``.  A parsed register operand is its register's position in the list,
so the stretch loop runs a served pair's whole burst itself, with the pc in
a local and the registers stepped in place, as ``machine.step_state`` would
step them one call at a time; it reads the pair's index, input and program
from the end.  A run halts at HALT or by walking off the end (``program[pc]``
raises ``IndexError``), and finding it halted uses one step of the burst.  A
pair whose burst steps a ``JMP`` to its own address has settled: it never
halts and no later burst changes it, so its entry is dropped and the one
shared ``_SETTLED`` marker takes its place in the queue.  Serving the marker
moves it one level down without running anything, just as a burst of the
settled pair would have moved the pair, so every queue keeps the length and
order it had with the pair in it; the non-empty bitmask, the ruler schedule
and hence the event log are those of stepping the settled pair forever.

The event log keeps the released events in three parallel columns (stage,
index, element), and per index two more, its entry stages and its elements,
which ``EventLog.entries(index, start)`` reads back as pairs and
``EventLog.count(index)`` counts.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Union

from .machine import OP_DECJZ, OP_INC, OP_JMP, parse_program, register_count
# the one-step reference semantics, re-exported for perfbench/layers.py,
# which wraps it here to count machine steps; the kernel never calls it (its
# stretch loop steps each burst itself), so that count reads 0
from .machine import step_state  # noqa: F401
from .pairing import pair


MAX_LEVEL = 24
BURST_CAP = 1024
# the steps of each level's burst, one range a level for the stretch loop
_BURSTS = tuple(range(min(1 << level, BURST_CAP)) for level in range(MAX_LEVEL + 1))
# the ladder place of every settled pair (see the module docstring)
_SETTLED = object()


class KernelError(Exception):
    """Base class for kernel misuse; signals a construction bug."""


class DuplicateSlotError(KernelError):
    pass


class OutOfOrderStepError(KernelError):
    pass


class StageNotSteppedError(KernelError):
    pass


class EmissionConflictError(KernelError):
    pass


def machine_index(m: int) -> int:
    return 2 * m


def host_index(slot: int) -> int:
    return 2 * pair(slot, 0) + 1


class EventLog:
    """Append-only record of released events with per-index entry stamps."""

    __slots__ = ("_stages", "_indices", "_elements", "_columns", "_by_element")

    def __init__(self):
        self._stages: list[int] = []
        self._indices: list[int] = []
        self._elements: list[int] = []
        # index -> (entry stages, elements), in release order
        self._columns: dict[int, tuple[list[int], list[int]]] = {}
        self._by_element: dict[int, dict[int, int]] = {}

    def __len__(self) -> int:
        return len(self._stages)

    @property
    def last_stage(self) -> int:
        return self._stages[-1] if self._stages else -1

    def append(self, stage: int, index: int, element: int) -> None:
        containers = self._by_element.get(element)
        if containers is not None and index in containers:
            raise EmissionConflictError(
                f"element {element} already entered index {index} at stage {containers[index]}"
            )
        if self._stages and stage <= self._stages[-1]:
            raise OutOfOrderStepError(f"stage {stage} is not past {self._stages[-1]}")
        self._stages.append(stage)
        self._indices.append(index)
        self._elements.append(element)
        column = self._columns.get(index)
        if column is None:
            self._columns[index] = ([stage], [element])
        else:
            column[0].append(stage)
            column[1].append(element)
        if containers is None:
            self._by_element[element] = {index: stage}
        else:
            containers[index] = stage

    def entry_stage(self, index: int, element: int) -> Optional[int]:
        containers = self._by_element.get(element)
        if containers is None:
            return None
        return containers.get(index)

    def member_by(self, index: int, element: int, stage: int) -> bool:
        """True when the element entered the index at or before the stage."""
        containers = self._by_element.get(element)
        if containers is None:
            return False
        t = containers.get(index)
        return t is not None and t <= stage

    def entries(self, index: int, start: int = 0) -> Iterator[tuple[int, int]]:
        """(stage, element) of one index's entries, in release order, from
        its ``start``-th entry on.

        A reader catches up on one index by keeping a cursor: it reads
        ``entries(index, cursor)`` and then sets the cursor to
        ``count(index)``.
        """
        column = self._columns.get(index)
        if column is None or start >= len(column[0]):
            return iter(())
        stages, elements = column
        if start:
            return zip(stages[start:], elements[start:])
        return zip(stages, elements)

    def count(self, index: int) -> int:
        """How many elements have entered the index."""
        column = self._columns.get(index)
        return 0 if column is None else len(column[0])

    def containers_of(self, element: int) -> dict[int, int]:
        """index -> entry stage for every set the element has entered."""
        return self._by_element.get(element, {})

    def members_at(self, index: int, stage: int) -> frozenset:
        column = self._columns.get(index)
        if column is None:
            return frozenset()
        stages, elements = column
        return frozenset(elements[:bisect_right(stages, stage)])

    def frontier(self, stage: int) -> int:
        """The largest element released by the stage, or 0 if none is above 0."""
        released = self._elements[:bisect_right(self._stages, stage)]
        return max(0, max(released, default=0))

    def events(self, start: int = 0) -> Iterable[tuple[int, int, int]]:
        """(stage, index, element) of the events from position ``start`` on.

        A construction catches up on the log by keeping a cursor: it reads
        ``events(cursor)`` and then sets the cursor to ``len(log)``.  With
        nothing new this returns ``()`` without slicing.
        """
        if start >= len(self._stages):
            return ()
        if start:
            return zip(self._stages[start:], self._indices[start:], self._elements[start:])
        return zip(self._stages, self._indices, self._elements)


def _activation_stream(programs: list) -> Iterator[list]:
    """Fresh ladder entries [r0, ..., r_{R-1}, index, input, program, pc] in
    activation order.

    The dense lane (k % dense, k // dense) and the sparse lane unpair(k) over
    the padding codes past it take turns, dense first; both skip the codes of
    invalid programs.  Both lanes are endless when some program is valid.
    Each code has one template entry, which every activation of the code
    copies, so the code's index int is made once, not once per activation.
    """
    n = len(programs)
    dense = n + 64

    def template(m: int) -> Optional[list]:
        program = programs[m % n]
        if program is None:
            return None
        return [0] * register_count(program) + [machine_index(m), None, program, 0]

    valid = [t for t in map(template, range(dense)) if t is not None]

    def padding():  # unpair(k) for k = 0, 1, ...: diagonal d is (d - b, b)
        templates: list = []  # of the padding codes dense + 0, ..., dense + d
        inputs: list = []  # 0, ..., d, each int made once
        for d in count():
            templates.append(template(dense + d))
            inputs.append(d)
            for t, b in zip(reversed(templates), inputs):
                if t is not None:
                    entry = t[:]
                    entry[0] = entry[-3] = b
                    yield entry

    sparse = padding()
    for x in count():
        for t in valid:
            entry = t[:]
            entry[0] = entry[-3] = x
            yield entry
            yield next(sparse)


@dataclass
class HostGenerator:
    """A deterministic emission source for one constructed set.

    ``pull(stage)`` returns the elements the set enumerates next; the kernel
    queues them FIFO and releases one per stage.  Multi-set constructions
    register one generator per set and coordinate through shared state (see
    ``Kernel.register_pair``).

    ``wake`` says on which stages the kernel polls it.  A tuple of indices:
    whenever one of them releases an event, and whenever ``Kernel.wake``
    asks (``()``: only then).  ``"timer"``: the stages it books with
    ``Kernel.wake_at``.  ``"drain"``: the stages that start with an empty
    FIFO.  Timer and drain generators are the sources.
    """

    slot: int
    pull: Callable[[int], Iterable[int]]
    wake: Union[tuple[int, ...], str]


@dataclass(eq=False)
class _GenEntry:
    gen: HostGenerator
    index: int
    order: int  # registration order: sources due in one stage are polled in it
    dirty: bool = True


_ORDER = attrgetter("order")


class Kernel:
    def __init__(self, corpus: Iterable[str] = ()):
        programs = [parse_program(t) for t in corpus]
        self._log = EventLog()
        self._pending: deque[tuple[int, int]] = deque()
        self.max_backlog = 0
        self._entries: dict[int, _GenEntry] = {}
        self._drainers: list[_GenEntry] = []  # sources polled on drained stages
        self._timers: list[tuple[int, int, int]] = []  # (stage, order, index) heap
        self._now = -1  # the stage whose generators were polled last
        self._dirty_batch: list[_GenEntry] = []
        self._watchers: dict[int, list[_GenEntry]] = {}
        # ladder entries, and _SETTLED in the place of each settled pair
        self._levels: list[deque] = [deque() for _ in range(MAX_LEVEL + 1)]
        self._nonempty = 0  # bit i set iff _levels[i] holds a place
        self._mtick = 0
        # no pair ever runs when no program is valid
        self._fresh = (_activation_stream(programs)
                       if any(p is not None for p in programs) else None)
        self._next_stage = 0

    # -- inspection ------------------------------------------------------

    @property
    def log(self) -> EventLog:
        return self._log

    @property
    def next_stage(self) -> int:
        return self._next_stage

    def require_stepped(self, stage: int) -> None:
        if stage >= self._next_stage:
            raise StageNotSteppedError(
                f"stage {stage} not reached; kernel is at {self._next_stage}"
            )

    def w_at(self, index: int, stage: int) -> frozenset:
        self.require_stepped(stage)
        return self._log.members_at(index, stage)

    # -- registration ----------------------------------------------------

    def register_generator(self, gen: HostGenerator) -> int:
        entry = _GenEntry(gen, host_index(gen.slot), len(self._entries))
        if entry.index in self._entries:
            raise DuplicateSlotError(f"slot {gen.slot} already registered")
        wake = gen.wake
        if not isinstance(wake, tuple) and wake not in ("timer", "drain"):
            raise KernelError(f"slot {gen.slot}: unknown wake {wake!r}")
        self._entries[entry.index] = entry
        if wake == "drain":
            self._drainers.append(entry)
        elif isinstance(wake, tuple):
            for idx in wake:
                self._watchers.setdefault(idx, []).append(entry)
            self._dirty_batch.append(entry)
        return entry.index

    def register_pair(self, step: Optional[Callable[[int], None]], *,
                      wake: Union[tuple[int, ...], str],
                      slot_base: int = 0) -> tuple[tuple[int, int], tuple[list, list]]:
        """Register the two halves of a split; returns their indices and outputs.

        A construction routes each element into a half by appending it to
        that half's output list.  Half 0 takes the first free slot from
        ``slot_base`` and half 1 the next free one, so half 0 is polled
        first: its pull runs ``step(stage)`` (unless ``step`` is None), which
        may append to either list, and drains list 0; half 1's pull drains
        list 1.  Both halves share ``wake``; the construction books each timer
        half's polls itself.
        """
        outs: tuple[list, list] = ([], [])

        def drain(queued: list) -> list:
            out = queued[:]
            queued.clear()
            return out

        def pull0(stage: int) -> list:
            if step is not None:
                step(stage)
            return drain(outs[0])

        slot0 = self.free_slot(slot_base)
        i0 = self.register_generator(HostGenerator(slot0, pull0, wake))
        i1 = self.register_generator(
            HostGenerator(self.free_slot(slot0 + 1), lambda stage: drain(outs[1]), wake)
        )
        return (i0, i1), outs

    def free_slot(self, at_least: int = 0) -> int:
        slot = at_least
        while host_index(slot) in self._entries:
            slot += 1
        return slot

    # -- stepping --------------------------------------------------------

    def _release(self, stage: int, index: int, element: int) -> None:
        self._log.append(stage, index, element)
        for entry in self._watchers.get(index, ()):
            if not entry.dirty:
                entry.dirty = True
                self._dirty_batch.append(entry)

    def wake(self, index: int) -> None:
        """Ask the kernel to poll a generator although nothing it watches fired."""
        entry = self._entries.get(index)
        if entry is None:
            raise KernelError(f"index {index} has no registered generator")
        if not entry.dirty:
            entry.dirty = True
            self._dirty_batch.append(entry)

    def wake_at(self, index: int, stage: int) -> None:
        """Book a poll of a timer source at a stage still to come."""
        entry = self._entries.get(index)
        if entry is None or entry.gen.wake != "timer":
            raise KernelError(f"index {index} has no registered timer source")
        if stage < self._next_stage or stage <= self._now:
            raise KernelError(f"wake at stage {stage}, which is not still to come")
        heappush(self._timers, (stage, entry.order, index))

    def _poll_one(self, entry: _GenEntry, stage: int) -> None:
        entry.dirty = False
        pending = self._pending
        # a duplicate emission fails at its release: EventLog.append refuses it
        for x in entry.gen.pull(stage):
            pending.append((entry.index, x))
        if len(pending) > self.max_backlog:
            self.max_backlog = len(pending)

    def _due_sources(self, stage: int) -> list[_GenEntry]:
        # a drain source polled on a stage that starts with a backlog would
        # find it still there: polls only add to the FIFO
        due = [] if self._pending else self._drainers
        timers = self._timers
        if timers and timers[0][0] <= stage:
            due = due[:]
            while timers and timers[0][0] <= stage:
                entry = self._entries[heappop(timers)[2]]
                if entry not in due:
                    due.append(entry)
            due.sort(key=_ORDER)
        return due

    def _poll_generators(self, stage: int) -> None:
        self._now = stage
        for entry in self._due_sources(stage):
            self._poll_one(entry, stage)
        # generators woken during this stage's polls run in the same stage
        while self._dirty_batch:
            batch = self._dirty_batch
            self._dirty_batch = []
            for entry in sorted(batch, key=lambda e: e.gen.slot):
                if entry.dirty:
                    self._poll_one(entry, stage)

    def _machine_stretch(self, stage: int, end: int) -> int:
        """Machine ticks for the stages from ``stage`` up to ``end``, where
        nothing is due and the FIFO is empty; the next stage to step.

        The stretch stops early right after a release that woke a watcher,
        which must be polled on the next stage.
        """
        fresh = self._fresh
        if fresh is None:
            return end
        levels, bursts, settled = self._levels, _BURSTS, _SETTLED
        decjz, inc, jmp = OP_DECJZ, OP_INC, OP_JMP  # locals: read once a step
        nonempty, tick = self._nonempty, self._mtick
        for stage in range(stage, end):
            if tick % 3 == 0:
                levels[0].append(next(fresh))
                nonempty |= 1
            tick += 1
            if nonempty:
                # ruler sequence: level i is served every 2**(i+1) service
                # ticks, so tick t wants the level of t's lowest set bit; take
                # the highest non-empty level at or below it (tick ^ (tick - 1)
                # masks those), else the lowest one above (no level past
                # MAX_LEVEL is ever non-empty)
                level = ((nonempty & (tick ^ (tick - 1))) or nonempty & -nonempty).bit_length() - 1
                queue = levels[level]
                entry = queue.popleft()
                if not queue:
                    nonempty ^= 1 << level
                if entry is not settled:
                    # the burst: the pc in a local, the registers stepped in
                    # place; finding the run halted uses one of its steps
                    program, pc = entry[-2], entry[-1]
                    halted = False
                    try:
                        for _ in bursts[level]:
                            ins = program[pc]
                            op = ins[0]
                            if op == decjz:
                                reg = ins[1]
                                value = entry[reg]
                                if value:
                                    entry[reg] = value - 1
                                    pc += 1
                                else:
                                    pc = ins[2]
                            elif op == inc:
                                entry[ins[1]] += 1
                                pc += 1
                            elif op == jmp:
                                if ins[1] == pc:  # a jump to itself: settled for good
                                    entry = settled
                                    break
                                pc = ins[1]
                            else:  # HALT
                                halted = True
                                break
                        else:  # the burst ran out first
                            entry[-1] = pc
                    except IndexError:  # program[pc] with pc == len(program)
                        halted = True
                    if halted:
                        self._release(stage, entry[-4], entry[-3])
                        if self._dirty_batch:
                            end = stage + 1
                            break
                        continue
                if level < MAX_LEVEL:
                    level += 1
                levels[level].append(entry)
                nonempty |= 1 << level
        self._nonempty, self._mtick = nonempty, tick
        return end

    def _advance(self, stop: int) -> None:
        """Step every stage from ``next_stage`` up to ``stop``.

        Generators are polled only on the stages where something is due; a
        stage that releases from the FIFO is stepped on its own, and every
        other stretch of stages goes to the machine in one call.
        """
        pending, drainers, timers = self._pending, self._drainers, self._timers
        stage = self._next_stage
        while stage < stop:
            if self._dirty_batch or (drainers and not pending) or (timers and timers[0][0] <= stage):
                self._next_stage = stage
                self._poll_generators(stage)
            if pending:
                self._release(stage, *pending.popleft())
                stage += 1
                continue
            # nothing is due before the next booked timer, and a drain
            # source is due again on the very next stage
            end = stage + 1 if drainers else stop
            if timers and timers[0][0] < end:
                end = timers[0][0]
            stage = self._machine_stretch(stage, end)
        self._next_stage = stage

    def run_to(self, stage: int) -> None:
        """Step every stage strictly below ``stage``."""
        self._advance(stage)

    @property
    def backlog(self) -> int:
        return len(self._pending)
