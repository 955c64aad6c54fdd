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

Index space:

  even code 2*m                 machine program corpus[m % len(corpus)]
                                (diverging when the corpus is empty or the
                                text is invalid; every m >= len(corpus) is a
                                padding code for the same program)
  odd  code 2*pair(slot, p)+1   host slot; p = 0 carries the slot's own
                                emissions, and the codes with p > 0 stay
                                empty.

Machine simulation dovetails fairly over (program code, input) pairs.  A new
pair is activated every third machine tick, alternating between a dense lane
cycling over the first len(corpus)+64 codes (so the diagonal pairs (m, 2m)
keep arriving at a linear rate) and a sparse diagonal lane over the remaining
padding codes.  Active pairs live in a ladder of level queues served in the ruler
sequence (level i every 2**(i+1) ticks) with bursts that double per level, so
fresh pairs are simulated promptly, long-running pairs get geometrically
growing budgets, and divergers sink to rarely-served deep levels while still
receiving unboundedly many steps in the limit.  A served pair runs its whole
burst in one call of ``machine.run_steps``; a bitmask of the non-empty levels
picks the level to serve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Iterable, Optional, Union

from .machine import parse_program, register_count, run_steps
# re-exported for callers that import it from here: the one-step reference
# semantics; the kernel itself runs whole bursts through run_steps
from .machine import step_state  # noqa: F401
from .pairing import pair, unpair


MAX_LEVEL = 24
BURST_CAP = 1024


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


def host_index(slot: int, pad: int = 0) -> int:
    return 2 * pair(slot, pad) + 1


class EventLog:
    """Append-only record of released events with per-index entry stamps."""

    __slots__ = ("_stages", "_indices", "_elements", "_entries", "_by_element")

    def __init__(self):
        self._stages: list[int] = []
        self._indices: list[int] = []
        self._elements: list[int] = []
        self._entries: dict[int, list[tuple[int, int]]] = {}
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
        self._entries.setdefault(index, []).append((stage, element))
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

    def entries(self, index: int) -> list[tuple[int, int]]:
        """(stage, element) pairs for one index, in release order."""
        return self._entries.get(index, [])

    def containers_of(self, element: int) -> dict[int, int]:
        """index -> entry stage for every set the element has entered."""
        return self._by_element.get(element, {})

    def members_at(self, index: int, stage: int) -> frozenset:
        out = []
        for t, x in self._entries.get(index, ()):
            if t > stage:
                break
            out.append(x)
        return frozenset(out)

    def events(self) -> Iterable[tuple[int, int, int]]:
        return zip(self._stages, self._indices, self._elements)

    def since(self, start: int) -> Iterable[tuple[int, int, int]]:
        """(stage, index, element) of the events from position ``start`` on.

        A construction catches up on the log by keeping a cursor: it reads
        ``since(cursor)`` and then sets the cursor to ``len(log)``.  With
        nothing new this returns ``()`` without slicing, as for a generator
        woken by ``Kernel.wake`` when nothing it reads was released.
        """
        if start >= len(self._stages):
            return ()
        return zip(self._stages[start:], self._indices[start:], self._elements[start:])


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
        texts = list(corpus)
        self._programs = [parse_program(t) for t in texts]
        self._registers = [0 if p is None else register_count(p) for p in self._programs]
        self._n_programs = len(self._programs)
        self._dense_codes = self._n_programs + 64
        self._any_valid = any(p is not None for p in self._programs)
        self._log = EventLog()
        self._pending: deque[tuple[int, int]] = deque()
        self._pending_set: set[tuple[int, int]] = set()
        self.max_backlog = 0
        self._entries: dict[int, _GenEntry] = {}
        self._drainers: list[_GenEntry] = []  # sources polled on drained stages
        self._timers: list[tuple[int, int, int]] = []  # (stage, order, index) heap
        self._now = -1  # the stage whose generators were polled last
        self._dirty_batch: list[_GenEntry] = []
        self._watchers: dict[int, list[_GenEntry]] = {}
        self._levels: list[deque[list]] = [deque() for _ in range(MAX_LEVEL + 1)]
        self._nonempty = 0  # bit i set iff _levels[i] holds a pair
        self._mtick = 0
        self._act_primary = 0
        self._act_pad = 0
        self._act_toggle = False
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
        entry = _GenEntry(gen, host_index(gen.slot, 0), len(self._entries))
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
        while host_index(slot, 0) in self._entries:
            slot += 1
        return slot

    # -- stepping --------------------------------------------------------

    def _enqueue(self, index: int, element: int) -> None:
        key = (index, element)
        if key in self._pending_set or self._log.entry_stage(index, element) is not None:
            raise EmissionConflictError(
                f"duplicate emission of element {element} for index {index}"
            )
        self._pending_set.add(key)
        self._pending.append(key)
        if len(self._pending) > self.max_backlog:
            self.max_backlog = len(self._pending)

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
        for x in entry.gen.pull(stage):
            self._enqueue(entry.index, x)

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

    def _activate_pair(self) -> None:
        programs, n, dense = self._programs, self._n_programs, self._dense_codes
        if not self._act_toggle:
            # dense lane over the first few codes
            k = self._act_primary
            while True:
                m, x = k % dense, k // dense
                k += 1
                if programs[m % n] is not None:
                    break
            self._act_primary = k
        else:
            # sparse diagonal lane over the remaining padding codes
            k = self._act_pad
            while True:
                u, x = unpair(k)
                k += 1
                m = dense + u
                if programs[m % n] is not None:
                    break
            self._act_pad = k
        self._act_toggle = not self._act_toggle
        regs = [0] * self._registers[m % n]
        regs[0] = x
        self._levels[0].append([machine_index(m), x, [0, regs], programs[m % n]])
        self._nonempty |= 1

    def _machine_tick(self, stage: int) -> None:
        if not self._any_valid:
            return
        tick = self._mtick
        self._mtick = tick + 1
        if tick % 3 == 0:
            self._activate_pair()
        nonempty = self._nonempty
        if not nonempty:
            return
        # ruler sequence: level i is served every 2**(i+1) service ticks, so
        # service tick t wants the level of t's lowest set bit; take the
        # highest non-empty level at or below it, else the lowest one above
        # (no level past MAX_LEVEL is ever non-empty, so no cap is needed)
        tick += 1
        wanted = tick & -tick
        level = ((nonempty & (2 * wanted - 1)) or nonempty & -nonempty).bit_length() - 1
        queue = self._levels[level]
        entry = queue.popleft()
        if not queue:
            nonempty ^= 1 << level
        if run_steps(entry[3], entry[2], BURST_CAP if level >= 10 else 1 << level):
            self._nonempty = nonempty
            self._release(stage, entry[0], entry[1])
            return
        if level < MAX_LEVEL:
            level += 1
        self._levels[level].append(entry)
        self._nonempty = nonempty | 1 << level

    def step(self, stage: Optional[int] = None) -> None:
        if stage is None:
            stage = self._next_stage
        elif stage != self._next_stage:
            raise OutOfOrderStepError(
                f"expected stage {self._next_stage}, got {stage}"
            )
        if self._drainers or self._timers or self._dirty_batch:
            self._poll_generators(stage)
        if self._pending:
            index, element = self._pending.popleft()
            self._pending_set.discard((index, element))
            self._release(stage, index, element)
        else:
            self._machine_tick(stage)
        self._next_stage = stage + 1

    def run_to(self, stage: int) -> None:
        """Step every stage strictly below ``stage``."""
        while self._next_stage < stage:
            self.step()

    @property
    def backlog(self) -> int:
        return len(self._pending)
