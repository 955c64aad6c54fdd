"""Stagewise set operators over an event log.

Membership order is taken from the single global event log, so "x enters A
before B" is always well defined: ties are impossible when at most one event
is released per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernel import EventLog


def before(log: EventLog, a: int, b: int, s: int) -> frozenset:
    """Elements seen in a strictly before (or without ever) entering b."""
    out = []
    for t, x in log.entries(a):
        if t > s:
            break
        eb = log.entry_stage(b, x)
        if eb is None or t < eb:
            out.append(x)
    return frozenset(out)


def before_then(log: EventLog, a: int, b: int, s: int) -> frozenset:
    """before(a, b) restricted to elements that have also entered b by s."""
    out = []
    for t, x in log.entries(a):
        if t > s:
            break
        eb = log.entry_stage(b, x)
        if eb is not None and t < eb <= s:
            out.append(x)
    return frozenset(out)


def check_split_history(
    log: EventLog, a: int, a0: int, a1: int, S: int, settle: int = 1
) -> Optional[tuple[int, str, int]]:
    """First (stage, kind, element) violating a0 |_| a1 = a by stage S.

    One released event per stage means an entrant of a can reach its half no
    earlier than the following stage, so an element is missing only once it
    has sat in a unrouted for ``settle`` stages; ``settle=0`` gives the strict
    reading.  Equivalent to checking the split at every stage up to S, but
    one pass over the entries of the three sets, merged by stage: a missing
    element is reported at its own stage, whichever later entry trips it.
    """
    from collections import deque
    from heapq import merge

    def tagged(index):
        return ((t, index, x) for t, x in log.entries(index))

    in_a: set[int] = set()
    routed: set[int] = set()
    waiting: deque[tuple[int, int]] = deque()  # (a-entry stage, element) FIFO
    for t, idx, x in merge(*map(tagged, {a, a0, a1})):
        if t > S:
            break
        # the oldest unrouted entrant bounds everyone else
        while waiting:
            t_y, y = waiting[0]
            if y in routed:
                waiting.popleft()
            elif t_y + settle <= t - 1:
                return (t_y + settle, "missing", y)
            else:
                break
        if idx == a:
            in_a.add(x)
            waiting.append((t, x))
        if idx == a0 or idx == a1:
            if x in routed:
                return (t, "overlap", x)
            if x not in in_a:
                return (t, "extra", x)
            routed.add(x)
    for t_y, y in waiting:
        if y not in routed and t_y + settle <= S:
            return (t_y + settle, "missing", y)
    return None


@dataclass(frozen=True)
class ComputablePair:
    """A computable set presented as disjoint positive and negative halves."""

    pos: int
    neg: int
