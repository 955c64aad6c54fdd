"""Stagewise set operators over an event log.

Membership order is taken from the single global event log, so "x enters A
before B" is always well defined: ties are impossible when at most one event
is released per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .kernel import EventLog

_INF = float("inf")


class SetAlgebraError(Exception):
    pass


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


@dataclass(frozen=True)
class SplitVerdict:
    ok: bool
    stage: int
    overlap: tuple = ()
    extra: tuple = ()
    missing: tuple = ()
    settling: tuple = ()


def is_split(log: EventLog, a: int, a0: int, a1: int, s: int, settle: int = 1) -> SplitVerdict:
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


def check_split_history(
    log: EventLog, a: int, a0: int, a1: int, S: int, settle: int = 1
) -> Optional[tuple[int, str, int]]:
    """First (stage, kind, element) violating the split discipline by S.

    Single pass over the log; equivalent to running is_split at every stage
    up to S but linear in the number of events.
    """
    from collections import deque

    in_a: dict[int, int] = {}
    routed: dict[int, int] = {}
    waiting: deque[tuple[int, int]] = deque()  # (a-entry stage, element) FIFO
    for t, idx, x in log.events():
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
            in_a[x] = t
            waiting.append((t, x))
        if idx == a0 or idx == a1:
            side = 0 if idx == a0 else 1
            if x in routed:
                return (t, "overlap", x)
            if x not in in_a:
                return (t, "extra", x)
            routed[x] = side
    for t_y, y in waiting:
        if y not in routed and t_y + settle <= S:
            return (t_y + settle, "missing", y)
    return None


@dataclass(frozen=True)
class ComputablePair:
    """A computable set presented as disjoint positive and negative halves."""

    pos: int
    neg: int


def computable_view(
    log: EventLog, pair: ComputablePair, s: int
) -> tuple[int, Callable[[int], Optional[bool]]]:
    """Certified interval [0, n) and a three-valued membership function.

    Inside the interval membership is decided by the positive side; outside
    it the answer is None ("unknown at this stage").  A shared element is a
    broken construction and raises.
    """
    wp = log.members_at(pair.pos, s)
    wn = log.members_at(pair.neg, s)
    clash = wp & wn
    if clash:
        raise SetAlgebraError(
            f"computable pair sides share element {min(clash)} at stage {s}"
        )
    n = 0
    while n in wp or n in wn:
        n += 1

    def member(x: int) -> Optional[bool]:
        if x < n:
            return x in wp
        return None

    return n, member
