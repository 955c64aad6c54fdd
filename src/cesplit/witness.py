"""Witness constructions: sets built together with a distinguished split.

The central construction splits a computable set R against its complement:
push a fixed noncomputable-looking c.e. set (the kernel's diagonal set
{e : e enters W_e as an element}) through the increasing enumerations of R
and of its complement, and take A to be the disjoint union of the two
images.  R minus the complement-side image is R itself, a c.e. set, so the
split of A it induces cannot be a Friedberg split; the R-side difference
keeps losing elements forever.

Also here: the before/after pair operators used to split a set against two
incomparable supersets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .kernel import HostGenerator, Kernel
from .setalg import ComputablePair


@dataclass
class WitnessBundle:
    kernel: Kernel
    r: ComputablePair
    k_r: int
    k_rbar: int
    a: int


class _DiagonalImageBrain:
    """Maps the diagonal set through the increasing enumerations of R / R-bar.

    The diagonal set collects every index code e whose own set receives e as
    an element.  Position i of R's increasing enumeration is only trusted
    once the pair certifies the interval [0, bound) past it, so emissions
    never move.
    """

    def __init__(self, kernel: Kernel, pair: ComputablePair,
                 out: tuple[list[int], list[int]]):
        self.kernel = kernel
        self.pair = pair
        self.cursor = 0
        self.diagonal: list[int] = []
        self.certified = 0
        self.pos_list: list[int] = []
        self.neg_list: list[int] = []
        self.sent = [0, 0]  # how many diagonal positions emitted per side
        self.out = out

    def _advance_certified(self) -> None:
        log = self.kernel.log
        while True:
            n = self.certified
            in_pos = log.entry_stage(self.pair.pos, n) is not None
            in_neg = log.entry_stage(self.pair.neg, n) is not None
            if in_pos and in_neg:
                raise RuntimeError(f"computable pair sides share element {n}")
            if in_pos:
                self.pos_list.append(n)
            elif in_neg:
                self.neg_list.append(n)
            else:
                return
            self.certified = n + 1

    def pump(self) -> None:
        log = self.kernel.log
        fresh = log.since(self.cursor)
        self.cursor = len(log)
        sides = (self.pair.pos, self.pair.neg)
        for _, idx, x in fresh:
            if idx == x:  # the log takes (x, x) once
                self.diagonal.append(x)
            # a certified element sits on one side already: this puts it on both
            if x < self.certified and idx in sides:
                raise RuntimeError(f"computable pair sides share element {x}")
        self._advance_certified()
        for side, enum in ((0, self.pos_list), (1, self.neg_list)):
            while self.sent[side] < len(self.diagonal):
                i = self.diagonal[self.sent[side]]
                if i >= len(enum):
                    break
                self.out[side].append(enum[i])
                self.sent[side] += 1


def build_split_witness(kernel: Kernel, pair: ComputablePair) -> WitnessBundle:
    """Register K_R, K_R-bar and their union A on the kernel."""
    # the diagonal {e : e in W_e} reads every index, so no watch tuple
    # covers it: the pair is polled on every stage; the brain routes into
    # the pair's outputs and is bound before any poll
    (k_r, k_rbar), outs = _paced_pair(kernel, lambda stage: brain.pump(), 1)
    brain = _DiagonalImageBrain(kernel, pair, outs)
    union = _UnionEcho(kernel, (k_r, k_rbar))
    a = kernel.register_generator(HostGenerator(
        slot=kernel.free_slot(), pull=lambda stage: union.fresh(), wake=(k_r, k_rbar)
    ))
    return WitnessBundle(kernel, pair, k_r, k_rbar, a)


class _UnionEcho:
    def __init__(self, kernel: Kernel, sources: tuple[int, ...]):
        self.kernel = kernel
        self.sources = sources
        self.cursor = 0

    def fresh(self) -> list[int]:
        log = self.kernel.log
        out = [x for _, idx, x in log.since(self.cursor) if idx in self.sources]
        self.cursor = len(log)
        return out


def _paced_pair(kernel: Kernel, step, pace: int):
    """A pair of timer halves polled at the stages that are multiples of
    ``pace``, from the kernel's next stage on; see ``Kernel.register_pair``."""

    def booked_step(stage):
        step(stage)
        for index in halves:
            kernel.wake_at(index, stage + pace)

    halves, outs = kernel.register_pair(booked_step, wake="timer")
    start = kernel.next_stage
    for index in halves:
        kernel.wake_at(index, start + -start % pace)
    return halves, outs


def register_paced_pair(kernel: Kernel, predicate, pace: int) -> ComputablePair:
    """Host-backed computable pair: value n lands on the predicate's side.

    Values are emitted in increasing order, one every ``pace`` stages, so the
    certified interval grows linearly instead of waiting for machine runs.
    """
    values = count()

    def route_next(stage):
        n = next(values)
        outs[0 if predicate(n) else 1].append(n)

    (pos, neg), outs = _paced_pair(kernel, route_next, pace)
    return ComputablePair(pos, neg)


def run_parity_witness(corpus_texts, stages: int) -> WitnessBundle:
    """The canonical scenario: R = evens via a host pair paced every third stage."""
    kernel = Kernel(corpus_texts)
    pair = register_paced_pair(kernel, lambda n: n % 2 == 0, 3)
    bundle = build_split_witness(kernel, pair)
    kernel.run_to(stages)
    return bundle


# -- before/after pair operators -------------------------------------------


def shavrukov_pair(kernel: Kernel, w: int, y: int) -> tuple[int, int]:
    """Registered enumerations of w-before-y and y-before-w.

    Disjoint at every stage: an element's first-entry order between w and y
    is unique under the single-event convention.
    """
    base = kernel.free_slot()
    slot_x1 = kernel.free_slot(base + 1)

    def make_pull(first: int, second: int):
        read = 0  # entries of W_first already read

        def pull(stage):
            nonlocal read
            log = kernel.log
            fresh = log.entries(first)[read:]
            read += len(fresh)
            return [x for t, x in fresh if not log.member_by(second, x, t)]

        return pull

    x0 = kernel.register_generator(HostGenerator(slot=base, pull=make_pull(w, y), wake=(w,)))
    x1 = kernel.register_generator(HostGenerator(slot=slot_x1, pull=make_pull(y, w), wake=(y,)))
    return x0, x1


def shav_split(kernel: Kernel, a: int, x0: int, x1: int) -> tuple[int, int]:
    """Halves a & x0 and a & x1; an entrant routes once its side is known."""
    read = 0  # entries of W_a already read
    pending: list = []

    def ingest(stage):
        nonlocal read
        log = kernel.log
        fresh = log.entries(a)[read:]
        read += len(fresh)
        pending.extend(x for _, x in fresh)
        still = []
        for x in pending:
            t0 = log.entry_stage(x0, x)
            t1 = log.entry_stage(x1, x)
            if t0 is not None and (t1 is None or t0 < t1):
                outs[0].append(x)
            elif t1 is not None:
                outs[1].append(x)
            else:
                still.append(x)
        pending[:] = still

    (a0, a1), outs = kernel.register_pair(ingest, wake=(a, x0, x1))
    return a0, a1
