"""Herrmann-Kummer splitting: restraint-driven routing of B into two halves.

Requirement triples (e, j, i) are ordered by their pairing code.  Each triple
tracks a disagreement value l(e,j,i,s): the least x <= s that is outside
B_i union A union Y_e, or that makes the written biconditional

    x in (B_i intersect Y_e) - A   iff   x not in Z_j

come out true.  The truth table of that biconditional is exactly "x
disagrees with Z_j as a witness for (B_i cap Y_e) - A":

    x in LHS, x in Z_j   -> False  (agree)
    x in LHS, x not in Z -> True   (LHS element missing from Z)
    x not in LHS, x in Z -> True   (Z element missing from LHS)
    neither              -> False  (agree)

If no x qualifies, l is the stage itself.  The restraint r starts at the
triple's own code and absorbs every later l, so it never decreases.  A ball
entering B at stage s joins the half of the least-coded triple whose
restraint at s reaches the ball.  Each routing is traced as an ``hk``
record of that triple and its l and r at s: the n-th record routes the n-th
entrant of B, and ``triple[2]`` names its side.

Y_e and Z_j are W_e and W_j unless the override maps ``y_over`` and
``z_over`` (listing position -> set index) name another set; the trace's
meta record carries both maps (``[]`` when unrigged), so the replay reads
the same listings.

Between membership changes the qualifying set is constant, so sup l over a
window [t0, t1) is min(least qualifying element, t1 - 1); restraints are
folded incrementally from those windows instead of per stage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from heapq import merge

from .kernel import EventLog, Kernel
from .pairing import pair, unpair


class _TripleState:
    __slots__ = (
        "y_idx", "z_idx", "bi_idx", "a_idx", "r_hist", "statuses", "min_cache", "last_change",
    )

    def __init__(self, code, y_idx, z_idx, bi_idx, a_idx):
        self.y_idx = y_idx
        self.z_idx = z_idx
        self.bi_idx = bi_idx
        self.a_idx = a_idx
        self.r_hist = code
        self.statuses: dict[int, bool] = {}
        self.min_cache = 0
        self.last_change = 0

    def qualifies(self, log: EventLog, x: int, stage: int) -> bool:
        in_bi = log.member_by(self.bi_idx, x, stage)
        in_a = log.member_by(self.a_idx, x, stage)
        in_y = log.member_by(self.y_idx, x, stage)
        if not (in_bi or in_a or in_y):
            return True
        in_lhs = in_bi and in_y and not in_a
        in_z = log.member_by(self.z_idx, x, stage)
        return in_lhs == (not in_z)

    def min_qualifying(self) -> int:
        n = self.min_cache
        statuses = self.statuses
        while not statuses.get(n, True):
            n += 1
        self.min_cache = n
        return n

    def fold_to(self, stage: int) -> None:
        """Absorb sup l over the constant window ending just before stage."""
        if stage > self.last_change:
            top = min(self.min_qualifying(), stage - 1)
            if top > self.r_hist:
                self.r_hist = top
            self.last_change = stage

    def apply_event(self, log: EventLog, x: int, stage: int) -> None:
        new = self.qualifies(log, x, stage)
        old = self.statuses.get(x, True)
        if new == old:
            return
        self.fold_to(stage)
        self.statuses[x] = new
        if new and x < self.min_cache:
            self.min_cache = x

    def l_now(self, stage: int) -> int:
        return min(self.min_qualifying(), stage)

    def r_now(self, stage: int) -> int:
        return max(self.r_hist, self.l_now(stage))


@dataclass
class HKSplitter:
    kernel: Kernel
    b: int
    a: int
    y_over: dict = field(default_factory=dict)  # Y listing: position -> index
    z_over: dict = field(default_factory=dict)  # Z listing: position -> index
    b0: int = field(init=False)
    b1: int = field(init=False)
    trace: list = field(init=False, default_factory=list)
    warnings: list = field(init=False, default_factory=list)
    _states: dict = field(init=False, default_factory=dict)  # code -> _TripleState
    _by_index: dict = field(init=False, default_factory=dict)  # index -> [states]
    _cursor: int = field(init=False, default=0)
    _out: tuple = field(init=False)

    def __post_init__(self):
        # woken by B (to route) and by A (to warn); the catch-up reads the
        # whole log anyway, so the triples' own indices need no watch
        (self.b0, self.b1), self._out = self.kernel.register_pair(
            self._ingest, wake=(self.b, self.a)
        )
        self.trace.append({"op": "meta", "kind": "hk", "b": self.b, "a": self.a,
                           "b0": self.b0, "b1": self.b1,
                           "y_over": [list(item) for item in sorted(self.y_over.items())],
                           "z_over": [list(item) for item in sorted(self.z_over.items())]})

    @property
    def halves(self) -> tuple[int, int]:
        return (self.b0, self.b1)

    # -- state management --------------------------------------------------

    def _get_state(self, m: int, i: int, upto_stage: int) -> _TripleState:
        code = pair(m, i)
        state = self._states.get(code)
        if state is not None:
            return state
        e, j = unpair(m)
        state = _TripleState(
            code,
            self.y_over.get(e, e), self.z_over.get(j, j),
            self.b0 if i == 0 else self.b1, self.a,
        )
        self._replay(state, upto_stage)
        self._states[code] = state
        for idx in {state.y_idx, state.z_idx, state.bi_idx, state.a_idx}:
            self._by_index.setdefault(idx, []).append(state)
        return state

    def _replay(self, state: _TripleState, upto_stage: int) -> None:
        log = self.kernel.log
        # one event per stage: the merged entries are in stage order
        indices = {state.y_idx, state.z_idx, state.bi_idx, state.a_idx}
        for t, x in merge(*map(log.entries, indices)):
            if t > upto_stage:
                break
            state.apply_event(log, x, t)

    # -- main loop -----------------------------------------------------------

    def _ingest(self, stage: int) -> None:
        log = self.kernel.log
        fresh = log.events(self._cursor)
        self._cursor = len(log)
        for t, idx, x in fresh:
            for state in self._by_index.get(idx, ()):
                state.apply_event(log, x, t)
            if idx == self.a and not log.member_by(self.b, x, t):
                if not self.warnings:
                    warnings.warn("HK splitter: A is not a subset of B stagewise")
                self.warnings.append((t, x))
            if idx == self.b:
                self._route(x, t)

    def _route(self, x: int, entered_b: int) -> None:
        m = 0
        while True:
            for i in (0, 1):
                state = self._get_state(m, i, entered_b)
                r = state.r_now(entered_b)
                if x <= r:
                    self._out[i].append(x)
                    self.trace.append({"op": "hk", "triple": [*unpair(m), i],
                                       "l": state.l_now(entered_b), "r": r})
                    return
            m += 1


@dataclass
class HKResult:
    kernel: Kernel
    b: int
    a: int
    b0: int
    b1: int
    trace: list
    splitter: HKSplitter


def install_hk(kernel: Kernel, b: int, a: int, y_over: dict = None,
               z_over: dict = None) -> HKSplitter:
    return HKSplitter(kernel, b, a, y_over=y_over or {}, z_over=z_over or {})


def run_hk(corpus_texts, b: int, a: int, stages: int) -> HKResult:
    kernel = Kernel(corpus_texts)
    splitter = install_hk(kernel, b, a)
    kernel.run_to(stages)
    return HKResult(kernel, b, a, splitter.b0, splitter.b1, splitter.trace, splitter)


def run_subset_scenario(stages: int) -> HKResult:
    """The B = A extreme: split a set that is already inside A.

    The listings are rigged (``y_over``, ``z_over``) so that position 0 of
    the Y listing enumerates everything (a halt-everywhere program
    discovered ahead of the input) and position 0 of the Z listing
    enumerates B - A = the empty set (a diverger).  The least triple then
    races its restraint along the coverage frontier and captures every
    ball, so one half starves: the split is trivial by construction,
    matching the theorem's failure analysis for complemented inputs.
    """
    from . import corpus as corpus_mod

    texts = [corpus_mod.HALT_ALL, corpus_mod.HALT_ALL, corpus_mod.DIVERGE]
    kernel = Kernel(texts)
    b = a = 2  # the second halt-everything program: its events trail Y's
    splitter = install_hk(kernel, b, a, y_over={0: 0}, z_over={0: 4})
    kernel.run_to(stages)
    return HKResult(kernel, b, a, splitter.b0, splitter.b1, splitter.trace, splitter)
