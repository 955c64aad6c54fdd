"""Friedberg splitting: priority routing of one c.e. set into two halves.

Each entrant of the input set is routed to the half named by the least-coded
requirement it can meet.  A requirement (e, i, k) is meetable by x when x
entered W_e before the input set and the side counter for (e, i) currently
stands at k-1; the counters measure |W_e entered-then side_i| and every
candidate e rides along when a ball lands, not just the chosen one.  Codes
order by (e, k) before the side, so unmet targets alternate sides.  Balls
that meet nothing go to side 0.  Each routing is traced as a ``route``
record of the met requirement alone (``[]`` for none): the n-th record
routes the n-th entrant of the input, and ``req[1]`` names its side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .kernel import Kernel
from .pairing import balance_code


@dataclass
class FriedbergSplitter:
    kernel: Kernel
    a: int
    a0: int = field(init=False)
    a1: int = field(init=False)
    counters: dict = field(init=False, default_factory=dict)
    trace: list = field(init=False, default_factory=list)
    _cursor: int = field(init=False, default=0)
    _out: tuple = field(init=False)

    def __post_init__(self):
        (self.a0, self.a1), self._out = self.kernel.register_pair(self._ingest, wake=(self.a,))
        self.trace.append(
            {"op": "meta", "kind": "friedberg", "a": self.a, "a0": self.a0, "a1": self.a1}
        )

    @property
    def halves(self) -> tuple[int, int]:
        return (self.a0, self.a1)

    def _ingest(self, stage: int) -> None:
        log = self.kernel.log
        fresh = log.entries(self.a, self._cursor)
        self._cursor = log.count(self.a)
        for entry_stage, x in fresh:
            side, requirement = self._route(x, entry_stage)
            self._out[side].append(x)
            self.trace.append({"op": "route", "req": list(requirement or ())})

    def _route(self, x: int, entered_a: int) -> tuple[int, Optional[tuple]]:
        candidates = sorted(
            e for e, t in self.kernel.log.containers_of(x).items() if t < entered_a
        )
        best_code = None
        best = None
        for e in candidates:
            for i in (0, 1):
                k = self.counters.get((e, i), 0) + 1
                code = balance_code(e, i, k)
                if best_code is None or code < best_code:
                    best_code = code
                    best = (e, i, k)
        side = best[1] if best else 0
        for e in candidates:
            self.counters[(e, side)] = self.counters.get((e, side), 0) + 1
        return side, best


@dataclass
class FriedbergResult:
    kernel: Kernel
    a: int
    a0: int
    a1: int
    trace: list
    splitter: FriedbergSplitter


def install_friedberg(kernel: Kernel, a: int) -> FriedbergSplitter:
    return FriedbergSplitter(kernel, a)


def run_friedberg(corpus_texts, a: int, stages: int) -> FriedbergResult:
    """Fresh kernel, one splitter on index a, driven to the stage bound."""
    kernel = Kernel(corpus_texts)
    splitter = install_friedberg(kernel, a)
    kernel.run_to(stages)
    return FriedbergResult(kernel, a, splitter.a0, splitter.a1, splitter.trace, splitter)

