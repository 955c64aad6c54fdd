#!/usr/bin/env python3
"""Priority splitting of one enumerable set into two halves.

Each entrant of the input is routed by the least-coded requirement it can
meet; the replay oracle then re-derives every decision from the raw event
log and confirms the trace.
"""

from cesplit.corpus import HALT_ALL, HALT_SLOW, DIVERGE, halt_below, halt_from
from cesplit.friedberg import run_friedberg
from cesplit.setalg import before_then, check_split_history
from cesplit.trace import merge_for_file
from cesplit.verify import replay_friedberg

texts = [HALT_ALL, DIVERGE, HALT_SLOW, halt_below(6), halt_from(3)]
result = run_friedberg(texts, a=8, stages=50_000)  # input: a slow halter
log = result.kernel.log
S = 49_999

print(f"input index {result.a}: {len(log.members_at(result.a, S))} elements")
print(f"half 0 / half 1: {len(log.members_at(result.a0, S))} / "
      f"{len(log.members_at(result.a1, S))}")

print("\nsplit discipline at every stage:",
      check_split_history(log, result.a, result.a0, result.a1, S) is None)

# the n-th route record routes the n-th entrant of the input, to half
# req[1], or to half 0 when req is [] (nothing was meetable)
routes = [r for r in result.trace if r["op"] == "route"]
met = [r for r in routes if r["req"]]
print(f"{len(routes)} balls routed, {len(met)} met a requirement")
print("first few decisions (stage, ball, requirement, half):")
for (s, x), r in list(zip(log.entries(result.a), routes))[:6]:
    print("  ", (s, x, r["req"], r["req"][1] if r["req"] else 0))

print("\nside counters vs measured sets for indices swallowing 5+ balls:")
for e in sorted({e for _, e, _ in log.events()}):
    if e in (result.a, result.a0, result.a1):
        continue
    swallowed = len(before_then(log, e, result.a, S))
    if swallowed >= 5:
        c0 = len(before_then(log, e, result.a0, S))
        c1 = len(before_then(log, e, result.a1, S))
        print(f"  index {e:4d}: swallowed {swallowed:4d} -> sides ({c0}, {c1})")

divergences = replay_friedberg(merge_for_file(log, result.trace),
                               result.a, result.a0, result.a1)
print("\nreplay oracle divergences:", len(divergences))
