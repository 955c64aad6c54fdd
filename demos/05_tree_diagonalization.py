#!/usr/bin/env python3
"""Diagonalizing against splitting procedures on the tree.

Runs the full pinball construction against three candidates: the honest
priority splitter, a procedure that hands back the input and an empty set,
and one that returns two empty sets.  Each lands in its own verdict bucket.
"""

from cesplit.tree import PROCEDURES, diagonalize, structural_report

for name in ("hf", "trivial", "broken"):
    result = diagonalize(PROCEDURES[name], 60_000, collect_trace=False)
    report = structural_report(result.run)
    k = result.kernel
    last = 59_999
    print(f"candidate {name!r}:")
    print(f"  constructed index e = {result.e_a}, candidate answered "
          f"({result.e0}, {result.e1})")
    print(f"  verdict {result.verdict.kind} ({result.verdict.reason}), "
          f"stable over the tail: {result.stable}")
    print(f"  |A| = {len(k.w_at(result.e_a, last))}, halves "
          f"{len(k.w_at(result.e0, last))} / {len(k.w_at(result.e1, last))}")
    print(f"  tree stages {result.run.tree_stage}, nodes touched "
          f"{report['nodes']}, dumped {report['dumped']}, "
          f"invariant problems {len(report['problems'])}")
    print(f"  current path {result.run.history[-1][1]!r}")
    print()

print("the trichotomy in action: 3 = Friedberg-like split of a set that")
print("acquired its own distinguished non-Friedberg split, 2 = trivial")
print("split evidence, 1 = not a split at all")
