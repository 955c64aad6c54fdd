#!/usr/bin/env python3
"""Restraint-based splitting and the canonical non-Friedberg witness.

Part one runs the disagreement/restraint construction, including the
rigged listing where the input sits inside the modulus set and the split
degenerates to one side.  Part two builds the witness set A = K_R |_| K_Rbar
and lets the probes flag its distinguished non-Friedberg split.
"""

from cesplit.corpus import DIVERGE, HALT_ALL, WITNESS
from cesplit.hk import run_hk, run_subset_scenario
from cesplit.trace import merge_for_file
from cesplit.verify import complement_witnesses, probe_friedberg, replay_hk
from cesplit.witness import run_parity_witness


def routed(result):
    """(stage, ball, hk record) per entrant of B: the n-th hk record routes
    the n-th entrant, to half triple[2]."""
    records = [r for r in result.trace if r["op"] == "hk"]
    return [(s, x, r) for (s, x), r in zip(result.kernel.log.entries(result.b), records)]


S = 40_000
result = run_hk([HALT_ALL, DIVERGE], b=0, a=2, stages=S)
routes = routed(result)
print(f"default listing: {len(routes)} balls routed; "
      f"sides {sum(1 for _, _, r in routes if r['triple'][2] == 0)} / "
      f"{sum(1 for _, _, r in routes if r['triple'][2] == 1)}")
print("first routes (ball, triple, l, r):")
for _, x, r in routes[:5]:
    print("  ", (x, r["triple"], r["l"], r["r"]))
print("replay divergences:",
      len(replay_hk(merge_for_file(result.kernel.log, result.trace),
                    result.b, result.a, result.b0, result.b1)))

rigged = run_subset_scenario(S)
tail = [r for s, _, r in routed(rigged) if s > S * 4 // 5]
print(f"\nrigged subset scenario: all {len(tail)} tail balls on side 0 ->",
      all(r["triple"][2] == 0 for r in tail))

bundle = run_parity_witness(WITNESS, S)
log = bundle.kernel.log
last = S - 1
print(f"\nwitness bundle: |K_R| = {len(log.members_at(bundle.k_r, last))}, "
      f"|K_Rbar| = {len(log.members_at(bundle.k_rbar, last))}")

evidence = probe_friedberg(log, bundle.a, bundle.k_r, bundle.k_rbar, last, 8)
flagged = [ev for ev in evidence if ev.signature_side is not None]
print("non-Friedberg signatures flagged for indices:",
      [(ev.j, ev.signature_side) for ev in flagged])

for name, half in (("K_R", bundle.k_r), ("K_Rbar", bundle.k_rbar)):
    live = [c.j for c in complement_witnesses(log, half, last, 16) if c.status == "live"]
    print(f"surviving complement candidates for {name}: {live}")
