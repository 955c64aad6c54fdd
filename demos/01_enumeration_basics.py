#!/usr/bin/env python3
"""A tour of the enumeration kernel.

Builds a kernel over a tiny program corpus, steps it, and shows how the
one-event-per-stage convention, host generators, and padding codes behave.
"""

from cesplit import HostGenerator, Kernel
from cesplit.kernel import machine_index
from cesplit.corpus import BASIC

kernel = Kernel(BASIC)

# a scripted generator: a timer source, polled at the stages it books,
# that wants 3 at stage 5 and 9 at stage 12
emissions = {5: [3], 12: [9]}
idx = kernel.register_generator(
    HostGenerator(slot=0, pull=lambda s: emissions.get(s, []), wake="timer")
)
for stage in emissions:
    kernel.wake_at(idx, stage)
print(f"registered a host generator; its set has index {idx}")

kernel.run_to(2_000)

print("\nfirst fifteen events (stage, index, element):")
for i, event in enumerate(kernel.log.events()):
    if i >= 15:
        break
    print("  ", event)

stages = [s for s, _, _ in kernel.log.events()]
print(f"\n{len(stages)} events over 2000 stages; all stages distinct:",
      len(stages) == len(set(stages)))

halt_index = 0  # machine code 0 = the halt-everything program
print(f"\nW_{halt_index} so far: ", sorted(kernel.w_at(halt_index, 1_999))[:12], "...")
print(f"host set {idx}:       ", sorted(kernel.w_at(idx, 1_999)))

# machine code 2*m runs corpus program m % len(corpus), so code
# 2*(m + len(corpus)) is a padding code for the same program
pad = machine_index(0 + len(BASIC))
print(f"\ncode {pad} pads code {halt_index}; same program simulated under its own code")
kernel.run_to(8_000)
print(f"W_{pad} catching up:  ", sorted(kernel.w_at(pad, 7_999))[:8], "...")

diverger = 6  # machine code 6 = corpus slot 3 = an infinite loop
print(f"\nW_{diverger} (a diverger) is empty:", kernel.w_at(diverger, 7_999) == frozenset())
