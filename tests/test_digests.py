"""Byte-identity pins: the sha256 of small trace files and of one event log.

Identical invocations give byte-identical traces, and a refactor must not
change a single event or decision.  Each pin hashes the file that
``cesplit ... --trace`` writes for the run: the event log first, then the
decision records.  A pin changes only with a change meant to alter
behaviour, which then says so.
"""

import hashlib

from cesplit import corpus
from cesplit.friedberg import run_friedberg
from cesplit.kernel import Kernel
from cesplit.trace import dumps_record, merge_for_file
from cesplit.tree import diagonalize, proc_friedberg


def trace_sha256(log, decisions) -> str:
    h = hashlib.sha256()
    for record in merge_for_file(log, decisions):
        h.update((dumps_record(record) + "\n").encode())
    return h.hexdigest()


def test_tree_trace_pinned():
    result = diagonalize(proc_friedberg, 3000, depth=9)
    assert trace_sha256(result.kernel.log, result.trace) == (
        "1f3f6b1b14155c9e581351e48c4f42a621bc3bab3e53aa9b0fca630ce7ec11e5"
    )


def test_friedberg_trace_pinned():
    result = run_friedberg(corpus.BASIC, 8, 4000)
    assert trace_sha256(result.kernel.log, result.trace) == (
        "30c4c673e652869e13a86a8268d8f22ba4326731a4679ee8ba5919e56fcf07a1"
    )


def test_kernel_event_log_pinned():
    # reaches level 17, so bursts of BURST_CAP steps run; no pair halts in
    # one, and test_capped_bursts_match_oracle (test_kernel.py) pins the cap
    kernel = Kernel(corpus.make_corpus(512))
    kernel.run_to(200_000)
    assert trace_sha256(kernel.log, []) == (
        "2e0d589336bf402d907173587f620a90683d766a8eac7b2513884e9e7660453e"
    )
