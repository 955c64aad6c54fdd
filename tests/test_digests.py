"""Byte-identity pins: the sha256 of small trace files and of event logs.

Identical invocations give byte-identical traces, and a refactor must not
change a single event or decision.  Each pin hashes the file that
``cesplit ... --trace`` writes for the run: the event log first, then the
decision records.  A pin changes only with a change meant to alter
behaviour, which then says so.
"""

import hashlib
from collections import Counter
from pathlib import Path

import pytest

from cesplit import corpus, tree
from cesplit.friedberg import run_friedberg
from cesplit.geometry import last_left_pass
from cesplit.kernel import Kernel, machine_index
from cesplit.trace import merge_for_file, read_trace, write_trace
from cesplit.verify import replay_check
from cesplit.tree import PROCEDURES, diagonalize, iterate_splitting_procedures, proc_friedberg
from cesplit.witness import run_parity_witness, shav_split, shavrukov_pair


def trace_sha256(tmp_path, log, decisions) -> str:
    path = tmp_path / "trace.jsonl"
    write_trace(path, merge_for_file(log, decisions))
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Beside each tree trace pin, its decision records counted per op, so that a
# change of format reads as a named count and not only as a moved digest;
# the tests are named by their run, so a moved digest keeps their names.
TREE_OPS = ("meta", "f", "chip", "enter", "left", "pull", "patch", "dump-orig", "dump-extra")


def op_counts(trace) -> tuple:
    """The trace's decision records per op, in ``TREE_OPS`` order."""
    counts = Counter(r["op"] for r in trace)
    assert set(counts) <= set(TREE_OPS), counts
    return tuple(counts[op] for op in TREE_OPS)


def test_tree_trace_pinned(tmp_path):
    result = diagonalize(proc_friedberg, 3000, depth=9)
    assert op_counts(result.trace) == (1, 473, 390, 626, 235, 74, 227, 78, 0)
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == (
        "27b7489b37e6d6aec7ee0d27a4da202cb091622f43e7a19c6d3e8d3bfd3adb92"
    )


# Corpora 102 and 148 of perfbench's ``make_inputs("diagonalize", seed)``: at
# 2e4 stages they are the only pinned runs that write ``dump-extra`` records
# (3 and 2).  The replay disputes the index of some of them, listed here as
# (got, want, file line); ROADMAP item 2, which settles the extra-dump
# rule, empties these lists.
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("seed, counts, digest, disputed", [
    (102, (1, 4291, 2388, 4524, 2147, 83, 769, 150, 3),
     "7e249ac1e024625567b1cb227939b9e0c3f4fe8edbeb17961e3ecae0f256ea99",
     [(19, 2768, 25981), (20, 3048, 25991)]),
    (148, (1, 4280, 2379, 4513, 2142, 82, 768, 150, 2),
     "2ad64b740133c5047ded6f47a758ce594338d3a4a8507288262b6a4a285124ff",
     [(7, 2810, 25375), (8, 2811, 25384)]),
], ids=["102", "148"])
def test_extra_dump_trace_pinned(tmp_path, seed, counts, digest, disputed):
    texts = corpus.load_corpus(DATA / f"diagonalize_seed{seed}.txt")
    result = diagonalize(PROCEDURES["hf"], 20_000, depth=25, corpus_texts=texts)
    assert op_counts(result.trace) == counts
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == digest
    report = replay_check(merge_for_file(result.kernel.log, result.trace))
    assert [d["field"] for d in report["divergences"]] == ["extra-index"] * len(disputed)
    assert [(d["got"], d["want"], d["line"]) for d in report["divergences"]] == disputed
    # the file read back replays to the same report, its lines included
    assert replay_check(read_trace(tmp_path / "trace.jsonl")) == report
    # the run's per-stage history and the changes of f its records carry
    # give every node the same last left pass
    changes = [(r["s"], r["ks"], r["node"]) for r in result.trace if r["op"] == "f"]
    history = result.run.history
    assert len(changes) < len(history)
    for node in result.run.nodes:
        assert last_left_pass(history, node) == last_left_pass(changes, node), node


@pytest.mark.parametrize("proc, counts, digest", [
    ("hf", (1, 6295, 3380, 6526, 3146, 84, 731, 147, 0),
     "6fed25221753a519ef9b0b7d34b09fb2deeca84c917ff093873f88cf9181afe8"),
    ("trivial", (1, 6556, 3738, 6944, 3279, 131, 745, 237, 0),
     "b83ee3127dd0578a4582972b561ae505d7d24c6097f44e2991ef1252b6efa873"),
    ("broken", (1, 6556, 3670, 6944, 3279, 131, 745, 237, 0),
     "f48ffd4cb9e82d8fffe22d24c6a585ebb62418172401fb528ac515df445fce87"),
], ids=["hf", "trivial", "broken"])
def test_tree_trace_pinned_at_depth_25(tmp_path, proc, counts, digest):
    result = diagonalize(PROCEDURES[proc], 30_000, depth=25)
    assert op_counts(result.trace) == counts
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == digest


def test_iterate_rounds_pinned(tmp_path, monkeypatch):
    # the one layout where a watch-woken pair (Friedberg's, from round 1 on)
    # holds lower slots than the brain and the witness split it runs beside;
    # the rounds' summary hides the order of their events, so each round's
    # event log is pinned too
    kernels = []

    def keeping_kernel(*args, **kwargs):
        result = diagonalize(*args, **kwargs)
        kernels.append(result.kernel)
        return result

    monkeypatch.setattr(tree, "diagonalize", keeping_kernel)
    rounds = iterate_splitting_procedures(proc_friedberg, 2, 20_000)
    assert hashlib.sha256(repr(rounds).encode()).hexdigest() == (
        "6ee96ed998d255b1088df59da1e73a9924dae8eff951e0ea5630ef15c77fe7b9"
    )
    assert [trace_sha256(tmp_path, kernel.log, []) for kernel in kernels] == [
        "89b6582fdcfd21e3960e10bef617244a097330f32e9b859de33bca5becbc531d",
        "076cfb5b753aff78f401b00c7209a7331bb55b1c33977e68baa32325f975d2ff",
    ]


def test_friedberg_trace_pinned(tmp_path):
    result = run_friedberg(corpus.BASIC, 8, 4000)
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == (
        "30c4c673e652869e13a86a8268d8f22ba4326731a4679ee8ba5919e56fcf07a1"
    )


def test_kernel_event_log_pinned(tmp_path):
    # reaches level 17, so bursts of BURST_CAP steps run; no pair halts in
    # one, and test_capped_bursts_match_oracle (test_kernel.py) pins the cap
    kernel = Kernel(corpus.make_corpus(512))
    kernel.run_to(200_000)
    assert trace_sha256(tmp_path, kernel.log, []) == (
        "2e0d589336bf402d907173587f620a90683d766a8eac7b2513884e9e7660453e"
    )


def test_benchmark_enumeration_pinned(tmp_path):
    # perfbench's ``make_inputs("enumerate", 1)`` corpus at its 1e6 stages:
    # 512 programs whose pairs settle at a jump to themselves at pc 0 or
    # mid-program, and 153,349 of the 999,997 ladder places served go to a
    # settled pair's marker; the event log is the one whose sha256 the
    # benchmark prints as f079e27c...a3e8
    kernel = Kernel(corpus.load_corpus(DATA / "enumerate_seed1.txt"))
    kernel.run_to(1_000_000)
    assert trace_sha256(tmp_path, kernel.log, []) == (
        "51ea50192fff9e82c87cdd06e2a22ce742c86c5446b067bea72cb3c851bc074f"
    )


SHAV_TEXTS = [corpus.HALT_ALL, corpus.HALT_EVEN, corpus.HALT_ODD, corpus.HALT_SLOW,
              corpus.halt_from(2)]


def test_witness_bundle_with_shav_split_pinned(tmp_path):
    # the paced pair, the diagonal-image pair and A, then a covered-part
    # split registered mid-run above them
    bundle = run_parity_witness(corpus.WITNESS, 30_000)
    kernel = bundle.kernel
    shav_split(kernel, bundle.a, bundle.r.pos, bundle.r.neg)
    kernel.run_to(34_000)
    assert trace_sha256(tmp_path, kernel.log, []) == (
        "57595a85192919e8c61cb8f47d5f05a1d5492b292a05c5f597ea69ad35190257"
    )


def test_shav_split_pinned(tmp_path):
    kernel = Kernel(SHAV_TEXTS)
    shav_split(kernel, machine_index(0), machine_index(1), machine_index(2))
    kernel.run_to(30_000)
    assert trace_sha256(tmp_path, kernel.log, []) == (
        "25649e35886321f8f3889e9d02ec53ce9355c36964df69173a2d63d4d6db513a"
    )


def test_shav_splits_above_a_shavrukov_pair_pinned(tmp_path):
    # the pair's watchers hold the lower slots, below both splits' halves
    kernel = Kernel(SHAV_TEXTS)
    x0, x1 = shavrukov_pair(kernel, machine_index(1), machine_index(2))
    shav_split(kernel, machine_index(0), x0, x1)
    shav_split(kernel, machine_index(4), x0, x1)
    kernel.run_to(30_000)
    assert trace_sha256(tmp_path, kernel.log, []) == (
        "c08139eda7512a5a03dda6888fe4058d88436283d5ef5ef8342dbc8c294342e5"
    )


def test_tree_with_witness_split_pinned(tmp_path):
    result = diagonalize(PROCEDURES["trivial"], 20_000, with_witness_split=True)
    assert trace_sha256(tmp_path, result.kernel.log, []) == (
        "321ad401c750545a9aa03efca99e2a1ea862effa76b50ab431330296df3ba71b"
    )
