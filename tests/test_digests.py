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
TREE_OPS = ("meta", "f", "left", "pull", "patch", "dump-orig", "dump-extra")


def op_counts(trace) -> tuple:
    """The trace's decision records per op, in ``TREE_OPS`` order."""
    counts = Counter(r["op"] for r in trace)
    assert set(counts) <= set(TREE_OPS), counts
    return tuple(counts[op] for op in TREE_OPS)


def chip_changes(history) -> dict:
    """Per question node n, the tree stages whose f extends n+"1": the
    stages at which n's chip changed, since the walk branches 1 exactly
    then.  The trace wrote one ``chip`` record at each of them until the
    ``f`` records became one per stage, and these counts equal those
    records' on every pinned run of that format."""
    counts = Counter()
    for _, _, f in history:
        for d, bit in enumerate(f):
            if bit == "1":
                counts[f[:d]] += 1
    return dict(counts)


def test_tree_trace_pinned(tmp_path):
    result = diagonalize(proc_friedberg, 3000, depth=9)
    assert op_counts(result.trace) == (1, 627, 235, 74, 227, 78, 0)
    assert chip_changes(result.run.history) == {"": 390}
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == (
        "066aec1ede0bca4ae0c75a4abffe6c13ac28d3d21c7d41aeb706afb5168ff6fd"
    )


# Corpora 102 and 148 of perfbench's ``make_inputs("diagonalize", seed)``: at
# 2e4 stages they are the only pinned runs that write ``dump-extra`` records
# (3 and 2).  The replay disputes the index of some of them, listed here as
# (got, want, file line); ROADMAP item 2, which settles the extra-dump
# rule, empties these lists.
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("seed, counts, digest, disputed", [
    (102, (1, 4525, 2147, 83, 769, 150, 3),
     "462778dd771fddcbadd7bb8bc17e7197d974e7041234c398819e035176c5d143",
     [(19, 2768, 21518), (20, 3048, 21524)]),
    (148, (1, 4514, 2142, 82, 768, 150, 2),
     "d595f71cd98e62c4424ef894337a0f814ebb8c1a3761ed7180da386db93660d0",
     [(7, 2810, 21269), (8, 2811, 21274)]),
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
    # the f records are the run's per-stage history, which gives the
    # replay every node's last left pass
    stages = [(r["s"], r["ks"], r["node"]) for r in result.trace if r["op"] == "f"]
    assert stages == result.run.history


@pytest.mark.parametrize("proc, counts, chips, digest", [
    ("hf", (1, 6527, 3146, 84, 731, 147, 0), {"": 3379, "0" * 16: 1},
     "903cd77d545aa7e9186d94bac58c7a915d5e1f3480d1114e944f5cc3ab101d00"),
    ("trivial", (1, 6945, 3279, 131, 745, 237, 0), {"": 3668, "0" * 16: 68, "10000000": 2},
     "aac2c4cc573387f38cd83786467e0de41cd4b28d8e490bf79fd77d98bb4d61bd"),
    ("broken", (1, 6945, 3279, 131, 745, 237, 0), {"": 3668, "10000000": 2},
     "8e53c0e04f2dbfccb3f90fc8a34f3b347f070d1a3cb5d116b3fc49e820cd3dbd"),
], ids=["hf", "trivial", "broken"])
def test_tree_trace_pinned_at_depth_25(tmp_path, proc, counts, chips, digest):
    result = diagonalize(PROCEDURES[proc], 30_000, depth=25)
    assert op_counts(result.trace) == counts
    assert chip_changes(result.run.history) == chips
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
