"""Byte-identity pins: the sha256 of small trace files and of event logs.

Identical invocations give byte-identical traces, and a refactor must not
change a single event or decision.  Each pin hashes the file that
``cesplit ... --trace`` writes for the run: the event log first, then the
decision records.  A pin changes only with a change meant to alter
behaviour, which then says so.
"""

import hashlib
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


def test_tree_trace_pinned(tmp_path):
    result = diagonalize(proc_friedberg, 3000, depth=9)
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == (
        "1f3f6b1b14155c9e581351e48c4f42a621bc3bab3e53aa9b0fca630ce7ec11e5"
    )


# Corpora 102 and 148 of perfbench's ``make_inputs("diagonalize", seed)``: at
# 2e4 stages they are the only pinned runs that write ``dump-extra`` records
# (3 and 2).  The replay disputes the index of some of them, listed here as
# (got, want, file line); ROADMAP item 2, which settles the extra-dump
# rule, empties these lists.
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("seed, digest, disputed", [
    (102, "7092097d846ba7a98e0e1a02b83f606ffb5e63a858c6b8cfa748d0fc7ca3a836",
     [(19, 2768, 33026), (20, 3048, 33041)]),
    (148, "5af9fdefa6f14005cbe33ccc964a9bbf3f9da4c5c10f911f96935ada412b8d6c",
     [(7, 2810, 31823), (8, 2811, 31837)]),
])
def test_extra_dump_trace_pinned(tmp_path, seed, digest, disputed):
    texts = corpus.load_corpus(DATA / f"diagonalize_seed{seed}.txt")
    result = diagonalize(PROCEDURES["hf"], 20_000, depth=25, corpus_texts=texts)
    assert any(r["op"] == "dump-extra" for r in result.trace)
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


@pytest.mark.parametrize("proc, digest", [
    ("hf", "4e69f6d13c900cae00ee277f5bacc6441d88dc235b418513a613c3453b5f1eb4"),
    ("trivial", "7de88e40478e5b2fc3c68922ffc9b065c95deab809fca14bbc0d484438467e44"),
    ("broken", "7bf8bc3cf4ca517c12ae77de87fc6cf9c43502dd39e29fa3d3fa4ec362544930"),
])
def test_tree_trace_pinned_at_depth_25(tmp_path, proc, digest):
    result = diagonalize(PROCEDURES[proc], 30_000, depth=25)
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
