"""Byte-identity pins: the sha256 of small trace files and of event logs.

Identical invocations give byte-identical traces, and a refactor must not
change a single event or decision.  Each pin hashes the file that
``cesplit ... --trace`` writes for the run: the event log first, then the
decision records.  A pin changes only with a change meant to alter
behaviour, which then says so.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cesplit import corpus, tree
from cesplit.friedberg import run_friedberg
from cesplit.hk import run_hk, run_subset_scenario
from cesplit.kernel import Kernel, machine_index
from cesplit.trace import merge_for_file, read_trace, write_trace
from cesplit.verify import _OPS, replay_check
from cesplit.tree import PROCEDURES, diagonalize, iterate_splitting_procedures, proc_friedberg
from cesplit.witness import run_parity_witness, shav_split, shavrukov_pair


def trace_sha256(tmp_path, log, decisions) -> str:
    path = tmp_path / "trace.jsonl"
    write_trace(path, merge_for_file(log, decisions))
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Beside each tree trace pin, its decision records counted per op, so that a
# change of format reads as a named count and not only as a moved digest;
# the tests are named by their run, so a moved digest keeps their names.
TREE_OPS = ("meta", *_OPS["tree"])


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
    for _, f in history:
        for d, bit in enumerate(f):
            if bit == "1":
                counts[f[:d]] += 1
    return dict(counts)


TREE_PIN = "0c1cda88a55f16a22aaf03d65725fddcfec661b3a0e3310e679e360f93a5822d"
FRIEDBERG_PIN = "38038f6f341cfb7e0097732e37cd00d7802b6128118d38120d4e39778ecc2518"
SUBSET_PIN = "fd4a63cf2438a619b2f79cacc5ba455a0468ec63b7a7174360fbf7df34d90855"


def test_tree_trace_pinned(tmp_path):
    result = diagonalize(proc_friedberg, 3000, depth=9)
    assert op_counts(result.trace) == (1, 627, 235, 74, 78, 0)
    assert chip_changes(result.run.history) == {"": 390}
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == TREE_PIN


# Corpora 102 and 148 of perfbench's ``make_inputs("diagonalize", seed)``: at
# 2e4 stages they are the only pinned runs that write ``dump-extra`` records
# (3 and 2).  Some of those records sit where f last moved left of gamma later
# than of the dumped piece's node, so their index verifies only because the
# replay measures it from the piece's node, as the run does.
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("seed, counts, digest", [
    (102, (1, 4525, 2147, 83, 150, 3),
     "02f25aff62d0cfa9125cf77cbfff300d6aba65bf29515052e6c107fb5efbb763"),
    (148, (1, 4514, 2142, 82, 150, 2),
     "70589e483d6ddec98e76a4aa8b6d4fbc55acae77558cb643f30d0dedc9ae53f2"),
], ids=["102", "148"])
def test_extra_dump_trace_pinned(tmp_path, seed, counts, digest):
    texts = corpus.load_corpus(DATA / f"diagonalize_seed{seed}.txt")
    result = diagonalize(PROCEDURES["hf"], 20_000, depth=25, corpus_texts=texts)
    assert op_counts(result.trace) == counts
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == digest
    report = replay_check(merge_for_file(result.kernel.log, result.trace))
    assert report["ok"] and report["divergences"] == []
    # the file read back replays to the same report, its lines included
    assert replay_check(read_trace(tmp_path / "trace.jsonl")) == report
    # the f records are the run's per-stage history, which gives the
    # replay every node's last left pass: their s is the entry's position
    fs = [r for r in result.trace if r["op"] == "f"]
    assert [r["s"] for r in fs] == list(range(len(fs)))
    assert [(r["ks"], r["node"]) for r in fs] == result.run.history


@pytest.mark.parametrize("proc, counts, chips, digest", [
    ("hf", (1, 6527, 3146, 84, 147, 0), {"": 3379, "0" * 16: 1},
     "1bdc511ff29efe0ba5e22080673669cf49450ad15039ce34ecf8068c42af7649"),
    ("trivial", (1, 6945, 3279, 131, 237, 0), {"": 3668, "0" * 16: 68, "10000000": 2},
     "6c5880a3a7e0fb5dab229693b6f7039150de8865e3a87a63d8fb4127710282c9"),
    ("broken", (1, 6945, 3279, 131, 237, 0), {"": 3668, "10000000": 2},
     "a735781a5f54e5fe3baaeca5296558894c55314fb437dd099d8b81e64301443a"),
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
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == FRIEDBERG_PIN


def test_subset_scenario_trace_pinned(tmp_path):
    # `cesplit split hk-subset --stages 4000 --trace`: its meta record
    # carries the rigged listings
    result = run_subset_scenario(4000)
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == SUBSET_PIN


def pinned_digests(tmp_path) -> list:
    """The trace sha256 of the runs of TREE_PIN, FRIEDBERG_PIN and SUBSET_PIN."""
    runs = (diagonalize(proc_friedberg, 3000, depth=9), run_friedberg(corpus.BASIC, 8, 4000),
            run_subset_scenario(4000))
    return [trace_sha256(tmp_path, r.kernel.log, r.trace) for r in runs]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_pins_hold_under_any_hash_seed(tmp_path, seed):
    # sets and dicts keyed by strings iterate in an order PYTHONHASHSEED
    # picks, and no trace may depend on it: a fresh interpreter under each
    # seed writes the pinned bytes
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    script = ("import sys; from pathlib import Path; from test_digests import pinned_digests; "
              "print(*pinned_digests(Path(sys.argv[1])))")
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, timeout=600, env=dict(os.environ, PYTHONHASHSEED=seed,
                                                           PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [TREE_PIN, FRIEDBERG_PIN, SUBSET_PIN]


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


# perfbench's other two seed-1 runs, on their ``make_inputs`` corpora: each
# digest is the trace sha256 the benchmark prints for the run
def test_benchmark_diagonalize_pinned(tmp_path):
    texts = corpus.load_corpus(DATA / "diagonalize_seed1.txt")
    result = diagonalize(PROCEDURES["hf"], 100_000, depth=25, corpus_texts=texts)
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == (
        "919ec8ab929e5c9a0a8fa2fa384c4dd404b3275274c78162d76bac9268ac6e16"
    )


@pytest.mark.parametrize("run, digest", [
    (lambda texts: run_friedberg(texts, 2, 1_000_000),
     "ab2fcd6e19dafaf41b951a34a0fd28c6957b49a5dcc2f05b102cbefc6612631c"),
    (lambda texts: run_hk(texts, 2, 4, 300_000),
     "eb6d24b500116c67a97227eedd5f1f3318250359f52b78920c368ab49f78f25c"),
], ids=["friedberg", "hk"])
def test_benchmark_split_pinned(tmp_path, run, digest):
    result = run(corpus.load_corpus(DATA / "split_seed1.txt"))
    assert trace_sha256(tmp_path, result.kernel.log, result.trace) == digest


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
