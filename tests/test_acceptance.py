"""Acceptance gate: every criterion at its stated budget and tolerance.

Each test prints one PASS line (visible with pytest -s); a failing criterion
fails its test.  Budgets follow the stated stage counts; the full module is
the slow end of the suite and runs in a few minutes.
"""

import copy
import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from cesplit import corpus
from cesplit.friedberg import run_friedberg
from cesplit.hk import run_hk, run_subset_scenario
from cesplit.kernel import HostGenerator, Kernel, machine_index
from cesplit.setalg import before, before_then, check_split_history
from cesplit.trace import merge_for_file, write_trace
from cesplit.tree import (
    PROCEDURES,
    diagonalize,
    iterate_splitting_procedures,
    structural_report,
)
from cesplit.verify import (
    _NaiveRestraint,
    complement_witnesses,
    probe_friedberg,
    replay_friedberg,
    replay_hk,
)
from cesplit.witness import run_parity_witness, shav_split, shavrukov_pair

SPLIT_TEXTS = [
    corpus.HALT_ALL, corpus.DIVERGE, corpus.HALT_SLOW,
    corpus.halt_below(6), corpus.halt_from(3),
]


def announce(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


def log_digest(log):
    h = hashlib.sha256()
    for s, e, x in log.events():
        h.update(f"{s},{e},{x};".encode())
    return h.hexdigest()


def test_criterion_1_single_event_and_determinism(scripted):
    texts = corpus.make_corpus(512)

    def build():
        kernel = Kernel(texts)
        scripted(kernel, 0, {100 + 7 * i: [3 * i] for i in range(40)})
        ticker = {"next": 0}

        def paced(stage):
            n = ticker["next"]
            ticker["next"] = n + 1
            return [5 * n + 1]

        paced_idx = kernel.register_generator(HostGenerator(slot=1, pull=paced, wake="timer"))
        kernel.pace(paced_idx, 97)
        return kernel

    t0 = time.time()
    first = build()
    first.run_to(1_000_000)
    elapsed = time.time() - t0
    stages = [s for s, _, _ in first.log.events()]
    assert len(stages) == len(set(stages)), "two events share a stage"
    assert all(a < b for a, b in zip(stages, stages[1:]))
    second = build()
    second.run_to(1_000_000)
    assert log_digest(first.log) == log_digest(second.log)
    assert elapsed < 60.0, f"run took {elapsed:.1f}s"
    announce(1, f"1e6 stages, {len(stages)} events, one run in {elapsed:.1f}s, "
                "byte-identical across runs")


def test_criterion_2_operator_laws(scripted):
    kernel = Kernel(corpus.make_corpus(12))
    scripted(kernel, 0, {20 + 9 * i: [2 * i + 1] for i in range(60)})
    S = 10_000
    kernel.run_to(S)
    log = kernel.log
    rng = random.Random(20260808)
    pool = list(range(0, 120)) + [1]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(100)]
    checked = 0
    for a, b in pairs:
        stages = sorted({t for t, _ in log.entries(a)} | {t for t, _ in log.entries(b)})
        stages = [s for s in stages if s <= S - 1] + [S - 1]
        for s in stages:
            wa = log.members_at(a, s)
            wb = log.members_at(b, s)
            bf = before(log, a, b, s)
            bt = before_then(log, a, b, s)
            assert bt <= bf <= wa, (a, b, s)
            assert bf == (wa - wb) | bt, (a, b, s)
            assert (wa - wb) & bt == frozenset(), (a, b, s)
            checked += 1
    announce(2, f"100 index pairs, {checked} stagewise law evaluations, zero violations")


def test_criterion_3_friedberg_construction():
    S = 100_000
    inputs = list(range(0, 40, 2))
    weak = []
    for a in inputs:
        result = run_friedberg(SPLIT_TEXTS, a, S)
        log = result.kernel.log
        hit = check_split_history(log, result.a, result.a0, result.a1, S - 1)
        assert hit is None, (a, hit)
        divergences = replay_friedberg(merge_for_file(log, result.trace),
                                       result.a, result.a0, result.a1)
        assert divergences == [], (a, divergences[:3])
        for e in sorted({e for _, e, _ in log.events()}):
            if e in (result.a, result.a0, result.a1):
                continue
            if len(before_then(log, e, result.a, S - 1)) >= 10:
                c0 = len(before_then(log, e, result.a0, S - 1))
                c1 = len(before_then(log, e, result.a1, S - 1))
                if not (c0 >= 1 and c1 >= 1):
                    weak.append((a, e, c0, c1))
    assert weak == []
    announce(3, f"20 inputs at S={S}: splits clean, replays clean, "
                "every index swallowing 10+ feeds both sides")


def test_criterion_4_herrmann_kummer():
    S = 100_000
    result = run_hk(
        [corpus.HALT_ALL, corpus.DIVERGE, corpus.HALT_SLOW],
        machine_index(0), machine_index(1), S,
    )
    log = result.kernel.log
    divergences = replay_hk(merge_for_file(log, result.trace),
                            result.b, result.a, result.b0, result.b1)
    assert divergences == [], divergences[:3]
    from cesplit.pairing import pair, unpair

    codes = {tuple(t["triple"]) for t in result.trace if t["op"] == "hk"}
    for m in range(6):  # the lowest-priority band, traced or not
        e, j = unpair(m)
        codes.add((e, j, 0))
        codes.add((e, j, 1))
    sample_stages = list(range(0, S, S // 25))
    for e, j, i in sorted(codes):
        code = pair(pair(e, j), i)
        bi = result.b0 if i == 0 else result.b1
        tracker = _NaiveRestraint(log, code, e, j, bi, result.a)
        hist = [tracker.r_at(s) for s in sample_stages]
        assert all(u <= v for u, v in zip(hist, hist[1:])), (e, j, i)
    rigged = run_subset_scenario(S)
    # the n-th hk record routes the n-th entrant of B, to half triple[2]
    routes = zip(rigged.kernel.log.entries(rigged.b), (t for t in rigged.trace if t["op"] == "hk"))
    tail = [t for (s, _), t in routes if s >= S * 4 // 5]
    sides_in_tail = {t["triple"][2] for t in tail}
    assert tail and 1 not in sides_in_tail
    assert check_split_history(rigged.kernel.log, rigged.b, rigged.b0, rigged.b1, S - 1) is None
    announce(4, f"restraints monotone over {len(codes)} triples, replay clean, "
                f"rigged subset scenario starves one side ({len(tail)} tail balls)")


def test_criterion_5_witness_probes():
    S = 100_000
    J = 64
    bundle = run_parity_witness(corpus.WITNESS, S)
    log = bundle.kernel.log
    last = S - 1
    evidence = probe_friedberg(log, bundle.a, bundle.k_r, bundle.k_rbar, last, J)
    by_j = {ev.j: ev for ev in evidence}
    flag = by_j[bundle.r.pos]
    assert flag.signature_side == 1, flag
    assert flag.swallowed_recent > 0
    for half in (bundle.k_r, bundle.k_rbar):
        statuses = complement_witnesses(log, half, last, J)
        live = [ev.j for ev in statuses if ev.status == "live"]
        assert live == [], (half, live)
    announce(5, f"non-Friedberg signature on the computable side "
                f"({flag.swallowed_total} swallowed), all {J} complement "
                "candidates refuted for both halves")


def test_criterion_6_shavrukov_operators():
    rng = random.Random(99)
    pool = [machine_index(m) for m in range(10)] + [1]
    pairs = []
    batches = 4
    checked_events = 0
    for batch in range(batches):
        kernel = Kernel([corpus.HALT_ALL, corpus.HALT_EVEN, corpus.HALT_ODD,
                         corpus.HALT_SLOW, corpus.halt_from(2)])
        registered = []
        for _ in range(25):
            w, y = rng.choice(pool), rng.choice(pool)
            registered.append((w, y, *shavrukov_pair(kernel, w, y)))
        kernel.run_to(20_000)
        log = kernel.log
        for w, y, x0, x1 in registered:
            seen0, seen1 = set(), set()
            for t, idx, x in log.events():
                if idx == x0:
                    assert x not in seen1, (w, y, x)
                    seen0.add(x)
                elif idx == x1:
                    assert x not in seen0, (w, y, x)
                    seen1.add(x)
                checked_events += 1
            pairs.append((w, y))
    kernel = Kernel([corpus.HALT_ALL, corpus.HALT_EVEN, corpus.HALT_ODD])
    halt, evens, odds = machine_index(0), machine_index(1), machine_index(2)
    a0, a1 = shav_split(kernel, halt, evens, odds)
    S = 30_000
    kernel.run_to(S)
    log = kernel.log
    last = S - 1
    w0, w1 = log.members_at(a0, last), log.members_at(a1, last)
    assert w0 & w1 == frozenset()
    covered = {
        x for _, x in log.entries(halt)
        if log.entry_stage(evens, x) is not None or log.entry_stage(odds, x) is not None
    }
    settled = {
        x for x in covered
        if max(log.entry_stage(halt, x),
               log.entry_stage(evens, x) or log.entry_stage(odds, x)) <= last - 16
    }
    routed = w0 | w1
    assert routed <= covered
    missing = settled - routed
    assert missing == set(), sorted(missing)[:5]
    announce(6, f"{len(pairs)} operator pairs disjoint at every stage, "
                "covered part of the split partitioned exactly")


@pytest.mark.parametrize("proc_name,allowed", [("hf", {3}), ("trivial", {1, 2}), ("broken", {1})])
def test_criterion_7_tree_diagonalizer(proc_name, allowed):
    result = diagonalize(PROCEDURES[proc_name], 1_000_000, depth=25, collect_trace=False)
    report = structural_report(result.run)
    assert result.violations == [], result.violations[:3]
    assert report["problems"] == []
    assert result.verdict.kind in allowed, result.verdict
    assert result.stable, result.checkpoints
    announce(7, f"proc {proc_name}: verdict {result.verdict.kind} "
                f"({result.verdict.reason}), stable tail, zero invariant violations, "
                f"{report['partition_exceptions']} partition exceptions")


def test_criterion_8_corollary_iteration():
    t0 = time.time()
    rounds = iterate_splitting_procedures(PROCEDURES["hf"], 3, 100_000)
    elapsed = time.time() - t0
    indices = [entry["e"] for entry in rounds]
    assert len(set(indices)) == 3, indices
    assert all(entry["verdict"] == 3 for entry in rounds), rounds
    assert all(entry["stable"] for entry in rounds)
    assert all(entry["violations"] == 0 for entry in rounds)
    assert elapsed < 600, elapsed
    announce(8, f"3 rounds in {elapsed:.0f}s, distinct indices {indices}, "
                "all with Friedberg-like evidence")


def test_criterion_9_fault_injection(tmp_path):
    fried = run_friedberg(SPLIT_TEXTS, machine_index(0), 4_000)
    hk = run_hk(SPLIT_TEXTS, machine_index(0), machine_index(1), 4_000)
    tree = diagonalize(PROCEDURES["hf"], 6_000, depth=9)

    def tamper(result, op, mutate):
        out = copy.deepcopy(result.trace)
        idx = next(i for i, r in enumerate(out) if r["op"] == op)
        mutate(out[idx])
        return merge_for_file(result.kernel.log, out)

    cases = [
        (fried, "route", lambda r: r.update(req=[0, 1, 1])),
        (fried, "route", lambda r: r.update(req=[0, 0, 10**6])),
        (hk, "hk", lambda r: r.update(triple=r["triple"][:2] + [1 - r["triple"][2]])),
        (hk, "hk", lambda r: r.update(l=r["l"] + 1)),
        (hk, "hk", lambda r: r.update(r=r["r"] + 1)),
        (tree, "f", lambda r: r.update(s=r["s"] + 1)),
        (tree, "pull", lambda r: r.update(x0=r["x1"], x1=r["x0"])),
        (tree, "pull", lambda r: r.update(req=r["req"] + 10**6)),
        (tree, "dump-orig", lambda r: r.update(e=r["e"] + 1)),
        (tree, "f", lambda r: r.update(node=r["node"] + "00")),
    ]
    caught = 0
    for n, (result, op, mutate) in enumerate(cases):
        path = tmp_path / f"tampered_{n}.jsonl"
        write_trace(path, tamper(result, op, mutate))
        proc = subprocess.run(
            [sys.executable, "-m", "cesplit.cli", "verify", "--trace", str(path)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 1, (n, op, proc.stdout)
        caught += 1
    announce(9, f"{caught}/10 single-line tamperings caught with exit code 1")
