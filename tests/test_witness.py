import pytest

from cesplit import corpus
from cesplit.kernel import EventLog, Kernel, machine_index
from cesplit.setalg import before
from cesplit.verify import complement_witnesses, probe_friedberg
from cesplit.witness import run_parity_witness, shav_split, shavrukov_pair

TEXTS = [corpus.HALT_ALL, corpus.HALT_EVEN, corpus.HALT_ODD, corpus.DIVERGE, corpus.HALT_SLOW]
EVENS, ODDS = machine_index(1), machine_index(2)
WITNESS_TEXTS = corpus.WITNESS

S = 30_000
LAST = S - 1


@pytest.fixture(scope="module")
def bundle():
    return run_parity_witness(WITNESS_TEXTS, S)


def test_halves_live_in_their_sides(bundle):
    k = bundle.kernel
    kr = k.w_at(bundle.k_r, LAST)
    krbar = k.w_at(bundle.k_rbar, LAST)
    assert kr and krbar
    assert all(x % 2 == 0 for x in kr)
    assert all(x % 2 == 1 for x in krbar)


def test_union_is_a(bundle):
    k = bundle.kernel
    kr = k.w_at(bundle.k_r, LAST)
    krbar = k.w_at(bundle.k_rbar, LAST)
    wa = k.w_at(bundle.a, LAST)
    assert kr & krbar == frozenset()
    assert wa <= kr | krbar
    # settling: at most the last couple of emissions still in flight
    assert len((kr | krbar) - wa) <= 2


def test_r_minus_complement_half_is_r(bundle):
    # the R-side difference against the far half never loses elements
    k = bundle.kernel
    log = k.log
    r_pos = bundle.r.pos
    r_members = k.w_at(r_pos, LAST)
    krbar = k.w_at(bundle.k_rbar, LAST)
    assert r_members - krbar == r_members
    assert before(log, r_pos, bundle.k_rbar, LAST) == r_members


def test_non_friedberg_signature_flagged(bundle):
    log = bundle.kernel.log
    evidence = probe_friedberg(log, bundle.a, bundle.k_r, bundle.k_rbar, LAST, 8)
    by_j = {ev.j: ev for ev in evidence}
    ev = by_j[bundle.r.pos]
    assert ev.swallowed_recent > 0
    assert ev.signature_side == 1  # W_evens never feeds the complement half


def test_small_stage_witness_is_empty():
    # before the first diagonal discovery cascades, every piece is empty
    b = run_parity_witness(WITNESS_TEXTS, 2)
    assert b.kernel.w_at(b.a, 1) == frozenset()
    assert b.kernel.w_at(b.k_r, 1) == frozenset()


def test_complement_witness_probe_shapes():
    # a scripted sanity check: empty half vs an everything-enumerator
    k = Kernel([corpus.HALT_ALL, corpus.DIVERGE])
    k.run_to(2_000)
    empty_half = machine_index(1)
    evidence = complement_witnesses(k.log, empty_half, 1_999, 2)
    assert evidence[0].status == "live"  # W_0 = everything, disjoint from empty
    # and the everything-set is refuted as complement of itself
    self_ev = complement_witnesses(k.log, machine_index(0), 1_999, 1)
    assert self_ev[0].status == "refuted"


# -- shavrukov operators ----------------------------------------------------


def test_shavrukov_pair_same_index_gives_empty():
    k = Kernel([corpus.HALT_ALL])
    w = machine_index(0)
    x0, x1 = shavrukov_pair(k, w, w)
    k.run_to(2_000)
    assert k.w_at(x0, 1_999) == frozenset()
    assert k.w_at(x1, 1_999) == frozenset()


def test_shavrukov_pair_scripted_example():
    # W gets 1 first; Y gets 1 later and 2 first
    k = Kernel()
    wslot, yslot = 50, 51
    w_em99 = {1: [1]}
    y_em = {2: [1], 3: [2]}
    from cesplit.kernel import HostGenerator

    w = k.register_generator(
        HostGenerator(slot=wslot, pull=lambda s: w_em99.get(s, []))
    )
    y = k.register_generator(
        HostGenerator(slot=yslot, pull=lambda s: y_em.get(s, []))
    )
    x0, x1 = shavrukov_pair(k, w, y)
    k.run_to(30)
    assert k.w_at(x0, 29) == frozenset({1})
    assert k.w_at(x1, 29) == frozenset({2})


def test_shavrukov_pair_disjoint_on_real_sets():
    k = Kernel(TEXTS)
    x0, x1 = shavrukov_pair(k, machine_index(0), EVENS)
    k.run_to(10_000)
    for s in (1_000, 5_000, 9_999):
        assert k.w_at(x0, s) & k.w_at(x1, s) == frozenset()


def test_shav_split_all_on_one_side():
    # a inside x0 entirely: the other half stays empty
    k = Kernel(TEXTS)
    a0, a1 = shav_split(k, EVENS, machine_index(0), machine_index(3))
    k.run_to(6_000)
    assert k.w_at(a1, 5_999) == frozenset()
    assert k.w_at(a0, 5_999) <= k.w_at(EVENS, 5_999)
    assert len(k.w_at(a0, 5_999)) >= len(k.w_at(EVENS, 5_999)) - 2


def test_shav_split_empty_input():
    k = Kernel(TEXTS)
    a0, a1 = shav_split(k, machine_index(3), machine_index(0), EVENS)
    k.run_to(2_000)
    assert k.w_at(a0, 1_999) == frozenset()
    assert k.w_at(a1, 1_999) == frozenset()


def test_shav_split_partitions_covered_part(bundle_stages=12_000):
    k = Kernel(TEXTS)
    halt = machine_index(0)
    a0, a1 = shav_split(k, halt, EVENS, ODDS)
    k.run_to(bundle_stages)
    last = bundle_stages - 1
    wa = k.w_at(halt, last)
    w0, w1 = k.w_at(a0, last), k.w_at(a1, last)
    assert w0 & w1 == frozenset()
    assert w0 | w1 <= wa
    assert all(x % 2 == 0 for x in w0)
    assert all(x % 2 == 1 for x in w1)
    uncovered = {x for x in wa
                 if k.log.entry_stage(EVENS, x) is None and k.log.entry_stage(ODDS, x) is None}
    # every covered entrant is routed or still in flight
    in_flight = wa - (w0 | w1) - uncovered
    assert len(in_flight) <= 4


def test_witness_bundle_reproduced_by_shav_split(bundle):
    # pushing A through the (R, R-bar) sides reproduces the two images
    k = bundle.kernel
    a0, a1 = shav_split(k, bundle.a, bundle.r.pos, bundle.r.neg)
    k.run_to(S + 4_000)
    last = S + 3_999
    got0, got1 = k.w_at(a0, last), k.w_at(a1, last)
    kr, krbar = k.w_at(bundle.k_r, last), k.w_at(bundle.k_rbar, last)
    assert got0 <= kr and got1 <= krbar
    assert len(kr - got0) <= 2 and len(krbar - got1) <= 2
