from hypothesis import given
from hypothesis import strategies as st

from cesplit.pairing import balance_code, pair, unpair

nat = st.integers(min_value=0, max_value=10_000)


@given(nat, nat)
def test_pair_roundtrip(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(st.integers(min_value=0, max_value=200_000))
def test_unpair_roundtrip(n):
    a, b = unpair(n)
    assert pair(a, b) == n


@given(nat, nat)
def test_pair_monotone(a, b):
    assert pair(a + 1, b) > pair(a, b)
    assert pair(a, b + 1) > pair(a, b)


def test_small_codes():
    # the zero pair really is code zero; for one index the easiest unmet
    # balance targets alternate sides, side 0 first
    assert pair(0, 0) == 0
    for e in range(4):
        codes = [balance_code(e, i, k) for k in (1, 2) for i in (0, 1)]
        assert codes == sorted(codes)
