"""Property tests of the tree geometry against brute-force definitions.

The definitions below are written from the geometry's prose (preorder with
the 1-branch first, squares found by search, a naive history scan) rather
than from its code, so the construction and its replay are checked against
something other than the module they share.
"""

from hypothesis import given
from hypothesis import strategies as st

from cesplit.geometry import (
    can_pull,
    greatest_r_prefix,
    is_left_of,
    last_left_pass,
    left_key,
    left_target,
    r_chain,
    requesting_prefixes,
    sorted_add,
    sorted_discard,
)

MAX_DEPTH = 8

addresses = st.text(alphabet="01", min_size=0, max_size=MAX_DEPTH)
deep_addresses = st.text(alphabet="01", min_size=0, max_size=12)  # no table needed
positions = st.one_of(st.none(), addresses)


def _preorder(node=""):
    """Every address up to MAX_DEPTH, visiting the 1-branch before the 0-branch."""
    yield node
    if len(node) < MAX_DEPTH:
        yield from _preorder(node + "1")
        yield from _preorder(node + "0")


RANK = {node: i for i, node in enumerate(_preorder())}


def brute_square(d):
    return d > 0 and any(i * i == d for i in range(d + 1))


def brute_left_of(a, b):
    return RANK[a] < RANK[b]


def brute_extends(a, b):
    """a lies in b's subtree, b itself excluded."""
    return len(a) > len(b) and a[: len(b)] == b


def test_preorder_is_complete():
    assert len(RANK) == 2 ** (MAX_DEPTH + 1) - 1


@given(addresses, addresses)
def test_left_order_matches_preorder(a, b):
    assert is_left_of(a, b) == brute_left_of(a, b)


@given(deep_addresses, deep_addresses)
def test_left_key_realises_left_order(a, b):
    if a == b:
        assert not is_left_of(a, b)
    else:
        assert is_left_of(a, b) == (left_key(a) < left_key(b))


def test_left_key_sorts_every_shallow_address_in_preorder():
    assert sorted(RANK, key=left_key) == list(RANK)


@given(deep_addresses)
def test_left_key_is_its_own_inverse(a):
    assert left_key(left_key(a)) == a


@given(addresses, addresses)
def test_left_target(f, node):
    d = 0
    while d < min(len(f), len(node)) and f[d] == node[d]:
        d += 1
    squares_below = [L for L in range(d + 1, len(f) + 1) if brute_square(L)]
    want = f[: squares_below[0]] if squares_below else f
    assert left_target(f, node) == want


@given(addresses, positions)
def test_pull_eligibility(node, pos):
    if pos is None:
        want = False
    elif pos == node:
        want = brute_square(len(node))  # balls park at R-nodes on entry
    else:
        above = brute_extends(node, pos)
        right = brute_left_of(node, pos) and not brute_extends(pos, node)
        want = above or right
    assert can_pull(node, pos) == want


@given(addresses)
def test_r_chain(node):
    want = [node[:d] for d in range(1, len(node) + 1) if brute_square(d)]
    assert r_chain(node) == want
    prefix = greatest_r_prefix(node)
    assert prefix == max((p for p in want if p != node), key=len, default="")


@given(addresses)
def test_requesting_prefixes(f):
    want = {
        f[:d] for d in range(1, len(f) + 1)
        if brute_square(d) or f[d - 1] == "1"
    }
    assert set(requesting_prefixes(f)) == want


histories = st.lists(addresses, max_size=12).map(
    lambda fs: [(0, "")] + [(3 * i + 1, f) for i, f in enumerate(fs)]
)


@given(histories, addresses, st.integers(min_value=0, max_value=13))
def test_last_left_pass(history, node, split):
    want = max((s for s, f in history if brute_left_of(f, node)), default=0)
    assert last_left_pass(history, node) == want
    split = min(split, len(history))
    earlier = last_left_pass(history[:split], node)
    assert last_left_pass(history, node, split, earlier) == want


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)), max_size=40))
def test_sorted_add_and_discard(ops):
    keys, model = [], set()
    for add, x in ops:
        if add:
            sorted_add(keys, x)
            model.add(x)
        else:
            at = sorted_discard(keys, x)
            assert (at is not None) == (x in model)
            model.discard(x)
        assert keys == sorted(model)
