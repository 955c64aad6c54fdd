"""Property tests of the tree geometry against brute-force definitions.

The definitions below are written from the geometry's prose (preorder with
the 1-branch first, squares found by search, a naive history scan) rather
than from its code, so the construction and its replay are checked against
something other than the module they share.
"""

from bisect import insort

from hypothesis import example, given
from hypothesis import strategies as st

from cesplit.geometry import (
    E_WINDOW,
    MARKER_WINDOW,
    can_pull,
    diverges_left,
    greatest_r_prefix,
    is_left_of,
    last_left_pass,
    least_dump,
    left_key,
    left_target,
    question_at,
    r_chain,
    requesting_prefixes,
    rev_mask,
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


def test_pull_rejection_is_permanent():
    """A node that may not pull a ball never may again, however it moves.

    A ball moves by a sweep, to left_target(f, pos) for a path f passing
    pos on the left, or by a pull into a node allowed to pull it.  The tree
    drops a rejected candidate for good, and a node holding one candidate
    skips its pull attempt, on the strength of this.
    """
    shallow = [a for a in RANK if len(a) <= 6]
    for pos in shallow:
        swept = {left_target(f, pos) for f in shallow if diverges_left(f, pos)}
        pulled = {n2 for n2 in shallow if can_pull(n2, pos)}
        for node in shallow:
            if can_pull(node, pos):
                continue
            for moved in swept | pulled:
                assert not can_pull(node, moved), (node, pos, moved)


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


def test_question_below_a_non_square_depth_is_a_t_question():
    # a positive A-node's depth d is not a square, so the question it answers,
    # the one at depth d-1, is a T question (``TreeRun._extra_dump`` relies on it)
    for d in range(2, 401):
        if not brute_square(d):
            assert question_at("0" * (d - 1)).kind == "T", d


@given(histories, addresses)
def test_last_left_pass(history, node):
    want = max((s for s, f in history if brute_left_of(f, node)), default=0)
    assert last_left_pass(history, node) == want


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)), max_size=40))
def test_sorted_add_and_discard(ops):
    keys, model = [], []
    for add, x in ops:
        if add:
            insort(keys, x)
            model.append(x)
        else:
            before = list(keys)
            at = sorted_discard(keys, x)
            assert (at is not None) == (x in model)
            if at is not None:
                assert at == before.index(x)  # one copy goes, the first
                model.remove(x)
        assert keys == sorted(model)


@given(st.dictionaries(st.integers(0, 80), st.integers(0, 30)), st.integers(-1, 31))
def test_rev_mask(containers, bound):
    bits = ["0"] * E_WINDOW  # W_0 is the leading bit
    for idx, t in containers.items():
        if idx < E_WINDOW and t <= bound:
            bits[idx] = "1"
    assert rev_mask(containers, bound) == int("".join(bits), 2)


def brute_least_dump(revs, stage):
    """The least e whose marker some later marker beats in its first e+1
    mask bits, and i that later marker's first position, compared as bit
    strings over the first MARKER_WINDOW markers; no dump unless i < stage."""
    bits = [format(r, f"0{E_WINDOW}b") for r in revs[:MARKER_WINDOW]]
    for e in range(min(E_WINDOW, len(bits))):
        for i in range(e + 1, len(bits)):
            if bits[i][: e + 1] > bits[e][: e + 1]:
                return (e, i) if i < stage else None
    return None


@st.composite
def marker_tables(draw):
    """A non-increasing table (it has no dump) with a few markers raised.

    The masks share their leading bits, so dumps happen deep as often as
    shallow.  A raised marker copies an earlier one with one bit more set,
    often its neighbour at the level that makes that neighbour the dump,
    and raised positions favour the edges of the scan: the stage, E_WINDOW,
    MARKER_WINDOW and the end of the table.
    """
    stage = draw(st.integers(0, 63) | st.integers(64, 2000))
    n = draw(st.integers(0, 600) | st.sampled_from([65, 66, 67, 512, 513, 514]))
    shared = draw(st.integers(0, E_WINDOW))
    rnd = draw(st.randoms(use_true_random=False))
    free = E_WINDOW - shared
    base = rnd.getrandbits(shared) << free
    table = sorted((base | rnd.getrandbits(free) for _ in range(n)), reverse=True)
    edge = min(stage, E_WINDOW)
    edges = [edge - 1, edge, edge + 1, edge + 2, MARKER_WINDOW, n - 1]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, n) | st.sampled_from(edges))
        if 0 < at < n:
            j = draw(st.integers(0, at - 1) | st.just(at - 1))
            level = draw(st.integers(0, E_WINDOW - 1) | st.just(min(j, E_WINDOW - 1)))
            table[at] = table[j] | 1 << (E_WINDOW - 1 - level)
    return table, stage


@given(marker_tables())
@example(([0, 1 << 63], 1))  # i must lie below the stage
@example(([0, 1 << 63], 5))
@example(([0] * 65 + [1], 100))  # beaten only by the first marker past the walk
@example(([0] * 512 + [1], 1000))  # beaten only past the marker window
def test_least_dump(case):
    table, stage = case
    assert least_dump(table, stage) == brute_least_dump(table, stage)


@given(marker_tables(), st.integers(0, 2000),
       st.lists(st.integers(0, (1 << E_WINDOW) - 1), max_size=3))
def test_least_dump_reads_only_the_window(case, later, tail):
    # the tree's scan gate rests on this: only the first MARKER_WINDOW masks
    # count, and once the stage reaches the window's length it counts no more
    table, stage = case
    found = least_dump(table, stage)
    if len(table) >= MARKER_WINDOW:
        assert least_dump(table[:MARKER_WINDOW] + tail, stage) == found
    if stage >= min(len(table), MARKER_WINDOW):
        assert least_dump(table, stage + later) == found
