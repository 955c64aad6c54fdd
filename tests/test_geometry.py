"""Property tests of the tree geometry against brute-force definitions.

The definitions below are written from the geometry's prose (preorder with
the 1-branch first, squares found by search, a naive history scan) rather
than from its code, so the construction and its replay are checked against
something other than the module they share.  ``last_left_pass``, the walk
of the history the construction and the replay once shared, is the oracle
of ``LeftPasses``, their stack of f's runs.  Every public function of the
module is named here (``test_every_geometry_function_is_tested``).
"""

import ast
from bisect import insort
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cesplit import geometry
from cesplit.geometry import (
    E_WINDOW,
    MARKER_WINDOW,
    LeftPasses,
    TreeError,
    ball_too_deep,
    can_pull,
    checked_depth,
    diverges_left,
    first_passed,
    greatest_r_prefix,
    is_positive_a,
    is_r_node,
    least_dump,
    left_key,
    left_target,
    mask_bit,
    question_at,
    r_chain,
    requesting_prefixes,
    marker_states,
    sorted_discard,
    sorted_has,
)
from conftest import is_left_of

MAX_DEPTH = 8

addresses = st.text(alphabet="01", min_size=0, max_size=MAX_DEPTH)
deep_addresses = st.text(alphabet="01", min_size=0, max_size=12)  # no table needed
positions = st.one_of(st.none(), addresses)
short_addresses = st.text(alphabet="01", min_size=0, max_size=4)  # f values that often meet


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


def brute_diverges_left(a, b):
    """a is left of b without being above it."""
    return brute_left_of(a, b) and not brute_extends(b, a)


def brute_can_pull(node, pos):
    if pos is None:
        return False
    if pos == node:
        return brute_square(len(node))  # balls park at R-nodes on entry
    above = brute_extends(node, pos)
    right = brute_left_of(node, pos) and not brute_extends(pos, node)
    return above or right


def brute_left_target(f, node):
    d = 0
    while d < min(len(f), len(node)) and f[d] == node[d]:
        d += 1
    squares_below = [L for L in range(d + 1, len(f) + 1) if brute_square(L)]
    return f[: squares_below[0]] if squares_below else f


def brute_greatest_r_prefix(node):
    return max((node[:d] for d in range(len(node)) if brute_square(d)), key=len, default="")


def brute_positive_a(node):
    return node != "" and node[-1] == "1" and not brute_square(len(node))


def test_preorder_is_complete():
    assert len(RANK) == 2 ** (MAX_DEPTH + 1) - 1


def test_every_address_and_pair_matches_the_brute_force_rules():
    # the trusted base, exhaustively up to MAX_DEPTH: each node's rules, and
    # each ordered pair's
    nodes = list(RANK)
    for node in nodes:
        assert is_r_node(node) == brute_square(len(node)), node
        assert is_positive_a(node) == brute_positive_a(node), node
        assert greatest_r_prefix(node) == brute_greatest_r_prefix(node), node
        assert not can_pull(node, None)
    keys = sorted(map(left_key, nodes))
    for a in nodes:
        for b in nodes:
            assert diverges_left(a, b) == brute_diverges_left(a, b), (a, b)
            assert can_pull(a, b) == brute_can_pull(a, b), (a, b)
            assert left_target(a, b) == brute_left_target(a, b), (a, b)
        passed = {left_key(key) for key in keys[first_passed(keys, a):]}
        assert passed == {b for b in nodes if brute_diverges_left(a, b)}, a


def test_square_depth_rules_far_down():
    # R-node depths, and the deepest one above a node, past the exhaustive depths
    for d in range(200):
        for node in ("0" * d, "1" * d):
            assert is_r_node(node) == brute_square(d), d
            assert is_positive_a(node) == brute_positive_a(node), d
            assert greatest_r_prefix(node) == brute_greatest_r_prefix(node), d


def test_checked_depth_accepts_the_non_negative_squares_alone():
    for depth in range(-20, 400):
        if depth == 0 or brute_square(depth):
            assert checked_depth(depth) == depth
        else:
            with pytest.raises(TreeError):
                checked_depth(depth)


def test_mask_bit():
    # W_idx sets the idx-th bit from the left of an E_WINDOW-bit mask
    for idx in range(-3, E_WINDOW + 3):
        bits = ["1" if k == idx else "0" for k in range(E_WINDOW)]
        assert mask_bit(idx) == int("".join(bits), 2), idx


def test_every_geometry_function_is_tested():
    # the module docstring's promise: each public function of the trusted
    # base is checked here against a definition of its own
    module = ast.parse(Path(geometry.__file__).read_text())
    public = {node.name for node in module.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    named = {node.id for node in ast.walk(ast.parse(Path(__file__).read_text()))
             if isinstance(node, ast.Name)}
    missing = sorted(public - named)
    assert not missing, f"no test names {missing}"


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


@given(deep_addresses, st.lists(deep_addresses, max_size=12),
       st.lists(st.integers(0, 12), max_size=4), st.lists(deep_addresses, max_size=4))
def test_first_passed_cuts_off_the_nodes_f_passes_on_the_left(f, others, cuts, tails):
    # a ledger of nodes mixing f's prefixes, f, its extensions and the rest:
    # the sorted keys from the cut on are exactly the nodes f passes
    nodes = set(others) | {f[:d] for d in cuts} | {f + tail for tail in tails}
    keys = sorted(map(left_key, nodes))
    cut = first_passed(keys, f)
    assert {left_key(key) for key in keys[cut:]} == {n for n in nodes if diverges_left(f, n)}


@given(addresses, addresses)
def test_left_target(f, node):
    assert left_target(f, node) == brute_left_target(f, node)


@given(deep_addresses, deep_addresses, deep_addresses)
def test_a_left_move_keeps_every_ball_shallow_enough(prefix, f_tail, node_tail):
    # the left-move step of ball_too_deep's argument: a ball that may sit at
    # a node may sit where a path passing the node on the left moves it
    f, node = prefix + "1" + f_tail, prefix + "0" + node_tail
    assert diverges_left(f, node)
    target = left_target(f, node)
    for x in range(len(node) + 1):
        if not ball_too_deep(x, node):
            assert not ball_too_deep(x, target), (x, node, target)


@given(addresses, positions)
def test_pull_eligibility(node, pos):
    assert can_pull(node, pos) == brute_can_pull(node, pos)


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
    lambda fs: [(0, 0, "")] + [(3 * i + 1, 5 * i + 2, f) for i, f in enumerate(fs)]
)


def test_question_below_a_non_square_depth_is_a_t_question():
    # a positive A-node's depth d is not a square, so the question it answers,
    # the one at depth d-1, is a T question (``TreeRun._extra_dump`` relies on it)
    for d in range(2, 401):
        if not brute_square(d):
            assert question_at("0" * (d - 1)).kind == "T", d


def last_left_pass(history: list, node: str) -> int:
    """The stage at which f last moved left of node (0 if f never ran left of
    it): the first stage of the latest run of equal f values left of node in a
    (tree stage, kernel stage, f) history, walked from its end."""
    i = len(history) - 1
    while i >= 0 and not is_left_of(history[i][2], node):
        i -= 1
    while i > 0 and history[i - 1][2] == history[i][2]:
        i -= 1
    return history[i][0] if i >= 0 else 0


def passes_of(history) -> LeftPasses:
    passes = LeftPasses()
    for s, _, f in history:
        passes.add(s, f)
    return passes


@given(histories, addresses)
def test_last_left_pass(history, node):
    # the latest stage at which f took a new value left of node
    want = max((s for k, (s, _, f) in enumerate(history)
                if brute_left_of(f, node) and (k == 0 or history[k - 1][2] != f)),
               default=0)
    assert last_left_pass(history, node) == want
    assert passes_of(history).of(node) == want


@given(st.lists(st.tuples(addresses, st.integers(1, 4)), max_size=10), addresses)
def test_last_left_pass_reads_the_changes_of_f_alone(runs, node):
    # the run's history has an entry for every tree stage; the replay's has
    # the stage-0 seed and one entry per ``f`` record, the stage-0 one included
    fs = [f for f, length in runs for _ in range(length)]
    per_stage = [(0, 0, "")] + [(s, 2 * s, f) for s, f in enumerate(fs, start=1)]
    changes = [(0, 0, "")] + [entry for k, entry in enumerate(per_stage)
                              if k == 0 or entry[2] != per_stage[k - 1][2]]
    assert last_left_pass(per_stage, node) == last_left_pass(changes, node)
    assert passes_of(per_stage).of(node) == passes_of(changes).of(node)


# f takes "10", "11", "10" with no lookup between: the runs reach the prefix
# "1" out of order, and the latest, at stage 3, is the one left of "0"
@example(entries=[(1, "10"), (2, "11"), (3, "10")], lookups=[[], [], ["0"]])
# a run whose left key equals a kept run's replaces it
@example(entries=[(1, "1"), (2, "0"), (3, "1")], lookups=[["0"], ["00"], ["0", "00", "1"]])
# a run that cuts several kept runs at once, down to the root's
@example(entries=[(1, ""), (2, "0"), (3, "01"), (4, "011"), (5, "1")],
         lookups=[[], [], [], ["0111"], ["0", "011", "0111", "11"]])
# nothing is left of the root
@example(entries=[(1, "1"), (2, "0")], lookups=[[""], ["", "0"]])
# a run's own f is not left of itself, its prefixes' runs are
@example(entries=[(1, "1"), (2, "10")], lookups=[["1"], ["10", "1", "100"]])
@given(st.lists(st.tuples(st.integers(-3, 40), short_addresses), max_size=16),
       st.lists(st.lists(short_addresses, max_size=2), max_size=16))
def test_left_passes_match_the_walk_as_the_history_grows(entries, lookups):
    # lookups between adds, over stages in any order (a tampered trace's),
    # agree with the walk of the history so far
    history, passes = [], LeftPasses()
    for k, (s, f) in enumerate(entries):
        history.append((s, 0, f))
        passes.add(s, f)
        for node in lookups[k] if k < len(lookups) else ():
            assert passes.of(node) == last_left_pass(history, node)


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)), max_size=40))
def test_sorted_add_and_discard(ops):
    keys, model = [], []
    for add, x in ops:
        assert sorted_has(keys, x) == (x in model)
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


class ContainersLog:
    """The one lookup ``marker_states`` makes of a log: each element's sets,
    index -> entry stage."""

    def __init__(self, by_element):
        self.containers_of = lambda x: by_element.get(x, {})


@given(st.lists(st.dictionaries(st.integers(0, 80), st.integers(0, 30)), max_size=4),
       st.integers(-1, 31))
def test_marker_states(per_marker, bound):
    want = []
    for containers in per_marker:
        bits = ["0"] * E_WINDOW  # W_0 is the leading bit
        for idx, t in containers.items():
            if idx < E_WINDOW and t <= bound:
                bits[idx] = "1"
        want.append(int("".join(bits), 2))
    # marker 2k has the k-th sets; an element the log never saw has none
    log = ContainersLog({2 * k: c for k, c in enumerate(per_marker)})
    markers = [2 * k for k in range(len(per_marker))]
    assert marker_states(log, markers, bound) == want
    assert marker_states(log, [x + 1 for x in markers], bound) == [0] * len(markers)


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
