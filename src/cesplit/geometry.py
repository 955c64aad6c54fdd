"""Tree geometry: the address rules the diagonalization and its replay share.

Addresses are bit strings, the tree growing downward:

  - nodes at square depths i*i > 0 construct piece sets ("R-nodes");
  - the root constructs A itself; every other node is an A-node, positive
    when its last bit is 1;
  - depth d carries one coded question.  If d+1 is a square j*j (j >= 2) the
    question asks whether (W_j intersect Rtilde_delta) entered-before-A is
    infinite, with delta the prefix at depth (j-1)^2.  Otherwise, with
    j = isqrt(d) and r = d - j*j, the question asks whether
    W_j |_| (W_{e_b} intersect R_beta) = R_beta, where b = r mod 2 and beta
    is the prefix at depth k*k for k = r//2 + 1.  The root's branching is
    driven by the j=1 question (W_1 minus A) kept internal to the run.

  - left order: bit 1 sorts left of bit 0, prefixes left of extensions.
    Ball movement and request voiding trigger only on the divergence case
    (the path actually passing a node on the left), never on the prefix
    case, otherwise relocation targets would not exist.

Each piece makes A look maximal by original dumps over its marker table,
the live markers in increasing order.  A marker's state is its membership
mask: W_idx for idx < E_WINDOW sets bit E_WINDOW-1-idx, so the first e+1
bits, read as a number, are its e-state, W_0 the most significant.  The
least dump is the least e whose marker some later marker beats in e-state,
with i the first such later position; the markers e..i-1 then go to A.

``tree.TreeRun`` builds the construction on these rules and
``verify.replay_tree`` re-checks a trace against them.  The replay keeps its
own bookkeeping but takes this module as given: it is the trusted base the
two share, property-tested against brute-force definitions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt
from typing import Optional

ROOT = ""
E_WINDOW = 64  # membership bits tracked per ball for marker states
MARKER_WINDOW = 512  # marker table depth examined by the dump scan

_FLIP = str.maketrans("01", "10")


class TreeError(Exception):
    pass


def checked_depth(depth: int) -> int:
    """A depth bound, which must be a non-negative perfect square."""
    if depth < 0 or isqrt(depth) ** 2 != depth:
        raise TreeError(f"depth bound must be a non-negative perfect square, not {depth}")
    return depth


def is_r_node(node: str) -> bool:
    d = len(node)
    if d == 0:
        return False
    r = isqrt(d)
    return r * r == d


def node_kind(node: str) -> str:
    if node == ROOT:
        return "root"
    return "r" if is_r_node(node) else "a"


def is_positive_a(node: str) -> bool:
    return node_kind(node) == "a" and node.endswith("1")


def greatest_r_prefix(node: str) -> str:
    """The deepest proper R-node prefix; the root stands in for none."""
    d = len(node) - 1
    while d > 0:
        r = isqrt(d)
        if r * r == d:
            return node[:d]
        d -= 1
    return ROOT


def r_chain(node: str) -> list[str]:
    """The R-node prefixes of a node, the node itself included, shallowest first."""
    return [node[: i * i] for i in range(1, isqrt(len(node)) + 1)]


def requesting_prefixes(f: str) -> list[str]:
    """The prefixes of a path that take a pull request each stage it is f:
    its R-nodes and positive A-nodes."""
    prefixes = (f[:d] for d in range(1, len(f) + 1))
    # a prefix ending in 1 is an R-node or a positive A-node: either way it requests
    return [p for p in prefixes if p.endswith("1") or is_r_node(p)]


def left_key(node: str) -> str:
    """Sort key realising the left order: the address with its bits flipped.

    The flip is its own inverse.
    """
    return node.translate(_FLIP)


def diverges_left(a: str, b: str) -> bool:
    """True when a passes b on the left: 1 at the first differing bit."""
    for ba, bb in zip(a, b):
        if ba != bb:
            return ba == "1"
    return False


def left_target(f: str, node: str) -> str:
    """Where the balls of a node the path passed on the left move: the first
    R-node of f below the depth where f and node part, or f when f ends first."""
    d = 0
    for bf, bn in zip(f, node):
        if bf != bn:
            break
        d += 1
    depth = (isqrt(d) + 1) ** 2
    return f if depth > len(f) else f[:depth]


def can_pull(node: str, pos: Optional[str]) -> bool:
    """Whether a node may pull a ball sitting at pos (None: off the machine).

    A node pulls from strictly above it or strictly to its right; an R-node
    also from its own address, where balls parked on entry wait.
    """
    if pos is None:
        return False
    if pos == node:
        return is_r_node(node)
    return node.startswith(pos) or diverges_left(node, pos)


def ball_too_deep(x: int, node: str) -> bool:
    """Ball x may sit no deeper than max(1, x*x).

    No ball of a tree run ever does.  A ball enters at f[:1], at depth at
    most 1.  A pull takes x only to a node shallower than x (the tree's pulls
    and bystanders need x > len(node)), so x*x >= x > len(node).  A left move
    takes x from n to depth at most (isqrt(d)+1)**2 (``left_target``), with
    d < len(n) the depth at which f and n part: x >= 1 and len(n) <= x*x give
    d <= x*x - 1, so isqrt(d) <= x - 1; x = 0 and len(n) <= 1 give d = 0.
    """
    return len(node) > max(1, x * x)


_NO_RUN = (-1, 0)  # (run number, first stage) where no run of f was


class LeftPasses:
    """The stage at which f last moved left of a node, as f's history grows.

    ``add`` takes the (tree stage, f) of every tree stage, or of f's changes
    alone; ``of(node)`` is the first stage of the latest run of equal f
    values left of the node, or 0.  Left of a node are its proper prefixes
    p and, where p is followed by "0", the nodes under p+"1".  So a trie
    over the f values, holding the latest run at and under each of its
    nodes, answers a lookup in O(len(node)); a lookup first files the runs
    begun since the last one, so ``add`` costs O(1).
    """

    __slots__ = ("_trie", "_fresh", "_f", "_runs")

    def __init__(self):
        self._trie: list = [_NO_RUN, _NO_RUN, {}]  # [latest run under, at, bit -> kid]
        self._fresh: dict = {}  # f -> its latest run, if begun since the last lookup
        self._f: Optional[str] = None
        self._runs = 0

    def add(self, stage: int, f: str) -> None:
        if f != self._f:
            self._f = f
            self._fresh[f] = (self._runs, stage)
            self._runs += 1

    def of(self, node: str) -> int:
        for f, run in self._fresh.items():
            t = self._trie
            for bit in f:
                t[0] = max(t[0], run)
                t = t[2].setdefault(bit, [_NO_RUN, _NO_RUN, {}])
            t[0], t[1] = max(t[0], run), run
        self._fresh.clear()
        best, t = _NO_RUN, self._trie
        for bit in node:
            best = max(best, t[1])
            if bit == "0" and "1" in t[2]:
                best = max(best, t[2]["1"][0])
            t = t[2].get(bit)
            if t is None:
                break
        return best[1]


@dataclass(frozen=True)
class Question:
    kind: str  # "R" or "T"
    j: int
    base: str  # delta for R-questions, beta for T-questions
    b: int = 0  # which half of h's answer a T-question consults


def question_at(node: str) -> Question:
    """Decode the question carried at a node address.

    The root carries no decodable question (its branching is internal), so
    it is rejected here.
    """
    d = len(node)
    if d == 0:
        raise TreeError("the root carries no coded question")
    j = isqrt(d + 1)
    if j * j == d + 1 and j >= 2:
        return Question("R", j, node[: (j - 1) * (j - 1)])
    # d + 1 is not (j + 1)**2, so r < 2 * j and 1 <= k <= j
    j = isqrt(d)
    r = d - j * j
    k = r // 2 + 1
    return Question("T", j, node[: k * k], r % 2)


# -- marker states and the least original dump --------------------------------


def mask_bit(idx: int) -> int:
    """The bit W_idx sets in a membership mask; 0 outside the window."""
    return 1 << (E_WINDOW - 1 - idx) if 0 <= idx < E_WINDOW else 0


def marker_states(log, markers: list, bound: int) -> list:
    """The states of a marker table's markers, in table order: each one's
    membership mask, the ``mask_bit`` of every set it entered by the bound."""
    top, states = mask_bit(0), []
    for x in markers:
        mask = 0
        for idx, t in log.containers_of(x).items():
            if t <= bound and 0 <= idx < E_WINDOW:
                mask |= top >> idx  # mask_bit(idx), inline: this loop is a scan's cost
        states.append(mask)
    return states


def least_dump(revs: list, stage: int) -> Optional[tuple[int, int]]:
    """The least original dump (e, i) over a marker table's masks, or None.

    Only the first MARKER_WINDOW markers count, e stays below E_WINDOW, and
    a dump whose i is not below the stage is no dump.  The masks after
    position top fold into one ``max``, so the Python loop walks at most
    E_WINDOW+1 markers of a table that may hold MARKER_WINDOW.
    """
    n = min(len(revs), MARKER_WINDOW)
    top = min(n - 1, E_WINDOW, stage)
    if top < 1:
        return None
    suffix = [0] * (top + 1)  # suffix[k]: the greatest mask at k..n-1
    best = max(revs[top + 1 : n], default=0)
    for k in range(top, 0, -1):
        if revs[k] > best:
            best = revs[k]
        suffix[k] = best
    for e in range(top):
        shift = E_WINDOW - 1 - e
        mine = revs[e] >> shift
        if suffix[e + 1] >> shift > mine:
            i = e + 1
            while revs[i] >> shift <= mine:
                i += 1
            return (e, i) if i < stage else None
    return None


# -- marker tables -----------------------------------------------------------


def sorted_has(keys: list, key) -> bool:
    """Whether a sorted list holds a key."""
    i = bisect_left(keys, key)
    return i < len(keys) and keys[i] == key


def sorted_discard(keys: list, key) -> Optional[int]:
    """Remove a key from a sorted list; the position it held, or None."""
    i = bisect_left(keys, key)
    if i < len(keys) and keys[i] == key:
        del keys[i]
        return i
    return None
