"""Tree geometry: the address rules the diagonalization and its replay share.

Addresses are bit strings, the tree growing downward:

  - nodes at square depths i*i > 0 construct piece sets ("R-nodes");
  - the root constructs A itself; every other node is an A-node, positive
    when its last bit is 1;
  - depth d carries one coded question.  If d+1 is a square j*j the
    question asks whether (W_j intersect Rtilde_delta) entered-before-A is
    infinite, with delta the prefix at depth (j-1)^2.  Otherwise, with
    j = isqrt(d) and r = d - j*j, the question asks whether
    W_j |_| (W_{e_b} intersect R_beta) = R_beta, where b = r mod 2 and beta
    is the prefix at depth k*k for k = r//2 + 1.  At d = 0 the rule gives
    the root's question: j = 1 over the root's tilde piece, which is every
    ball, so W_1 minus A.

  - left order: bit 1 sorts left of bit 0, prefixes left of extensions.
    Ball movement and request voiding trigger only on the divergence case
    (the path actually passing a node on the left), never on the prefix
    case, otherwise relocation targets would not exist.

The order fact: the left order is the string order of the flipped
addresses (``left_key``).  The flip reverses the order at a differing bit
and keeps it at a prefix, so in plain string order, where "1" > "0" and a
proper prefix is smaller, two rules have closed forms:

  - a passes b on the left exactly when a > b and a does not extend b
    (``diverges_left``);
  - a node may pull from a place other than its own address exactly when
    that place is < node: its proper prefixes and the places right of it
    are smaller, the places left of it or below it greater (``can_pull``).

In left-key order the nodes a path passes on the left are one tail of any
sorted list of left keys (``first_passed``): past the path's own key come
its extensions, whose keys extend it, and then the nodes right of it.  The
f values left of a node are the ones with smaller keys, so the last left
pass of a node is one bisect into a stack of f's runs (``LeftPasses``).

Each piece makes A look maximal by original dumps over its marker table,
the live markers in increasing order.  A marker's state is its membership
mask: W_idx for idx < E_WINDOW sets bit E_WINDOW-1-idx, so the first e+1
bits, read as a number, are its e-state, W_0 the most significant.  The
least dump is the least e whose marker some later marker beats in e-state,
with i the first such later position; the markers e..i-1 then go to A.

``tree.TreeRun`` builds the construction on these rules and
``verify.replay_tree`` re-checks a trace against them.  The replay keeps its
own bookkeeping but takes this module as given: it is the trusted base the
two share.  Each of its public functions is tested against a brute-force
definition, the address rules over every address and pair up to depth 8.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt
from os.path import commonprefix
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


def is_positive_a(node: str) -> bool:
    return node.endswith("1") and not is_r_node(node)


def greatest_r_prefix(node: str) -> str:
    """The deepest proper R-node prefix, at the greatest square depth below
    len(node); the root stands in for none (the square 0, at depth 1)."""
    return node[: isqrt(len(node) - 1) ** 2] if node else ROOT


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
    """True when a passes b on the left: 1 at the first differing bit, so
    a > b with a not extending b (the order fact above)."""
    return a > b and not a.startswith(b)


def first_passed(keys: list[str], f: str) -> int:
    """Where, in a sorted list of left keys, the nodes f passes on the left
    start: they are the list from there on.  "2" sorts after both key bits,
    so the cut skips f's key and every key that extends it."""
    return bisect_left(keys, left_key(f) + "2")


def left_target(f: str, node: str) -> str:
    """Where the balls of a node the path passed on the left move: the first
    R-node of f below the depth where f and node part, or f when f ends first."""
    depth = (isqrt(len(commonprefix((f, node)))) + 1) ** 2
    return f if depth > len(f) else f[:depth]


def can_pull(node: str, pos: Optional[str]) -> bool:
    """Whether a node may pull a ball sitting at pos (None: off the machine).

    A node pulls from strictly above it or strictly to its right; an R-node
    also from its own address, where balls parked on entry wait.  Above or
    right is pos < node (the order fact above).
    """
    if pos is None:
        return False
    if pos == node:
        return is_r_node(node)
    return pos < node


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


class LeftPasses:
    """The stage at which f last moved left of a node, as f's history grows.

    ``add`` takes the (tree stage, f) of every tree stage, or of f's changes
    alone; ``of(node)`` is the first stage of the latest run of equal f
    values left of the node, or 0.  Left of a node are its proper prefixes
    p and, where p is followed by "0", the nodes under p+"1": by the order
    fact, the f values with smaller left keys.

    The runs are kept as a stack: ``add`` cuts the kept runs whose keys are
    not below the new run's, then pushes it.  A run survives only while
    every later run has a greater key, so the kept keys rise.  A lookup's
    answer, the latest run with a key below the node's, survives: a later
    run with a key at or below the answer's would be below the node's key
    too, and a later answer.  So it is the last kept run below the node's
    key, one bisect away.
    """

    __slots__ = ("_keys", "_stages", "_f")

    def __init__(self):
        self._keys: list[str] = []  # the kept runs' left keys, rising
        self._stages: list[int] = []  # the kept runs' first stages
        self._f: Optional[str] = None

    def add(self, stage: int, f: str) -> None:
        if f != self._f:
            self._f = f
            key = left_key(f)
            cut = bisect_left(self._keys, key)
            del self._keys[cut:], self._stages[cut:]
            self._keys.append(key)
            self._stages.append(stage)

    def of(self, node: str) -> int:
        i = bisect_left(self._keys, left_key(node))
        return self._stages[i - 1] if i else 0


@dataclass(frozen=True)
class Question:
    kind: str  # "R" or "T"
    j: int
    base: str  # delta for R-questions, beta for T-questions
    b: int = 0  # which half of h's answer a T-question consults


def question_at(node: str) -> Question:
    """Decode the question carried at a node address, the root's included."""
    d = len(node)
    j = isqrt(d + 1)
    if j * j == d + 1:
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
