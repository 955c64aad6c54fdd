"""Tree diagonalization against an arbitrary splitting-procedure candidate.

Given a total candidate h, the run registers a set A (whose index is handed
to h before stage zero), builds disjoint computable-set pieces R_node /
Rtilde_node along a binary tree, and makes A look maximal inside each piece.
Whatever h answers, the finite-stage evidence sorts into one of three
buckets: the halves fail to split A, the split is trivial, or the split is
Friedberg-like while A acquires a distinguished non-Friedberg split of its
own.

The address rules (R-nodes, questions, the left order, pull eligibility)
live in ``geometry``, which the trace replay shares.

Each question node owns a chip counter: a monotone count of expansionary
events whose unboundedness would answer the question positively.  The path
approximation f_s walks from the root, branching 1 exactly when a chip
changed since the node was last on the path, and stops at positive A-nodes
or at the depth cap min(s*s, depth_bound).  The cap never shrinks and a node's
positivity is its address's, so f only deepens or moves sideways: no node
extends f, and every node right of f is one that f passed on the left.  Every
node, the root included, asks the question ``geometry.question_at`` decodes
from its depth.  One history, (kernel stage, f) per tree stage with the tree
stage its position, gives the verdict its tail; ``geometry.LeftPasses``, a
stack of f's runs by rising left key, gives the extra dump the stage at which
f last moved left of a node.  The trace writes the history as one ``f``
record per tree stage; (s, f) fixes the ball the stage enters and the chips
that changed, so no record says them.  Every other record belongs
to the stage of the last ``f`` record before it, so none repeats ``s`` or
what f gives (a ``left`` record's target, an extra dump's dumping node), and
no record names a casualty (a ball of A that a piece absorbs), which A's log
gives.

Balls enter at the depth-1 node of the current path, one per tree stage, and
move only left (when the path passes them) or via pulls.  A ball lives in its
node's ``balls``, and ``positions`` maps it back to the node; the root's tilde
pool, from which the nodes below it draw, is every entered ball.  Pulls commit
balls to the pulling R-node's piece sets; markers over each piece drive the
maximal-set dumping, and positive A-nodes on the path dump markers of the
other pieces.  A marker's state is read off the event log when its table is
scanned (``geometry.marker_states``, as the trace replay reads it), so the
run keeps no copy of it; an R piece's commitments are one sorted list.
Measures, T-counters and marker tables hold node states, not addresses: a
node is made after its prefixes and never removed.  All set emissions go
through the kernel's single FIFO; the tree advances one stage per kernel poll
only when every emission has drained, which is how the constructed sets keep
pace with their enumeration indices.  The kernel polls the brain
only on the stages that start with an empty FIFO, and the brain's per-stage
work follows what changed: it reads the log only when it advances, a T-counter
is advanced only when its inputs moved, and a node tries to pull only when it
holds two candidates.  A marker table is rescanned only after a change its
least dump can see: one among its first MARKER_WINDOW markers, or any change
while its last scan still hung on the stage.

A's members are read off A's log column, never a copy.  The brain, a drain
source, runs only on stages that start with an empty FIFO, when every earlier
dump has been released, and it reads A (in ``_ingest``, the walk's new nodes,
the pulls and the patches) before its stage's first dump: there the column is
all of A.

The extra dump.  When f ends at a positive A-node gamma, gamma dumps into A
one live marker of each piece on f's chain but the piece of its T question's
base: from the table of the piece's node beta, the marker at position
t = max(len(gamma), the last left pass of beta), if the table is that long.
The last left pass of a node is the tree stage at which f last *moved* left
of it: the first stage of the latest run of equal f values left of it
(``LeftPasses.of``), not the last stage at which f *was* left of it.  The
table is beta's, so t counts from beta's pass.  Beta is a prefix of gamma,
so every node left of beta is left of gamma and beta's pass is at most
gamma's; the passes gamma has and beta lacks are f moving left of nodes
below beta, which leave beta's table as it was (only beta's own commits and
the dumps change it).  Measured from gamma, t would move with events the
table never saw.  The trace replay measures t from beta too.

The brain's costs per event and per stage.  One reader table maps each
index to what reads its events: the measures over it, the T-counters that
read it, and whether it sets a marker-state bit (below E_WINDOW).  An index
past E_WINDOW has an entry only once something reads it, so ``_ingest``
passes over its events after one lookup.  Each node stores its depth and
whether it is an R-node, and the node at which f ends keeps the states of
f's R-nodes and requesting prefixes, listed the first time f ends there by
``geometry``'s ``r_chain`` and ``requesting_prefixes``, the replay's lists,
so the walk only walks.  A pull commits x0 and its bystanders to the R
piece as one batch (``_commit_r``).  The walk still visits every node of f
at every stage: a node whose measure and T-counter are clean would give the
same bit again, but a flag per node that skips it is a cache whose faults
only a from-scratch oracle of the tree would catch, and there is none yet.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import asdict, dataclass, field
from heapq import heapify, heappop, heappush
from itertools import count
from math import isqrt
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Optional

from . import setalg, verify
from .geometry import (
    E_WINDOW, MARKER_WINDOW, ROOT, LeftPasses, TreeError, ball_too_deep, can_pull, checked_depth,
    greatest_r_prefix, is_positive_a, is_r_node, least_dump, left_key, left_target, marker_states,
    question_at, r_chain, requesting_prefixes, sorted_discard, sorted_has,
)
from .kernel import EventLog, HostGenerator, Kernel, host_index

FEEDER_PACE = 4  # the background universe set emits every 4th stage
SPECTRUM_PACE = 16  # each blocky background set emits every 16th stage

_KEY = attrgetter("key")


class _Measure:
    """The monotone set (W_j intersect Rtilde_delta) entered-before-A.

    Shared between the question node that counts it and the R-nodes that
    pull from it.  ``over`` is delta's state, or None for the root, whose
    tilde piece is everything.
    """

    __slots__ = ("j_index", "over", "members", "subscribers")

    def __init__(self, j_index: int, over: Optional[_NodeState]):
        self.j_index = j_index
        self.over = over
        self.members: set = set()
        self.subscribers: list = []


class _TMeasure:
    """Confirmation counter for one 'W_j |_| (W_eb & R_beta) = R_beta' node.

    The counter ticks whenever the least unconfirmed element of R_beta's
    sorted enumeration becomes confirmed; a violation seen at any stage
    freezes it for good.  Insertions below the frontier pull the frontier
    back, so re-confirmations count again; the counter stays monotone.
    """

    __slots__ = ("j_index", "eb_index", "beta", "count", "frozen", "wj_cursor", "fi",
                 "dirty")

    def __init__(self, j_index: int, eb_index: int, beta: _NodeState):
        self.j_index = j_index
        self.eb_index = eb_index
        self.beta = beta  # the state whose R piece the counter reads
        self.count = 0
        self.frozen = False
        self.wj_cursor = 0
        self.fi = 0
        # set when W_j, W_eb or R_beta gained an element since the last advance
        self.dirty = True


class _Reader(NamedTuple):
    """What reads one index's events in the brain: the measures over W_idx,
    the T-counters that read it, and whether it sets a marker-state bit."""

    measures: list
    tmeasures: list
    marks: bool


class _NodeState:
    __slots__ = (
        "address", "key", "depth", "is_r", "positive", "kids", "chip_snapshot",
        "requests", "measure", "tmeasure", "measures", "tmeasures", "chain", "requesters",
        "r_out", "rt_out", "r_index", "rt_index", "rt_committed", "r_sorted", "live_markers",
        "rt_subscribers", "mids_subscribers", "needs_scan", "stage_bound", "moved",
        "patch_cursor", "cand_heap", "mids_pool", "balls",
    )

    def __init__(self, address: str):
        self.address = address
        self.key = left_key(address)
        self.depth = len(address)
        self.is_r = is_r_node(address)
        self.positive = is_positive_a(address)
        self.kids: list = [None, None]  # the states at address+"0" and +"1", once walked
        self.chip_snapshot = 0
        self.requests: deque = deque()  # pending request stages, pushed in stage order
        self.measure = None
        self.tmeasure = None
        self.measures: dict = {}  # j -> the measure over this tilde piece
        self.tmeasures: list = []  # the T-counters that read this R piece
        # once f has ended here: the states of f's R-nodes, shallowest first,
        # and of f's requesting prefixes, as ``geometry`` lists them
        self.chain: Optional[list] = None
        self.requesters: Optional[list] = None
        self.r_out = self.rt_out = None  # piece emissions awaiting the kernel
        self.r_index = self.rt_index = None
        self.rt_committed: set = set()
        self.r_sorted: list = []  # the R piece's commitments, in increasing order
        self.live_markers: list = []
        self.rt_subscribers: list = []
        self.mids_subscribers: list = []
        self.needs_scan = False
        # whether the next scan may differ from the last one with no change
        # inside the window: never scanned, or found none at a stage below
        # the window's length.  Read only while needs_scan is False; a scan
        # that finds a dump leaves needs_scan set (``_maximal_scan``)
        self.stage_bound = True
        # (tree stage, least marker index moved in it); no brain runs stage 0
        self.moved = (0, 0)
        self.patch_cursor = 0
        self.cand_heap: list = []
        self.mids_pool: list = []  # 1-ending R-nodes: consumable bystander pool
        self.balls: set = set()  # the on-machine balls sitting here


class TreeRun:
    """Drives one diagonalization as a family of host generators."""

    def __init__(self, kernel: Kernel, proc: Callable, depth_bound: int = 25,
                 slot_base: int = 1, collect_trace: bool = True):
        self.kernel = kernel
        self.depth = checked_depth(depth_bound)
        self.collect_trace = collect_trace
        self.trace: list = []
        self.violations: list = []

        # background universe set at slot 0 so that index 1 enumerates
        # a paced copy of N; the root question measures W_1 minus A
        if kernel.free_slot(0) != 0:
            raise TreeError("the tree run must own slot 0 for the feeder")
        self.feeder_index = self._paced_source(0, FEEDER_PACE, 0, lambda n: True)
        # blocky background sets at the smallest indices give the balls
        # durable membership structure, so marker states keep improving no
        # matter where the construction's own slots land
        self.spectrum_indexes = [
            self._paced_source(k, SPECTRUM_PACE, 4 * k % SPECTRUM_PACE,
                               lambda n, k=k: (n >> k) & 1 == 0)
            for k in range(1, 5)
        ]

        # A's slot: the brain generator drives the whole construction; on a
        # stage that starts with a backlog it could only return ()
        self.a_slot = kernel.free_slot(slot_base)
        self._a_out: list = []
        self.e_a = kernel.register_generator(
            HostGenerator(slot=self.a_slot, pull=self._brain_pull, wake="drain")
        )

        # the candidate procedure is consulted once, before stage zero
        try:
            halves = proc(kernel, self.e_a)
        except Exception as err:
            raise TreeError(f"the candidate procedure failed: {err!r}") from err
        if not (type(halves) in (tuple, list) and len(halves) == 2
                and all(type(e) is int and e >= 0 for e in halves)):
            raise TreeError("the candidate procedure must return two non-negative set "
                            f"indices, not {halves!r:.60}")
        self.e0, self.e1 = halves

        self.tree_stage = 0
        self.history: list = [(0, ROOT)]  # (kernel stage, f), one per tree stage in order
        self._passes = LeftPasses()  # over each tree stage's f
        self._passes.add(0, ROOT)
        self.nodes: dict[str, _NodeState] = {}
        # index -> its readers; an index past E_WINDOW has an entry only once
        # a measure or a T-counter reads it
        self.readers: dict[int, _Reader] = {idx: _Reader([], [], True)
                                            for idx in range(E_WINDOW)}
        self.positions: dict[int, str] = {}  # every on-machine ball -> its node
        self.dumped = 0  # balls dumped into A, those still in the kernel's queue too
        self.marker_nodes: dict[int, list] = {}  # live marker -> the states listing it
        self._left_order: list = []  # the requesting states, in left order
        self._cursor = 0
        self._make_node(ROOT)
        self._emit_record({"op": "meta", "kind": "tree", "e_a": self.e_a, "e0": self.e0,
                           "e1": self.e1, "depth": self.depth})
        self._emit_record({"op": "f", "s": 0, "ks": 0, "node": ROOT})

    # -- plumbing ---------------------------------------------------------

    def _paced_source(self, slot: int, pace: int, phase: int, member) -> int:
        """Register a set that enumerates its members in increasing order,
        one at each stage congruent to ``phase`` mod ``pace``; its index."""
        members = filter(member, count())
        index = self.kernel.register_generator(
            HostGenerator(slot=slot, pull=lambda stage: [next(members)], wake="timer"))
        self.kernel.pace(index, pace, phase)
        return index

    def _emit_record(self, record: dict) -> None:
        if self.collect_trace:
            self.trace.append(record)

    def _reader(self, idx: int) -> _Reader:
        """An index's readers, made for an index past E_WINDOW at its first."""
        return self.readers.setdefault(idx, _Reader([], [], False))

    def _make_node(self, address: str) -> _NodeState:
        """Make a node.  The walk makes each one once, after its parent, so its
        prefixes exist."""
        state = _NodeState(address)
        self.nodes[address] = state
        q = question_at(address)
        if q.kind == "R":
            state.measure = self._get_measure(q.j, self.nodes[q.base])
        else:
            eb = self.e0 if q.b == 0 else self.e1
            tm = state.tmeasure = _TMeasure(q.j, eb, self.nodes[q.base])
            tm.beta.tmeasures.append(tm)
            for idx in {q.j, eb}:
                self._reader(idx).tmeasures.append(tm)
        if state.is_r:
            # the piece sets are woken by the commits, never polled idle
            (state.r_index, state.rt_index), (state.r_out, state.rt_out) = (
                self.kernel.register_pair(None, wake=(), slot_base=self.a_slot + 1)
            )
            # absorb any casualties that predate this node
            self._patch_node(state)
        if state.is_r or state.positive:  # on the path, it takes a pull request
            insort(self._left_order, state, key=_KEY)
            self._seed_candidates(state)
        return state

    def _seed_candidates(self, state: _NodeState) -> None:
        address = state.address
        dstate = self.nodes[greatest_r_prefix(address)]
        # delta's tilde pool: at the root, the balls entered before this stage's
        pool = (list(range(self.tree_stage - 1)) if dstate.address == ROOT
                else sorted(dstate.rt_committed))
        if state.is_r and address.endswith("1"):
            m = self._get_measure(isqrt(state.depth), dstate)
            state.cand_heap = sorted(m.members)
            m.subscribers.append(state)
            state.mids_pool = pool
            dstate.mids_subscribers.append(state)
        else:
            state.cand_heap = pool
            dstate.rt_subscribers.append(state)
        heapify(state.cand_heap)

    def _get_measure(self, j: int, dstate: _NodeState) -> _Measure:
        got = dstate.measures.get(j)
        if got is not None:
            return got
        # every question reads W_j directly; the root's W_1 is the feeder
        m = dstate.measures[j] = _Measure(j, None if dstate.address == ROOT else dstate)
        self._reader(m.j_index).measures.append(m)
        # replay history: members of W_j already logged
        log = self.kernel.log
        for _, x in log.entries(m.j_index):
            self._measure_try_add(m, x)
        return m

    def _measure_try_add(self, m: _Measure, x: int) -> None:
        log = self.kernel.log  # A's column is all of A (see the module docstring)
        if x in m.members or log.entry_stage(self.e_a, x) is not None:
            return
        in_delta = m.over is None or x in m.over.rt_committed
        if in_delta and log.entry_stage(m.j_index, x) is not None:
            m.members.add(x)
            for node in m.subscribers:
                heappush(node.cand_heap, x)

    # -- event ingestion ---------------------------------------------------

    def _ingest(self) -> None:
        log = self.kernel.log
        fresh = log.events(self._cursor)
        self._cursor = len(log)
        readers = self.readers
        for _, idx, x in fresh:
            reader = readers.get(idx)
            if reader is None:
                continue
            measures, tmeasures, marks = reader
            for m in measures:
                self._measure_try_add(m, x)
            for tm in tmeasures:
                tm.dirty = True
            if marks:
                # x enters idx once, so its state gains a bit
                for state in self.marker_nodes.get(x, ()):
                    self._table_changed(state, bisect_left(state.live_markers, x))

    # -- chips and the walk -------------------------------------------------

    def _advance_tmeasure(self, tm: _TMeasure) -> None:
        if tm.frozen:
            return
        log = self.kernel.log
        r_sorted = tm.beta.r_sorted
        for _, x in log.entries(tm.j_index, tm.wj_cursor):
            tm.wj_cursor += 1
            if not sorted_has(r_sorted, x) or log.entry_stage(tm.eb_index, x) is not None:
                tm.frozen = True
                return
        while tm.fi < len(r_sorted):
            x = r_sorted[tm.fi]
            if log.entry_stage(tm.j_index, x) is None and (
                log.entry_stage(tm.eb_index, x) is None
            ):
                break
            tm.fi += 1
            tm.count += 1

    def _compute_f(self, st: int) -> _NodeState:
        """Walk f from the root and return f's state, filling in its path lists
        the first time f ends there."""
        # st*st and the depth bound (checked_depth) are squares, so f at the cap
        # is the root or an R-node; only the trace replay checks f's shape
        cap = min(st * st, self.depth)
        state = self.nodes[ROOT]
        while not state.positive and state.depth != cap:
            m = state.measure
            if m is not None:
                chip = len(m.members)
            else:
                tm = state.tmeasure
                if tm.dirty:
                    # a clean counter would read the same entries and pieces again
                    tm.dirty = False
                    self._advance_tmeasure(tm)
                chip = tm.count
            if chip != state.chip_snapshot:
                state.chip_snapshot = chip
                bit = 1
            else:
                bit = 0
            child = state.kids[bit]
            if child is None:
                child = state.kids[bit] = self._make_node(state.address + "01"[bit])
            state = child
        if state.chain is None:
            # the walk has made every prefix
            nodes = self.nodes
            state.chain = [nodes[p] for p in r_chain(state.address)]
            state.requesters = [nodes[p] for p in requesting_prefixes(state.address)]
        return state

    # -- sweeping right of the path -----------------------------------------

    def _sweep_right(self, fstate: _NodeState) -> None:
        # the nodes f passed on the left; only requesting nodes hold requests,
        # and once f can move only they hold balls.  Void their requests (the
        # trace's replay voids them at the f record) and relocate their balls;
        # each target is a prefix of f, so it sits left of every node moved from
        f = fstate.address
        order = self._left_order
        for state in order[bisect_right(order, fstate.key, key=_KEY):]:
            state.requests.clear()
            if not state.balls:
                continue
            balls = sorted(state.balls)
            target = self.nodes[left_target(f, state.address)]
            for x in balls:
                self._place(x, target)
            # the node's own address: the record shares it instead of a copy
            self._emit_record({"op": "left", "from": state.address, "balls": balls})

    # -- where balls sit ----------------------------------------------------

    def _place(self, x: int, state: _NodeState) -> None:
        """Move ball x onto a node (entering it if new) and check its depth there."""
        address = state.address
        if self.positions.get(x) == address:
            return
        self._lift(x)
        state.balls.add(x)
        self.positions[x] = address
        if ball_too_deep(x, address):
            self.violations.append((self.tree_stage, "ball-depth", (x, address)))

    def _lift(self, x: int) -> None:
        """Take ball x off the node it sits on, if it is on the machine."""
        address = self.positions.pop(x, None)
        if address is not None:
            self.nodes[address].balls.discard(x)

    # -- pulling --------------------------------------------------------------

    def _pull(self, st: int) -> None:
        for state in self._left_order:
            if not state.requests:
                continue
            heap = state.cand_heap
            if len(heap) < 2:
                # a lone candidate waits for a partner.  An attempt would drop
                # it if it can never be pulled, which changes no later pick,
                # or if its ball has not entered yet, which does
                if heap and heap[0] >= st:
                    heap.clear()
                continue
            if self._try_pull_at(state):
                return

    def _pullable(self, state: _NodeState, x: int) -> bool:
        """Whether the node may pull ball x.  A no is permanent when x is at most the
        node's depth, in its pieces, dumped into A (it never comes back), left of the
        node or below it; not when x is a ball that has not entered yet."""
        if x <= state.depth:
            return False
        if state.is_r and (sorted_has(state.r_sorted, x) or x in state.rt_committed):
            return False
        return can_pull(state.address, self.positions.get(x))

    def _try_pull_at(self, state: _NodeState) -> bool:
        # pop candidates in value order, dropping each rejected one (see _pullable)
        heap = state.cand_heap
        picked: list = []
        while heap and len(picked) < 2:
            x = heappop(heap)
            if self._pullable(state, x):
                picked.append(x)
        if len(picked) < 2:
            for x in picked:
                heappush(heap, x)  # still eligible, waiting for a partner
            return False
        x0, x1 = picked
        request = state.requests.popleft()
        mids = [y for y in self._intermediates(state, x1) if y != x0]
        for x in (x0, x1, *mids):
            self._place(x, state)
        if state.is_r:
            # x1's tilde commit neither reads nor changes the R piece, so x0
            # can join the bystanders' batch after it
            self._commit_tilde(state, x1)
            self._commit_r(state, [x0, *mids])
        self._emit_record({"op": "pull", "ks": self.history[-1][0], "node": state.address,
                           "req": request, "x0": x0, "x1": x1, "mid": mids})
        return True

    def _intermediates(self, state: _NodeState, top: int) -> list:
        # when the pull pool is the piece pool itself, pair minimality leaves
        # nothing strictly between the chosen pair, so only the nodes gated by
        # W_j (1-ending R-nodes) fill a bystander pool.  Every scanned entry is
        # either swept here or permanently out: the slice is consumed wholesale.
        pool = state.mids_pool
        lo = bisect_right(pool, state.depth)
        hi = bisect_left(pool, top)
        out = [y for y in pool[lo:hi] if self._pullable(state, y)]
        del pool[lo:hi]
        return out

    def _offer(self, state: _NodeState, x: int) -> None:
        """Add x to the candidate pools drawn from a node's tilde pool."""
        for node in state.rt_subscribers:
            heappush(node.cand_heap, x)
        for node in state.mids_subscribers:
            insort(node.mids_pool, x)

    def _table_changed(self, state: _NodeState, k: int) -> None:
        """A node's marker table changed at position k: flag a scan if its
        least dump can see the change."""
        if k < MARKER_WINDOW or state.stage_bound:
            state.needs_scan = True

    def _marker_moved(self, state: _NodeState, k: int) -> None:
        """A marker entered or left a node's table at position k."""
        self._table_changed(state, k)
        # at every k: _extra_dump's index can lie past the window
        st = self.tree_stage
        if state.moved[0] != st or k < state.moved[1]:
            state.moved = (st, k)

    def _commit_tilde(self, state: _NodeState, x: int) -> None:
        state.rt_committed.add(x)
        self._offer(state, x)
        state.rt_out.append(x)
        self.kernel.wake(state.rt_index)
        for m in state.measures.values():
            self._measure_try_add(m, x)

    def _commit_r(self, state: _NodeState, balls: list) -> None:
        """Commit new balls to a node's R piece, emitted in the given order.

        One batch does what committing the balls one at a time would.  A
        T-counter's frontier and the least marker position that
        ``_marker_moved`` keeps are each the least position a commit inserted
        at, and whatever the order, that is where the least new ball (the
        least new marker) goes: every other one is greater.
        """
        new = sorted(balls)
        r_sorted = state.r_sorted
        pos = bisect_left(r_sorted, new[0])
        r_sorted[pos:] = sorted(r_sorted[pos:] + new)
        for tm in state.tmeasures:
            tm.dirty = True
            if pos < tm.fi:
                tm.fi = pos
        state.r_out.extend(balls)
        self.kernel.wake(state.r_index)
        log, e_a = self.kernel.log, self.e_a
        markers = [x for x in new if log.entry_stage(e_a, x) is None]
        if markers:
            live = state.live_markers
            k = bisect_left(live, markers[0])
            live[k:] = sorted(live[k:] + markers)
            self._marker_moved(state, k)
            for x in markers:
                self.marker_nodes.setdefault(x, []).append(state)

    # -- dumping into A --------------------------------------------------------

    def _dump_to_a(self, x: int) -> None:
        """Dump a live marker into A, taking it out of every table that lists it."""
        self.dumped += 1
        self._a_out.append(x)
        self._lift(x)
        for holder in self.marker_nodes.pop(x):
            self._marker_moved(holder, sorted_discard(holder.live_markers, x))

    def _patch_node(self, state: _NodeState) -> None:
        """Absorb casualties: Rtilde_delta balls that entered A uncommitted, as
        A's log column gives them (see the module docstring)."""
        delta = greatest_r_prefix(state.address)
        dstate = self.nodes[delta]
        casualties = []
        for _, y in self.kernel.log.entries(self.e_a, state.patch_cursor):
            state.patch_cursor += 1
            uncommitted = not sorted_has(state.r_sorted, y) and y not in state.rt_committed
            if uncommitted and (delta == ROOT or y in dstate.rt_committed):
                casualties.append(y)
        if casualties:
            self._commit_r(state, casualties)

    def _patch(self, fstate: _NodeState) -> None:
        dumped = self.kernel.log.count(self.e_a)
        for state in fstate.chain:
            if state.patch_cursor < dumped:
                self._patch_node(state)

    def _maximal(self, st: int, fstate: _NodeState) -> None:
        for state in fstate.chain:
            if state.needs_scan:
                self._maximal_scan(st, state)

    def _maximal_scan(self, st: int, state: _NodeState) -> None:
        """One original dump: raise the least marker's state when possible."""
        state.needs_scan = False
        ks = self.history[-1][0]
        # the log holds no event of the stage the brain is polled at
        revs = marker_states(self.kernel.log, state.live_markers[:MARKER_WINDOW], ks - 1)
        found = least_dump(revs, st)
        if found is None:
            # past the window's length the stage bounds nothing, so this None
            # holds until a mask or a marker inside the window changes
            state.stage_bound = st < len(revs)
            return
        e, i = found
        self._emit_record({"op": "dump-orig", "ks": ks, "node": state.address, "e": e, "i": i})
        # each dumped marker leaves this table at position e < MARKER_WINDOW,
        # so _dump_to_a flags another scan: more states may now be raisable
        for x in state.live_markers[e:i]:
            self._dump_to_a(x)

    def _extra_dump(self, st: int, fstate: _NodeState) -> None:
        if not fstate.positive:
            return
        f = fstate.address
        # f's depth is not a square, so the question above it is a T question
        base = question_at(f[:-1]).base
        for target in fstate.chain:
            if target.address == base:
                continue
            # the stage at which f last moved left of the dumped piece's node
            t = max(fstate.depth, self._passes.of(target.address))
            if t >= len(target.live_markers):
                continue
            stage, floor = target.moved
            if stage == st and floor <= t:
                continue  # this stage's movement already did the job
            self._emit_record({"op": "dump-extra", "ks": self.history[-1][0],
                               "node": target.address, "idx": t})
            self._dump_to_a(target.live_markers[t])

    # -- stage driver -----------------------------------------------------------

    def _brain_pull(self, stage: int):
        self._ingest()
        if self.kernel.backlog > 0:
            return ()
        st = self.tree_stage + 1
        self.tree_stage = st
        fstate = self._compute_f(st)
        f = fstate.address
        self._emit_record({"op": "f", "s": st, "ks": stage, "node": f})
        for state in fstate.requesters:
            state.requests.append(st)
        moved = f != self.history[-1][1]
        self.history.append((stage, f))
        self._passes.add(st, f)
        # ball st-1 enters at f[:1]; the root's tilde pool is every ball
        self._place(st - 1, self.nodes[f[:1]])
        self._offer(self.nodes[ROOT], st - 1)
        if moved:
            self._sweep_right(fstate)
        self._pull(st)
        self._patch(fstate)
        self._maximal(st, fstate)
        self._extra_dump(st, fstate)
        out = self._a_out
        self._a_out = []
        return out


# -- verdicts and entry points ---------------------------------------------


@dataclass
class Verdict:
    kind: int  # 1 = not a split, 2 = trivial split, 3 = Friedberg-like
    reason: str
    detail: dict = field(default_factory=dict)


@dataclass
class TreeResult:
    kernel: Kernel
    run: TreeRun
    e_a: int
    e0: int
    e1: int
    # (stage, verdict) at each checkpoint, the stage the last one it reads
    verdicts: list
    witness_halves: Optional[tuple] = None

    @property
    def verdict(self) -> Verdict:
        """The verdict at the last checkpoint."""
        return self.verdicts[-1][1]

    @property
    def checkpoints(self) -> list:
        """The verdict kind at each checkpoint."""
        return [v.kind for _, v in self.verdicts]

    @property
    def stable(self) -> bool:
        """Whether every checkpoint gives the same kind."""
        return len(set(self.checkpoints)) == 1

    @property
    def trace(self):
        return self.run.trace

    @property
    def violations(self):
        return self.run.violations


EMPTY_SLOT = 10**6  # never registered: its indices enumerate nothing


def empty_index(offset: int = 0) -> int:
    return host_index(EMPTY_SLOT + offset)


def proc_friedberg(kernel: Kernel, e: int) -> tuple[int, int]:
    from .friedberg import install_friedberg

    return install_friedberg(kernel, e).halves


def proc_trivial(kernel: Kernel, e: int) -> tuple[int, int]:
    return (e, empty_index())


def proc_broken(kernel: Kernel, e: int) -> tuple[int, int]:
    return (empty_index(0), empty_index(1))


PROCEDURES = {
    "hf": proc_friedberg,
    "trivial": proc_trivial,
    "broken": proc_broken,
}


def verdict_at(log: EventLog, e_a: int, e0: int, e1: int, history: list, stage: int,
               max_backlog: int) -> Verdict:
    """The verdict on A = W_e_a and h's halves by the stage, from the log, the
    run's ``history`` and the kernel's backlog high-water mark."""
    # in-flight tolerance: construction bursts can hold a routing hostage
    # for about two queue drains, so the window tracks the observed backlog
    settle = max(64, stage // 10, 4 * max_backlog)
    violation = setalg.check_split_history(log, e_a, e0, e1, stage, settle=settle)
    if violation is not None:
        s, kind, x = violation
        return Verdict(1, "split-violation", {"stage": s, "kind": kind, "x": x})
    for side, half in ((0, e0), (1, e1)):
        if half == e_a:
            continue  # the input itself is not a complement candidate
        live = [ev.j for ev in verify.complement_witnesses(log, half, stage, 16)
                if ev.status == "live"]
        if live:
            return Verdict(
                2, "complement-witness", {"side": side, "witnesses": live}
            )
    # the tree stages after stage 0 polled in the trailing fifth
    tail = history[bisect_left(history, stage * 4 // 5, 1, key=itemgetter(0)):]
    if tail:
        positive = sum(is_positive_a(f) for _, f in tail)
        if positive * 2 >= len(tail):
            return Verdict(2, "positive-endpoint", {"fraction": positive / len(tail)})
    growth = [asdict(ev) for ev in verify.probe_friedberg(log, e_a, e0, e1, stage, 8)
              if ev.swallowed_total]
    return Verdict(3, "friedberg-like", {"per_index": growth})


class _WitnessSplit:
    """Routes dumped balls by membership in the designated piece R_"1".

    Registered alongside a tree run; routing waits until the piece's patch
    cursor has passed the ball, at which point membership is final.
    """

    def __init__(self, kernel: Kernel, run: TreeRun):
        self.kernel = kernel
        self.run = run
        self.cursor = 0
        # only the brain's polls move what _route reads, and the brain, a
        # drain source registered first, is polled before these halves
        self.halves, self._queues = kernel.register_pair(
            self._route, wake="drain", slot_base=run.a_slot + 1
        )

    def _route(self, stage: int) -> None:
        run = self.run
        target = run.nodes.get("1")
        if target is None:
            return
        for _, x in self.kernel.log.entries(run.e_a, self.cursor):
            if target.patch_cursor <= self.cursor:
                break  # membership not final yet
            self.cursor += 1
            side = 0 if sorted_has(target.r_sorted, x) else 1
            self._queues[side].append(x)


def diagonalize(proc: Callable, stages: int, depth: int = 25,
                corpus_texts=None, slot_base: int = 1,
                collect_trace: bool = True,
                with_witness_split: bool = False) -> TreeResult:
    """Run the full construction against one candidate procedure.

    The verdict is evaluated at five checkpoints across the trailing fifth
    of the stage budget; ``stable`` reports whether they all agree.
    """
    from . import corpus as corpus_mod

    texts = corpus_texts if corpus_texts is not None else corpus_mod.BASIC
    kernel = Kernel(texts)
    run = TreeRun(kernel, proc, depth, slot_base, collect_trace)
    witness = _WitnessSplit(kernel, run) if with_witness_split else None
    checkpoints = sorted({stages * k // 100 for k in (80, 85, 90, 95, 100)})
    verdicts = []
    for target in checkpoints:
        kernel.run_to(target)
        verdicts.append((target - 1, verdict_at(kernel.log, run.e_a, run.e0, run.e1,
                                                run.history, target - 1, kernel.max_backlog)))
    return TreeResult(
        kernel, run, run.e_a, run.e0, run.e1, verdicts,
        witness.halves if witness else None,
    )


def iterate_splitting_procedures(proc: Callable, rounds: int, stages: int,
                                 depth: int = 25, corpus_texts=None) -> list[dict]:
    """Round-by-round diagonalization of one procedure.

    Each round is an independent run in a fresh kernel; fresh slot bases keep
    the constructed indices pairwise distinct.  A round's witness pair is
    reported, not fed to a later round: in the next round's kernel its
    indices name other sets.
    """
    out = []
    for i in range(rounds):
        result = diagonalize(
            proc, stages, depth, corpus_texts,
            slot_base=1 + 50 * i, collect_trace=False, with_witness_split=True,
        )
        out.append(
            {
                "round": i,
                "e": result.e_a,
                "halves": (result.e0, result.e1),
                "verdict": result.verdict.kind,
                "reason": result.verdict.reason,
                "stable": result.stable,
                "witness_pair": result.witness_halves,
                "violations": len(result.violations),
            }
        )
    return out


def structural_report(run: TreeRun) -> dict:
    """Invariant audit over a finished run's internal state.

    Checks the marker tables of every R-node and counts the exceptions to
    the piece-set partition along the current path.  Ball depths are not
    re-checked here: the run flags them as they happen, in
    ``run.violations``.  Nor is f's shape: the trace replay checks it.
    """
    problems = []
    for address, state in run.nodes.items():
        if not state.is_r:
            continue
        markers = state.live_markers
        if any(a >= b for a, b in zip(markers, markers[1:])):
            problems.append(("markers-not-increasing", address))
        in_a = any(run.kernel.log.entry_stage(run.e_a, x) is not None for x in markers)
        if in_a or not set(markers) <= set(state.r_sorted):
            problems.append(("marker-membership", address))
    # partition along the current path: chain pieces plus the deepest tilde;
    # each repeat of a ball is one exception
    chain = [run.nodes[address] for address in r_chain(run.history[-1][1])]
    pieces = [x for state in chain for x in state.r_sorted]
    if chain:
        pieces += chain[-1].rt_committed
    return {
        "problems": problems,
        "partition_exceptions": len(pieces) - len(set(pieces)),
        "nodes": len(run.nodes),
        "dumped": run.dumped,
    }
