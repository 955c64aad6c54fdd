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
extends f, and every node right of f is one that f passed on the left.  One
history, (tree stage, kernel stage, f) per tree stage, gives the verdict its
tail, and its index ``geometry.LeftPasses`` the extra dump the stage at which
f last moved left of a node.  The trace writes it as one ``f`` record per
tree stage; (s, f) fixes the ball the stage enters and the chips that
changed, so no record says them.  Every other record belongs to the stage of
the last ``f`` record before it, so none repeats ``s`` or what f gives (a
``left`` record's target, an extra dump's dumping node), and no record names
a casualty (a ball of A that a piece absorbs), which A's log gives.

Balls enter at the depth-1 node of the current path, one per tree stage, and
move only left (when the path passes them) or via pulls.  A ball lives in its
node's ``balls``, and ``positions`` maps it back to the node; the root's tilde
pool, from which the nodes below it draw, is every entered ball.  Pulls commit
balls to the pulling R-node's piece sets; markers over each piece drive the
maximal-set dumping, and positive A-nodes on the path dump markers of the
other pieces.  Measures, T-counters and marker tables hold node states, not
addresses: a node is made after its prefixes and never removed.  All set
emissions go through the kernel's single FIFO; the tree advances one stage per
kernel poll only when every emission has drained, which is how the constructed
sets keep pace with their enumeration indices.  The kernel polls the brain
only on the stages that start with an empty FIFO, and the brain's per-stage
work follows what changed: it reads the log only when it advances, a T-counter
is advanced only when its inputs moved, and a node tries to pull only when it
holds two candidates.  A marker table is rescanned only after a change its
least dump can see: one among its first MARKER_WINDOW markers, or any change
while its last scan still hung on the stage.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import asdict, dataclass, field
from heapq import heapify, heappop, heappush
from math import isqrt
from operator import attrgetter, itemgetter
from typing import Callable, Optional

from .geometry import (
    MARKER_WINDOW, ROOT, LeftPasses, TreeError, ball_too_deep, can_pull, checked_depth,
    greatest_r_prefix, is_positive_a, least_dump, left_key, left_target, mask_bit, node_kind,
    question_at, r_chain,
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

    def add(self, x: int) -> None:
        self.members.add(x)
        for node in self.subscribers:
            heappush(node.cand_heap, x)


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


class _NodeState:
    __slots__ = (
        "address", "key", "kind", "positive", "requesting", "kids", "chip_snapshot",
        "requests", "measure", "tmeasure", "measures", "tmeasures",
        "r_out", "rt_out", "r_index", "rt_index", "r_committed", "rt_committed",
        "r_sorted", "live_markers", "rt_subscribers",
        "mids_subscribers", "needs_scan", "stage_bound", "moved",
        "patch_cursor", "cand_heap", "mids_pool", "balls",
    )

    def __init__(self, address: str):
        self.address = address
        self.key = left_key(address)
        self.kind = node_kind(address)
        self.positive = is_positive_a(address)
        # on the path, an R-node or a positive A-node takes a pull request
        self.requesting = self.kind == "r" or self.positive
        self.kids: list = [None, None]  # the states at address+"0" and +"1", once walked
        self.chip_snapshot = 0
        self.requests: deque = deque()  # pending request stages, pushed in stage order
        self.measure = None
        self.tmeasure = None
        self.measures: dict = {}  # j -> the measure over this tilde piece
        self.tmeasures: list = []  # the T-counters that read this R piece
        self.r_out = self.rt_out = None  # piece emissions awaiting the kernel
        self.r_index = self.rt_index = None
        self.r_committed: set = set()
        self.rt_committed: set = set()
        self.r_sorted: list = []
        self.live_markers: list = []
        self.rt_subscribers: list = []
        self.mids_subscribers: list = []
        self.needs_scan = False
        # whether the next scan may differ from the last one with no change
        # inside the window: never scanned, found a dump, or found none at a
        # stage below the window's length
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
        a_slot = kernel.free_slot(slot_base)
        self.a_slot = a_slot
        self._a_out: list = []
        self.e_a = kernel.register_generator(
            HostGenerator(slot=a_slot, pull=self._brain_pull, wake="drain")
        )

        # the candidate procedure is consulted once, before stage zero
        self.e0, self.e1 = proc(kernel, self.e_a)

        self.tree_stage = 0
        self.history: list = [(0, 0, ROOT)]  # (tree stage, kernel stage, f) per tree stage
        self._passes = LeftPasses()  # over history's (tree stage, f)
        self._passes.add(0, ROOT)
        self.nodes: dict[str, _NodeState] = {}
        self.measures_by_index: dict[int, list] = {}
        self.positions: dict[int, str] = {}  # every on-machine ball -> its node
        self.a_committed: set = set()
        self.masks: dict[int, int] = {}
        self.marker_nodes: dict[int, list] = {}  # live marker -> the states listing it
        self._left_order: list = []  # the requesting states, in left order
        self._chain: list = []       # states of f's R-nodes, shallowest first
        self._requesters: list = []  # states of f's requesting prefixes
        self.tmeasures_by_index: dict[int, list] = {}  # by j_index and by eb_index
        self._cursor = 0
        self._make_node(ROOT)
        self._emit_record(
            {
                "op": "meta", "kind": "tree", "e_a": self.e_a, "e0": self.e0,
                "e1": self.e1, "depth": self.depth, "feeder": self.feeder_index,
            }
        )
        self._emit_record({"op": "f", "s": 0, "ks": 0, "node": ROOT})

    # -- plumbing ---------------------------------------------------------

    def _paced_source(self, slot: int, pace: int, phase: int, member) -> int:
        """Register a set that enumerates its members in increasing order,
        one at each stage congruent to ``phase`` mod ``pace``; its index."""
        kernel = self.kernel
        n = 0

        def pull(stage):
            nonlocal n
            while not member(n):
                n += 1
            n += 1
            kernel.wake_at(index, stage + pace)
            return [n - 1]

        index = kernel.register_generator(HostGenerator(slot=slot, pull=pull, wake="timer"))
        start = kernel.next_stage
        kernel.wake_at(index, start + (phase - start) % pace)
        return index

    def _emit_record(self, record: dict) -> None:
        if self.collect_trace:
            self.trace.append(record)

    def _violation(self, kind: str, detail) -> None:
        self.violations.append((self.tree_stage, kind, detail))

    def _make_node(self, address: str) -> _NodeState:
        """Make a node.  The walk makes each one once, after its parent, so its
        prefixes exist."""
        state = _NodeState(address)
        self.nodes[address] = state
        q = question_at(address) if address != ROOT else None
        if q is None:
            state.measure = self._get_measure(1, state)
        elif q.kind == "R":
            state.measure = self._get_measure(q.j, self.nodes[q.base])
        else:
            eb = self.e0 if q.b == 0 else self.e1
            tm = state.tmeasure = _TMeasure(q.j, eb, self.nodes[q.base])
            tm.beta.tmeasures.append(tm)
            for idx in {q.j, eb}:
                self.tmeasures_by_index.setdefault(idx, []).append(tm)
        if state.kind == "r":
            # the piece sets are woken by _queue_emission, never polled idle
            (state.r_index, state.rt_index), (state.r_out, state.rt_out) = (
                self.kernel.register_pair(None, wake=(), slot_base=self.a_slot + 1)
            )
            # absorb any casualties that predate this node
            self._patch_node(state)
        if state.requesting:
            insort(self._left_order, state, key=_KEY)
            self._seed_candidates(state)
        return state

    def _seed_candidates(self, state: _NodeState) -> None:
        address = state.address
        dstate = self.nodes[greatest_r_prefix(address)]
        # delta's tilde pool: at the root, the balls entered before this stage's
        pool = (list(range(self.tree_stage - 1)) if dstate.address == ROOT
                else sorted(dstate.rt_committed))
        if state.kind == "r" and address.endswith("1"):
            m = self._get_measure(isqrt(len(address)), dstate)
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
        # the root's W_1 is the feeder; other questions read W_j directly
        root = dstate.address == ROOT
        m = dstate.measures[j] = _Measure(self.feeder_index if root and j == 1 else j,
                                          None if root else dstate)
        self.measures_by_index.setdefault(m.j_index, []).append(m)
        # replay history: members of W_j already logged
        log = self.kernel.log
        for _, x in log.entries(m.j_index):
            self._measure_try_add(m, x)
        return m

    def _measure_try_add(self, m: _Measure, x: int) -> None:
        if x in m.members or x in self.a_committed:
            return
        in_delta = m.over is None or x in m.over.rt_committed
        if in_delta and self.kernel.log.entry_stage(m.j_index, x) is not None:
            m.add(x)

    def _queue_emission(self, index: int, queue: list, x: int) -> None:
        queue.append(x)
        self.kernel.wake(index)

    # -- event ingestion ---------------------------------------------------

    def _ingest(self) -> None:
        log = self.kernel.log
        fresh = log.events(self._cursor)
        self._cursor = len(log)
        for _, idx, x in fresh:
            for m in self.measures_by_index.get(idx, ()):
                self._measure_try_add(m, x)
            for tm in self.tmeasures_by_index.get(idx, ()):
                tm.dirty = True
            bit = mask_bit(idx)
            if bit:
                # x enters idx once, so the bit is new
                self.masks[x] = self.masks.get(x, 0) | bit
                for state in self.marker_nodes.get(x, ()):
                    self._table_changed(state, bisect_left(state.live_markers, x))

    # -- chips and the walk -------------------------------------------------

    def _advance_tmeasure(self, tm: _TMeasure) -> None:
        if tm.frozen:
            return
        log = self.kernel.log
        r_comm = tm.beta.r_committed
        for _, x in log.entries(tm.j_index, tm.wj_cursor):
            tm.wj_cursor += 1
            if x not in r_comm or log.entry_stage(tm.eb_index, x) is not None:
                tm.frozen = True
                return
        r_sorted = tm.beta.r_sorted
        while tm.fi < len(r_sorted):
            x = r_sorted[tm.fi]
            if log.entry_stage(tm.j_index, x) is None and (
                log.entry_stage(tm.eb_index, x) is None
            ):
                break
            tm.fi += 1
            tm.count += 1

    def _compute_f(self, st: int) -> str:
        """Walk f from the root; collect its R-nodes and requesting prefixes."""
        cap = min(st * st, self.depth)
        state = self.nodes[ROOT]
        chain: list = []
        requesters: list = []
        while not state.positive:
            node = state.address
            if len(node) == cap:
                # st*st and the depth bound (checked_depth) are squares, so this is
                # the root or an R-node; only the trace replay checks f's shape
                break
            if state.measure is not None:
                chip = len(state.measure.members)
            else:
                tm = state.tmeasure
                if tm.dirty:
                    # a clean counter would read the same entries and pieces again
                    tm.dirty = False
                    self._advance_tmeasure(tm)
                chip = tm.count
            bit = 1 if chip != state.chip_snapshot else 0
            state.chip_snapshot = chip
            child = state.kids[bit]
            if child is None:
                child = state.kids[bit] = self._make_node(node + "01"[bit])
            state = child
            if state.kind == "r":
                chain.append(state)
            if state.requesting:
                requesters.append(state)
        self._chain = chain
        self._requesters = requesters
        return state.address

    # -- sweeping right of the path -----------------------------------------

    def _sweep_right(self, f: str) -> None:
        # the nodes f passed on the left; only requesting nodes hold requests,
        # and once f can move only they hold balls.  Void their requests (the
        # trace's replay voids them at the f record) and relocate their balls;
        # each target is a prefix of f, so it sits left of every node moved from
        order = self._left_order
        for state in order[bisect_right(order, left_key(f), key=_KEY):]:
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
            self._violation("ball-depth", (x, address))

    def _lift(self, x: int) -> None:
        """Take ball x off the node it sits on, if it is on the machine."""
        address = self.positions.pop(x, None)
        if address is None:
            return
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
        """Whether the node may pull ball x.  A no is permanent: x is at most the node's
        depth, in A or in its pieces, or off the machine, left of the node or below it."""
        if x <= len(state.address) or x in self.a_committed:
            return False
        if state.kind == "r" and (x in state.r_committed or x in state.rt_committed):
            return False
        return can_pull(state.address, self.positions.get(x))

    def _try_pull_at(self, state: _NodeState) -> bool:
        # pop candidates in value order; every rejection is permanent
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
        if state.kind == "r":
            self._commit(state, x0, tilde=False)
            self._commit(state, x1, tilde=True)
            for y in mids:
                self._commit(state, y, tilde=False)
        self._emit_record({"op": "pull", "ks": self.history[-1][1], "node": state.address,
                           "req": request, "x0": x0, "x1": x1, "mid": mids})
        return True

    def _intermediates(self, state: _NodeState, top: int) -> list:
        # when the pull pool is the piece pool itself, pair minimality leaves
        # nothing strictly between the chosen pair, so only the nodes gated by
        # W_j (1-ending R-nodes) fill a bystander pool.  Every scanned entry is
        # either swept here or permanently out: the slice is consumed wholesale.
        pool = state.mids_pool
        lo = bisect_right(pool, len(state.address))
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

    def _commit(self, state: _NodeState, x: int, tilde: bool) -> None:
        if tilde:
            state.rt_committed.add(x)
            self._offer(state, x)
            self._queue_emission(state.rt_index, state.rt_out, x)
            for m in state.measures.values():
                self._measure_try_add(m, x)
        else:
            state.r_committed.add(x)
            pos = bisect_left(state.r_sorted, x)
            state.r_sorted.insert(pos, x)
            for tm in state.tmeasures:
                tm.dirty = True
                if pos < tm.fi:
                    tm.fi = pos
            self._queue_emission(state.r_index, state.r_out, x)
            if x not in self.a_committed:
                k = bisect_left(state.live_markers, x)
                state.live_markers.insert(k, x)
                self._marker_moved(state, k)
                self.marker_nodes.setdefault(x, []).append(state)

    # -- dumping into A --------------------------------------------------------

    def _dump_to_a(self, x: int) -> None:
        """Dump a live marker into A, taking it out of every table that lists it."""
        self.a_committed.add(x)
        self._a_out.append(x)
        self._lift(x)
        for holder in self.marker_nodes.pop(x):
            k = bisect_left(holder.live_markers, x)
            del holder.live_markers[k]
            self._marker_moved(holder, k)

    def _patch_node(self, state: _NodeState) -> None:
        """Absorb casualties: Rtilde_delta balls that entered A uncommitted.  It
        runs before its tree stage's first dump, when A's log column is all of A."""
        delta = greatest_r_prefix(state.address)
        dstate = self.nodes[delta]
        for _, y in self.kernel.log.entries(self.e_a, state.patch_cursor):
            state.patch_cursor += 1
            uncommitted = y not in state.r_committed and y not in state.rt_committed
            if uncommitted and (delta == ROOT or y in dstate.rt_committed):
                self._commit(state, y, tilde=False)

    def _patch(self) -> None:
        dumped = self.kernel.log.count(self.e_a)
        for state in self._chain:
            if state.patch_cursor < dumped:
                self._patch_node(state)

    def _maximal(self, st: int) -> None:
        for state in self._chain:
            if state.needs_scan:
                self._maximal_scan(st, state)

    def _maximal_scan(self, st: int, state: _NodeState) -> None:
        """One original dump: raise the least marker's state when possible."""
        state.needs_scan = False
        masks = self.masks
        revs = [masks.get(x, 0) for x in state.live_markers[:MARKER_WINDOW]]
        found = least_dump(revs, st)
        if found is None:
            # past the window's length the stage bounds nothing, so this None
            # holds until a mask or a marker inside the window changes
            state.stage_bound = st < len(revs)
            return
        state.stage_bound = True
        e, i = found
        dumped = state.live_markers[e:i]
        self._emit_record({"op": "dump-orig", "ks": self.history[-1][1], "node": state.address,
                           "e": e, "i": i, "balls": dumped})
        for x in dumped:
            self._dump_to_a(x)
        state.needs_scan = True  # more states may now be raisable

    def _extra_dump(self, st: int, f: str) -> None:
        state = self.nodes[f]
        if not state.positive:
            return
        # f's depth is not a square, so the question above it is a T question
        base = question_at(f[:-1]).base
        for target in self._chain:
            if target.address == base:
                continue
            # the stage at which f last moved left of the dumped piece's node
            t = max(len(f), self._passes.of(target.address))
            if t >= len(target.live_markers):
                continue
            stage, floor = target.moved
            if stage == st and floor <= t:
                continue  # this stage's movement already did the job
            x = target.live_markers[t]
            self._emit_record({"op": "dump-extra", "ks": self.history[-1][1],
                               "node": target.address, "idx": t, "x": x})
            self._dump_to_a(x)

    # -- stage driver -----------------------------------------------------------

    def _brain_pull(self, stage: int):
        self._ingest()
        if self.kernel.backlog > 0:
            return ()
        st = self.tree_stage + 1
        self.tree_stage = st
        f = self._compute_f(st)
        self._emit_record({"op": "f", "s": st, "ks": stage, "node": f})
        for state in self._requesters:
            state.requests.append(st)
        moved = f != self.history[-1][2]
        self.history.append((st, stage, f))
        self._passes.add(st, f)
        # ball st-1 enters at f[:1]; the root's tilde pool is every ball
        self._place(st - 1, self.nodes[f[:1]])
        self._offer(self.nodes[ROOT], st - 1)
        if moved:
            self._sweep_right(f)
        self._pull(st)
        self._patch()
        self._maximal(st)
        self._extra_dump(st, f)
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
    from .setalg import check_split_history
    from .verify import complement_witnesses, probe_friedberg

    # in-flight tolerance: construction bursts can hold a routing hostage
    # for about two queue drains, so the window tracks the observed backlog
    settle = max(64, stage // 10, 4 * max_backlog)
    violation = check_split_history(log, e_a, e0, e1, stage, settle=settle)
    if violation is not None:
        s, kind, x = violation
        return Verdict(1, "split-violation", {"stage": s, "kind": kind, "x": x})
    for side, half in ((0, e0), (1, e1)):
        if half == e_a:
            continue  # the input itself is not a complement candidate
        live = [ev.j for ev in complement_witnesses(log, half, stage, 16)
                if ev.status == "live"]
        if live:
            return Verdict(
                2, "complement-witness", {"side": side, "witnesses": live}
            )
    # the tree stages after stage 0 polled in the trailing fifth
    tail = history[bisect_left(history, stage * 4 // 5, 1, key=itemgetter(1)):]
    if tail:
        positive = sum(is_positive_a(f) for _, _, f in tail)
        if positive * 2 >= len(tail):
            return Verdict(2, "positive-endpoint", {"fraction": positive / len(tail)})
    growth = [asdict(ev) for ev in probe_friedberg(log, e_a, e0, e1, stage, 8)
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
        (self.w0, self.w1), self._queues = kernel.register_pair(
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
            side = 0 if x in target.r_committed else 1
            self._queues[side].append(x)

    @property
    def halves(self) -> tuple[int, int]:
        return (self.w0, self.w1)


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
        if state.kind != "r":
            continue
        markers = state.live_markers
        if any(a >= b for a, b in zip(markers, markers[1:])):
            problems.append(("markers-not-increasing", address))
        if state.r_sorted != sorted(state.r_committed):
            problems.append(("r-sorted-drift", address))
        if not set(markers) <= (state.r_committed - run.a_committed):
            problems.append(("marker-membership", address))
    # partition along the current path: chain pieces plus the deepest tilde
    chain = r_chain(run.history[-1][2])
    exceptions = []
    seen: dict[int, str] = {}
    for address in chain:
        state = run.nodes[address]
        for x in state.r_committed:
            if x in seen:
                exceptions.append((x, seen[x], address))
            seen[x] = address
    if chain:
        deepest = run.nodes[chain[-1]]
        for x in deepest.rt_committed:
            if x in seen:
                exceptions.append((x, seen[x], chain[-1] + "~"))
    return {
        "problems": problems,
        "partition_exceptions": len(exceptions),
        "nodes": len(run.nodes),
        "dumped": len(run.a_committed),
    }
