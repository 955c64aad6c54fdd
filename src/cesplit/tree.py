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
or at the depth cap min(s*s, depth_bound).

Balls enter at the depth-1 node of the current path, one per tree stage, and
move only left (when the path passes them) or via pulls.  Pulls commit balls
to the pulling R-node's piece sets; markers over each piece drive the
maximal-set dumping, and positive A-nodes on the path dump markers of the
other pieces.  All set emissions go through the kernel's single FIFO; the
tree advances one stage per kernel poll only when every emission has
drained, which is how the constructed sets keep pace with their enumeration
indices.  The kernel polls the brain only on the stages that start with an
empty FIFO, and the brain's per-stage work follows what changed: it reads
the log only when it advances, a T-counter is advanced only when its inputs
moved, and a node tries to pull only when it holds two candidates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import asdict, dataclass, field
from heapq import heapify, heappop, heappush
from math import isqrt
from operator import attrgetter
from typing import Callable, Optional

from .geometry import (
    ROOT, TreeError, ball_too_deep, can_pull, greatest_r_prefix, is_positive_a,
    last_left_pass, least_dump, left_key, left_target, mask_bit, node_kind,
    question_at, r_chain, sorted_add, sorted_discard,
)
from .kernel import HostGenerator, Kernel, host_index

FEEDER_PACE = 4  # the background universe set emits every 4th stage
SPECTRUM_PACE = 16  # each blocky background set emits every 16th stage

_KEY = attrgetter("key")


class _RangeQueue:
    """Pending request stages stored as merged [start, end] ranges."""

    __slots__ = ("ranges", "count")

    def __init__(self):
        self.ranges: list = []
        self.count = 0

    def push(self, stage: int) -> None:
        if self.ranges and self.ranges[-1][1] + 1 == stage:
            self.ranges[-1][1] = stage
        else:
            self.ranges.append([stage, stage])
        self.count += 1

    def pop_least(self) -> int:
        start, end = self.ranges[0]
        if start == end:
            self.ranges.pop(0)
        else:
            self.ranges[0][0] = start + 1
        self.count -= 1
        return start

    def void(self) -> int:
        n = self.count
        self.ranges = []
        self.count = 0
        return n


class _Measure:
    """The monotone set (W_j intersect Rtilde_delta) entered-before-A.

    Shared between the question node that counts it and the R-nodes that
    pull from it.
    """

    __slots__ = ("j_index", "delta", "members", "subscribers")

    def __init__(self, j_index: int, delta: str):
        self.j_index = j_index
        self.delta = delta
        self.members: set = set()
        self.subscribers: list = []

    def add(self, x: int) -> None:
        if x not in self.members:
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

    def __init__(self, j_index: int, eb_index: int, beta: str):
        self.j_index = j_index
        self.eb_index = eb_index
        self.beta = beta
        self.count = 0
        self.frozen = False
        self.wj_cursor = 0
        self.fi = 0
        # set when W_j, W_eb or R_beta gained an element since the last advance
        self.dirty = True


class _NodeState:
    __slots__ = (
        "address", "key", "kind", "positive", "requesting", "kids", "chip_snapshot",
        "requests", "measure", "tmeasure",
        "r_out", "rt_out", "r_index", "rt_index", "r_committed", "rt_committed",
        "r_sorted", "live_markers", "live_revs", "live_rt", "rt_subscribers",
        "mids_subscribers", "needs_scan", "moved_marker_floor", "patch_cursor",
        "cand_heap", "mids_pool", "left_cache",
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
        self.requests = _RangeQueue()
        self.measure = None
        self.tmeasure = None
        self.r_out = self.rt_out = None  # piece emissions awaiting the kernel
        self.r_index = self.rt_index = None
        self.r_committed: set = set()
        self.rt_committed: set = set()
        self.r_sorted: list = []
        self.live_markers: list = []
        self.live_revs: list = []
        self.live_rt: list = []
        self.rt_subscribers: list = []
        self.mids_subscribers: list = []
        self.needs_scan = False
        self.moved_marker_floor = None  # least marker index moved this stage
        self.patch_cursor = 0
        self.cand_heap: list = []
        self.mids_pool: list = []  # 1-ending R-nodes: consumable bystander pool
        self.left_cache = (0, 0)  # (f-history index checked, best left-pass stage)


class TreeRun:
    """Drives one diagonalization as a family of host generators."""

    def __init__(self, kernel: Kernel, proc: Callable, depth_bound: int = 25,
                 slot_base: int = 1, collect_trace: bool = True):
        d = isqrt(depth_bound)
        if d * d != depth_bound:
            raise TreeError("depth bound must be a perfect square")
        self.kernel = kernel
        self.depth = depth_bound
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
        self.f: str = ROOT
        self.f_kernel_stage = 0
        self.nodes: dict[str, _NodeState] = {}
        self.measures: dict[tuple, _Measure] = {}
        self.measures_by_index: dict[int, list] = {}
        self.measures_by_delta: dict[str, list] = {}
        self.positions: dict[int, str] = {}  # every on-machine ball -> its node
        self.node_balls: dict[str, set] = {}
        self.a_committed: set = set()
        self.a_order: list = []
        self.masks: dict[int, int] = {}
        self.mask_nodes: dict[int, list] = {}
        self._ball_keys: list = []      # sorted left keys of ball-holding nodes
        self._requesting: list = []     # request-holding states, in left order
        self._chain: list = []       # states of f's R-nodes, shallowest first
        self._requesters: list = []  # states of f's requesting prefixes
        self._entry_subscribers: list = []  # nodes whose pull pool is every ball
        self._entry_mids_subscribers: list = []  # 1-ending nodes sweeping every ball
        self._f_history: list = [(0, ROOT)]  # (tree stage, f) on change
        self.tmeasures_by_beta: dict[str, list] = {}
        self.tmeasures_by_index: dict[int, list] = {}  # by j_index and by eb_index
        self._moved_nodes: list = []
        self._cursor = 0
        self._endpoint_history: list = []  # (tree_stage, kernel_stage, f, kind)
        self._get_node(ROOT)
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

    def _get_node(self, address: str) -> _NodeState:
        state = self.nodes.get(address)
        if state is not None:
            return state
        state = _NodeState(address)
        self.nodes[address] = state
        q = question_at(address) if address != ROOT else None
        if q is None:
            state.measure = self._get_measure(1, ROOT)
        elif q.kind == "R":
            state.measure = self._get_measure(q.j, q.base)
        else:
            eb = self.e0 if q.b == 0 else self.e1
            tm = state.tmeasure = _TMeasure(q.j, eb, q.base)
            self.tmeasures_by_beta.setdefault(q.base, []).append(tm)
            for idx in {q.j, eb}:
                self.tmeasures_by_index.setdefault(idx, []).append(tm)
        for tm in self.tmeasures_by_beta.get(address, ()):
            tm.dirty = True  # R_beta now reads from this node
        if state.kind == "r":
            # the piece sets are woken by _queue_emission, never polled idle
            (state.r_index, state.rt_index), (state.r_out, state.rt_out) = (
                self.kernel.register_pair(None, wake=(), slot_base=self.a_slot + 1)
            )
            # absorb any casualties that predate this node
            self._patch_node(state)
        if state.kind == "r" or state.positive:
            self._seed_candidates(state)
        return state

    def _seed_candidates(self, state: _NodeState) -> None:
        address = state.address
        delta = greatest_r_prefix(address)
        if state.kind == "r" and address.endswith("1"):
            m = self._get_measure(isqrt(len(address)), delta)
            state.cand_heap = sorted(m.members)
            m.subscribers.append(state)
            if delta == ROOT:
                state.mids_pool = sorted(self.positions)
                self._entry_mids_subscribers.append(state)
            else:
                dstate = self._get_node(delta)
                state.mids_pool = list(dstate.live_rt)
                dstate.mids_subscribers.append(state)
        elif delta == ROOT:
            state.cand_heap = sorted(self.positions)
            self._entry_subscribers.append(state)
        else:
            dstate = self._get_node(delta)
            state.cand_heap = list(dstate.live_rt)
            dstate.rt_subscribers.append(state)
        heapify(state.cand_heap)

    def _get_measure(self, j: int, delta: str) -> _Measure:
        key = (j, delta)
        got = self.measures.get(key)
        if got is not None:
            return got
        # questions quantify over the canonical enumeration directly
        j_index = self.feeder_index if (j, delta) == (1, ROOT) else j
        m = _Measure(j_index, delta)
        self.measures[key] = m
        self.measures_by_index.setdefault(j_index, []).append(m)
        self.measures_by_delta.setdefault(delta, []).append(m)
        # replay history: members of W_j already logged
        log = self.kernel.log
        for _, x in log.entries(j_index):
            self._measure_try_add(m, x)
        return m

    def _measure_try_add(self, m: _Measure, x: int) -> None:
        if x in m.members or x in self.a_committed:
            return
        if m.delta == ROOT:
            in_delta = True
        else:
            dstate = self.nodes.get(m.delta)
            in_delta = dstate is not None and x in dstate.rt_committed
        if in_delta and self.kernel.log.entry_stage(m.j_index, x) is not None:
            m.add(x)

    def _queue_emission(self, index: int, queue: list, x: int) -> None:
        queue.append(x)
        self.kernel.wake(index)

    # -- event ingestion ---------------------------------------------------

    def _ingest(self) -> None:
        log = self.kernel.log
        fresh = log.since(self._cursor)
        self._cursor = len(log)
        for _, idx, x in fresh:
            for m in self.measures_by_index.get(idx, ()):
                self._measure_try_add(m, x)
            for tm in self.tmeasures_by_index.get(idx, ()):
                tm.dirty = True
            bit = mask_bit(idx)
            if bit:
                mask = self.masks.get(x, 0)
                if not mask & bit:
                    new = mask | bit
                    self.masks[x] = new
                    for address in self.mask_nodes.get(x, ()):
                        st = self.nodes.get(address)
                        if st is None:
                            continue
                        k = bisect_left(st.live_markers, x)
                        if k < len(st.live_markers) and st.live_markers[k] == x:
                            st.live_revs[k] = new
                            st.needs_scan = True

    # -- chips and the walk -------------------------------------------------

    def _advance_tmeasure(self, tm: _TMeasure) -> None:
        if tm.frozen:
            return
        log = self.kernel.log
        beta_state = self.nodes.get(tm.beta)
        r_comm = beta_state.r_committed if beta_state is not None else set()
        entries = log.entries(tm.j_index)
        while tm.wj_cursor < len(entries):
            _, x = entries[tm.wj_cursor]
            tm.wj_cursor += 1
            if x not in r_comm or log.entry_stage(tm.eb_index, x) is not None:
                tm.frozen = True
                return
        if beta_state is None:
            return
        r_sorted = beta_state.r_sorted
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
            if len(node) >= cap:
                if not (node == ROOT or state.kind == "r"):
                    self._violation("f-endpoint-kind", node)
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
            if self.collect_trace and bit:
                self._emit_record({"op": "chip", "s": st, "node": node, "c": chip})
            child = state.kids[bit]
            if child is None:
                child = state.kids[bit] = self._get_node(node + "01"[bit])
            state = child
            if state.kind == "r":
                chain.append(state)
            if state.requesting:
                requesters.append(state)
        self._chain = chain
        self._requesters = requesters
        f = state.address
        if len(f) > cap:
            self._violation("f-length", f)
        return f

    # -- sweeping right of the path -----------------------------------------

    def _sweep_right(self, st: int, f: str) -> None:
        fkey = left_key(f)
        # void requests at strictly left-passed nodes
        requesting = self._requesting
        i = bisect_right(requesting, fkey, key=_KEY)
        kept = requesting[:i]
        for state in requesting[i:]:
            if state.address.startswith(f):
                kept.append(state)
                continue
            voided = state.requests.void()
            if voided and self.collect_trace:
                self._emit_record({"op": "void", "s": st, "node": state.address, "n": voided})
        self._requesting = kept
        # relocate balls at strictly left-passed nodes
        i = bisect_right(self._ball_keys, fkey)
        moved: list = []
        while i < len(self._ball_keys):
            # the node's own address: the records share it instead of a copy each
            address = self.nodes[left_key(self._ball_keys[i])].address
            if not address.startswith(f):
                moved.append(address)
            i += 1
        for address in moved:
            balls = sorted(self.node_balls.pop(address, ()))
            sorted_discard(self._ball_keys, left_key(address))
            if not balls:
                continue
            target = left_target(f, address)
            self._get_node(target)
            bucket = self.node_balls.setdefault(target, set())
            for x in balls:
                bucket.add(x)
                self.positions[x] = target
                if ball_too_deep(x, target):
                    self._violation("ball-depth", (x, target))
            sorted_add(self._ball_keys, left_key(target))
            self._emit_record(
                {"op": "left", "s": st, "from": address, "to": target, "balls": balls}
            )

    # -- ball entry ----------------------------------------------------------

    def _ball_entry(self, st: int, f: str) -> None:
        ball = st - 1
        target = f[:1]
        self._get_node(target)
        self.positions[ball] = target
        self.node_balls.setdefault(target, set()).add(ball)
        for node in self._entry_subscribers:
            heappush(node.cand_heap, ball)
        for node in self._entry_mids_subscribers:
            node.mids_pool.append(ball)
        sorted_add(self._ball_keys, left_key(target))
        self._emit_record({"op": "enter", "s": st, "x": ball, "node": target})

    # -- pulling --------------------------------------------------------------

    def _pull(self, st: int) -> None:
        for state in self._requesting:
            heap = state.cand_heap
            if len(heap) < 2:
                # a lone candidate waits for a partner.  An attempt would drop
                # it if it can never be pulled, which changes no later pick,
                # or if its ball has not entered yet, which does
                if heap and heap[0] >= st:
                    heap.clear()
                continue
            if self._try_pull_at(st, state):
                return  # only now is _requesting changed

    def _try_pull_at(self, st: int, state: _NodeState) -> bool:
        # pop candidates in value order; every rejection below is permanent
        floor = len(state.address)
        address = state.address
        heap = state.cand_heap
        picked: list = []
        while heap and len(picked) < 2:
            x = heappop(heap)
            if x <= floor or x in self.a_committed:
                continue
            if state.kind == "r" and (x in state.r_committed or x in state.rt_committed):
                continue
            if not can_pull(address, self.positions.get(x)):
                continue  # off the machine, left of us or below: permanently out
            picked.append(x)
        if len(picked) < 2:
            for x in picked:
                heappush(heap, x)  # still eligible, waiting for a partner
            return False
        x0, x1 = picked
        request = state.requests.pop_least()
        if not state.requests.count:
            del self._requesting[bisect_left(self._requesting, state.key, key=_KEY)]
        mids = [y for y in self._intermediates(state, x1) if y != x0]
        for x in (x0, x1):
            self._move_ball(x, address)
        if state.kind == "r":
            self._commit(state, x0, tilde=False)
            self._commit(state, x1, tilde=True)
        for y in mids:
            self._move_ball(y, address)
            if state.kind == "r":
                self._commit(state, y, tilde=False)
        self._emit_record(
            {
                "op": "pull",
                "s": st,
                "ks": self.f_kernel_stage,
                "node": address,
                "req": request,
                "x0": x0,
                "x1": x1,
                "mid": mids,
            }
        )
        return True

    def _intermediates(self, state: _NodeState, top: int) -> list:
        # when the pull pool is the piece pool itself, pair minimality leaves
        # nothing strictly between the chosen pair; only sets gated by W_j
        # can have sweepable bystanders.  Every scanned pool entry is either
        # swept here or permanently out, so the slice is consumed wholesale.
        if not (state.kind == "r" and state.address.endswith("1")):
            return []
        out = []
        floor = len(state.address)
        pool = state.mids_pool
        lo = bisect_right(pool, floor)
        hi = bisect_left(pool, top)
        for y in pool[lo:hi]:
            if y in self.a_committed:
                continue
            if y in state.r_committed or y in state.rt_committed:
                continue
            if can_pull(state.address, self.positions.get(y)):
                out.append(y)
        del pool[lo:hi]
        return out

    def _move_ball(self, x: int, target: str) -> None:
        pos = self.positions.get(x)
        if pos == target:
            return
        if pos is not None:
            bucket = self.node_balls.get(pos)
            if bucket is not None:
                bucket.discard(x)
                if not bucket:
                    sorted_discard(self._ball_keys, left_key(pos))
        self.positions[x] = target
        self.node_balls.setdefault(target, set()).add(x)
        sorted_add(self._ball_keys, left_key(target))
        if ball_too_deep(x, target):
            self._violation("ball-depth", (x, target))

    def _commit(self, state: _NodeState, x: int, tilde: bool) -> None:
        if tilde:
            state.rt_committed.add(x)
            if x not in self.a_committed:
                insort(state.live_rt, x)
                for node in state.rt_subscribers:
                    heappush(node.cand_heap, x)
                for node in state.mids_subscribers:
                    insort(node.mids_pool, x)
            self._queue_emission(state.rt_index, state.rt_out, x)
            for m in self.measures_by_delta.get(state.address, ()):
                self._measure_try_add(m, x)
        else:
            state.r_committed.add(x)
            pos = bisect_left(state.r_sorted, x)
            state.r_sorted.insert(pos, x)
            for tm in self.tmeasures_by_beta.get(state.address, ()):
                tm.dirty = True
                if pos < tm.fi:
                    tm.fi = pos
            self._queue_emission(state.r_index, state.r_out, x)
            if x not in self.a_committed:
                k = bisect_left(state.live_markers, x)
                state.live_markers.insert(k, x)
                state.live_revs.insert(k, self.masks.get(x, 0))
                if state.moved_marker_floor is None or k < state.moved_marker_floor:
                    state.moved_marker_floor = k
                    self._moved_nodes.append(state)
                self.mask_nodes.setdefault(x, []).append(state.address)
                state.needs_scan = True

    # -- dumping into A --------------------------------------------------------

    def _dump_to_a(self, st: int, x: int) -> None:
        self.a_committed.add(x)
        self.a_order.append(x)
        self._a_out.append(x)
        pos = self.positions.pop(x, None)
        if pos is not None:
            bucket = self.node_balls.get(pos)
            if bucket is not None:
                bucket.discard(x)
                if not bucket:
                    sorted_discard(self._ball_keys, left_key(pos))
        for address in self.mask_nodes.get(x, ()):
            holder = self.nodes.get(address)
            if holder is None:
                continue
            k = sorted_discard(holder.live_markers, x)
            if k is not None:
                del holder.live_revs[k]
                holder.needs_scan = True
                if holder.moved_marker_floor is None or k < holder.moved_marker_floor:
                    holder.moved_marker_floor = k
                    self._moved_nodes.append(holder)

    def _patch_node(self, state: _NodeState) -> None:
        """Absorb casualties: Rtilde_delta balls that entered A uncommitted."""
        delta = greatest_r_prefix(state.address)
        dstate = self.nodes.get(delta) if delta != ROOT else None
        while state.patch_cursor < len(self.a_order):
            y = self.a_order[state.patch_cursor]
            state.patch_cursor += 1
            if y in state.r_committed or y in state.rt_committed:
                continue
            if delta != ROOT:
                if dstate is None or y not in dstate.rt_committed:
                    continue
            self._commit(state, y, tilde=False)
            self._emit_record(
                {"op": "patch", "s": self.tree_stage, "node": state.address, "x": y}
            )

    def _patch(self) -> None:
        dumped = len(self.a_order)
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
        found = least_dump(state.live_revs, st)
        if found is None:
            return
        e, i = found
        dumped = state.live_markers[e:i]
        self._emit_record(
            {
                "op": "dump-orig",
                "s": st,
                "ks": self.f_kernel_stage,
                "node": state.address,
                "e": e,
                "i": i,
                "balls": dumped,
            }
        )
        for x in dumped:
            self._dump_to_a(st, x)
        state.needs_scan = True  # more states may now be raisable

    def _extra_dump(self, st: int, f: str) -> None:
        state = self.nodes[f]
        if not state.positive:
            return
        q = question_at(f[:-1])
        if q.kind != "T":
            return
        history = self._f_history
        for target in self._chain:
            if target.address == q.base:
                continue
            # the last stage the path ran left of the dumped piece's node
            start, best = target.left_cache
            best = last_left_pass(history, target.address, start, best)
            target.left_cache = (len(history), best)
            t = max(len(f), best)
            if t >= len(target.live_markers):
                continue
            moved = target.moved_marker_floor
            if moved is not None and moved <= t:
                continue  # this stage's movement already did the job
            x = target.live_markers[t]
            self._emit_record(
                {
                    "op": "dump-extra",
                    "s": st,
                    "ks": self.f_kernel_stage,
                    "gamma": f,
                    "node": target.address,
                    "idx": t,
                    "x": x,
                }
            )
            self._dump_to_a(st, x)

    # -- stage driver -----------------------------------------------------------

    def _brain_pull(self, stage: int):
        self._ingest()
        if self.kernel.backlog > 0:
            return ()
        st = self.tree_stage + 1
        self.tree_stage = st
        for node in self._moved_nodes:
            node.moved_marker_floor = None
        self._moved_nodes = []
        f = self._compute_f(st)
        f_changed = f != self.f
        if f_changed:
            self._emit_record({"op": "f", "s": st, "ks": stage, "node": f})
            self._f_history.append((st, f))
        for state in self._requesters:
            if not state.requests.count:
                insort(self._requesting, state, key=_KEY)
            state.requests.push(st)
        self.f = f
        self.f_kernel_stage = stage
        kind = "positive-a" if self.nodes[f].positive else node_kind(f)
        self._endpoint_history.append((st, stage, f, kind))
        self._ball_entry(st, f)
        if f_changed:
            self._sweep_right(st, f)
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
    verdict: Verdict
    checkpoints: list
    stable: bool
    witness_halves: Optional[tuple] = None

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


def verdict_at(kernel: Kernel, run: TreeRun, e_a: int, e0: int, e1: int,
               stage: int) -> Verdict:
    from .setalg import check_split_history
    from .verify import complement_witnesses, probe_friedberg

    log = kernel.log
    # in-flight tolerance: construction bursts can hold a routing hostage
    # for about two queue drains, so the window tracks the observed backlog
    settle = max(64, stage // 10, 4 * kernel.max_backlog)
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
    tail = [kind for st, ks, _, kind in run._endpoint_history if ks >= stage * 4 // 5]
    if tail:
        positive = sum(1 for kind in tail if kind == "positive-a")
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
        while self.cursor < len(run.a_order):
            if target.patch_cursor <= self.cursor:
                break  # membership not final yet
            x = run.a_order[self.cursor]
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
        verdicts.append(verdict_at(kernel, run, run.e_a, run.e0, run.e1, target - 1))
    kinds = {v.kind for v in verdicts}
    return TreeResult(
        kernel, run, run.e_a, run.e0, run.e1, verdicts[-1],
        [v.kind for v in verdicts], len(kinds) == 1,
        witness.halves if witness else None,
    )


def iterate_splitting_procedures(proc: Callable, rounds: int, stages: int,
                                 depth: int = 25, corpus_texts=None) -> list[dict]:
    """Round-by-round diagonalization with per-round patched procedures.

    Each round pins the previous round's constructed index to its own
    non-Friedberg witness pair; fresh slot bases keep the constructed
    indices pairwise distinct.
    """
    patched: dict[int, tuple[int, int]] = {}
    current = proc
    out = []
    for i in range(rounds):
        def h(kernel, e, _inner=current, _patched=dict(patched)):
            if e in _patched:
                return _patched[e]
            return _inner(kernel, e)

        result = diagonalize(
            h, stages, depth, corpus_texts,
            slot_base=1 + 50 * i, collect_trace=False, with_witness_split=True,
        )
        patched[result.e_a] = result.witness_halves
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
        current = h
    return out


def structural_report(run: TreeRun) -> dict:
    """Invariant audit over a finished run's internal state.

    Checks marker tables, the piece-set partition along the current path,
    ball depth bounds and endpoint kinds; counts land in the report, any
    violation is appended to the run's violation list as well.
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
    chain = r_chain(run.f)
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
    # casualties: committed-into-A piece members the patching already claimed
    unpatched = 0
    for address in chain:
        state = run.nodes[address]
        delta = greatest_r_prefix(address)
        if delta == ROOT:
            pool = run.a_committed
        else:
            dstate = run.nodes.get(delta)
            pool = dstate.rt_committed & run.a_committed if dstate else set()
        for y in pool:
            if y not in state.r_committed and y not in state.rt_committed:
                unpatched += 1
    for x, pos in run.positions.items():
        if ball_too_deep(x, pos):
            problems.append(("ball-depth", (x, pos)))
    bad_endpoints = [
        (st, f_) for st, _, f_, kind in run._endpoint_history
        if kind not in ("r", "positive-a") and f_ != ROOT
    ]
    if bad_endpoints:
        problems.append(("endpoint-kind", bad_endpoints[:3]))
    for problem in problems:
        run.violations.append((run.tree_stage, *problem))
    return {
        "problems": problems,
        "partition_exceptions": len(exceptions),
        "unpatched_casualties": unpatched,
        "chain": chain,
        "nodes": len(run.nodes),
        "balls_on_machine": len(run.positions),
        "dumped": len(run.a_committed),
    }
