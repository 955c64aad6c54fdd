"""Replay oracles and stage-bounded evidence probes.

The replays re-derive construction decisions from the raw event log with
their own bookkeeping, kept deliberately separate from the construction
modules: ``replay_friedberg`` each routing, ``replay_hk`` each restraint and
routing (under the listing overrides of the meta record), and
``replay_tree`` the legality of each tree decision.  The two routing
replays choose a requirement or a triple and share one loop for the rest.
The tree replay is the one exception by design: it shares ``geometry`` with
the construction, the trusted base of tree address rules (node kinds,
questions, the left order, pull eligibility, left targets, requesting
prefixes, left passes, marker states and the least-dump rule), and it
trusts the traced chip counters instead of re-deriving them.  Its clock
is the ``f`` records, one per tree stage.
``replay_check`` runs one of two suites over a ``trace.Trace``: "replay"
dispatches on the meta record, "split" checks only the split discipline;
both reject a second meta record and any op its construction never writes.
Every record has been checked against its row of the record schema by then
(``trace.read_trace`` checks each line as it reads it), so the replays read
fields with no defensive code.  Every replay reads the trace's event log as
it is and walks only its other records, each with its file line: events
are never records in memory, and a divergence's ``line`` is a file line.

The probes (``complement_witnesses``, ``probe_friedberg``) never decide
non-effective notions (computability, c.e.-ness of a difference); they
report monotone evidence over one explicit trailing window,
``trailing_window(S)``, instead.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import asdict, dataclass
from functools import lru_cache
from heapq import merge
from typing import Optional

from .geometry import (
    MARKER_WINDOW, ROOT, TreeError, can_pull, checked_depth, diverges_left,
    greatest_r_prefix, is_positive_a, is_r_node, last_left_pass, least_dump, left_target,
    question_at, requesting_prefixes, rev_mask, sorted_discard,
)
from .kernel import EventLog
from .pairing import balance_code, pair, unpair
from .trace import _SHAPES, Trace, TraceError


@dataclass
class Divergence:
    line: Optional[int]  # the record's file line
    field: str
    got: object
    want: object


# -- routing replays ---------------------------------------------------------


def _replay_routes(trace: Trace, input_idx: int, halves: tuple[int, int], op: str,
                   want) -> list[Divergence]:
    """Diff the ``op`` records against the routing the replay derives.

    The input's entrants, in log order, pair with the ``op`` records, in
    order.  ``want(x, stage)`` gives the fields of the record for ball ``x``
    entering at ``stage``, ``side`` among them; the ball must surface in
    that half after ``stage``, and not in the other.  A missing record is
    named by the line after the last record.
    """
    log = trace.log
    numbered = [(line, r) for line, r in trace.numbered() if r["op"] == op]
    entrants = log.entries(input_idx)
    out: list[Divergence] = []
    # the records first: zip stops on them without taking an entrant
    for (line, record), (entered, x) in zip(numbered, entrants):
        fields = want(x, entered)
        for fieldname, value in fields.items():
            if record[fieldname] != value:
                out.append(Divergence(line, fieldname, record[fieldname], value))
        side = fields["side"]
        landed = log.entry_stage(halves[side], x)
        if landed is None or landed <= entered:
            out.append(Divergence(line, "landing", landed, f"stage > {entered} in half {side}"))
        if log.entry_stage(halves[1 - side], x) is not None:
            out.append(Divergence(line, "landing", f"also in half {1 - side}", None))
    unrecorded = next(entrants, None)
    if unrecorded is not None:
        out.append(Divergence(trace.end, "missing-record", None, {"x": unrecorded[1]}))
    for line, record in numbered[log.count(input_idx):]:
        out.append(Divergence(line, "extra-record", record, None))
    return out


def replay_friedberg(trace: Trace, a: int, a0: int, a1: int) -> list[Divergence]:
    """Re-derive every routing decision from the raw log and diff the
    ``route`` records."""
    log = trace.log
    counters: dict[tuple[int, int], int] = {}

    def want(x, entered):
        candidates = sorted(idx for idx, t in log.containers_of(x).items() if t < entered)
        options = []
        for e in candidates:
            for i in (0, 1):
                k = counters.get((e, i), 0) + 1
                options.append((balance_code(e, i, k), e, i, k))
        req, side = None, 0
        if options:
            _, e, side, k = min(options)
            req = [e, side, k]
        for e in candidates:
            counters[(e, side)] = counters.get((e, side), 0) + 1
        return {"x": x, "s": entered, "req": req, "side": side}

    return _replay_routes(trace, a, (a0, a1), "route", want)


# -- Herrmann-Kummer restraint replay --------------------------------------


class _NaiveRestraint:
    """Slow recomputation of one triple's l/r history from the log."""

    def __init__(self, log, code, y_idx, z_idx, bi_idx, a_idx):
        self.log = log
        self.y_idx = y_idx
        self.z_idx = z_idx
        self.bi_idx = bi_idx
        self.a_idx = a_idx
        # the four sets' entries merged in stage order, and the next one
        self.events = merge(*map(log.entries, {y_idx, z_idx, bi_idx, a_idx}))
        self.head = next(self.events, None)
        self.qual: dict[int, bool] = {}
        self.r = code
        self.last = 0

    def _qualifies(self, x: int, stage: int) -> bool:
        log = self.log
        in_bi = log.member_by(self.bi_idx, x, stage)
        in_a = log.member_by(self.a_idx, x, stage)
        in_y = log.member_by(self.y_idx, x, stage)
        if not (in_bi or in_a or in_y):
            return True
        lhs = in_bi and in_y and not in_a
        return lhs == (not log.member_by(self.z_idx, x, stage))

    def _min_qual(self) -> int:
        n = 0
        while not self.qual.get(n, True):
            n += 1
        return n

    def advance(self, stage: int) -> None:
        while self.head is not None and self.head[0] <= stage:
            t, x = self.head
            self.head = next(self.events, None)
            new = self._qualifies(x, t)
            if new != self.qual.get(x, True):
                if t > self.last:
                    self.r = max(self.r, min(self._min_qual(), t - 1))
                    self.last = t
                self.qual[x] = new

    def l_at(self, stage: int) -> int:
        return min(self._min_qual(), stage)

    def r_at(self, stage: int) -> int:
        self.advance(stage)
        return max(self.r, self.l_at(stage))


def replay_hk(
    trace: Trace, b: int, a: int, b0: int, b1: int, y_over: dict = None, z_over: dict = None,
) -> list[Divergence]:
    """Re-derive every routing decision from the raw log and diff the ``hk``
    records; ``y_over`` and ``z_over`` are the meta record's listing overrides."""
    y_over = y_over or {}
    z_over = z_over or {}
    states: dict[int, _NaiveRestraint] = {}

    def state_for(m: int, i: int) -> _NaiveRestraint:
        code = pair(m, i)
        got = states.get(code)
        if got is None:
            e, j = unpair(m)
            got = _NaiveRestraint(trace.log, code, y_over.get(e, e), z_over.get(j, j),
                                  b0 if i == 0 else b1, a)
            states[code] = got
        return got

    def want(x, entered):
        m = 0
        while True:
            for i in (0, 1):
                st = state_for(m, i)
                if x <= st.r_at(entered):
                    e, j = unpair(m)
                    return {"x": x, "s": entered, "triple": [e, j, i],
                            "l": st.l_at(entered), "r": st.r_at(entered), "side": i}
            m += 1

    return _replay_routes(trace, b, (b0, b1), "hk", want)


# -- evidence probes --------------------------------------------------------


@dataclass
class ComplementEvidence:
    j: int
    status: str  # "live" or "refuted"
    stage: Optional[int] = None
    reason: Optional[str] = None


def trailing_window(S: int) -> int:
    """The trailing window a probe at stage S compares against: a tenth of S."""
    return max(1, S // 10)


def complement_witnesses(log: EventLog, half: int, S: int, J: int) -> list[ComplementEvidence]:
    """Which W_j still behave like a computable complement of the half by S.

    Live requires disjointness from the half through S, a covered prefix
    that still grew over the trailing window, and coverage keeping pace
    with the universe: the prefix must reach a fixed fraction of the
    largest element in play, otherwise the union has holes it never fills.
    The half is read once per call, into an element -> entry stage map that
    gives the clash and both covered prefixes with the log's own entry
    stages; a W_j, which can be far larger, is read only at the half's
    members and along the covered prefix.
    """
    out = []
    past_stage = S - trailing_window(S)
    half_in = {}
    for t, x in log.entries(half):
        if t > S:
            break
        half_in[x] = t
    frontier = log.frontier(S)  # the scale coverage is judged on
    member_by = log.member_by
    for j in range(J):
        clash = [x for x in half_in if member_by(j, x, S)]
        if clash:
            x = min(clash)
            out.append(ComplementEvidence(j, "refuted", max(half_in[x], log.entry_stage(j, x)),
                                          "intersects-half"))
            continue
        now = 0
        while now in half_in or member_by(j, now, S):
            now += 1
        past = 0
        while half_in.get(past, S) <= past_stage or member_by(j, past, past_stage):
            past += 1
        if now <= past:
            out.append(ComplementEvidence(j, "refuted", S, "coverage-stalled"))
        elif now * 8 < frontier:
            out.append(ComplementEvidence(j, "refuted", S, "coverage-gap"))
        else:
            out.append(ComplementEvidence(j, "live"))
    return out


@dataclass
class FriedbergEvidence:
    j: int
    swallowed_total: int
    swallowed_recent: int
    side_swallowed_recent: tuple[int, int]
    signature_side: Optional[int] = None


def probe_friedberg(log: EventLog, a: int, a0: int, a1: int, S: int,
                    J: int) -> list[FriedbergEvidence]:
    """Finite-stage echo of the Friedberg property per candidate W_j.

    The difference W_j - A_i can only fail to be c.e. by repeatedly losing
    elements, i.e. when W_j-then-A_i keeps growing.  A non-Friedberg
    signature for side i is: W_j-then-A still grows over the trailing
    window while W_j-then-A_i does not.  Each of A, A_0 and A_1 is read once
    per call; the W_j, which can be far larger, are read only through the
    entry stages of those sets' members.
    """
    past = S - trailing_window(S)
    # |W_j-then-X| at S and at past for X = A, A_0, A_1 (setalg.before_then):
    # x entered W_j at t and X at eb, t < eb
    now = [[0] * J for _ in range(3)]
    then = [[0] * J for _ in range(3)]
    for now_x, then_x, idx in zip(now, then, (a, a0, a1)):
        for eb, x in log.entries(idx):
            if eb > S:
                break
            for j, t in log.containers_of(x).items():
                if 0 <= j < J and t < eb:
                    now_x[j] += 1
                    if eb <= past:
                        then_x[j] += 1
    out = []
    for j in range(J):
        recent = now[0][j] - then[0][j]
        side_recent = (now[1][j] - then[1][j], now[2][j] - then[2][j])
        signature = None
        if recent > 0:
            if side_recent[0] == 0:
                signature = 0
            elif side_recent[1] == 0:
                signature = 1
        out.append(FriedbergEvidence(j, now[0][j], recent, side_recent, signature))
    return out


# -- tree trace replay -------------------------------------------------------


def replay_tree(trace: Trace, depth: int, feeder: int) -> list[Divergence]:
    """Re-derive the legality of every traced tree decision.

    Positions, piece commitments, request ledgers and marker tables are
    rebuilt from the decision records alone; pull eligibility, dump-state
    comparisons and endpoint shapes are then re-checked against the raw
    event log.  The ``f`` records, one per tree stage, are the stage clock:
    their ``s`` runs 0, 1, 2, ... (a ``stage`` divergence otherwise), their
    ``ks`` rises (``kernel-stage``), and their (s, ks, f) list is the run's
    history.  At each the replay does what no record says, as the
    construction does: it voids the pending requests of every node the new
    f passes on the left, enters ball s-1 at ``f[:1]``, and files a request
    at every requesting prefix of f.  Every other record belongs to the
    stage of the last ``f`` record before it, whose ``s`` and ``ks`` bound
    the least dump and date the log lookups; a ``pull``, ``dump-orig`` or
    ``dump-extra`` record copies that ``ks``, the one witness against a bent
    ``f`` ``ks`` (``kernel-stage`` when they differ).  The stage's f gives
    what a record would only copy: a ``left`` record's target,
    ``left_target(f, from)``, and a ``dump-extra`` record's dumping node.
    A ``left`` record is legal only at a stage whose f differs from the one
    before (``left-stage``), since the construction sweeps only then.  A
    walk ``patch`` comes before its stage's ``f`` record, and no check
    reads its stage.  Two things are trusted rather than re-derived: the
    address rules, marker states and least-dump rule of ``geometry``, which
    the construction uses too, and the chip counters (re-deriving them
    would be a second full simulation), so ``f`` records are checked for
    the shape of their endpoint only.  This is the only check of f's shape
    (``endpoint-kind``, ``endpoint-length``): the construction's walk
    cannot end anywhere else, so it checks none.  ``depth`` and ``feeder``
    are the meta record's.  Every record fits its row of the record schema
    (``trace.read_trace``) and holds no address longer than ``depth``
    (``replay_check``), so fields are read with no defensive code.
    """
    from math import isqrt

    log = trace.log

    out: list[Divergence] = []

    positions: dict[int, str] = {}
    r_comm: dict[str, set] = {}
    rt_comm: dict[str, set] = {}
    markers: dict[str, list] = {}
    requests: dict[str, list] = {}
    prefixes_of = lru_cache(maxsize=None)(requesting_prefixes)  # f takes few values
    dumped: set = set()
    f = ROOT
    f_hist: list[tuple[int, int, str]] = []  # (s, ks, f) per tree stage
    stage = kstage = -1  # the latest f record's s and ks
    f_changed = False  # whether the latest f record's f differs from the one before

    def fail(line, fieldname, got, want):
        out.append(Divergence(line, fieldname, got, want))

    for line, rec in trace.numbered():
        op = rec["op"]
        if op == "meta":
            continue
        if op == "f":
            node, st, ks = rec["node"], rec["s"], rec["ks"]
            if st != stage + 1:
                fail(line, "stage", st, stage + 1)
            if ks <= kstage:
                fail(line, "kernel-stage", ks, f"> {kstage}")
            if node != ROOT and not (is_r_node(node) or is_positive_a(node)):
                fail(line, "endpoint-kind", node, "r-node or positive a-node")
            if len(node) > min(st * st, depth) and st > 0:
                fail(line, "endpoint-length", len(node), min(st * st, depth))
            stage, kstage = st, ks
            f_hist.append((st, ks, node))
            f_changed = node != f
            if f_changed:
                f = node
                # void the pending requests of each node f passes on the left
                requests = {n: ledger for n, ledger in requests.items() if not diverges_left(f, n)}
            if st > 0:
                positions[st - 1] = f[:1]
                for n in prefixes_of(f):
                    requests.setdefault(n, []).append(st)
            continue
        # a copy of the stage's ks; left and patch records carry none
        if rec.get("ks", kstage) != kstage:
            fail(line, "kernel-stage", rec["ks"], kstage)
        if op == "left":
            src_node = rec["from"]
            if not f_changed:  # the construction sweeps only when f changes
                fail(line, "left-stage", stage, "a stage whose f differs from the one before")
            if not diverges_left(f, src_node):
                fail(line, "left-source", src_node, f"right of {f}")
            dst = left_target(f, src_node)
            for x in rec["balls"]:
                if positions.get(x) != src_node:
                    fail(line, "left-ball-position", (x, positions.get(x)), src_node)
                positions[x] = dst
            continue
        if op == "pull":
            node = rec["node"]
            ledger = requests.get(node, [])
            if not ledger:
                fail(line, "pull-request", None, "a pending request")
            else:
                if rec["req"] != ledger[0]:
                    fail(line, "pull-request-least", rec["req"], ledger[0])
                ledger.pop(0)
                if not ledger:
                    requests.pop(node, None)
            x0, x1 = rec["x0"], rec["x1"]
            if not x0 < x1:
                fail(line, "pull-pair-order", (x0, x1), "x0 < x1")
            floor = len(node)
            for x in (x0, x1):
                if x <= floor:
                    fail(line, "pull-floor", x, f"> {floor}")
                if not can_pull(node, positions.get(x)):
                    fail(line, "pull-eligibility", (x, positions.get(x)), node)
                if x in r_comm.get(node, ()) or x in rt_comm.get(node, ()):
                    fail(line, "pull-fresh", x, "uncommitted at the node")
            if is_r_node(node) and node.endswith("1"):
                j = isqrt(len(node))
                j_idx = feeder if j == 1 else j
                for x in (x0, x1):
                    if not log.member_by(j_idx, x, kstage - 1):
                        fail(line, "pull-gate", x, f"member of W_{j_idx}")
            for x in (x0, x1):
                positions[x] = node
            if is_r_node(node):
                r_comm.setdefault(node, set()).add(x0)
                if x0 not in dumped:
                    insort(markers.setdefault(node, []), x0)
                rt_comm.setdefault(node, set()).add(x1)
            delta = greatest_r_prefix(node)
            for y in rec["mid"]:
                if not (floor < y < x1):
                    fail(line, "mid-range", y, f"({floor}, {x1})")
                if delta != ROOT and y not in rt_comm.get(delta, ()):
                    fail(line, "mid-source", y, f"tilde piece of {delta!r}")
                positions[y] = node
                if is_r_node(node):
                    r_comm.setdefault(node, set()).add(y)
                    if y not in dumped:
                        insort(markers.setdefault(node, []), y)
            continue
        if op == "patch":
            node, y = rec["node"], rec["x"]
            delta = greatest_r_prefix(node)
            if y not in dumped:
                fail(line, "patch-casualty", y, "a ball that entered A")
            if delta != ROOT and y not in rt_comm.get(delta, ()):
                fail(line, "patch-source", y, f"tilde piece of {delta!r}")
            if y in r_comm.get(node, ()) or y in rt_comm.get(node, ()):
                fail(line, "patch-fresh", y, "uncommitted at the node")
            r_comm.setdefault(node, set()).add(y)
            continue
        if op == "dump-orig":
            node = rec["node"]
            live = markers.get(node, [])
            e, i = rec["e"], rec["i"]
            if not (0 <= e < i <= len(live)):
                fail(line, "dump-bounds", (e, i), f"within {len(live)} markers")
                continue
            if rec["balls"] != live[e:i]:
                fail(line, "dump-balls", rec["balls"], live[e:i])
            revs = [rev_mask(log.containers_of(x), kstage - 1) for x in live[:MARKER_WINDOW]]
            found = least_dump(revs, stage)
            if found != (e, i):
                fail(line, "dump-least", (e, i), found)
            balls = live[e:i]
            for x in balls:
                dumped.add(x)
                positions.pop(x, None)
            del live[e:i]
            for other, table in markers.items():
                if other != node:
                    for x in balls:
                        sorted_discard(table, x)
            continue
        if op == "dump-extra":
            node = rec["node"]  # the dumping node gamma is the stage's f
            if is_positive_a(f):  # no other gamma has a T question above it
                q = question_at(f[:-1])
                if q.base == node:
                    fail(line, "extra-question", (q.kind, q.base), "T question about another piece")
            else:
                fail(line, "extra-gamma", f, "a positive A-node")
            # measured from gamma; the construction measures from the
            # dumped piece's node, and only the paper's dumping rule can
            # say which of the two is meant
            want_t = max(len(f), last_left_pass(f_hist, f))
            if rec["idx"] != want_t:
                fail(line, "extra-index", rec["idx"], want_t)
            live = markers.get(node, [])
            if 0 <= rec["idx"] < len(live):
                if rec["x"] != live[rec["idx"]]:
                    fail(line, "extra-ball", rec["x"], live[rec["idx"]])
                x = rec["x"]
                dumped.add(x)
                positions.pop(x, None)
                for table in markers.values():
                    sorted_discard(table, x)
            else:
                fail(line, "extra-exists", rec["idx"], f"< {len(live)} markers")
    return out


# -- trace-file level checking ------------------------------------------------

# the ops each construction writes beside its one meta record
_OPS = {"friedberg": ("route",), "hk": ("hk",),
        "tree": ("f", "left", "pull", "patch", "dump-orig", "dump-extra")}
# the address fields of each tree op: none is longer than the depth bound in an
# honest trace, and a longer one costs the replay its length at every ledger walk
_ADDRESSES = {op: [name for name, kind in _SHAPES[op].kinds.items() if kind == "address"]
              for op in _OPS["tree"]}


def replay_check(trace: Trace, kind: str = "replay") -> dict:
    """Re-simulate the decisions of a trace and report divergences.

    The suite ``kind`` is "replay", which re-derives the decisions of the
    construction the trace's first meta record names, or "split", which
    checks only that the two halves split the input.  The report carries a
    boolean ``ok`` plus divergences.  A divergence names its record by the
    record's file line, and a missing record by ``trace.end``, the line
    after the last record; the split suite's finding is about the whole
    log, so its ``line`` is None.  A trace with no meta record, a second
    meta record, a record of an op its construction never writes, or a
    tree record with an address longer than the meta's ``depth`` raises
    ``TraceError`` on that record's line, under either suite; so does,
    before any of those, a tree meta whose ``depth`` is not a non-negative
    perfect square (``geometry.checked_depth``, the run's and the CLI's rule).
    """
    from .setalg import check_split_history

    log = trace.log
    meta_line, meta = next(((line, r) for line, r in trace.numbered() if r["op"] == "meta"),
                           (None, None))
    if meta is None:
        raise TraceError("trace has no meta record to dispatch on")
    flavour = meta["kind"]
    depth = None
    if flavour == "tree":
        try:
            depth = checked_depth(meta["depth"])
        except TreeError as err:
            raise TraceError(str(err), meta_line) from None
    for line, record in trace.numbered():
        if record is not meta and record["op"] not in _OPS[flavour]:
            raise TraceError(f"{record['op']} record in a {flavour} trace, which holds one meta "
                             f"record and {', '.join(_OPS[flavour])} records", line)
        if depth is not None:
            for name in _ADDRESSES.get(record["op"], ()):
                if len(record[name]) > depth:
                    raise TraceError(f"{record['op']} field {name!r} is {len(record[name])} "
                                     f"long, past the depth bound {depth}", line)
    if kind == "split":
        names = {"friedberg": ("a", "a0", "a1"), "hk": ("b", "b0", "b1"),
                 "tree": ("e_a", "e0", "e1")}[flavour]
        hit = check_split_history(
            log, *(meta[name] for name in names), log.last_stage,
            settle=max(64, (log.last_stage + 1) // 10),
        )
        divergences = (
            [] if hit is None else [Divergence(None, "split", {"stage": hit[0], "kind": hit[1], "x": hit[2]}, None)]
        )
    elif kind != "replay":
        raise TraceError(f"unknown suite {kind!r}")
    elif flavour == "friedberg":
        divergences = replay_friedberg(trace, meta["a"], meta["a0"], meta["a1"])
    elif flavour == "hk":
        divergences = replay_hk(
            trace, meta["b"], meta["a"], meta["b0"], meta["b1"],
            dict(meta.get("y_over", ())), dict(meta.get("z_over", ())),
        )
    else:
        divergences = replay_tree(trace, depth, meta["feeder"])
    return {
        "ok": not divergences,
        "kind": flavour if kind == "replay" else kind,
        "divergences": [asdict(d) for d in divergences],
        "decisions": len(trace.records) - 1,
        "events": len(log),
    }
