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
trusts the traced chip counters instead of re-deriving them.  It checks
that a tree record written after an ``enter`` carries its stage.
``replay_check`` runs one of two suites over a parsed trace: "replay"
dispatches on the meta record, "split" checks only the split discipline.
Every replay takes the whole record list, events included, and names a
record by its position in it, counted from 1; ``cesplit verify`` turns
that position into the file line.

The probes (``complement_witnesses``, ``probe_friedberg``) never decide
non-effective notions (computability, c.e.-ness of a difference); they
report monotone evidence over one explicit trailing window,
``trailing_window(S)``, instead.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import asdict, dataclass
from typing import Optional

from .geometry import (
    MARKER_WINDOW, ROOT, TreeError, can_pull, diverges_left, greatest_r_prefix,
    is_left_of, is_positive_a, is_r_node, last_left_pass, least_dump, left_target,
    question_at, requesting_prefixes, rev_mask, sorted_discard,
)
from .kernel import EventLog
from .pairing import balance_code, pair, unpair


@dataclass
class Divergence:
    line: Optional[int]  # the record's position in the replayed list, from 1
    field: str
    got: object
    want: object


# -- routing replays ---------------------------------------------------------


def _replay_routes(log: EventLog, input_idx: int, halves: tuple[int, int], records: list,
                   op: str, want) -> list[Divergence]:
    """Diff the ``op`` records against the routing the replay derives.

    The input's entrants, in log order, pair with the ``op`` records, in
    order.  ``want(x, stage)`` gives the fields of the record for ball ``x``
    entering at ``stage``, ``side`` among them; the ball must surface in
    that half after ``stage``, and not in the other.  A missing record is
    named by the position after the last record.
    """
    numbered = [(line, r) for line, r in enumerate(records, start=1) if r.get("op") == op]
    entrants = log.entries(input_idx)
    out: list[Divergence] = []
    for (entered, x), (line, record) in zip(entrants, numbered):
        fields = want(x, entered)
        for fieldname, value in fields.items():
            if record.get(fieldname) != value:
                out.append(Divergence(line, fieldname, record.get(fieldname), value))
        side = fields["side"]
        landed = log.entry_stage(halves[side], x)
        if landed is None or landed <= entered:
            out.append(Divergence(line, "landing", landed, f"stage > {entered} in half {side}"))
        if log.entry_stage(halves[1 - side], x) is not None:
            out.append(Divergence(line, "landing", f"also in half {1 - side}", None))
    if len(entrants) > len(numbered):
        x = entrants[len(numbered)][1]
        out.append(Divergence(len(records) + 1, "missing-record", None, {"x": x}))
    for line, record in numbered[len(entrants):]:
        out.append(Divergence(line, "extra-record", record, None))
    return out


def replay_friedberg(log: EventLog, a: int, a0: int, a1: int, records: list) -> list[Divergence]:
    """Re-derive every routing decision from the raw log and diff the
    ``route`` records."""
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

    return _replay_routes(log, a, (a0, a1), records, "route", want)


# -- Herrmann-Kummer restraint replay --------------------------------------


class _NaiveRestraint:
    """Slow recomputation of one triple's l/r history from the log."""

    def __init__(self, log, code, y_idx, z_idx, bi_idx, a_idx):
        self.log = log
        self.y_idx = y_idx
        self.z_idx = z_idx
        self.bi_idx = bi_idx
        self.a_idx = a_idx
        merged = []
        for idx in {y_idx, z_idx, bi_idx, a_idx}:
            merged.extend(log.entries(idx))
        merged.sort()
        self.events = merged
        self.pos = 0
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
        while self.pos < len(self.events) and self.events[self.pos][0] <= stage:
            t, x = self.events[self.pos]
            self.pos += 1
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
    log: EventLog, b: int, a: int, b0: int, b1: int, records: list,
    y_over: dict = None, z_over: dict = None,
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
            got = _NaiveRestraint(log, code, y_over.get(e, e), z_over.get(j, j),
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

    return _replay_routes(log, b, (b0, b1), records, "hk", want)


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


def replay_tree(log: EventLog, records: list, depth: int = 25) -> list[Divergence]:
    """Re-derive the legality of every traced tree decision.

    Positions, piece commitments, request ledgers and marker tables are
    rebuilt from the decision records alone; pull eligibility, dump-state
    comparisons and endpoint shapes are then re-checked against the raw
    event log.  Every ``left``, ``void``, ``pull``, ``dump-orig`` and
    ``dump-extra`` record must carry the stage ``s`` of the latest ``enter``
    (a ``stage`` divergence otherwise), and that stage, not the record's own
    ``s``, bounds the least dump.  Two things are trusted rather than
    re-derived: the address rules, marker states and least-dump rule of
    ``geometry``, which the construction uses too, and the chip counters
    (re-deriving them would be a second full simulation), so ``f`` records
    are checked for shape only and ``chip`` records not at all.  This is
    the only check of f's shape (``endpoint-kind``, ``endpoint-length``):
    the construction's walk cannot end anywhere else, so it checks none.
    A record lacking a field, or holding one of the wrong type, raises
    ``TraceError`` naming it as a divergence would.
    """
    from math import isqrt

    from .trace import TraceError

    out: list[Divergence] = []
    meta = next((r for r in records if r.get("op") == "meta"), {})
    feeder = meta.get("feeder", 1)

    positions: dict[int, str] = {}
    r_comm: dict[str, set] = {}
    rt_comm: dict[str, set] = {}
    markers: dict[str, list] = {}
    requests: dict[str, list] = {}
    dumped: set = set()
    f = ROOT
    f_hist: list[tuple[int, str]] = [(0, ROOT)]
    ks = 0
    stage = 0

    def fail(line, fieldname, got, want):
        out.append(Divergence(line, fieldname, got, want))

    for line, rec in enumerate(records, start=1):
        op = rec.get("op")
        try:
            if op in ("meta", "chip", "event"):
                continue
            for name in ("node", "from", "to", "gamma"):
                if name in rec and type(rec[name]) is not str:
                    raise TypeError(f"{name} {rec[name]!r} is not an address")
            # written after the enter of their own tree stage, so their
            # stage is the latest enter's, which also bounds the least dump
            if op in ("left", "void", "pull", "dump-orig", "dump-extra") and rec["s"] != stage:
                fail(line, "stage", rec["s"], stage)
            if op == "f":
                node = rec["node"]
                st, ks = rec["s"], rec.get("ks", ks)
                if node != ROOT and not (is_r_node(node) or is_positive_a(node)):
                    fail(line, "endpoint-kind", node, "r-node or positive a-node")
                if len(node) > min(st * st, depth) and st > 0:
                    fail(line, "endpoint-length", len(node), min(st * st, depth))
                f = node
                f_hist.append((st, node))
                continue
            if op == "enter":
                stage = rec["s"]
                for node in requesting_prefixes(f):
                    requests.setdefault(node, []).append(stage)
                if rec["x"] != stage - 1:
                    fail(line, "ball-number", rec["x"], stage - 1)
                if rec["node"] != f[:1]:
                    fail(line, "entry-node", rec["node"], f[:1])
                positions[rec["x"]] = rec["node"]
                continue
            if op == "void":
                node = rec["node"]
                if not is_left_of(f, node) or node.startswith(f):
                    fail(line, "void-target", node, f"strictly right of {f}")
                requests.pop(node, None)
                continue
            if op == "left":
                src_node, dst = rec["from"], rec["to"]
                if not diverges_left(f, src_node):
                    fail(line, "left-source", src_node, f"right of {f}")
                want = left_target(f, src_node)
                if dst != want:
                    fail(line, "left-target", dst, want)
                for x in rec["balls"]:
                    if positions.get(x) != src_node:
                        fail(line, "left-ball-position", (x, positions.get(x)), src_node)
                    positions[x] = dst
                continue
            if op == "pull":
                node = rec["node"]
                ks = rec.get("ks", ks)
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
                        if not log.member_by(j_idx, x, ks - 1):
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
                ks = rec.get("ks", ks)
                live = markers.get(node, [])
                e, i = rec["e"], rec["i"]
                if not (0 <= e < i <= len(live)):
                    fail(line, "dump-bounds", (e, i), f"within {len(live)} markers")
                    continue
                if rec["balls"] != live[e:i]:
                    fail(line, "dump-balls", rec["balls"], live[e:i])
                revs = [rev_mask(log.containers_of(x), ks - 1) for x in live[:MARKER_WINDOW]]
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
                gamma, node = rec["gamma"], rec["node"]
                if gamma != f or not is_positive_a(gamma):
                    fail(line, "extra-gamma", gamma, f"the positive endpoint {f}")
                q = question_at(gamma[:-1])
                if q.kind != "T" or q.base == node:
                    fail(line, "extra-question", (q.kind, q.base), "T question about another piece")
                # measured from gamma; the construction measures from the
                # dumped piece's node, and only the paper's dumping rule can
                # say which of the two is meant
                want_t = max(len(gamma), last_left_pass(f_hist, gamma))
                if rec["idx"] != want_t:
                    fail(line, "extra-index", rec["idx"], want_t)
                live = markers.get(node, [])
                if rec["idx"] < len(live):
                    if rec["x"] != live[rec["idx"]]:
                        fail(line, "extra-ball", rec["x"], live[rec["idx"]])
                    x = rec["x"]
                    dumped.add(x)
                    positions.pop(x, None)
                    for table in markers.values():
                        sorted_discard(table, x)
                else:
                    fail(line, "extra-exists", rec["idx"], f"< {len(live)} markers")
                continue
            fail(line, "op", op, "a known tree record")
        except KeyError as err:
            raise TraceError(f"{op} record lacks {err}", line) from None
        except (TypeError, TreeError) as err:
            raise TraceError(f"malformed {op} record: {err}", line) from None
    return out


# -- trace-file level checking ------------------------------------------------


def replay_check(records: list, kind: str = "replay") -> dict:
    """Re-simulate the decisions in a parsed trace and report divergences.

    ``records`` is the full record list including interleaved events.  The
    suite ``kind`` is "replay", which re-derives the decisions of the
    construction the trace's meta record names, or "split", which checks
    only that the two halves split the input.  The report carries a
    boolean ``ok`` plus divergences.  A divergence, and the ``TraceError``
    of a trace that cannot be replayed at all, name a record by its
    position in ``records``, counted from 1; the split suite's finding is
    about the whole log, so its ``line`` is None.
    """
    from .setalg import check_split_history
    from .trace import TraceError, split_events

    log = split_events(records)
    meta_line, meta = next(
        ((line, r) for line, r in enumerate(records, start=1) if r.get("op") == "meta"),
        (None, None),
    )
    if meta is None:
        raise TraceError("trace has no meta record to dispatch on")

    def meta_field(name):
        if name not in meta:
            raise TraceError(f"meta record lacks {name!r}", meta_line)
        if type(meta[name]) is not int:
            raise TraceError(f"meta {name} {meta[name]!r} is not an integer", meta_line)
        return meta[name]

    def meta_overrides(name):
        pairs = meta.get(name, [])
        if type(pairs) is list and all(
            type(p) in (list, tuple) and len(p) == 2 and type(p[0]) is type(p[1]) is int
            for p in pairs
        ):
            return dict(pairs)
        raise TraceError(f"meta {name} is not a list of [position, index] pairs", meta_line)

    flavour = meta.get("kind")
    if type(flavour) is not str:
        raise TraceError(f"meta kind {flavour!r} is not a string", meta_line)
    if kind == "split":
        names = {"friedberg": ("a", "a0", "a1"), "hk": ("b", "b0", "b1")}.get(
            flavour, ("e_a", "e0", "e1"))
        triple_ids = [meta_field(name) for name in names]
        hit = check_split_history(
            log, *triple_ids, log.last_stage, settle=max(64, (log.last_stage + 1) // 10)
        )
        divergences = (
            [] if hit is None else [Divergence(None, "split", {"stage": hit[0], "kind": hit[1], "x": hit[2]}, None)]
        )
    elif kind != "replay":
        raise TraceError(f"unknown suite {kind!r}")
    elif flavour == "friedberg":
        divergences = replay_friedberg(
            log, meta_field("a"), meta_field("a0"), meta_field("a1"), records
        )
    elif flavour == "hk":
        divergences = replay_hk(
            log, meta_field("b"), meta_field("a"), meta_field("b0"), meta_field("b1"),
            records, meta_overrides("y_over"), meta_overrides("z_over"),
        )
    elif flavour == "tree":
        # replay_tree reads both; a bad one would be blamed on a later record
        for name, default in (("depth", 25), ("feeder", 1)):
            if type(meta.get(name, default)) is not int:
                raise TraceError(f"meta {name} {meta[name]!r} is not an integer", meta_line)
        divergences = replay_tree(log, records, meta.get("depth", 25))
    else:
        raise TraceError(f"cannot dispatch on meta kind {flavour!r}", meta_line)
    return {
        "ok": not divergences,
        "kind": flavour if kind == "replay" else kind,
        "divergences": [asdict(d) for d in divergences],
        "decisions": sum(1 for r in records if r["op"] not in ("event", "meta")),
        "events": len(log),
    }
