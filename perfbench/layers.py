"""Per-layer tracing by wrapping the workbench's public functions.

Nothing under ``src/`` is edited: the wrappers replace module attributes
and class methods in the worker process before the workload runs, and time
or count each call into the layer.  Every wrapped name is public.

    Kernel.run_to, Kernel.register_generator    kernel stepping, each pull
    cesplit.kernel.step_state                   machine steps
    cesplit.friedberg.install_friedberg         which slots are Friedberg's
    cesplit.hk.install_hk                       which slots are the HK split's
    cesplit.tree.verdict_at                     the five verdict checkpoints
    cesplit.verify.probe_friedberg              verdict probe
    cesplit.verify.complement_witnesses         verdict probe
    cesplit.setalg.check_split_history          split discipline check

Trace I/O and replay (write_trace, read_trace, replay_check) are called by
the worker itself and timed there; layer_metrics() turns both into the
per-layer figures.
"""

from __future__ import annotations

import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.steps = 0
        # one entry per registered generator: [kernel id, index, group,
        # seconds inside pull, polls, polls that emitted]
        self.generators: list[list] = []
        self.splitters: dict[str, list] = defaultdict(list)
        self._group = None

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        seconds = self.seconds

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0

        return wrapper

    def _grouped(self, group, fn):
        """Slots registered while fn runs belong to the named construction."""
        tracer = self

        def wrapper(*args, **kwargs):
            outer, tracer._group = tracer._group, group
            try:
                splitter = fn(*args, **kwargs)
            finally:
                tracer._group = outer
            tracer.splitters[group].append(splitter)
            return splitter

        return wrapper

    def install(self) -> None:
        from cesplit import friedberg, hk, kernel, setalg, tree, verify

        tracer = self
        Kernel = kernel.Kernel
        Kernel.run_to = self._timed("kernel.run_to", Kernel.run_to)

        register = Kernel.register_generator

        def register_generator(kern, gen):
            entry = [id(kern), None, tracer._group, 0.0, 0, 0]
            pull = gen.pull

            def timed_pull(stage):
                t0 = clock()
                out = pull(stage)
                if not isinstance(out, (list, tuple)):
                    out = list(out)
                entry[3] += clock() - t0
                entry[4] += 1
                if out:
                    entry[5] += 1
                return out

            gen.pull = timed_pull
            entry[1] = register(kern, gen)
            tracer.generators.append(entry)
            return entry[1]

        Kernel.register_generator = register_generator

        step_state = kernel.step_state

        def counted_step(program, state):
            tracer.steps += 1
            return step_state(program, state)

        kernel.step_state = counted_step

        friedberg.install_friedberg = self._grouped("friedberg", friedberg.install_friedberg)
        hk.install_hk = self._grouped("hk", hk.install_hk)
        tree.verdict_at = self._timed("verify.verdict", tree.verdict_at)
        verify.probe_friedberg = self._timed("verify.probe_friedberg", verify.probe_friedberg)
        verify.complement_witnesses = self._timed(
            "verify.complement", verify.complement_witnesses)
        setalg.check_split_history = self._timed(
            "setalg.check", setalg.check_split_history)

    # -- summaries ----------------------------------------------------------

    def routes(self, group: str, op: str) -> int:
        return sum(1 for splitter in self.splitters[group]
                   for record in splitter.trace if record["op"] == op)

    def pulls(self, kern=None, *, group=None, indices=None) -> tuple[float, int, int]:
        """(seconds, polls, useful polls) summed over the matching generators."""
        seconds, polls, useful = 0.0, 0, 0
        for kid, index, grp, s, p, u in self.generators:
            if kern is not None and kid != id(kern):
                continue
            if group is not None and grp != group:
                continue
            if indices is not None and index not in indices:
                continue
            seconds += s
            polls += p
            useful += u
        return seconds, polls, useful


def log_bytes(events) -> int:
    """tracemalloc bytes held by an EventLog rebuilt through EventLog.append."""
    import tracemalloc

    from cesplit.kernel import EventLog

    events = list(events)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = EventLog()
        for s, e, x in events:
            log.append(s, e, x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held


TREE_METRICS = ("brain_s", "brain_polls", "stages", "duty", "background_s",
                "background_polls", "background_yield", "f_changes", "nodes",
                "dumped", "records")


def layer_metrics(tracer: Tracer, kernels: dict, out: dict) -> dict:
    """Per-layer figures of one traced execution; a layer not run reads 0."""
    m: dict[str, float] = {}
    pull_s, polls, useful = tracer.pulls()
    events = sum(len(k.log) for k in kernels.values())
    machine_events = sum(1 for k in kernels.values() for _, e, _ in k.log.events()
                         if e % 2 == 0)
    m["kernel.self_s"] = tracer.seconds["kernel.run_to"] - pull_s
    m["kernel.events"] = events
    m["kernel.machine_events"] = machine_events
    m["kernel.max_backlog"] = max(k.max_backlog for k in kernels.values())
    m["kernel.log_bytes_per_event"] = (
        sum(log_bytes(k.log.events()) for k in kernels.values()) / events)
    m["kernel.polls"] = polls
    m["kernel.polls_useful"] = useful
    m["kernel.poll_yield"] = useful / polls if polls else 0.0
    m["machine.steps"] = tracer.steps
    m["machine.steps_per_event"] = tracer.steps / machine_events if machine_events else 0.0

    m.update({f"tree.{key}": 0 for key in TREE_METRICS})
    tree = out.get("tree")
    if tree:
        kern = kernels["diagonalize"]
        brain_s, brain_polls, _ = tracer.pulls(kern, indices={tree["brain"]})
        back_s, back_polls, back_useful = tracer.pulls(
            kern, indices=set(tree["background"]))
        m["tree.brain_s"] = brain_s
        m["tree.brain_polls"] = brain_polls
        m["tree.duty"] = tree["stages"] / brain_polls
        m["tree.background_s"] = back_s
        m["tree.background_polls"] = back_polls
        m["tree.background_yield"] = back_useful / back_polls
        for key in ("stages", "f_changes", "nodes", "dumped", "records"):
            m[f"tree.{key}"] = tree[key]

    m["friedberg.pull_s"] = tracer.pulls(group="friedberg")[0]
    m["friedberg.routes"] = tracer.routes("friedberg", "route")
    m["hk.pull_s"] = tracer.pulls(group="hk")[0]
    m["hk.routes"] = tracer.routes("hk", "hk")

    m["setalg.check_s"] = tracer.seconds["setalg.check"]
    m["verify.verdict_s"] = tracer.seconds["verify.verdict"]
    m["verify.probe_friedberg_s"] = tracer.seconds["verify.probe_friedberg"]
    m["verify.complement_s"] = tracer.seconds["verify.complement"]

    phases = out["phases"]
    runs = [out[k] for k in ("friedberg", "hk", "diagonalize") if k in out]
    m["trace.write_s"] = phases.get("write", 0.0)
    m["trace.read_s"] = phases.get("read", 0.0)
    m["trace.bytes"] = sum(r["trace_bytes"] for r in runs)
    m["trace.records"] = sum(r["trace_records"] for r in runs)
    m["verify.replay_s"] = phases.get("replay", 0.0)
    m["verify.replay_records"] = sum(r.get("replay_records", 0) for r in runs)
    return m
