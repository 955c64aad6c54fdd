"""One execution of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD WORK_DIR MODE SPAWNED OUT_JSON

MODE is ``setup`` (stop at the first kernel stage), ``run`` (untraced) or
``traced`` (per-layer wrappers installed).  SPAWNED is the parent's
``time.monotonic()`` just before it started this process, so set-up time
covers interpreter start, imports, corpus parsing and construction set-up.
The worker drives the workbench through the public entry points the
``cesplit`` commands use (``split`` then ``verify``; ``diagonalize``),
writes its traces into WORK_DIR and leaves the correctness checks to the
parent.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

clock = time.monotonic

# stepping is timed in chunks of this many stages, so that the parent can
# take medians segment by segment across executions
CHUNK = {"enumerate": 50_000, "split": 50_000, "diagonalize": 5_000}


class SetupDone(Exception):
    pass


def calibrate(rounds: int = 5) -> float:
    """Median seconds of a fixed interpreter loop: the host's current speed.

    The shared host runs this process up to 1.6x slower for stretches of
    seconds; timing this loop around each segment lets the parent scale the
    segment to a steady reference speed.
    """
    times = []
    for _ in range(rounds):
        t0 = clock()
        table: dict = {}
        recent: list = []
        for i in range(3000):
            key = i & 255
            table[key] = table.get(key, 0) + i
            recent.append((key, i >> 2))
            if len(recent) > 64:
                recent.clear()
        times.append(clock() - t0)
    times.sort()
    return times[len(times) // 2]


class Timeline:
    """Wall time after the first kernel stage, cut into labelled segments.

    Each segment records (label, seconds, calibration before, calibration
    after); the calibrations themselves fall between segments.  Until
    start() is called, mark() does nothing.
    """

    def __init__(self):
        self.first_stage = None
        self.segments: list = []
        self._open = None  # (start of the open segment, calibration before)

    def start(self) -> float:
        self.first_stage = clock()
        before = calibrate()
        self._open = (clock(), before)
        return before

    def mark(self, label: str) -> None:
        end = clock()
        if self._open is None:
            return
        start, before = self._open
        after = calibrate()
        self.segments.append((label, end - start, before, after))
        self._open = (clock(), after)


def log_digest(log) -> str:
    h = hashlib.sha256()
    for s, e, x in log.events():
        h.update(f"{s},{e},{x};".encode())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_enumerate(inputs, texts, work, out, timeline, keep):
    from cesplit.kernel import Kernel

    kernel = Kernel(texts)
    kernel.run_to(inputs["stages"])
    out["peak_rss_mb"] = peak_rss_mb()
    # for the parent's closed-form check: the released events, one per line
    with open(work / "events.txt", "w", encoding="utf-8") as fh:
        for s, e, x in kernel.log.events():
            fh.write(f"{s} {e} {x}\n")
    out["logs"] = {"enumerate": log_digest(kernel.log)}
    if keep is not None:
        keep["enumerate"] = kernel


def _write_read_replay(name, log, decisions, work, out, timeline):
    """The trace half of a command (``--trace``), then ``cesplit verify``."""
    from cesplit import trace, verify

    path = work / f"{name}.jsonl"
    trace.write_trace(path, trace.merge_for_file(log, decisions))
    timeline.mark("write")
    records = trace.read_trace(path)
    timeline.mark("read")
    report = verify.replay_check(records, "replay")
    timeline.mark("replay")
    out[name] = {
        "replay_ok": report["ok"],
        "replay_divergences": len(report["divergences"]),
        "replay_records": report["decisions"] + report["events"],
        "trace_records": len(records),
        "trace_bytes": path.stat().st_size,
    }


def _split(name, result, inp, work, out, timeline, keep):
    """`cesplit split ... --trace` followed by `cesplit verify`."""
    from cesplit import setalg

    log = result.kernel.log
    violation = setalg.check_split_history(
        log, inp, *result.splitter.halves, result.kernel.next_stage - 1)
    timeline.mark("check")
    _write_read_replay(name, log, result.trace, work, out, timeline)
    out[name]["violation"] = list(violation) if violation else None
    out["logs"][name] = log_digest(log)
    if keep is not None:
        keep[name] = result.kernel
    timeline.mark("bench")  # the digest is the benchmark's work, not the program's


def run_split(inputs, texts, work, out, timeline, keep):
    from cesplit import friedberg, hk

    fr, hs = inputs["friedberg"], inputs["hk"]
    out["logs"] = {}
    # one construction at a time, as two `cesplit split` commands would run:
    # each result is dropped before the next construction starts
    _split("friedberg", friedberg.run_friedberg(texts, fr["a"], fr["stages"]),
           fr["a"], work, out, timeline, keep)
    _split("hk", hk.run_hk(texts, hs["b"], hs["a"], hs["stages"]),
           hs["b"], work, out, timeline, keep)
    out["peak_rss_mb"] = peak_rss_mb()


def run_diagonalize(inputs, texts, work, out, timeline, keep):
    """`cesplit diagonalize --proc hf --trace` (the tree trace is not replayed:
    `cesplit verify` rejects the traces of some seeds, see CHANGES.md)."""
    from cesplit import trace, tree

    proc = tree.PROCEDURES[inputs["proc"]]
    result = tree.diagonalize(proc, inputs["stages"], inputs["depth"], texts,
                              collect_trace=True)
    report = tree.structural_report(result.run)
    timeline.mark("step")
    path = work / "diagonalize.jsonl"
    trace.write_trace(path, trace.merge_for_file(result.kernel.log, result.trace))
    timeline.mark("write")
    out["peak_rss_mb"] = peak_rss_mb()
    run = result.run
    out["diagonalize"] = {
        "verdict": result.verdict.kind, "reason": result.verdict.reason,
        "checkpoints": result.checkpoints, "stable": result.stable,
        "violations": len(result.violations),
        "problems": [repr(p) for p in report["problems"]],
        "trace_records": len(result.kernel.log) + len(result.trace),
        "trace_bytes": path.stat().st_size,
    }
    out["tree"] = {
        "stages": run.tree_stage,
        "f_changes": sum(1 for r in result.trace if r["op"] == "f" and r["s"] > 0),
        "nodes": len(run.nodes),
        "dumped": report["dumped"],
        "records": len(result.trace),
        "brain": run.e_a,
        "background": [run.feeder_index, *run.spectrum_indexes],
    }
    out["logs"] = {"diagonalize": log_digest(result.kernel.log)}
    if keep is not None:
        keep["diagonalize"] = result.kernel


WORKLOADS = {
    "enumerate": run_enumerate,
    "split": run_split,
    "diagonalize": run_diagonalize,
}


def main(argv) -> int:
    workload, work, mode, spawned, out_path = argv
    work = Path(work)
    out: dict = {"workload": workload, "mode": mode}

    tracer = None
    if mode == "traced":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layers import Tracer

        tracer = Tracer()
    # the command's own import: cesplit.cli pulls in every module
    import cesplit.cli  # noqa: F401
    from cesplit import corpus
    from cesplit.kernel import Kernel

    if tracer is not None:
        tracer.install()
    timeline = Timeline()
    run_to = Kernel.run_to
    chunk = CHUNK[workload]

    def chunked_run_to(kernel, stage):
        if timeline.first_stage is None:
            out["setup_cal"] = timeline.start()
            if mode == "setup":
                raise SetupDone
        # run_to steps every stage below its bound, so stepping to the
        # chunk boundaries in turn is the same computation
        while kernel.next_stage < stage:
            run_to(kernel, min(stage, (kernel.next_stage // chunk + 1) * chunk))
            timeline.mark("step")

    Kernel.run_to = chunked_run_to

    inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    texts = corpus.load_corpus(work / "corpus.txt")
    # kernels stay alive only for the traced execution's per-layer counts
    keep = {} if tracer is not None else None
    try:
        WORKLOADS[workload](inputs, texts, work, out, timeline, keep)
    except SetupDone:
        pass
    out["setup_s"] = timeline.first_stage - float(spawned)
    if mode != "setup":
        out["segments"] = timeline.segments
        out["phases"] = {}
        for label, dt, _, _ in timeline.segments:
            out["phases"][label] = out["phases"].get(label, 0.0) + dt
        out["wall_s"] = sum(dt for label, dt, _, _ in timeline.segments
                            if label != "bench")
        out["step_s"] = out["phases"]["step"]
        out["stages"] = (inputs["friedberg"]["stages"] + inputs["hk"]["stages"]
                         if workload == "split" else inputs["stages"])
        if tracer is not None:
            from layers import layer_metrics

            out["layers"] = layer_metrics(tracer, keep, out)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
