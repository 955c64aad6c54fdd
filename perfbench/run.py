"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {enumerate,split,diagonalize} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The seed makes the corpus and indices
(``inputs.py``); the workbench is imported from ``src/`` in fresh worker
processes, one at a time (``worker.py``).  Each execution runs the whole
workload; executions repeat until S seconds have passed, at least
MIN_EXECUTIONS times, and timings are reported as medians.

--trace 0 prints the end-to-end metrics from untraced executions.
--trace 1 alternates untraced and traced executions and prints the
per-layer metrics (``layers.py``) plus bench.tracing_overhead_s.

The outputs of the first execution are checked apart from the workbench
(``checks.py``); every later execution must reproduce its event logs and
trace files byte for byte.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; everything before it is a
readable summary, including the event-log and trace sha256 of the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_execution, trace_digests  # noqa: E402
from inputs import WORKLOADS, make_inputs, write_inputs  # noqa: E402
from worker import calibrate  # noqa: E402

MIN_EXECUTIONS = 3  # untraced executions per --trace 0 run
SETUP_PROBES = 5  # extra fresh interpreters timed to their first stage
WORKER_TIMEOUT = 150  # seconds; one execution never needs this long
LAST_START = 90  # seconds after which no further execution starts

# workbench commands one execution stands for
OPERATIONS = {
    "enumerate": ("enumerate",),
    "split": ("split friedberg", "verify", "split hk", "verify"),
    "diagonalize": ("diagonalize",),
}

# Host-speed correction (see README): a time t measured while one round of
# worker.calibrate() took c seconds counts as t * (CAL_REF / c) ** SENSITIVITY
# reference seconds.  CAL_REF is typical of the 2-core VM the README figures
# come from; SENSITIVITY is how strongly the workbench's own speed followed
# the calibration loop's there (fitted over 10 runs of enumerate; 0.6-0.8
# keep every workload's spread near its minimum).
CAL_REF = 700e-6
SENSITIVITY = 0.7


def speed(before: float, after: float) -> float:
    """Reference seconds per second between two calibrations."""
    return (2 * CAL_REF / (before + after)) ** SENSITIVITY


def scaled(execution: dict) -> list:
    """(label, reference seconds) per segment of one execution."""
    return [(label, dt * speed(before, after))
            for label, dt, before, after in execution["segments"]]


def wall(execution: dict) -> float:
    return sum(dt for label, dt in scaled(execution) if label != "bench")


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, root: Path, workload: str, work: Path):
        self.root = root
        self.workload = workload
        self.work = work
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.crashes: list[str] = []

    def execute(self, mode: str):
        """Run the worker once; its result dict, or None if it failed."""
        out_path = self.work / f"worker-{mode}.json"
        if out_path.exists():
            out_path.unlink()
        host = calibrate()
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload,
               str(self.work), mode, repr(spawned), str(out_path)]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        try:
            _, err = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.crashes.append(f"{mode} execution timed out after {WORKER_TIMEOUT}s")
            return None
        if proc.returncode != 0 or not out_path.exists():
            tail = err.strip().splitlines()[-1:] or ["no output"]
            self.crashes.append(f"{mode} execution exited {proc.returncode}: {tail[0]}")
            return None
        out = json.loads(out_path.read_text(encoding="utf-8"))
        out["setup_ref_s"] = out["setup_s"] * speed(host, out["setup_cal"])
        return out


def segment_medians(runs: list, problems: list) -> dict:
    """Reference seconds per label, summing the median of each segment.

    Every execution of one seed steps through the same chunk boundaries
    and phases, so segment i is the same work in each of them; a median
    per segment discounts a stretch in which the host slowed one execution.
    """
    shapes = {tuple(seg[0] for seg in o["segments"]) for o in runs}
    if len(shapes) != 1:
        problems.append(f"executions cut into different segments: {len(shapes)} shapes")
        return {}
    per_run = [scaled(o) for o in runs]
    totals: dict[str, float] = {}
    for i, (label, _) in enumerate(per_run[0]):
        dt = statistics.median(segs[i][1] for segs in per_run)
        totals[label] = totals.get(label, 0.0) + dt
    return totals


def end_to_end(runs: list, setups: list, problems: list) -> dict:
    phases = segment_medians(runs, problems)
    if not phases:
        return {}
    return {
        "wall_s": sum(v for k, v in phases.items() if k != "bench"),
        "stages_per_s": runs[0]["stages"] / phases["step"],
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in runs),
        "setup_s": statistics.median(setups + [o["setup_ref_s"] for o in runs]),
    }


def per_layer(runs: list, traced: list, units: dict, problems: list) -> dict:
    """Medians of the per-layer timings; counts must repeat exactly."""
    values = {}
    for name in traced[0]["layers"]:
        seen = [o["layers"][name] for o in traced]
        if units[name] == "s":
            values[name] = statistics.median(seen)
        else:
            values[name] = seen[0]
            if any(v != seen[0] for v in seen):
                problems.append(f"per-layer count {name} differs between "
                                f"traced executions: {seen}")
    values["bench.tracing_overhead_s"] = (statistics.median(wall(o) for o in traced)
                                          - statistics.median(wall(o) for o in runs))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cesplit" / "cli.py").is_file():
        sys.stderr.write(f"no workbench source under {root / 'src'}; "
                         "run from the root of a checkout\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = HERE / "_out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = make_inputs(args.workload, args.seed)
    write_inputs(inputs, work)
    runner = Runner(root, args.workload, work)

    # warm-up (bytecode compilation, file cache), then set-up probes
    runner.execute("setup")
    setups = [out["setup_ref_s"] for out in
              (runner.execute("setup") for _ in range(SETUP_PROBES)) if out]

    start = time.monotonic()
    plan = ["run", "traced"] if args.trace else ["run"]
    want = 1 if args.trace else MIN_EXECUTIONS
    executions: dict[str, list] = {"run": [], "traced": []}
    problems: list[str] = []
    reference = None
    attempted = failed = 0
    while True:
        for mode in plan:
            out = runner.execute(mode)
            attempted += 1
            if out is None:
                failed += 1
                continue
            executions[mode].append(out)
            digests = {"logs": out["logs"], "traces": trace_digests(args.workload, work)}
            if reference is None:
                reference = digests
                problems += check_execution(args.workload, inputs, work, out)
            elif digests != reference:
                problems.append(f"{mode} execution {attempted} is not byte-identical "
                                f"to the first: {digests} vs {reference}")
        elapsed = time.monotonic() - start
        done = min(len(executions[mode]) for mode in plan)
        if (elapsed >= args.seconds and done >= want) or elapsed >= LAST_START:
            break
    problems += runner.crashes

    runs, traced = executions["run"], executions["traced"]
    values = {}
    if args.trace and runs and traced:
        values = per_layer(runs, traced, units, problems)
    elif not args.trace and runs:
        values = end_to_end(runs, setups, problems)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    summary = {
        "workload": args.workload, "seed": args.seed, "inputs": inputs,
        "digests": reference, "problems": problems, "setup_probes": setups,
        "executions": {m: [{k: o.get(k) for k in ("wall_s", "step_s", "setup_s",
                                                  "setup_ref_s", "peak_rss_mb",
                                                  "segments")}
                           for o in outs] for m, outs in executions.items()},
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1, sort_keys=True),
                                      encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} untraced, "
          f"{len(traced)} traced executions, {len(setups)} set-up probes")
    for kind, table in (reference or {}).items():
        for name, digest in table.items():
            print(f"  {kind[:-1]} sha256 {name}: {digest}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if runs:
        raw = statistics.median(o["wall_s"] for o in runs)
        print(f"  (uncorrected wall-clock median of the untraced executions: {raw:.4g} s)")
    for p in problems:
        print(f"  PROBLEM: {p}")
    ops = len(OPERATIONS[args.workload])
    result = {"correct": not problems and bool(metrics), "attempted": attempted * ops,
              "failed": failed * ops, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
