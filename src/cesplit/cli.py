"""Command-line workbench: run constructions, emit traces, verify them.

Exit codes: 0 success, 1 invariant violation or failed verification, 2 usage
errors: argparse's, among them a flag its command does not take, --corpus with
--corpus-size, a --depth that is not a non-negative perfect square, a negative
count, size or set index, and a --jobs below 1; a --proc, --corpus or --trace
that names nothing usable (a plugin that fails to load, or a candidate that
fails or answers no two set indices), or an output path (--trace, --out) in no
directory, refused before the first stage runs, each with one line on stderr.
Identical invocations produce byte-identical traces; there is no configuration
outside the flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from itertools import repeat

from . import corpus as corpus_mod
from .friedberg import run_friedberg
from .geometry import TreeError, checked_depth
from .hk import run_hk, run_subset_scenario
from .kernel import Kernel
from .setalg import check_split_history
from .trace import TraceError, merge_for_file, read_trace, write_trace
from .tree import PROCEDURES, TreeRun, diagonalize, iterate_splitting_procedures, structural_report
from .verify import complement_witnesses, probe_friedberg, replay_check, trailing_window
from .witness import run_parity_witness, shav_split, shavrukov_pair


class _UsageError(Exception):
    """A flag that names nothing usable: one line on stderr, exit 2."""


def _load_corpus(args) -> list[str]:
    if args.corpus:
        try:
            return corpus_mod.load_corpus(args.corpus)
        except (OSError, UnicodeDecodeError) as err:
            raise _UsageError(f"--corpus: cannot read corpus: {err}") from None
    return corpus_mod.make_corpus(args.corpus_size)


def _check_output(flag: str, path: str) -> None:
    """Refuse, before any stage runs, an output path that is no file in a directory."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise _UsageError(f"{flag}: cannot write {path!r}: no file in an existing directory")


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def cmd_enumerate(args) -> int:
    kernel = Kernel(_load_corpus(args))
    kernel.run_to(args.stages)
    members = sorted(kernel.w_at(args.index, args.stages - 1)) if args.stages else []
    _emit({"index": args.index, "stages": args.stages, "members": members})
    return 0


def cmd_corpus(args) -> int:
    texts = corpus_mod.make_corpus(args.size)
    if args.out:
        _check_output("--out", args.out)
        corpus_mod.save_corpus(args.out, texts)
    else:
        sys.stdout.writelines(line + "\n" for line in texts)
    return 0


def cmd_split(args) -> int:
    friedberg = args.flavour == "friedberg"
    if args.trace:
        _check_output("--trace", args.trace)
    if friedberg:
        result = run_friedberg(_load_corpus(args), args.index, args.stages)
    elif args.flavour == "hk":
        a_index = args.a_index if args.a_index is not None else args.index
        result = run_hk(_load_corpus(args), args.index, a_index, args.stages)
    else:
        result = run_subset_scenario(args.stages)
    log, trace = result.kernel.log, result.trace
    split_input = result.a if friedberg else result.b
    halves = result.splitter.halves
    if args.trace:
        write_trace(args.trace, merge_for_file(log, trace))
    last = max(args.stages - 1, 0)
    violation = check_split_history(log, split_input, *halves, last) if args.stages else None
    _emit(
        {
            "halves": halves,
            "input": split_input,
            "routed": sum(1 for r in trace if r["op"] in ("route", "hk")),
            "violation": list(violation) if violation else None,
        }
    )
    return 1 if violation else 0


def cmd_build31(args) -> int:
    bundle = run_parity_witness(corpus_mod.WITNESS, args.stages)
    log = bundle.kernel.log
    last = args.stages - 1
    evidence = probe_friedberg(log, bundle.a, bundle.k_r, bundle.k_rbar, last, args.breadth)
    flagged = [asdict(ev) for ev in evidence if ev.signature_side is not None]
    live = {
        side: [c.j for c in complement_witnesses(log, half, last, args.breadth)
               if c.status == "live"]
        for side, half in (("k_r", bundle.k_r), ("k_rbar", bundle.k_rbar))
    }
    _emit(
        {
            "a": bundle.a,
            "halves": (bundle.k_r, bundle.k_rbar),
            "window": trailing_window(last),
            "breadth": args.breadth,
            "sizes": (len(log.members_at(bundle.k_r, last)),
                      len(log.members_at(bundle.k_rbar, last))),
            "non_friedberg_signatures": flagged,
            "live_complements": live,
        }
    )
    return 0


def cmd_shav(args) -> int:
    kernel = Kernel(_load_corpus(args))
    x0, x1 = shavrukov_pair(kernel, args.w, args.y)
    halves = None
    if args.a_index is not None:
        halves = shav_split(kernel, args.a_index, x0, x1)
    kernel.run_to(args.stages)
    last = args.stages - 1
    _emit(
        {
            "x0": sorted(kernel.w_at(x0, last)),
            "x1": sorted(kernel.w_at(x1, last)),
            "halves": halves,
        }
    )
    return 0


def _resolve_proc(spec: str):
    """The procedure a --proc name stands for; a usage error if none."""
    if spec in PROCEDURES:
        return PROCEDURES[spec]
    if not spec.startswith("plugin:"):
        raise _UsageError(f"--proc: unknown procedure {spec!r} "
                          "(hf, trivial, broken or plugin:FILE)")
    path = spec.split(":", 1)[1]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            code = compile(fh.read(), path, "exec")
    except (OSError, SyntaxError, ValueError) as err:
        raise _UsageError(f"--proc: cannot load plugin: {err}") from None
    scope: dict = {}
    try:
        exec(code, scope)
    except Exception as err:
        raise _UsageError(f"--proc: plugin {path} failed to load: {err!r}") from None
    if not callable(scope.get("procedure")):
        raise _UsageError(f"--proc: plugin {path} does not define procedure(kernel, e)")
    return scope["procedure"]


def _depth_flag(text: str) -> int:
    """--depth's type: a bad bound is a usage error that states the rule."""
    try:
        return checked_depth(int(text))
    except (TreeError, ValueError) as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _at_least(least: int, what: str):
    """The type of an integer flag: a value below ``least`` is a usage error."""

    def flag(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what} of {least} or more, not {text!r}")

    return flag


_count_flag = _at_least(0, "a count")  # --stages, --rounds, the sizes and --breadth
_index_flag = _at_least(0, "an index")  # the set indices
_jobs_flag = _at_least(1, "a worker count")


def _run_one_diagonalize(proc_name, proc, texts, args):
    result = diagonalize(proc, args.stages, args.depth, texts, collect_trace=bool(args.trace))
    report = structural_report(result.run)
    if args.trace:
        path = args.trace.replace("{proc}", proc_name)
        write_trace(path, merge_for_file(result.kernel.log, result.trace))
    payload = {
        "proc": proc_name,
        "e": result.e_a,
        "halves": (result.e0, result.e1),
        "verdict": result.verdict.kind,
        "reason": result.verdict.reason,
        "stable": result.stable,
        "checkpoints": [{"stage": stage, "verdict": v.kind, "reason": v.reason}
                        for stage, v in result.verdicts],
        "violations": len(result.violations),
        "structure": {
            "problems": report["problems"],
            "partition_exceptions": report["partition_exceptions"],
            "dumped": report["dumped"],
        },
    }
    return payload, (1 if result.violations or report["problems"] else 0)


def cmd_diagonalize(args) -> int:
    procs = args.proc.split(",")
    if len(procs) > 1 and args.trace and "{proc}" not in args.trace:
        raise _UsageError("multiple procs need a {proc} placeholder in --trace")
    found = {name: _resolve_proc(name) for name in procs}
    if args.trace:
        for name in procs:
            _check_output("--trace", args.trace.replace("{proc}", name))
    texts = _load_corpus(args)
    for name in procs:
        try:  # each candidate is consulted on a kernel of its own before any run
            TreeRun(Kernel(texts), found[name], args.depth)
        except TreeError as err:
            raise _UsageError(f"--proc: {name}: {err}") from None
    if args.jobs > 1 and len(procs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            runs = list(pool.map(_diag_worker, procs, repeat(texts), repeat(args)))
    else:
        runs = (_run_one_diagonalize(name, found[name], texts, args) for name in procs)
    code = 0
    for payload, rc in runs:
        _emit(payload)
        code = max(code, rc)
    return code


def _diag_worker(name, texts, args):
    return _run_one_diagonalize(name, _resolve_proc(name), texts, args)


def cmd_verify(args) -> int:
    try:
        report = replay_check(read_trace(args.trace), args.suite)
    except OSError as err:  # a missing or unreadable path is a usage error
        raise _UsageError(f"cannot read trace: {err}") from None
    except TraceError as err:
        _emit({"ok": False, "error": str(err), "line": err.line})
        return 1
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_iterate(args) -> int:
    rounds = iterate_splitting_procedures(
        PROCEDURES["hf"], args.rounds, args.stages, args.depth, _load_corpus(args)
    )
    for entry in rounds:
        _emit(entry)
    distinct = len({entry["e"] for entry in rounds}) == len(rounds)
    ok = distinct and all(entry["violations"] == 0 for entry in rounds)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesplit",
        description="workbench for splitting constructions on enumerable sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        corpus = p.add_mutually_exclusive_group()
        corpus.add_argument("--corpus", help="program corpus file (one program per line)")
        corpus.add_argument("--corpus-size", type=_count_flag, default=32,
                            help="size of the generated corpus")

    p = sub.add_parser("enumerate", help="list one set's members by a stage bound")
    common(p)
    p.add_argument("--index", type=_index_flag, required=True)
    p.add_argument("--stages", type=_count_flag, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("corpus", help="emit a generated program corpus")
    p.add_argument("--size", type=_count_flag, default=512)
    p.add_argument("--out")
    p.set_defaults(func=cmd_corpus)

    split = sub.add_parser("split", help="run a splitting construction")
    flavours = split.add_subparsers(dest="flavour", required=True)
    for flavour, about in (("friedberg", "Friedberg's split of one set"),
                           ("hk", "the Herrmann-Kummer split of one set over a modulus set"),
                           ("hk-subset", "the rigged hk listing: the input inside the modulus set")):
        p = flavours.add_parser(flavour, help=about)
        if flavour != "hk-subset":
            common(p)
            p.add_argument("--index", type=_index_flag, default=0, help="input set index")
        if flavour == "hk":
            p.add_argument("--a-index", type=_index_flag, default=None,
                           help="the modulus set (defaults to the input)")
        p.add_argument("--stages", type=_count_flag, required=True)
        p.add_argument("--trace")
        p.set_defaults(func=cmd_split)

    witness = sub.add_parser("witness", help="build witness constructions")
    flavours = witness.add_subparsers(dest="flavour", required=True)
    p = flavours.add_parser("build31", help="the parity witness on its own corpus")
    p.add_argument("--stages", type=_count_flag, required=True)
    p.add_argument("--breadth", type=_count_flag, default=16)
    p.set_defaults(func=cmd_build31)
    p = flavours.add_parser("shav", help="Shavrukov's pair, split over --a-index if given")
    common(p)
    p.add_argument("--stages", type=_count_flag, required=True)
    p.add_argument("--w", type=_index_flag, default=0)
    p.add_argument("--y", type=_index_flag, default=2)
    p.add_argument("--a-index", type=_index_flag, default=None)
    p.set_defaults(func=cmd_shav)

    p = sub.add_parser("diagonalize", help="run the tree construction against h")
    common(p)
    p.add_argument("--proc", default="hf",
                   help="hf|trivial|broken|plugin:FILE, comma-separated for several")
    p.add_argument("--stages", type=_count_flag, required=True)
    p.add_argument("--depth", type=_depth_flag, default=25)
    p.add_argument("--trace")
    p.add_argument("--jobs", type=_jobs_flag, default=1)
    p.set_defaults(func=cmd_diagonalize)

    p = sub.add_parser("verify", help="replay a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--suite", choices=["replay", "split"], default="replay",
                   help="replay: re-derive the decisions the meta record names; "
                        "split: check only the split")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("iterate", help="round-iterated diagonalization")
    common(p)
    p.add_argument("--rounds", type=_count_flag, required=True)
    p.add_argument("--stages", type=_count_flag, default=50_000)
    p.add_argument("--depth", type=_depth_flag, default=25)
    p.set_defaults(func=cmd_iterate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as err:
        sys.stderr.write(f"{err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
