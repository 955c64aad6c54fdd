import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

RUN = [sys.executable, "-m", "cesplit.cli"]


def invoke(*argv):
    return subprocess.run(
        RUN + list(argv), capture_output=True, text=True, timeout=600
    )


def test_enumerate_round_trip():
    proc = invoke("enumerate", "--index", "0", "--stages", "2000")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["members"] and payload["members"] == sorted(payload["members"])


def test_unknown_flag_is_usage_error():
    proc = invoke("enumerate", "--index", "0", "--stages", "10", "--bogus")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_split_friedberg_zero_stages():
    proc = invoke("split", "friedberg", "--index", "3", "--stages", "0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["routed"] == 0


@pytest.mark.parametrize("flag", [("--a-index", "5"), ("--subset-scenario",)],
                         ids=["--a-index", "--subset-scenario"])
def test_hk_flag_on_friedberg_split_is_usage_error(flag):
    # both used to exit 0 after a plain Friedberg split that ignored them
    proc = invoke("split", "friedberg", *flag, "--stages", "100")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and flag[0] in proc.stderr
    assert "Traceback" not in proc.stderr


def test_split_trace_and_verify_round_trip(tmp_path):
    path = tmp_path / "fried.jsonl"
    proc = invoke(
        "split", "friedberg", "--index", "8", "--stages", "4000", "--trace", str(path)
    )
    assert proc.returncode == 0
    check = invoke("verify", "--trace", str(path), "--suite", "replay")
    assert check.returncode == 0, check.stdout
    report = json.loads(check.stdout)
    assert report["ok"] and report["kind"] == "friedberg"


def test_verify_catches_tampering(tmp_path):
    path = tmp_path / "fried.jsonl"
    invoke("split", "friedberg", "--index", "8", "--stages", "4000", "--trace", str(path))
    lines = path.read_text().splitlines()
    target = next(i for i, line in enumerate(lines)
                  if '"op":"route"' in line and '"req":[]' not in line)
    record = json.loads(lines[target])
    record["req"][1] = 1 - record["req"][1]  # the met requirement's side
    lines[target] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    check = invoke("verify", "--trace", str(path))
    assert check.returncode == 1
    assert not json.loads(check.stdout)["ok"]


def test_verify_malformed_trace_reports_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"op":"event","s":0,"e":1,"x":2}\nnot json at all\n')
    check = invoke("verify", "--trace", str(path))
    assert check.returncode == 1
    payload = json.loads(check.stdout)
    assert "line 2" in payload["error"]


def test_diagonalize_then_verify(tmp_path):
    path = tmp_path / "tree.jsonl"
    proc = invoke(
        "diagonalize", "--proc", "hf", "--stages", "6000", "--depth", "9",
        "--trace", str(path),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == 3 and payload["violations"] == 0
    # each of the five checkpoints, at the last stage its verdict reads
    assert payload["checkpoints"] == [
        {"stage": stage, "verdict": 3, "reason": "friedberg-like"}
        for stage in (4_799, 5_099, 5_399, 5_699, 5_999)
    ]
    check = invoke("verify", "--trace", str(path))
    assert check.returncode == 0, check.stdout
    assert json.loads(check.stdout)["kind"] == "tree"


def test_byte_identical_traces(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (p1, p2):
        invoke("split", "friedberg", "--index", "0", "--stages", "3000",
               "--trace", str(path))
    assert p1.read_bytes() == p2.read_bytes()


def test_corpus_emission(tmp_path):
    out = tmp_path / "corpus.txt"
    proc = invoke("corpus", "--size", "64", "--out", str(out))
    assert proc.returncode == 0
    assert len(out.read_text().splitlines()) == 64


def test_witness_build31_summary():
    proc = invoke("witness", "build31", "--stages", "20000", "--breadth", "8")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sizes"][0] > 0
    assert payload["non_friedberg_signatures"]
    assert payload["live_complements"]["k_r"] == []
    assert payload["live_complements"]["k_rbar"] == []


def test_witness_shav_split_halves():
    proc = invoke("witness", "shav", "--w", "0", "--y", "2", "--a-index", "4",
                  "--stages", "5000")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert len(payload["halves"]) == 2
    assert payload["x0"] and not set(payload["x0"]) & set(payload["x1"])


def test_split_hk_subset_scenario(tmp_path):
    path = tmp_path / "hk.jsonl"
    proc = invoke("split", "hk", "--subset-scenario", "--stages", "5000", "--trace", str(path))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["routed"] and payload["violation"] is None
    # the rigged listings reach the replay through the meta record
    meta = next(json.loads(line) for line in path.read_text().splitlines()
                if '"op":"meta"' in line)
    assert meta["y_over"] == [[0, 0]] and meta["z_over"] == [[0, 4]]
    check = invoke("verify", "--trace", str(path))
    assert check.returncode == 0, check.stdout
    assert json.loads(check.stdout)["kind"] == "hk"


def test_verify_suite_is_replay_or_split(tmp_path):
    path, _ = _friedberg_trace(tmp_path)
    assert json.loads(invoke("verify", "--trace", str(path), "--suite", "split").stdout)["ok"]
    assert invoke("verify", "--trace", str(path), "--suite", "tree").returncode == 2


@pytest.mark.parametrize("spec", ["unknown", "plugin-without-procedure", "plugin-missing"])
def test_diagonalize_bad_proc_is_usage_error(tmp_path, spec):
    plugin = tmp_path / "plugin.py"
    if spec == "plugin-without-procedure":
        plugin.write_text("def other(kernel, e):\n    return (e, e)\n")
    proc_arg = "nosuch" if spec == "unknown" else f"plugin:{plugin}"
    proc = invoke("diagonalize", "--stages", "100", "--depth", "9", "--proc", proc_arg)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("depth", ["12", "-4"])
@pytest.mark.parametrize("command", [
    ("diagonalize", "--proc", "hf", "--stages", "100"),
    ("iterate", "--rounds", "1", "--stages", "100"),
], ids=["diagonalize", "iterate"])
def test_bad_depth_is_usage_error(command, depth):
    # a depth bound is a non-negative perfect square; 12 is none, and -4
    # used to reach isqrt
    proc = invoke(*command, f"--depth={depth}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--depth" in proc.stderr and "Traceback" not in proc.stderr


BOUNDED_FLAGS = [
    (("enumerate", "--stages", "10"), "--index"),
    (("split", "friedberg", "--stages", "10"), "--index"),
    (("split", "hk", "--stages", "10"), "--a-index"),
    (("enumerate", "--index", "0", "--stages", "10"), "--corpus-size"),
    (("corpus",), "--size"),
    (("witness", "build31", "--stages", "100"), "--breadth"),
]


def flag_ids(value):
    return value if isinstance(value, str) else value[0]


def assert_usage_error(proc, flag):
    assert proc.returncode == 2
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0] and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, flag", [
    (("enumerate", "--index", "0"), "--stages"),
    (("split", "friedberg"), "--stages"),
    (("witness", "shav"), "--stages"),
    (("diagonalize", "--proc", "hf"), "--stages"),
    (("iterate", "--stages", "100"), "--rounds"),
    (("iterate", "--rounds", "1"), "--stages"),
    *BOUNDED_FLAGS,
    (("diagonalize", "--proc", "hf,trivial", "--stages", "10"), "--jobs"),
], ids=flag_ids)
def test_negative_count_is_usage_error(command, flag):
    # a count, a size or a set index is 0 or more and --jobs 1 or more; -1
    # used to exit 0: diagonalize reported a verdict for a run that never
    # stepped, an index named no set, a negative breadth was echoed back
    assert_usage_error(invoke(*command, flag, "-1"), flag)


@pytest.mark.parametrize("command, flag", BOUNDED_FLAGS, ids=flag_ids)
def test_zero_index_or_size_runs(command, flag):
    proc = invoke(*command, flag, "0")
    assert proc.returncode == 0, proc.stderr


def test_diagonalize_zero_jobs_is_usage_error():
    assert_usage_error(invoke("diagonalize", "--proc", "hf,trivial", "--stages", "10",
                              "--jobs", "0"), "--jobs")


def test_diagonalize_depth_zero_runs():
    proc = invoke("diagonalize", "--proc", "hf", "--stages", "100", "--depth", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["violations"] == 0


def test_diagonalize_jobs_match_one_process(tmp_path):
    # --jobs 2 runs the procedures in two worker processes; stdout and the
    # trace files are those of the one-process run
    runs = {}
    for jobs in ("2", "1"):
        out = tmp_path / jobs
        out.mkdir()
        proc = invoke("diagonalize", "--proc", "hf,trivial", "--stages", "3000",
                      "--depth", "9", "--trace", str(out / "t-{proc}.jsonl"), "--jobs", jobs)
        assert proc.returncode == 0, proc.stderr
        traces = {name: (out / f"t-{name}.jsonl").read_bytes() for name in ("hf", "trivial")}
        runs[jobs] = (proc.stdout, traces)
    assert runs["2"] == runs["1"]
    assert [json.loads(line)["proc"] for line in runs["1"][0].splitlines()] == ["hf", "trivial"]


def test_diagonalize_plugin_matches_named_proc(tmp_path):
    plugin = tmp_path / "plugin.py"
    plugin.write_text("from cesplit.tree import proc_trivial as procedure\n")
    argv = ("diagonalize", "--stages", "3000", "--depth", "9", "--proc")
    named = json.loads(invoke(*argv, "trivial").stdout)
    custom = json.loads(invoke(*argv, f"plugin:{plugin}").stdout)
    assert named.pop("proc") == "trivial"
    assert custom.pop("proc") == f"plugin:{plugin}"
    assert custom == named


def test_readme_cli_lines_parse():
    # every command of README's CLI block parses, and names known
    # procedures; none of them is run
    from cesplit.cli import build_parser
    from cesplit.tree import PROCEDURES

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("cesplit ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: cesplit {shlex.join(argv)}")
        if args.command == "diagonalize":
            assert set(args.proc.split(",")) <= set(PROCEDURES), argv


def test_iterate_smoke():
    proc = invoke("iterate", "--rounds", "1", "--stages", "12000")
    assert proc.returncode == 0
    entry = json.loads(proc.stdout.splitlines()[0])
    assert entry["verdict"] == 3


def _friedberg_trace(tmp_path):
    path = tmp_path / "fried.jsonl"
    invoke("split", "friedberg", "--index", "0", "--stages", "2000", "--trace", str(path))
    return path, path.read_text().splitlines()


def _verify_rejects(path, line, suite="replay"):
    check = invoke("verify", "--trace", str(path), "--suite", suite)
    assert check.returncode == 1
    assert "Traceback" not in check.stderr
    out = check.stdout.splitlines()
    assert len(out) == 1
    payload = json.loads(out[0])
    assert payload["ok"] is False and payload["line"] == line
    return payload


def test_verify_swapped_events_report_line(tmp_path):
    path, lines = _friedberg_trace(tmp_path)
    first = next(i for i, line in enumerate(lines) if '"op":"event"' in line)
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    path.write_text("\n".join(lines) + "\n")
    # the earlier stage now sits on the second line, behind a later one
    _verify_rejects(path, first + 2)


def test_verify_meta_missing_field_reports_line(tmp_path):
    path, lines = _friedberg_trace(tmp_path)
    at = next(i for i, line in enumerate(lines) if '"op":"meta"' in line)
    record = json.loads(lines[at])
    del record["a0"]
    lines[at] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    _verify_rejects(path, at + 1)


def test_verify_integer_past_conversion_limit_reports_line(tmp_path):
    path, lines = _friedberg_trace(tmp_path)
    fourth = [i for i, line in enumerate(lines) if '"op":"event"' in line][3]
    record = json.loads(lines[fourth])
    lines[fourth] = lines[fourth].replace(f'"x":{record["x"]}', '"x":1' + "0" * 4400)
    path.write_text("\n".join(lines) + "\n")
    _verify_rejects(path, fourth + 1)


def test_verify_bytes_not_utf8_report_line(tmp_path):
    path, lines = _friedberg_trace(tmp_path)
    data = [line.encode() for line in lines]
    data[1] = b"\xff\xfe" + data[1]
    path.write_bytes(b"\n".join(data) + b"\n")
    _verify_rejects(path, 2)


DEEP = "[" * 100_000 + "]" * 100_000  # nested past any parser's recursion limit


@pytest.mark.parametrize("where", ["bare-line", "meta-field"])
def test_verify_deep_nesting_reports_line(tmp_path, where):
    # each crashed with a RecursionError traceback and no report
    if where == "bare-line":
        path, at = tmp_path / "deep.jsonl", 0
        path.write_text(DEEP + "\n")
    else:
        path, lines = _friedberg_trace(tmp_path)
        at = next(i for i, line in enumerate(lines) if '"op":"meta"' in line)
        a0 = json.loads(lines[at])["a0"]
        lines[at] = lines[at].replace(f'"a0":{a0}', f'"a0":{DEEP}')
        path.write_text("\n".join(lines) + "\n")
    _verify_rejects(path, at + 1)
    error = json.loads(invoke("verify", "--trace", str(path)).stdout)["error"]
    assert error.startswith(f"line {at + 1}: unparsable record: "), error[:200]


def test_verify_reports_first_fault_in_file_order(tmp_path):
    # a record that does not fit its row, and an unparsable line after it:
    # the earlier line is reported (read errors once beat schema errors)
    path, lines = _friedberg_trace(tmp_path)
    fourth = [i for i, line in enumerate(lines) if '"op":"event"' in line][3]
    record = json.loads(lines[fourth])
    record["x"] = "a"
    lines[fourth] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\nnot json at all\n")
    _verify_rejects(path, fourth + 1)
    error = json.loads(invoke("verify", "--trace", str(path)).stdout)["error"]
    assert error == f"line {fourth + 1}: event field 'x' is not an integer: 'a'"


def test_verify_missing_trace_is_usage_error(tmp_path):
    check = invoke("verify", "--trace", str(tmp_path / "missing.jsonl"))
    assert check.returncode == 2
    assert check.stdout == ""
    assert len(check.stderr.splitlines()) == 1 and "Traceback" not in check.stderr


def _hk_trace(tmp_path):
    path = tmp_path / "hk.jsonl"
    invoke("split", "hk", "--index", "0", "--a-index", "2", "--stages", "2000",
           "--trace", str(path))
    return path, path.read_text().splitlines()


# a bend of one record of each op that fits its row but not the run
BENDS = {
    "route": lambda record: record.update(req=[0, 0, 10**6]),
    "hk": lambda record: record.update(l=record["l"] + 1),
    "pull": lambda record: record.update(req=record["req"] + 1),
}


@pytest.mark.parametrize("op, blank", [
    ("route", False),
    ("route", True),
    ("hk", False),
    ("pull", False),
], ids=["route", "route-after-blank-line", "hk", "pull"])
def test_verify_divergence_names_file_line(tmp_path, op, blank):
    traced = {"route": _friedberg_trace, "hk": _hk_trace, "pull": _tree_trace}[op]
    path, lines = traced(tmp_path)
    at = [i for i, line in enumerate(lines) if f'"op":"{op}"' in line][2]
    record = json.loads(lines[at])
    BENDS[op](record)
    lines[at] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if blank:  # from here on the file line and the record position part ways
        lines.insert(at, "")
        at += 1
    path.write_text("\n".join(lines) + "\n")
    check = invoke("verify", "--trace", str(path))
    assert check.returncode == 1
    divergences = json.loads(check.stdout)["divergences"]
    assert divergences[0]["line"] == at + 1, divergences[:3]


def test_verify_missing_record_names_line_after_last(tmp_path):
    path, lines = _friedberg_trace(tmp_path)
    last = max(i for i, line in enumerate(lines) if '"op":"route"' in line)
    a = next(json.loads(line)["a"] for line in lines if '"op":"meta"' in line)
    # the last record routes the last entrant of the input
    *_, x = (r["x"] for r in map(json.loads, lines) if r["op"] == "event" and r["e"] == a)
    del lines[last]
    path.write_text("\n".join(lines) + "\n\n")  # a trailing blank line holds no record
    check = invoke("verify", "--trace", str(path))
    assert check.returncode == 1
    assert json.loads(check.stdout)["divergences"] == [
        {"field": "missing-record", "got": None, "line": len(lines) + 1, "want": {"x": x}}
    ]


def test_verify_reports_file_line_after_blank_line(tmp_path):
    path, lines = _friedberg_trace(tmp_path)
    first = next(i for i, line in enumerate(lines) if '"op":"event"' in line)
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    path.write_text("\n" + "\n".join(lines) + "\n")
    # blank lines are legal; the report names the file line, not the record
    _verify_rejects(path, first + 3)


def _tree_trace(tmp_path):
    path = tmp_path / "tree.jsonl"
    proc = invoke(
        "diagonalize", "--proc", "hf", "--stages", "3000", "--depth", "9",
        "--trace", str(path),
    )
    assert proc.returncode == 0, proc.stderr
    return path, path.read_text().splitlines()


NULL = object()  # a field set to JSON null; None deletes the field


def _verify_rejects_bent(traced, tmp_path, op, field, value, suite="replay"):
    """Bend one field of the trace's first ``op`` record (a new field name
    adds a key); verify must reject the trace on that record's line."""
    path, lines = traced(tmp_path)
    at = next(i for i, line in enumerate(lines) if f'"op":"{op}"' in line)
    record = json.loads(lines[at])
    if value is None:
        del record[field]
    else:
        record[field] = None if value is NULL else value
    lines[at] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    _verify_rejects(path, at + 1, suite)


@pytest.mark.parametrize("op, field, value", [
    ("f", "node", None),
    ("pull", "x0", "a"),
    ("left", "from", 5),
    pytest.param("pull", "s", NULL, id="pull-s-null"),
    pytest.param("f", "node", [], id="f-node-empty-list"),
    pytest.param("f", "node", [1], id="f-node-list"),
    # each of these was replayed as ok: a record must fit its op's row exactly
    pytest.param("f", "ks", None, id="f-ks-missing"),
    pytest.param("pull", "ks", None, id="pull-ks-missing"),
    pytest.param("dump-orig", "ks", None, id="dump-orig-ks-missing"),
    pytest.param("f", "s", True, id="f-s-bool"),
    pytest.param("f", "ks", 1.0, id="f-ks-float"),
    pytest.param("left", "extra", 0, id="left-extra-key"),
    pytest.param("pull", "node", "z", id="pull-node-text"),
    pytest.param("dump-orig", "node", 5, id="dump-orig-node-int"),
    pytest.param("dump-orig", "i", "z", id="dump-orig-i-text"),
])
def test_verify_tree_record_fault_reports_line(tmp_path, op, field, value):
    _verify_rejects_bent(_tree_trace, tmp_path, op, field, value)


# records that fit a row of the schema, but that the trace's construction
# never writes; "meta" stands for a copy of the trace's own meta record
FOREIGN = {
    "f": {"op": "f", "s": 1, "ks": 1, "node": "1"},
    "route": {"op": "route", "req": []},
    # the old formats' records, now no op at all
    "void": {"op": "void", "s": 1, "node": "0", "n": 1},
    "enter": {"op": "enter", "s": 1, "x": 0, "node": "1"},
    "chip": {"op": "chip", "s": 1, "node": "", "c": 1},
    "patch": {"op": "patch", "node": "1", "x": 0},
    # the old format's copies of the stage clock, now unknown fields
    "left": {"op": "left", "s": 1, "from": "0", "to": "1", "balls": [0]},
    "dump-extra": {"op": "dump-extra", "s": 1, "ks": 1, "gamma": "01", "node": "1", "idx": 0,
                   "x": 0},
    # the old format's routing records, with copies of the entrant and its half
    "old-route": {"op": "route", "s": 1, "x": 0, "req": None, "side": 0},
    "old-hk": {"op": "hk", "s": 1, "x": 0, "triple": [0, 0, 0], "l": 0, "r": 0, "side": 0},
}


@pytest.mark.parametrize("suite", ["replay", "split"])
@pytest.mark.parametrize("traced, op", [
    (_friedberg_trace, "f"), (_friedberg_trace, "meta"), (_tree_trace, "route"),
    (_tree_trace, "void"), (_tree_trace, "enter"), (_tree_trace, "chip"), (_tree_trace, "patch"),
    (_tree_trace, "left"), (_tree_trace, "dump-extra"), (_friedberg_trace, "old-route"),
    (_hk_trace, "old-hk"), (_hk_trace, "old-meta"),
], ids=["friedberg-f", "friedberg-second-meta", "tree-route", "tree-void", "tree-enter",
        "tree-chip", "tree-patch", "tree-old-left", "tree-old-dump-extra",
        "friedberg-old-route", "hk-old-hk", "hk-old-meta"])
def test_verify_rejects_records_the_construction_never_writes(tmp_path, traced, op, suite):
    # each of the first three verified as ok, the foreign record counted
    # among the decisions
    path, lines = traced(tmp_path)
    at = len(lines) - 1  # before the last record
    if op == "meta":
        record = next(line for line in lines if '"op":"meta"' in line)
    elif op == "old-meta":  # the trace's own meta, as the old format wrote it with no override
        at = next(i for i, line in enumerate(lines) if '"op":"meta"' in line)
        record = {k: v for k, v in json.loads(lines.pop(at)).items() if k != "y_over"}
        record = json.dumps(record, sort_keys=True, separators=(",", ":"))
    else:
        record = json.dumps(FOREIGN[op], sort_keys=True, separators=(",", ":"))
    lines.insert(at, record)
    path.write_text("\n".join(lines) + "\n")
    error = _verify_rejects(path, at + 1, suite)["error"]
    if op in ("left", "dump-extra", "old-route", "old-hk"):
        assert f"{op.removeprefix('old-')} record has an unknown field" in error
    if op == "old-meta":
        assert error == f"line {at + 1}: meta record lacks 'y_over'"
    if op == "patch":
        assert error == f"line {at + 1}: unknown op 'patch'"


@pytest.mark.parametrize("traced, op, field, value", [
    (_friedberg_trace, "route", "req", NULL),
    (_friedberg_trace, "route", "req", [1.0]),
    (_friedberg_trace, "route", "extra", 0),
    (_friedberg_trace, "route", "req", None),
    (_hk_trace, "hk", "l", 1.0),
    (_hk_trace, "hk", "extra", 0),
    (_hk_trace, "hk", "r", None),
], ids=["route-req-null", "route-req-float", "route-extra-key", "route-req-missing",
        "hk-l-float", "hk-extra-key", "hk-r-missing"])
def test_verify_routing_record_fault_reports_line(tmp_path, traced, op, field, value):
    # each was replayed as ok, or as a divergence with a field got as None
    _verify_rejects_bent(traced, tmp_path, op, field, value)


@pytest.mark.parametrize("field, value", [
    ("s", "a"), ("e", "a"), ("e", None), ("x", "a"), ("x", False),
])
def test_verify_non_integer_event_stage_reports_line(tmp_path, field, value):
    path, lines = _friedberg_trace(tmp_path)
    fourth = [i for i, line in enumerate(lines) if '"op":"event"' in line][3]
    record = json.loads(lines[fourth])
    record[field] = value
    lines[fourth] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    _verify_rejects(path, fourth + 1)


def test_verify_long_address_rejected_on_its_line(tmp_path):
    # no honest address is longer than the meta record's depth bound; an f
    # node of 40,000 bits once took 16 s to replay, since each later f
    # record walked a request ledger of about that many nodes
    path, lines = _tree_trace(tmp_path)
    at = [i for i, line in enumerate(lines) if '"op":"f"' in line][10]
    record = json.loads(lines[at])
    record["node"] = "1" * 40_000
    lines[at] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    _verify_rejects(path, at + 1)


@pytest.mark.parametrize("forge, count", [("lowered", 35), ("raised", 77)],
                         ids=["lowered", "raised"])
def test_verify_dump_below_stage_bound_is_not_least(tmp_path, forge, count):
    # a dump-orig record's stage, which bounds its least dump, is the stage
    # clock's: moved one line up, above its stage's f, it is read at the
    # stage before, and moved one line down, below the next f, at the stage
    # after.  Either way its ks is not that stage's, named on its line;
    # every such record of the trace in process, the first through the CLI.
    # Either way, too, that f record's line names the balls A's log and the
    # dumps above it disagree on (a-ledger), which is not the fault at issue
    from cesplit.trace import Trace, read_trace
    from cesplit.verify import replay_check

    path, lines = _tree_trace(tmp_path)
    trace = read_trace(path)
    ops = [r["op"] for r in trace.records]
    step = -1 if forge == "lowered" else 1
    movable = [n for n, op in enumerate(ops[:-1])
               if op == "dump-orig" and ops[n + step] == "f"]
    assert len(movable) == count
    for n in movable:
        records = list(trace.records)
        records[n], records[n + step] = records[n + step], records[n]
        report = replay_check(Trace(trace.log, records, trace.lines, trace.end))
        ledger = [d["line"] for d in report["divergences"] if d["field"] == "a-ledger"]
        assert ledger and set(ledger) == {trace.lines[n]}  # the f record's line
        first = next(d for d in report["divergences"] if d["field"] != "a-ledger")
        assert (first["line"], first["field"]) == (trace.lines[n + step], "kernel-stage")
    at = trace.lines[movable[0]] - 1  # the file line, from 0
    lines[at], lines[at + step] = lines[at + step], lines[at]
    path.write_text("\n".join(lines) + "\n")
    check = invoke("verify", "--trace", str(path))
    assert check.returncode == 1, check.stdout
    first = next(d for d in json.loads(check.stdout)["divergences"] if d["field"] != "a-ledger")
    assert (first["line"], first["field"]) == (at + step + 1, "kernel-stage")


@pytest.mark.parametrize("field", ["depth", "feeder"])
def test_verify_tree_meta_non_integer_reports_meta_line(tmp_path, field):
    _verify_rejects_bent(_tree_trace, tmp_path, "meta", field, "x" if field == "depth" else [1])


@pytest.mark.parametrize("traced, field, value, suite", [
    (_friedberg_trace, "a0", {"a": 1}, "replay"),
    (_hk_trace, "b1", [1], "replay"),
    (_friedberg_trace, "kind", {"a": 1}, "split"),
    (_hk_trace, "kind", [], "split"),
    (_hk_trace, "extra", 0, "replay"),
    (_tree_trace, "depth", None, "replay"),
    (_tree_trace, "kind", "shavrukov", "split"),
    (_tree_trace, "depth", 20, "replay"),
    (_tree_trace, "depth", 20, "split"),
    (_tree_trace, "depth", -1, "replay"),
    (_tree_trace, "depth", -1, "split"),
], ids=["friedberg-index-object", "hk-index-list", "friedberg-kind-object", "hk-kind-list",
        "hk-extra-key", "tree-depth-missing", "tree-kind-unknown", "tree-depth-20-replay",
        "tree-depth-20-split", "tree-depth-negative-replay", "tree-depth-negative-split"])
def test_verify_meta_field_fault_reports_meta_line(tmp_path, traced, field, value, suite):
    # set indices must be integers, the kind a known one and no key
    # unknown, under either suite; a tree depth is a non-negative perfect
    # square, as --depth is (20 verified ok, and -1 was blamed on the first
    # f record)
    _verify_rejects_bent(traced, tmp_path, "meta", field, value, suite)


@pytest.mark.parametrize("value", [5, [[0]], [[[0], 1]], [[0, "a"]]],
                         ids=["int", "short-pair", "list-key", "text-index"])
def test_verify_hk_meta_bad_override_reports_meta_line(tmp_path, value):
    path = tmp_path / "hk.jsonl"
    invoke("split", "hk", "--subset-scenario", "--stages", "500", "--trace", str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if '"op":"meta"' in line)
    record = json.loads(lines[at])
    record["y_over"] = value
    lines[at] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    _verify_rejects(path, at + 1)
