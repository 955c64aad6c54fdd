import json
import subprocess
import sys

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
    target = next(i for i, line in enumerate(lines) if '"op":"route"' in line)
    record = json.loads(lines[target])
    record["side"] = 1 - record["side"]
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
    check = invoke("verify", "--trace", str(path), "--suite", "tree")
    assert check.returncode == 0, check.stdout


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


def test_iterate_smoke():
    proc = invoke("iterate", "--rounds", "1", "--stages", "12000")
    assert proc.returncode == 0
    entry = json.loads(proc.stdout.splitlines()[0])
    assert entry["verdict"] == 3


def _friedberg_trace(tmp_path):
    path = tmp_path / "fried.jsonl"
    invoke("split", "friedberg", "--index", "0", "--stages", "2000", "--trace", str(path))
    return path, path.read_text().splitlines()


def _verify_rejects(path, line):
    check = invoke("verify", "--trace", str(path))
    assert check.returncode == 1
    assert "Traceback" not in check.stderr
    out = check.stdout.splitlines()
    assert len(out) == 1
    payload = json.loads(out[0])
    assert payload["ok"] is False and payload["line"] == line


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


@pytest.mark.parametrize("op, field, value", [
    ("enter", "node", None),  # None: the field is deleted
    ("pull", "x0", "a"),
])
def test_verify_tree_record_fault_reports_line(tmp_path, op, field, value):
    path, lines = _tree_trace(tmp_path)
    at = next(i for i, line in enumerate(lines) if f'"op":"{op}"' in line)
    record = json.loads(lines[at])
    if value is None:
        del record[field]
    else:
        record[field] = value
    lines[at] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    _verify_rejects(path, at + 1)


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


def test_verify_dump_below_stage_bound_is_not_least(tmp_path):
    path, lines = _tree_trace(tmp_path)
    at = next(i for i, line in enumerate(lines) if '"op":"dump-orig"' in line)
    record = json.loads(lines[at])
    record["s"] = record["i"]  # the dump would need i < s
    lines[at] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    check = invoke("verify", "--trace", str(path))
    assert check.returncode == 1, check.stdout
    report = json.loads(check.stdout)
    assert [d["field"] for d in report["divergences"]] == ["dump-least"]


@pytest.mark.parametrize("field", ["depth", "feeder"])
def test_verify_tree_meta_non_integer_reports_meta_line(tmp_path, field):
    path, lines = _tree_trace(tmp_path)
    at = next(i for i, line in enumerate(lines) if '"op":"meta"' in line)
    record = json.loads(lines[at])
    record[field] = "x" if field == "depth" else [1]
    lines[at] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    _verify_rejects(path, at + 1)
