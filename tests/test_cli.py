import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from permwordle import analysis, cli
from permwordle.verify import VerificationReport

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def validate(name, payload):
    jsonschema.validate(payload, load_schema(name))


def test_gf_json_exact_bytes(capsys):
    code, out = run(
        capsys, "gf", "--strategy", "inductive:2,3,4,1", "--n", "4", "--format", "json"
    )
    assert code == 0
    assert out == '{"n":4,"coeffs":{"1":1,"2":11,"3":11,"4":1},"loops":0}\n'
    validate("gf", json.loads(out))


def test_gf_playback_method_agrees(capsys):
    _, a = run(capsys, "gf", "--strategy", "cs", "--n", "5", "--format", "json")
    _, b = run(
        capsys, "gf", "--strategy", "cs", "--n", "5", "--format", "json",
        "--method", "playback",
    )
    assert a == b


@pytest.mark.parametrize("strategy", ["cs", "1;2,1;2,3,1;2,1,4,3;2,3,4,5,1;2,3,4,5,6,1"])
def test_gf_playback_output_is_byte_identical_in_every_format(capsys, strategy):
    """Playback and decomposition print the same bytes in text, json and
    csv, for cs and for a deranged strategy that loops (the length-4
    swap component), whose text ends in a nonzero ``loops:`` line."""
    outputs = {}
    for fmt in ("text", "json", "csv"):
        argv = ["gf", "--strategy", strategy, "--n", "6", "--format", fmt]
        _, outputs[fmt] = run(capsys, *argv)
        _, by_playback = run(capsys, *argv, "--method", "playback")
        assert by_playback == outputs[fmt]
    loops = outputs["text"].splitlines()[-1]
    assert loops.startswith("loops: ") and (loops == "loops: 0") == (strategy == "cs")


def test_play_solved_exit_zero(capsys):
    code, out = run(capsys, "play", "--secret", "4,1,2,3", "--strategy", "cs")
    assert code == 0
    assert "solved in 2 guesses" in out
    code, out = run(capsys, "play", "--secret", "1,2,3,4", "--strategy", "cs")
    assert code == 0
    assert "solved in 1 guesses" in out


def test_play_loop_exit_three(capsys):
    code, out = run(
        capsys, "play", "--secret", "3,4,1,2", "--strategy", "1;2,1;2,3,1;2,1,4,3"
    )
    assert code == 3
    assert "looped" in out


def test_play_json_schema(capsys):
    code, out = run(
        capsys, "play", "--secret", "2,1,4,3", "--strategy", "cs", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    validate("trace", payload)
    assert payload["rounds"] == 3
    assert payload["correct_sets"][1] == [2, 4]


def test_play_parse_error_exit_one(capsys):
    code = cli.main(["play", "--secret", "4,1,x,3", "--strategy", "cs"])
    err = capsys.readouterr().err
    assert code == 1
    assert "entry 3" in err


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["scan", "--n", "4"])  # missing --class
    assert info.value.code == 1


def test_avg_json(capsys):
    code, out = run(capsys, "avg", "--strategy", "cs", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("avg", payload)
    assert payload["average"] == {"num": 5, "den": 2}
    code, out = run(
        capsys, "avg", "--strategy", "1;2,1;2,3,1;2,1,4,3", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["average"] is None and payload["loops"] == 4


def test_scan_csv_columns_and_rows(capsys):
    code, out = run(
        capsys, "scan", "--n", "4", "--class", "inductive", "--format", "csv",
        "--jobs", "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "strategy_id,n,a_1,a_2,a_3,a_4,loops,avg_num,avg_den,rho1,rho2,rho3"
    assert len(lines) == 7
    assert lines[1] == '"1;2,1;2,3,1;2,3,4,1",4,1,11,11,1,0,5,2,4,6,1'


def test_scan_parallel_output_is_byte_identical(capsys):
    _, serial = run(
        capsys, "scan", "--n", "4", "--class", "deranged", "--format", "csv",
        "--jobs", "1",
    )
    _, parallel = run(
        capsys, "scan", "--n", "4", "--class", "deranged", "--format", "csv",
        "--jobs", "2",
    )
    assert serial == parallel


def test_scan_default_jobs_follows_cpu_affinity():
    args = cli.build_parser().parse_args(["scan", "--n", "4", "--class", "inductive"])
    try:
        expected = len(os.sched_getaffinity(0))
    except AttributeError:
        expected = os.cpu_count()
    assert args.jobs == expected


@pytest.mark.parametrize(
    "argv",
    [["scan", "--n", "4", "--class", "inductive"], ["verify", "--id", "csl-cubic"]],
    ids=["scan", "verify"],
)
def test_jobs_below_one_is_a_usage_error(capsys, argv):
    for jobs in ["0", "-3"]:
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--jobs", jobs])
        captured = capsys.readouterr()
        assert info.value.code == 1
        assert captured.out == ""
        assert "positive integer" in captured.err


# sha256 of `scan --format FORMAT` at the given --jobs.  The CSV digests
# were taken from the engine before the top-size lookup table existed
# (cyclic n = 6 is the benchmark's pin), the JSON and text digests from the
# writers that built one row object per member; every route to a scan line
# must keep these bytes.  Cyclic n = 6 runs two workers, each with its own
# memo, and each counts the 120 tops under its 72 lower prefixes together.
# Deranged n = 5 has looping strategies: a null average in JSON, inf in
# text and empty average columns in CSV.  Inductive n = 7 reads its 108
# tops off one lower prefix, one top at a time, in one process at --jobs 1
# and split between the caller and one worker at --jobs 2 on two CPUs.
SCAN_SHA256 = {
    ("inductive", "6", "1", "csv"): "f4aa402ff14d323a82f7ad75f1aa15d26dc81b9bc62a0e53ebd5ca0f54ff74b9",
    ("cyclic", "5", "1", "csv"): "7a65a86a85443da06ed6d59adcdc7b250d1a88f8e4b6ddbb4453947d819a2d20",
    ("deranged", "5", "1", "csv"): "cd3b8e42327b131782ef74528ca3c560f75e4a88f0de8a2a36fca8fc284cb014",
    ("cyclic", "6", "2", "csv"): "3e850e41ee77741ab281540982a984cbffa68e0bf37f9793acfb2d51f51c5557",
    ("inductive", "6", "1", "json"): "3008588c9912e0126384e675d8ac495c654c3daa55eb35e7189e297065b44b0e",
    ("inductive", "6", "1", "text"): "2b2c971fd198e960e6eefbb594b891dcc693960da1ff10de7816e5588a698e78",
    ("cyclic", "5", "1", "json"): "0dcb3e9289fca3fee574db375d1ced69dd69541a9343dcf8a42dbc2740582b6b",
    ("cyclic", "5", "1", "text"): "bd01f118012c2c3e74de0f06414b9fb06fcc2baafea0d25717d4141f94714c88",
    ("deranged", "5", "1", "json"): "35a45bb12ea045a793b2bb67928ca7a710e4ea7be8cc7f00e9af22234c662b18",
    ("deranged", "5", "1", "text"): "32c764a176032cb9d9b52e7aba66681ce73e18a08f0d45561dc61bee9e91cae3",
    ("inductive", "7", "1", "csv"): "e82324a4922fbf0acc3d01724e539d98ad511c7c87c77d658990d324229ec25a",
    ("inductive", "7", "2", "csv"): "e82324a4922fbf0acc3d01724e539d98ad511c7c87c77d658990d324229ec25a",
}


@pytest.mark.parametrize(
    "kind, n, jobs, fmt",
    [
        pytest.param(*key, id="-".join(key[:2] + key[3:] * (key[3] != "csv")))
        for key in SCAN_SHA256
    ],
)
def test_scan_csv_bytes_are_pinned(capsys, kind, n, jobs, fmt):
    code, out = run(
        capsys, "scan", "--n", n, "--class", kind, "--format", fmt, "--jobs", jobs
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_SHA256[kind, n, jobs, fmt]


@pytest.mark.parametrize("fmt, calls", [("csv", 0), ("json", 1), ("text", 1)])
def test_scan_summary_is_built_only_where_it_is_read(capsys, monkeypatch, fmt, calls):
    """The CSV writer never reads the summary, so a CSV scan never works it
    out; JSON and text read it once.  Once read, it is what ``_summarize``
    gives of the scan's texts, orbits and stats."""
    seen, results = [], []
    summarize, scan = analysis._summarize, analysis.scan

    def counting(*args):
        seen.append(args)
        return summarize(*args)

    def recording(*args, **kw):
        results.append(scan(*args, **kw))
        return results[-1]

    monkeypatch.setattr(analysis, "_summarize", counting)
    monkeypatch.setattr(analysis, "scan", recording)
    code, _ = run(capsys, "scan", "--n", "5", "--class", "deranged", "--format", fmt, "--jobs", "1")
    assert code == 0
    assert len(seen) == calls
    result = results[0]
    assert result.summary == summarize(result.texts, result.orbits, result.stats)
    assert len(seen) == 1


def test_scan_json_schema(capsys):
    code, out = run(
        capsys, "scan", "--n", "4", "--class", "deranged", "--format", "json",
        "--jobs", "1",
    )
    assert code == 0
    payload = json.loads(out)
    validate("scan", payload)
    looped = [row for row in payload["rows"] if row["loops"]]
    assert looped and all(row["average"] is None for row in looped)


def test_scan_json_builds_no_object_per_member():
    # One dict per member, dumped at the end, peaks at 17.7 times the output.
    result = analysis.scan(5, "deranged", jobs=1)
    tracemalloc.start()
    try:
        out = cli._scan_json(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(out)


def _strings(value):
    """Every string in a parsed JSON value, keys included."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


def test_no_json_output_writes_a_rational_as_text(capsys):
    """Every rational is {num, den}: the pinned verify reports, which
    test_report_json_is_pinned holds equal to the code's, avg (a finite and
    an infinite average) and a scan with looping strategies."""
    reports = Path(__file__).resolve().parent / "verify_reports.jsonl"
    payloads = [json.loads(line) for line in reports.read_text().splitlines()]
    for argv in (
        ["avg", "--strategy", "cs", "--n", "4"],
        ["avg", "--strategy", "1;2,1;2,3,1;2,1,4,3"],
        ["scan", "--n", "4", "--class", "deranged", "--jobs", "1"],
    ):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        payloads.append(json.loads(out))
    found = [s for p in payloads for s in _strings(p) if re.fullmatch(r"-?\d+/\d+", s)]
    assert found == []
    assert "num" in {s for p in payloads for s in _strings(p)}


def test_scan_refusal_reports_estimate(capsys):
    code = cli.main(["scan", "--n", "7", "--class", "cyclic"])
    err = capsys.readouterr().err
    assert code == 1
    assert "max_cost" in err and "estimated" in err


@pytest.mark.parametrize("n, kind", [(200, "deranged"), (3000, "cyclic")])
def test_scan_refusal_at_large_n_is_quick(capsys, n, kind):
    """The exact estimate at these sizes has more digits than an int may
    print, and at cyclic n = 3000 takes minutes to compute; the refusal
    must come at once and name the limit."""
    started = time.perf_counter()
    code = cli.main(["scan", "--n", str(n), "--class", kind])
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert code == 1
    assert "max_cost" in err and f"{analysis.DEFAULT_MAX_COST:,}" in err


def test_verify_cli_pass(capsys):
    code, out = run(
        capsys, "verify", "--id", "csl-cubic", "--min", "3", "--max", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate("verify", payload)
    assert payload["status"] == "pass"


def test_verify_cli_requires_min_and_max_together(capsys):
    code = cli.main(["verify", "--id", "csl-cubic", "--min", "3"])
    assert code == 1


def test_verify_cli_failure_exit_two(capsys, monkeypatch):
    failing = VerificationReport("csl-cubic", (3, 3), [
        {"n": 3, "observed": 0, "expected": 1, "ok": False}
    ], "fail", 0.0)
    monkeypatch.setattr(cli, "run_verify", lambda *a, **k: failing)
    code, out = run(capsys, "verify", "--id", "csl-cubic")
    assert code == 2
    assert "FAIL" in out


def test_sequence_cli(capsys):
    code, out = run(capsys, "sequence", "--name", "csl-cubic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("verify", payload)
    assert payload["id"] == "csl-cubic"


def test_tables_1_grid(capsys):
    code, out = run(capsys, "tables", "--which", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("tables", payload)
    assert len(payload["rows"]) == 9
    by_secret = {row["secret"]: row["hits"] for row in payload["rows"]}
    assert by_secret["2,1,4,3"] == [[2, 4], [1, 2, 3, 4]]
    assert by_secret["3,4,1,2"] == [[], []]


def test_tables_2_marks_duplicate(capsys):
    code, out = run(capsys, "tables", "--which", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("tables", payload)
    n4 = [row for row in payload["rows"] if row["n"] == 4]
    n5 = [row for row in payload["rows"] if row["n"] == 5]
    assert len(n4) == 6 and len(n5) == 4
    dupes = [row["top"] for row in payload["rows"] if row["duplicate_in_reference"]]
    assert dupes == ["2,4,1,3"]
    polies = {row["top"]: row["poly"] for row in payload["rows"]}
    assert polies["2,3,4,1"] == "x^4 + 11x^3 + 11x^2 + x"
    assert polies["5,1,2,3,4"] == "5x^6 + 11x^5 + 26x^4 + 51x^3 + 26x^2 + x"


def test_tables_text_and_csv(capsys):
    code, out = run(capsys, "tables", "--which", "1")
    assert code == 0 and "{2,4}" in out
    code, out = run(capsys, "tables", "--which", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,top,poly,duplicate_in_reference"


def test_output_file_and_outdir_env(tmp_path, monkeypatch, capsys):
    target = tmp_path / "gf.json"
    code = cli.main([
        "gf", "--strategy", "cs", "--n", "4", "--format", "json",
        "--output", str(target),
    ])
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text())["n"] == 4

    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code = cli.main([
        "gf", "--strategy", "cs", "--n", "4", "--format", "json",
        "--output", "nested/out.json",
    ])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "nested" / "out.json").exists()


def _child(*argv, unbuffered=True, **kw):
    """``python -m permwordle *argv`` in a child process, with stdout
    unbuffered or not and the rest of ``subprocess.Popen``'s ``kw``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "permwordle", *argv], env=env, **kw)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly_with_exit_one(unbuffered):
    # 3.1 MB of CSV: the child is still writing when the pipe closes.
    proc = _child(
        "scan", "--n", "6", "--class", "cyclic", "--format", "csv", "--jobs", "1",
        unbuffered=unbuffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"strategy_id,n,")
    proc.stdout.close()
    code = proc.wait(timeout=60)
    with proc.stderr:
        assert proc.stderr.read() == b""
    assert code == 1


@pytest.mark.parametrize("where", ["a-directory", "under-a-file"])
def test_unwritable_output_path_is_an_error(tmp_path, where):
    (tmp_path / "file").write_text("")
    target = tmp_path if where == "a-directory" else tmp_path / "file" / "sub" / "gf.json"
    proc = _child("gf", "--strategy", "cs", "--n", "4", "-o", str(target),
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert out == b""
    assert err.startswith(b"error: cannot write ") and err.count(b"\n") == 1
    assert (tmp_path / "file").read_text() == ""


class _ShortWriteFile(io.RawIOBase):
    """A raw file that takes at most 1000 bytes a write, as a pipe does
    when a signal interrupts a large write."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        n = min(len(b), 1000)
        self.data += bytes(b[:n])
        return n


def test_output_is_whole_on_unbuffered_stdout_with_short_writes(monkeypatch):
    raw = _ShortWriteFile()
    # What python -u or PYTHONUNBUFFERED gives: text written through to the raw file.
    stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    text = "1;2,1;2,3,1,4,0\n" * 5000
    cli._write_output(text, argparse.Namespace(output=None))
    stdout.flush()
    assert raw.data == text.encode()


def test_strategy_roundtrip_through_cli_format(capsys):
    _, out = run(capsys, "scan", "--n", "4", "--class", "cyclic", "--format", "json",
                 "--jobs", "1")
    payload = json.loads(out)
    from permwordle import strategies as strat
    for row in payload["rows"]:
        parsed = strat.parse_strategy(row["strategy"])
        assert parsed.text == row["strategy"]


def test_poly_string_edge_cases():
    from permwordle.analysis import GFCoefficients

    gf = GFCoefficients(1, {1: 1}, 0)
    assert cli.poly_string(gf) == "x"
    gf2 = GFCoefficients(2, {1: 1, 2: 1}, 0)
    assert cli.poly_string(gf2) == "x^2 + x"
