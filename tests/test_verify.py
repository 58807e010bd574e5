import dataclasses
import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from permwordle import analysis, cli, closedform, strategies
from permwordle.verify import (
    SEQUENCE_NAMES,
    THEOREMS,
    ScanCache,
    check_sequence,
    json_value,
    verify,
)

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "docs" / "schemas"


@pytest.fixture(scope="module")
def cache():
    return ScanCache(jobs=2)


def _validate_report(report):
    schema = json.loads((SCHEMA_DIR / "verify.schema.json").read_text())
    jsonschema.validate(report.to_json_dict(), schema)


def test_unknown_id_and_bad_range():
    with pytest.raises(ValueError, match="unknown theorem id"):
        verify("fermat")
    with pytest.raises(ValueError, match="empty range"):
        verify("csl-cubic", (5, 3))
    with pytest.raises(ValueError, match="unknown sequence"):
        check_sequence("A000001")


@pytest.mark.parametrize(
    "theorem_id, n_range",
    [("linquad", (1, 1)), ("avg-optimality", (2, 2)), ("scan-symmetry", (1, 2))],
)
def test_range_outside_every_family_is_refused(theorem_id, n_range, capsys):
    with pytest.raises(ValueError, match="checks no n"):
        verify(theorem_id, n_range)
    lo, hi = n_range
    argv = ["verify", "--id", theorem_id, "--min", str(lo), "--max", str(hi)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "theorem_id, n_range",
    [("rho3", (2, 3)), ("prop-derange", (1, 2)), ("eq-derange-sum", (0, 2))],
)
def test_n_below_the_domain_is_refused(theorem_id, n_range):
    with pytest.raises(ValueError, match="n >= [12]|at least 3"):
        verify(theorem_id, n_range)


def test_range_above_cost_guard_is_refused():
    from permwordle.analysis import ScanCostError

    with pytest.raises(ScanCostError) as info:
        verify("avg-optimality", (3, 7), cache=ScanCache(max_cost=1000))
    assert info.value.estimate > 1000


def test_range_above_cost_guard_is_refused_before_any_scan(monkeypatch):
    """Every scan a range needs is priced before the first one runs, so an
    over-limit n refuses the range without scanning the n below it."""
    scan = analysis.scan
    scanned = []

    def recorder(n, kind, **kwargs):
        scanned.append((n, kind))
        return scan(n, kind, **kwargs)

    monkeypatch.setattr(analysis, "scan", recorder)
    with pytest.raises(analysis.ScanCostError):
        verify("avg-optimality", (3, 7), cache=ScanCache(max_cost=1000))
    assert scanned == []


def test_csl_cubic_report(cache):
    report = verify("csl-cubic", (3, 8), cache=cache)
    assert report.status == "pass"
    assert [row["observed"]["exhaustive"] for row in report.rows] == [
        1, 7, 51, 263, 1100, 4093,
    ]
    _validate_report(report)


def test_eulerian_cs_single_n(cache):
    report = verify("eulerian-cs", (4, 4), cache=cache)
    assert report.status == "pass"
    assert report.rows[0]["observed"]["coefficients"] == [1, 11, 11, 1]
    _validate_report(report)


def test_rho3_small_range(cache):
    report = verify("rho3", (4, 5), cache=cache)
    assert report.status == "pass"
    assert all(row["observed"]["values"] == [1] for row in report.rows)


def test_rho1_small_range(cache):
    report = verify("rho1", (4, 5), cache=cache)
    assert report.status == "pass"
    assert report.rows[0]["observed"]["values"] == [4]
    assert report.rows[1]["observed"]["values"] == [45]


def test_best_and_worst_rho2(cache):
    best = verify("best-rho2", (4, 5), cache=cache)
    worst = verify("worst-rho2", (4, 5), cache=cache)
    assert best.status == "pass" and worst.status == "pass"
    assert best.rows[0]["observed"]["strategies"] == [strategies.cyclic_shift(4).text]
    assert worst.rows[0]["observed"]["strategies"] == [
        strategies.cyclic_shift_left_top(4).text
    ]


def test_json_value_encodes_each_kind_of_value():
    assert json_value(Fraction(7, 2)) == {"num": 7, "den": 2}
    assert json_value(Fraction(2)) == {"num": 2, "den": 1}
    assert json_value(math.inf) is None
    assert json_value(0.5) == 0.5
    # A set is sorted by value, not by its members' encoded form.
    values = {Fraction(10, 3), Fraction(3, 2), Fraction(5, 4)}
    assert json_value(values) == [
        {"num": 5, "den": 4}, {"num": 3, "den": 2}, {"num": 10, "den": 3}
    ]
    assert json_value(frozenset({3, 1, 2})) == [1, 2, 3]
    assert json_value((1, (2, 3), Fraction(1, 2))) == [1, [2, 3], {"num": 1, "den": 2}]
    assert json_value({1: "a", 2: (True, None)}) == {"1": "a", "2": [True, None]}
    for value in (True, False, None, 0, 12, "3/2"):
        assert json_value(value) is value
    # Encoding twice changes nothing, so a payload of encoded rows may be
    # encoded again as a whole.
    payload = {"x": [Fraction(1, 3), math.inf, {4}], 5: {"k": (1,)}}
    assert json_value(json_value(payload)) == json_value(payload)


def test_prop_derange_is_erratum_noted(cache):
    report = verify("prop-derange", (3, 5), cache=cache)
    assert report.status == "erratum-noted"
    assert report.ok
    assert any("n/(n-1)" in note for note in report.notes)
    for row in report.rows:
        n = row["n"]
        expected = {"num": n, "den": n - 1}
        assert row["observed"]["averages"] == [expected]
        assert row["expected"] == expected
    _validate_report(report)


def test_eq_derange_sum(cache):
    report = verify("eq-derange-sum", (1, 6), cache=cache)
    assert report.status == "pass"
    assert [row["observed"] for row in report.rows] == [0, 2, 3, 12, 55, 318]


def test_linquad_small(cache):
    report = verify("linquad", (3, 4), cache=cache)
    assert report.status == "pass"
    labels = {(row["label"], row["n"]) for row in report.rows}
    assert labels == {
        ("cyclic", 3), ("cyclic", 4),
        ("deranged", 3), ("deranged", 4),
        ("inductive", 3), ("inductive", 4),
    }
    _validate_report(report)


def test_scan_symmetry_small(cache):
    report = verify("scan-symmetry", (3, 4), cache=cache)
    assert report.status == "pass"
    observed = {(row["label"], row["n"]): row["observed"] for row in report.rows}
    assert observed == {
        ("cyclic", 3): {"strategies": 2, "evaluated": 1, "mismatches": 0},
        ("cyclic", 4): {"strategies": 12, "evaluated": 6, "mismatches": 0},
        ("deranged", 3): {"strategies": 2, "evaluated": 1, "mismatches": 0},
        ("deranged", 4): {"strategies": 18, "evaluated": 9, "mismatches": 0},
        ("inductive", 3): {"strategies": 2, "evaluated": 2, "mismatches": 0},
        ("inductive", 4): {"strategies": 6, "evaluated": 3, "mismatches": 0},
    }
    _validate_report(report)


def test_scan_symmetry_fails_on_a_wrong_orbit_map(monkeypatch):
    """Send every inductive top to the right shift: the copied rows then
    disagree with per-strategy decomposition and the check must fail."""
    orbit_map = analysis._orbit_map

    def wrong(kind, pools):
        if kind == "inductive":
            n = len(pools)
            members = strategies.count_strategies(n, kind)
            right = strategies.cyclic_shift(n).components
            return [0] * members, [right[:-1]], [right[-1]]
        return orbit_map(kind, pools)

    monkeypatch.setattr(analysis, "_orbit_map", wrong)
    report = verify("scan-symmetry", (4, 5), cache=ScanCache(jobs=1))
    assert report.status == "fail"
    failed = {(row["label"], row["n"]) for row in report.rows if not row["ok"]}
    assert failed == {("inductive", 4), ("inductive", 5)}
    _validate_report(report)


@pytest.mark.parametrize("kind, n", [("cyclic", 4), ("inductive", 5)])
def test_scan_checks_name_every_failing_member(kind, n):
    """Move one unit of a_2 to a_3 in the last member's orbit, and give two
    other orbits a guess-two count above the maximum and below the minimum:
    linquad must name that orbit's first member in scan order, and
    best-/worst-rho2 must list every member of the other two."""
    result = analysis.scan(n, kind, jobs=1)
    members = {}
    for text, orbit in zip(result.texts, result.orbits):
        members.setdefault(orbit, []).append(text)
    wrong = result.orbits[-1]
    high, low = [o for o in sorted(members, key=lambda o: -len(members[o])) if o != wrong][:2]
    # Edited copies of the columns: counts[t] holds a_(t + 1).
    counts = {t: column[:] for t, column in result.stats.counts.items()}
    counts[1][wrong] -= 1
    counts[2][wrong] += 1
    rho = tuple(column[:] for column in result.stats.rho)
    extremes = {"best-rho2": (high, max(rho[1]) + 1), "worst-rho2": (low, min(rho[1]) - 1)}
    for orbit, value in extremes.values():
        rho[1][orbit] = value
    broken = dataclasses.replace(result, stats=analysis.OrbitColumns(n, counts, rho))
    observed, _, ok = THEOREMS["linquad"].row(n, broken)
    assert not ok
    assert observed["first_counterexample"] == members[wrong][0]
    assert observed["strategies_checked"] == len(result.texts)
    for name, (orbit, value) in extremes.items():
        observed, _, ok = THEOREMS[name].row(n, broken)
        assert not ok
        assert observed == {"value": value, "strategies": tuple(members[orbit])}
        assert len(members[orbit]) > 1


def test_avg_optimality_records_reflection_tie(cache):
    report = verify("avg-optimality", (3, 4), cache=cache)
    assert report.status == "pass"
    cs4 = strategies.cyclic_shift(4).text
    mirror4 = strategies.mirror(strategies.cyclic_shift(4)).text
    rows = {(row["label"], row["n"]): row for row in report.rows}
    assert rows[("cyclic", 4)]["observed"]["strategies"] == sorted([cs4, mirror4])
    assert rows[("inductive", 4)]["observed"]["strategies"] == [cs4]
    assert rows[("inductive", 3)]["observed"]["strategies"] == sorted(
        [strategies.cyclic_shift(3).text, strategies.mirror(strategies.cyclic_shift(3)).text]
    )
    assert any("reflection" in note for note in report.notes)
    _validate_report(report)


def test_conjecture_cubic_deranged_n4(cache):
    report = verify("conjecture-cubic-deranged", (4, 4), cache=cache)
    assert report.status == "pass"
    row = report.rows[0]
    assert row["observed"]["value"] == 11
    assert len(row["observed"]["strategies"]) == 2


def test_der2ex_and_rho2_counts(cache):
    assert verify("der2ex", (3, 6), cache=cache).status == "pass"
    assert verify("cs-rho2", (4, 6), cache=cache).status == "pass"
    assert verify("csl-rho2", (4, 6), cache=cache).status == "pass"


@pytest.mark.parametrize("name", SEQUENCE_NAMES)
def test_check_sequence(name):
    report = check_sequence(name)
    assert report.status == "pass"
    table = closedform.REFERENCE_SEQUENCES[name]
    assert report.n_range == (table.offset, table.offset + len(table.values) - 1)
    assert [row["n"] for row in report.rows] == list(range(report.n_range[0], report.n_range[1] + 1))
    _validate_report(report)


def test_reports_are_deterministic(cache):
    a = verify("csl-cubic", (3, 5), cache=cache)
    b = verify("csl-cubic", (3, 5), cache=cache)
    assert a.rows == b.rows
    assert a.status == b.status
    assert a.notes == b.notes


def test_every_registered_id_has_default_range_or_families():
    for theorem_id, check in THEOREMS.items():
        assert check.description
        assert callable(check.row)
        assert (check.range is None) != (not check.families)
        if check.range is not None:
            lo, hi = check.range
            assert lo <= hi


def test_to_text_contains_rows(cache):
    report = verify("cs-rho2", (4, 5), cache=cache)
    text = report.to_text()
    assert "cs-rho2" in text and "n=4" in text and "PASS" in text


# One compact JSON report per line, "seconds" left out: every verify id at a
# small range, plus the sequences that are not also verify ids.
_PINNED_LINES = (ROOT / "tests" / "verify_reports.jsonl").read_text().splitlines()
PINNED_REPORTS = {report["id"]: report for report in map(json.loads, _PINNED_LINES)}


@pytest.mark.parametrize("name", [*THEOREMS, "A284843", "A385588-prefix"])
def test_report_json_is_pinned(name, cache):
    pinned = PINNED_REPORTS[name]
    if name in THEOREMS:
        report = verify(name, tuple(pinned["range"]), cache=cache)
    else:
        report = check_sequence(name)
    payload = report.to_json_dict()
    del payload["seconds"]
    assert json.dumps(payload) == json.dumps(pinned)


def _readme_table_names(heading):
    """Backquoted names in the first column of the table under ``heading``."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split(f"\n## {heading}\n")[1].split("\n## ")[0]
    cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    return {name for cell in cells for name in re.findall(r"`([^`]+)`", cell)}


def test_readme_lists_every_check_and_sequence():
    assert _readme_table_names("Verification checks") == set(THEOREMS)
    assert _readme_table_names("Reference sequences") == set(SEQUENCE_NAMES)


def _readme_commands():
    """``permwordle ...`` lines of the README's fenced blocks and inline
    code spans; a ``...`` marks a placeholder, not a runnable example."""
    parts = (ROOT / "README.md").read_text().split("```")
    fenced = [line for block in parts[1::2] for line in block.splitlines()]
    inline = [code for prose in parts[::2] for code in re.findall(r"`([^`\n]+)`", prose)]
    return [
        command
        for command in fenced + inline
        if command.startswith("permwordle ") and "..." not in command
    ]


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert commands
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_python_example_runs():
    """The README's library example runs, and its comments hold."""
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    code = [block.removeprefix("python\n") for block in blocks if block.startswith("python\n")]
    assert len(code) == 1
    namespace = {}
    exec(code[0], namespace)
    assert namespace["trace"].solved and namespace["trace"].rounds == 3
    assert namespace["gf"].coeffs == {1: 1, 2: 26, 3: 66, 4: 26, 5: 1}
    result = namespace["result"]
    assert len(result.texts) == 24 and len(result.stats) == 8
    assert namespace["text"] == "1;2,1;2,3,1;2,3,4,1;2,3,4,5,1" == strategies.cyclic_shift(5).text
    assert namespace["stats"][2] == 3


@pytest.mark.parametrize("jobs", [0, -3])
def test_scan_cache_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError):
        ScanCache(jobs=jobs)
