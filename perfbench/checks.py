"""Output checks for the benchmark workloads.

They use nothing from permwordle: the closed forms are restated here, and
the scan digests were pinned from the CLI output of the code the benchmark
was defined on.  Each check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from math import factorial

from workloads import Workload

# sha256 of the CSV bytes of `scan --n N --class KIND --format csv`, which
# the CLI guarantees identical for every --jobs.
PINNED_SCAN_SHA256 = {
    ("inductive", 5): "e5b017ee53ff322224e5fae6a6d2a53141fc4d2fea9c1f130a1c1ca89322be55",
    ("cyclic", 5): "7a65a86a85443da06ed6d59adcdc7b250d1a88f8e4b6ddbb4453947d819a2d20",
    ("inductive", 7): "e82324a4922fbf0acc3d01724e539d98ad511c7c87c77d658990d324229ec25a",
    ("cyclic", 6): "3e850e41ee77741ab281540982a984cbffa68e0bf37f9793acfb2d51f51c5557",
}


def a2_count(n: int) -> int:
    """Secrets solved on exactly the second guess, for every strategy."""
    return 2**n - n - 1


def rho1_closed_form(n: int) -> int:
    """Three-guess secrets with a first-guess hit, for strategies whose
    components below the top are right shifts."""
    return 1 - 2 ** (n + 1) + 3**n + (n * n + 5 * n) // 2 - n * 2**n


def _right_shift_prefix(n: int) -> str:
    comps = [[1]] + [list(range(2, k + 1)) + [1] for k in range(2, n)]
    return ";".join(",".join(map(str, c)) for c in comps) + ";"


def _check_coeffs(n: int, coeffs: dict[int, int], loops: int, where: str) -> list[str]:
    problems = []
    if sum(coeffs.values()) + loops != factorial(n):
        problems.append(f"{where}: coefficients and loops do not sum to {n}!")
    if coeffs.get(1) != 1:
        problems.append(f"{where}: a_1 = {coeffs.get(1)}, expected 1")
    if coeffs.get(2) != a2_count(n):
        problems.append(f"{where}: a_2 = {coeffs.get(2)}, expected {a2_count(n)}")
    return problems


def check_scan(workload: Workload, out: bytes) -> list[str]:
    n = workload.n
    digest = hashlib.sha256(out).hexdigest()
    problems = []
    pinned = PINNED_SCAN_SHA256.get((workload.kind, n))
    if digest != pinned:
        problems.append(f"CSV sha256 {digest} differs from the pinned {pinned}")
    try:
        rows = list(csv.DictReader(io.StringIO(out.decode())))
    except (UnicodeDecodeError, csv.Error) as exc:
        return problems + [f"CSV does not parse: {exc}"]
    if len(rows) != workload.strategies:
        problems.append(f"{len(rows)} rows, expected {workload.strategies}")
    inductive_prefix = _right_shift_prefix(n)
    for i, row in enumerate(rows):
        where = f"row {i}"
        try:
            coeffs = {
                int(k[2:]): int(v) for k, v in row.items() if k.startswith("a_")
            }
            loops, rho1, rho3 = int(row["loops"]), int(row["rho1"]), int(row["rho3"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{where}: malformed ({exc!r})")
            continue
        row_problems = _check_coeffs(n, coeffs, loops, where)
        if rho3 != 1:
            row_problems.append(f"{where}: rho3 = {rho3}, expected 1")
        is_inductive = row["strategy_id"].startswith(inductive_prefix)
        if is_inductive and rho1 != rho1_closed_form(n):
            row_problems.append(f"{where}: rho1 = {rho1}, expected {rho1_closed_form(n)}")
        problems += row_problems
        if len(problems) > 20:
            break
    return problems


def parse_gf(out: bytes) -> tuple[int, dict[int, int], int]:
    """(n, coefficients, loops) of a `gf --format json` output."""
    doc = json.loads(out)
    return doc["n"], {int(r): int(a) for r, a in doc["coeffs"].items()}, doc["loops"]


def check_gf(workload: Workload, out: bytes, reference: bytes | None = None) -> list[str]:
    """Checks a gf output; ``reference`` is the decomposition output of the
    same strategy, which a playback output must equal."""
    try:
        n, coeffs, loops = parse_gf(out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"gf JSON does not parse: {exc!r}"]
    if n != workload.n:
        return [f"n = {n}, expected {workload.n}"]
    problems = _check_coeffs(n, coeffs, loops, "gf")
    if loops != 0:
        problems.append(f"gf: {loops} looping secrets, expected 0")
    if reference is not None and parse_gf(reference) != (n, coeffs, loops):
        problems.append("playback generating function differs from the decomposition one")
    return problems


def check(workload: Workload, out: bytes, reference: bytes | None = None) -> list[str]:
    if workload.is_scan:
        return check_scan(workload, out)
    return check_gf(workload, out, reference)


def guesses_total(workload: Workload, out: bytes) -> int:
    """Sum over the output's generating functions of r * a_r."""
    if not workload.is_scan:
        _, coeffs, _ = parse_gf(out)
        return sum(r * a for r, a in coeffs.items())
    total = 0
    for row in csv.DictReader(io.StringIO(out.decode())):
        total += sum(int(k[2:]) * int(v) for k, v in row.items() if k.startswith("a_"))
    return total
