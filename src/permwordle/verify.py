"""Theorem-by-theorem computational verification.

Every check regenerates its quantities from first principles (full scans,
direct playback, or exhaustive enumeration) and compares them against the
closed forms and reference sequences in :mod:`permwordle.closedform`.
Dominance checks record the complete extrema set rather than a boolean, so
a report shows exactly which strategies attain each optimum.

Two quirks of the source material are handled explicitly:

* the prose value for the second-guess average disagrees with the proven
  n/(n-1); the computation confirms n/(n-1) and the passing report carries
  the status "erratum-noted" instead of plain "pass";
* every strategy ties its reflection conjugate (see
  :func:`permwordle.strategies.mirror`), so optimality over the cyclic and
  deranged families is unique only up to that reflection.  Reports list
  both attainers and note the tie; within the inductive family (length
  >= 4) the reflection leaves the family and the optima are unique.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import analysis, closedform, perms, strategies
from .analysis import DEFAULT_MAX_COST, ScanResult
from .engine import SubgameMemo, solve_rounds


def _json_safe(value):
    """Rows are built from exact values; this maps them to JSON-stable ones."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return "inf" if value == float("inf") else value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


@dataclass
class VerificationReport:
    """Outcome of one check: per-n evidence rows plus an overall status."""

    theorem_id: str
    n_range: tuple[int, int]
    rows: list[dict]
    status: str  # "pass", "fail", or "erratum-noted"
    seconds: float
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "erratum-noted")

    def to_json_dict(self) -> dict:
        return {
            "id": self.theorem_id,
            "range": [self.n_range[0], self.n_range[1]],
            "rows": self.rows,
            "status": self.status,
            "seconds": round(self.seconds, 3),
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [
            f"{self.theorem_id}  range {self.n_range[0]}..{self.n_range[1]}  "
            f"status {self.status.upper()}  ({self.seconds:.2f}s)"
        ]
        for row in self.rows:
            label = f" [{row['label']}]" if "label" in row else ""
            mark = "ok" if row["ok"] else "FAIL"
            lines.append(
                f"  n={row['n']}{label}: observed {row['observed']} "
                f"expected {row['expected']}  {mark}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class ScanCache:
    """Memoizes scans so several checks in one session share the heavy work."""

    def __init__(self, jobs: int = 1, max_cost: int = DEFAULT_MAX_COST) -> None:
        self.jobs = jobs
        self.max_cost = max_cost
        self._scans: dict[tuple[int, str], ScanResult] = {}

    def scan(self, n: int, kind: str) -> ScanResult:
        key = (n, kind)
        if key not in self._scans:
            self._scans[key] = analysis.scan(
                n, kind, jobs=self.jobs, max_cost=self.max_cost
            )
        return self._scans[key]


def _row(n: int, observed, expected, ok: bool, label: str | None = None) -> dict:
    row = {"n": n, "observed": _json_safe(observed), "expected": _json_safe(expected), "ok": ok}
    if label is not None:
        row["label"] = label
    return row


def _cs_id(n: int) -> str:
    return strategies.cyclic_shift(n).text


def _mirror_cs_id(n: int) -> str:
    return strategies.mirror(strategies.cyclic_shift(n)).text


MIRROR_TIE_NOTE = (
    "every strategy shares its generating function with its reflection "
    "conjugate, so optima over the cyclic and deranged families are attained "
    "by exactly the right-shift strategy and its mirror"
)

AVERAGE_ERRATUM_NOTE = (
    "known erratum in the source text: the prose states the average as "
    "(n-1)/n, while the stated result and this computation give n/(n-1)"
)


def _check_prop_derange(lo: int, hi: int, cache: ScanCache):
    """Second-guess hit average over derangement secrets is n/(n-1) for
    every deranged component, checked component by component."""
    if lo < 2:
        raise ValueError(f"prop-derange needs n >= 2, got n={lo}")
    rows = []
    for n in range(lo, hi + 1):
        d_n = closedform.derangement_count(n)
        expected_sum = n * (
            closedform.derangement_count(n - 1) + closedform.derangement_count(n - 2)
        )
        # counts[q][v] = derangements with value v at position q+1; one pass
        # over D_n then lets each component's match total be read off.
        counts = [[0] * (n + 1) for _ in range(n)]
        pool = list(perms.enumerate_perms(n, "derangements"))
        for d in pool:
            for q, v in enumerate(d):
                counts[q][v] += 1
        sums = set()
        first_bad = None
        for delta in pool:
            guess = perms.invert(delta)
            total = sum(counts[q][v] for q, v in enumerate(guess))
            sums.add(total)
            if total != expected_sum and first_bad is None:
                first_bad = delta
        ok = sums == {expected_sum}
        observed = {
            "averages": {str(Fraction(s, d_n)) for s in sums},
            "components_checked": d_n,
        }
        if first_bad is not None:
            observed["first_counterexample"] = perms.format_perm(first_bad)
        rows.append(_row(n, observed, str(Fraction(n, n - 1)), ok))
    return rows, (AVERAGE_ERRATUM_NOTE,)


def _check_eq_derange_sum(lo: int, hi: int, cache: ScanCache):
    """Total second-guess hits against a fixed deranged component, summed
    over all derangement secrets; regenerated by enumeration and compared
    to the reference sequence 0, 2, 3, 12, 55, 318, 2163, 16952."""
    table = closedform.DERANGEMENT_MATCH_TOTALS
    rows = []
    for n in range(lo, hi + 1):
        if n == 1:
            observed = formula = 0
        else:
            delta = next(perms.enumerate_perms(n, "derangements"))
            d_n = closedform.derangement_count(n)
            observed = int(analysis.average_j2_over_derangements(delta) * d_n)
            formula = n * (
                closedform.derangement_count(n - 1) + closedform.derangement_count(n - 2)
            )
        expected = table.value(n) if n <= 8 else formula
        rows.append(_row(n, observed, expected, observed == expected == formula))
    return rows, ()


def _family_ns(families, lo: int | None, hi: int | None):
    """(family, n) over each family's default range, clipped below by lo
    and replaced above by hi when a range is given."""
    for family, fam_lo, fam_hi in families:
        run_lo = fam_lo if lo is None else max(lo, fam_lo)
        run_hi = fam_hi if hi is None else hi
        for n in range(run_lo, run_hi + 1):
            yield family, n


_LINQUAD_FAMILIES = (("cyclic", 2, 6), ("deranged", 2, 5), ("inductive", 3, 8))


def _check_linquad(lo: int | None, hi: int | None, cache: ScanCache):
    """a_1 = 1 and a_2 = 2^n - n - 1 for every strategy in each family."""
    rows = []
    for family, n in _family_ns(_LINQUAD_FAMILIES, lo, hi):
        result = cache.scan(n, family)
        a1 = {row.gf.coefficient(1) for row in result.rows}
        a2 = {row.gf.coefficient(2) for row in result.rows}
        expected = {"a1": 1, "a2": closedform.eulerian_second(n)}
        ok = a1 == {1} and a2 == {expected["a2"]}
        observed = {"a1": a1, "a2": a2, "strategies_checked": len(result.rows)}
        if not ok:
            observed["first_counterexample"] = next(
                row.strategy_id
                for row in result.rows
                if row.gf.coefficient(1) != 1 or row.gf.coefficient(2) != expected["a2"]
            )
        rows.append(_row(n, observed, expected, ok, label=family))
    return rows, ()


def _check_eulerian_cs(lo: int, hi: int, cache: ScanCache):
    """Full playback of every secret under the right-shift strategy: the
    guess-count distribution must be the Eulerian row, and each individual
    secret must take excedances + 1 guesses."""
    rows = []
    for n in range(lo, hi + 1):
        cs = strategies.cyclic_shift(n)
        coeffs: dict[int, int] = {}
        law_breaks = 0
        first_bad = None
        for secret in perms.enumerate_perms(n):
            r = solve_rounds(secret, cs)
            coeffs[r] = coeffs.get(r, 0) + 1
            if r != perms.excedance_count(secret) + 1:
                law_breaks += 1
                if first_bad is None:
                    first_bad = secret
        observed_row = tuple(coeffs.get(r, 0) for r in range(1, n + 1))
        expected_row = tuple(closedform.eulerian(n, r - 1) for r in range(1, n + 1))
        ok = observed_row == expected_row and law_breaks == 0 and sum(coeffs.values()) == sum(expected_row)
        observed = {"coefficients": observed_row, "per_secret_law_violations": law_breaks}
        if first_bad is not None:
            observed["first_counterexample"] = perms.format_perm(first_bad)
        rows.append(_row(n, observed, {"coefficients": expected_row, "per_secret_law_violations": 0}, ok))
    return rows, ()


def _check_scan_value(lo: int, hi: int, cache: ScanCache, *, family, index, forms):
    """Every strategy of ``family`` has the same ``rho[index]``, equal to
    each closed form in ``forms``."""
    rows = []
    for n in range(lo, hi + 1):
        expected = forms[0](n)
        result = cache.scan(n, family)
        values = {row.rho[index] for row in result.rows}
        ok = values == {expected} and all(form(n) == expected for form in forms)
        observed = {"values": values, "strategies_checked": len(result.rows)}
        rows.append(_row(n, observed, expected, ok))
    return rows, ()


def _check_der2ex(lo: int, hi: int, cache: ScanCache):
    """Derangement secrets solved by right shift in exactly three guesses
    number 2^n - (2n + 1)."""
    rows = []
    for n in range(lo, hi + 1):
        _, rho = analysis.decomposition_stats(strategies.cyclic_shift(n))
        observed = rho[2] + rho[3]  # derangements with subgame value 2
        expected = closedform.der2ex_count(n)
        rows.append(_row(n, observed, expected, observed == expected))
    return rows, ()


def _check_rho2(lo: int, hi: int, cache: ScanCache, *, strategy, closed):
    """The guess-two first-hit count of ``strategy(n)`` by decomposition,
    against its closed form."""
    rows = []
    for n in range(lo, hi + 1):
        _, rho = analysis.decomposition_stats(strategy(n))
        expected = closed(n)
        rows.append(_row(n, rho[2], expected, rho[2] == expected))
    return rows, ()


def _check_rho2_extreme(lo: int, hi: int, cache: ScanCache, *, pick, strategy, closed):
    """``strategy(n)`` alone attains the extreme (``pick`` is max or min)
    first-hit-on-guess-two count over all inductive strategies."""
    rows = []
    for n in range(lo, hi + 1):
        result = cache.scan(n, "inductive")
        value = pick(row.rho[2] for row in result.rows)
        ids = tuple(row.strategy_id for row in result.rows if row.rho[2] == value)
        attainer = strategy(n).text
        expected = {"value": closed(n), "strategies": [attainer]}
        ok = value == closed(n) and ids == (attainer,)
        rows.append(_row(n, {"value": value, "strategies": ids}, expected, ok))
    return rows, ()


# The two strategies the guess-two first-hit checks are about, each with
# its closed-form count.
_CS_RHO2 = {"strategy": strategies.cyclic_shift, "closed": closedform.cs_rho2_count}
_CSL_RHO2 = {
    "strategy": strategies.cyclic_shift_left_top,
    "closed": closedform.csl_rho2_count,
}


def _check_csl_cubic(lo: int, hi: int, cache: ScanCache):
    """Closed form and exhaustive evaluation of the left-shift-top cubic
    coefficient, against the reference list 1, 7, 51, 263, 1100, 4093."""
    table = closedform.CSL_CUBIC_SEQUENCE
    rows = []
    for n in range(lo, hi + 1):
        closed = closedform.csl_cubic(n)
        brute = analysis.generating_function(
            strategies.cyclic_shift_left_top(n)
        ).coefficient(3)
        expected = table.value(n) if n <= 8 else closed
        ok = closed == brute == expected
        rows.append(_row(n, {"closed_form": closed, "exhaustive": brute}, expected, ok))
    return rows, ()


def _check_conjecture_cubic_deranged(lo: int, hi: int, cache: ScanCache):
    """Right shift maximizes the cubic coefficient over the whole deranged
    family; the maximum is shared with (exactly) the reflection conjugate."""
    rows = []
    for n in range(lo, hi + 1):
        result = cache.scan(n, "deranged")
        best = result.summary.max_a3
        expected = {
            "value": closedform.eulerian(n, 2),
            "strategies": sorted((_cs_id(n), _mirror_cs_id(n))),
        }
        observed = {"value": best.value, "strategies": sorted(best.strategy_ids)}
        ok = observed == expected
        rows.append(_row(n, observed, expected, ok))
    return rows, (MIRROR_TIE_NOTE,)


_AVG_FAMILIES = (("cyclic", 3, 6), ("deranged", 3, 5), ("inductive", 3, 8))


def _check_avg_optimality(lo: int | None, hi: int | None, cache: ScanCache):
    """Right shift attains the minimum average guess count in every family.

    Within the inductive family the minimum is unique for n >= 4; in the
    cyclic and deranged families (and at n = 3, where all three families
    coincide) it is shared with exactly the reflection conjugate.
    """
    rows = []
    for family, n in _family_ns(_AVG_FAMILIES, lo, hi):
        best = cache.scan(n, family).summary.min_average
        if family == "inductive" and n >= 4:
            expected_ids = [_cs_id(n)]
        else:
            expected_ids = sorted((_cs_id(n), _mirror_cs_id(n)))
        observed = {"min_average": best.value, "strategies": sorted(best.strategy_ids)}
        ok = sorted(best.strategy_ids) == expected_ids
        rows.append(_row(n, observed, {"strategies": expected_ids}, ok, label=family))
    return rows, (MIRROR_TIE_NOTE,)


_SYMMETRY_FAMILIES = (("cyclic", 3, 5), ("deranged", 3, 5), ("inductive", 3, 7))


def _check_scan_symmetry(lo: int | None, hi: int | None, cache: ScanCache):
    """A scan evaluates one strategy per rotation (inductive) or mirror
    (cyclic, deranged) orbit and builds the other rows from it; every row
    must equal the one its own strategy's decomposition gives."""
    rows = []
    for family, n in _family_ns(_SYMMETRY_FAMILIES, lo, hi):
        result = cache.scan(n, family)
        members = list(strategies.enumerate_strategies(n, family))
        memo = SubgameMemo()
        bad = []
        for index, (row, strategy) in enumerate(zip(result.rows, members)):
            gf, rho = analysis.decomposition_stats(strategy, memo)
            own = (index, strategy.text, gf, analysis.average_guesses(gf), rho)
            if (row.index, row.strategy_id, row.gf, row.average, row.rho) != own:
                bad.append(strategy.text)
        mismatches = len(bad) + abs(len(result.rows) - len(members))
        observed = {
            "strategies": len(members),
            "evaluated": len({analysis._canonical(s, family) for s in members}),
            "mismatches": mismatches,
        }
        if bad:
            observed["first_counterexample"] = bad[0]
        rows.append(_row(n, observed, {"mismatches": 0}, mismatches == 0, label=family))
    return rows, ()


_Check = Callable[..., tuple[list[dict], tuple[str, ...]]]

# id -> (check, default range, one-line description).  A None range means
# the check runs per-family defaults (see the check's docstring).
THEOREMS: dict[str, tuple[_Check, tuple[int, int] | None, str]] = {
    "prop-derange": (_check_prop_derange, (3, 7), "second-guess hit average is n/(n-1) for every deranged component"),
    "eq-derange-sum": (_check_eq_derange_sum, (1, 8), "sum of second-guess hits over derangements matches 0,2,3,12,55,..."),
    "linquad": (_check_linquad, None, "a_1 = 1 and a_2 = 2^n - n - 1 over entire strategy families"),
    "eulerian-cs": (_check_eulerian_cs, (1, 8), "right-shift guess counts follow the Eulerian numbers (full playback)"),
    "rho1": (partial(_check_scan_value, family="inductive", index=1, forms=(closedform.rho1_closed_form, closedform.rho1_binomial_sum)), (4, 7), "first-hit-on-guess-one count is strategy-independent and closed-form"),
    "der2ex": (_check_der2ex, (3, 8), "derangements solved in three guesses number 2^n - (2n+1)"),
    "rho3": (partial(_check_scan_value, family="cyclic", index=3, forms=(closedform.rho3_count,)), (4, 6), "exactly one secret is first hit on guess three, for every cyclic strategy"),
    "cs-rho2": (partial(_check_rho2, **_CS_RHO2), (4, 8), "right-shift first-hit-on-guess-two count is 2^n - 2n - 2"),
    "best-rho2": (partial(_check_rho2_extreme, pick=max, **_CS_RHO2), (4, 7), "right shift uniquely maximizes the guess-two first-hit count (inductive)"),
    "csl-rho2": (partial(_check_rho2, **_CSL_RHO2), (4, 8), "left-shift-top guess-two first-hit count is L_n - n - 1"),
    "worst-rho2": (partial(_check_rho2_extreme, pick=min, **_CSL_RHO2), (4, 7), "left-shift-top uniquely minimizes the guess-two first-hit count (inductive)"),
    "csl-cubic": (_check_csl_cubic, (3, 8), "left-shift-top cubic coefficient matches 1,7,51,263,1100,4093"),
    "conjecture-cubic-deranged": (_check_conjecture_cubic_deranged, (4, 5), "right shift maximizes the cubic coefficient over deranged strategies"),
    "avg-optimality": (_check_avg_optimality, None, "right shift minimizes the average guess count in every family"),
    "scan-symmetry": (_check_scan_symmetry, None, "scans that evaluate one strategy per rotation or mirror orbit equal per-strategy decomposition"),
}


def _check_rho1_prefix(lo: int, hi: int, cache: ScanCache):
    """Right-shift guess-one first-hit count by playback, against the
    binomial sum and the reference prefix 0, 4, 45."""
    rows = []
    for n in range(lo, hi + 1):
        binom = closedform.rho1_binomial_sum(n)
        brute = analysis.rho_class_counts(strategies.cyclic_shift(n))[1]
        expected = closedform.RHO1_PREFIX.value(n)
        ok = binom == brute == expected
        rows.append(_row(n, {"binomial_sum": binom, "playback": brute}, expected, ok))
    return rows, ()


# name -> (check, range): each reference sequence of closedform, regenerated
# over the n its table stores.
SEQUENCES: dict[str, tuple[_Check, tuple[int, int]]] = {
    "A284843": (_check_eq_derange_sum, (1, 8)),
    "csl-cubic": (_check_csl_cubic, (3, 8)),
    "A385588-prefix": (_check_rho1_prefix, (3, 5)),
}
SEQUENCE_NAMES = tuple(closedform.REFERENCE_SEQUENCES)


def _run(
    name: str, check: _Check, lo: int | None, hi: int | None, cache: ScanCache
) -> VerificationReport:
    """Time one check over lo..hi (None: the check's per-family defaults)
    and build its report.  A range that gives no rows is refused."""
    started = time.perf_counter()
    rows, notes = check(lo, hi, cache)
    seconds = time.perf_counter() - started
    if not rows:
        raise ValueError(f"{name} checks no n in range {lo}..{hi}")
    if not all(row["ok"] for row in rows):
        status = "fail"
    elif AVERAGE_ERRATUM_NOTE in notes:
        status = "erratum-noted"
    else:
        status = "pass"
    if lo is None:
        lo = min(row["n"] for row in rows)
        hi = max(row["n"] for row in rows)
    return VerificationReport(name, (lo, hi), rows, status, seconds, notes)


def verify(
    theorem_id: str,
    n_range: tuple[int, int] | None = None,
    *,
    cache: ScanCache | None = None,
    jobs: int = 1,
    max_cost: int = DEFAULT_MAX_COST,
) -> VerificationReport:
    """Run one named check over an n range (defaults mirror the verified
    scales) and return its report.  Unknown ids and oversized ranges raise."""
    if theorem_id not in THEOREMS:
        known = ", ".join(sorted(THEOREMS))
        raise ValueError(f"unknown theorem id {theorem_id!r}; known ids: {known}")
    check, default_range, _ = THEOREMS[theorem_id]
    if n_range is None:
        lo, hi = default_range if default_range is not None else (None, None)
    else:
        lo, hi = n_range
        if lo > hi:
            raise ValueError(f"empty range {lo}..{hi}")
    return _run(theorem_id, check, lo, hi, cache or ScanCache(jobs=jobs, max_cost=max_cost))


def check_sequence(name: str, *, cache: ScanCache | None = None) -> VerificationReport:
    """Regenerate a reference sequence from first principles and compare it
    to the hardcoded table."""
    if name not in SEQUENCES:
        known = ", ".join(SEQUENCE_NAMES)
        raise ValueError(f"unknown sequence {name!r}; known names: {known}")
    check, (lo, hi) = SEQUENCES[name]
    return _run(name, check, lo, hi, cache or ScanCache())
