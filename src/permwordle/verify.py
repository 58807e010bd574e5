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

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isinf
from typing import Callable

from . import analysis, closedform, perms, strategies
from .analysis import DEFAULT_MAX_COST, ScanResult, column_extreme, flagged_members
from .engine import solve_rounds


def json_value(value):
    """The one JSON form of every value a command writes.

    A ``Fraction`` becomes ``{"num", "den"}`` and an infinite float (the
    average of a strategy that loops) ``null``.  Dict keys become strings,
    a set becomes its members sorted by value, and a tuple a list.
    """
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, float) and isinf(value):
        return None
    if isinstance(value, dict):
        return {str(k): json_value(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return [json_value(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    return value


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
        if jobs < 1:
            raise ValueError(f"jobs must be a positive integer, not {jobs!r}")
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


# Row functions: each checks one n and returns (observed, expected, ok).
# A scan check also takes the family's ScanResult at that n.


def _prop_derange_row(n: int):
    """Second-guess hit average over derangement secrets is n/(n-1) for
    every deranged component, checked component by component."""
    if n < 2:
        raise ValueError(f"prop-derange needs n >= 2, got n={n}")
    d_n = closedform.derangement_count(n)
    expected = Fraction(closedform.derangement_match_total(n), d_n)
    averages = set()
    first_bad = None
    for delta in perms.enumerate_perms(n, "derangements"):
        average = analysis.average_j2_over_derangements(delta)
        averages.add(average)
        if average != expected and first_bad is None:
            first_bad = delta
    observed = {"averages": averages, "components_checked": d_n}
    if first_bad is not None:
        observed["first_counterexample"] = perms.format_perm(first_bad)
    return observed, Fraction(n, n - 1), averages == {expected}


def _eq_derange_sum_row(n: int):
    """Total second-guess hits against a fixed deranged component, summed
    over all derangement secrets; regenerated by enumeration and compared
    to the reference sequence 0, 2, 3, 12, 55, 318, 2163, 16952."""
    if n < 1:
        raise ValueError(f"eq-derange-sum needs n >= 1, got n={n}")
    formula = closedform.derangement_match_total(n)
    if n == 1:
        observed = 0  # D_1 is empty: there is no deranged component
    else:
        delta = next(perms.enumerate_perms(n, "derangements"))
        d_n = closedform.derangement_count(n)
        observed = int(analysis.average_j2_over_derangements(delta) * d_n)
    expected = closedform.DERANGEMENT_MATCH_TOTALS.value(n) if n <= 8 else formula
    return observed, expected, observed == expected == formula


def _linquad_row(n: int, result: ScanResult):
    """a_1 = 1 and a_2 = 2^n - n - 1 for every strategy in the family."""
    expected = {"a1": 1, "a2": closedform.eulerian_second(n)}
    # a_1 = 1 in every orbit is also checked when the scan's columns are joined.
    a1, a2 = set(result.stats.coefficient(1)), result.stats.coefficient(2)
    ok = a1 == {1} and set(a2) == {expected["a2"]}
    observed = {"a1": a1, "a2": set(a2), "strategies_checked": len(result.texts)}
    if not ok:
        bad = list(map(expected["a2"].__ne__, a2))
        observed["first_counterexample"] = flagged_members(result.texts, result.orbits, bad)[0]
    return observed, expected, ok


def _eulerian_cs_row(n: int):
    """Full playback of every secret under the right-shift strategy: the
    guess-count distribution must be the Eulerian row, and each individual
    secret must take excedances + 1 guesses."""
    cs = strategies.cyclic_shift(n)
    coeffs: dict[int, int] = {}
    law_breaks = 0
    first_bad = None
    for secret in perms.enumerate_perms(n):
        r, _ = solve_rounds(secret, cs)
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
    return observed, {"coefficients": expected_row, "per_secret_law_violations": 0}, ok


def _scan_value_row(n: int, result: ScanResult, *, index, forms):
    """Every strategy of the family has the same ``rho[index]``, equal to
    each closed form in ``forms``."""
    expected = forms[0](n)
    values = set(result.stats.rho[index - 1])
    ok = values == {expected} and all(form(n) == expected for form in forms)
    return {"values": values, "strategies_checked": len(result.texts)}, expected, ok


def _der2ex_row(n: int):
    """Derangement secrets solved by right shift in exactly three guesses
    number 2^n - (2n + 1)."""
    _, rho = analysis.decomposition_stats(strategies.cyclic_shift(n))
    observed = rho[2] + rho[3]  # derangements with subgame value 2
    expected = closedform.der2ex_count(n)
    return observed, expected, observed == expected


def _rho2_row(n: int, *, strategy, closed):
    """The guess-two first-hit count of ``strategy(n)`` by decomposition,
    against its closed form."""
    _, rho = analysis.decomposition_stats(strategy(n))
    return rho[2], closed(n), rho[2] == closed(n)


def _rho2_extreme_row(n: int, result: ScanResult, *, pick, strategy, closed):
    """``strategy(n)`` alone attains the extreme (``pick`` is max or min)
    first-hit-on-guess-two count over all inductive strategies."""
    best = column_extreme(result.texts, result.orbits, result.stats.rho[1], pick)
    attainer = strategy(n).text
    expected = {"value": closed(n), "strategies": [attainer]}
    ok = best.value == closed(n) and best.strategy_ids == (attainer,)
    return {"value": best.value, "strategies": best.strategy_ids}, expected, ok


# The two strategies the guess-two first-hit checks are about, each with
# its closed-form count.
_CS_RHO2 = {"strategy": strategies.cyclic_shift, "closed": closedform.cs_rho2_count}
_CSL_RHO2 = {
    "strategy": strategies.cyclic_shift_left_top,
    "closed": closedform.csl_rho2_count,
}


def _csl_cubic_row(n: int):
    """Closed form and exhaustive evaluation of the left-shift-top cubic
    coefficient, against the reference list 1, 7, 51, 263, 1100, 4093."""
    closed = closedform.csl_cubic(n)
    brute = analysis.generating_function(
        strategies.cyclic_shift_left_top(n)
    ).coefficient(3)
    expected = closedform.CSL_CUBIC_SEQUENCE.value(n) if n <= 8 else closed
    return {"closed_form": closed, "exhaustive": brute}, expected, closed == brute == expected


def _conjecture_cubic_deranged_row(n: int, result: ScanResult):
    """Right shift maximizes the cubic coefficient over the whole deranged
    family; the maximum is shared with (exactly) the reflection conjugate."""
    best = result.summary.max_a3
    expected = {
        "value": closedform.eulerian(n, 2),
        "strategies": sorted((_cs_id(n), _mirror_cs_id(n))),
    }
    observed = {"value": best.value, "strategies": sorted(best.strategy_ids)}
    return observed, expected, observed == expected


def _avg_optimality_row(n: int, result: ScanResult):
    """Right shift attains the minimum average guess count in the family.

    Within the inductive family the minimum is unique for n >= 4; in the
    cyclic and deranged families (and at n = 3, where all three families
    coincide) it is shared with exactly the reflection conjugate.
    """
    best = result.summary.min_average
    if result.kind == "inductive" and n >= 4:
        expected_ids = [_cs_id(n)]
    else:
        expected_ids = sorted((_cs_id(n), _mirror_cs_id(n)))
    observed = {"min_average": best.value, "strategies": sorted(best.strategy_ids)}
    return observed, {"strategies": expected_ids}, sorted(best.strategy_ids) == expected_ids


def _scan_symmetry_row(n: int, result: ScanResult):
    """A scan evaluates one strategy per rotation (inductive) or mirror
    (cyclic, deranged) orbit and gives its stats to every member; each
    member's text and orbit's stats must equal what its own strategy and
    decomposition give, and its orbit number the one that numbering
    ``_canonical`` of each member in first-seen order gives."""
    members = list(strategies.enumerate_strategies(n, result.kind))
    # Every member, not just its orbit's representative, through the same
    # per-prefix evaluation as the scan: the family is its lower prefixes
    # times its tops.
    pools = strategies.component_pools(n, result.kind)
    stats = analysis._evaluate(list(itertools.product(*pools[:-1])), pools[-1])
    canonical: dict = {}
    orbits = [
        canonical.setdefault(analysis._canonical(s, result.kind), len(canonical))
        for s in members
    ]
    scanned = list(result.stats)  # each orbit's (gf, rho, average), built once
    bad = []
    for text, orbit, strategy, (gf, rho), own_orbit in zip(
        result.texts, result.orbits, members, stats, orbits
    ):
        own = (strategy.text, gf, rho, analysis.average_guesses(gf))
        if (text, *scanned[orbit]) != own or orbit != own_orbit:
            bad.append(strategy.text)
    mismatches = len(bad) + abs(len(result.texts) - len(members))
    observed = {
        "strategies": len(members),
        "evaluated": len(canonical),
        "mismatches": mismatches,
    }
    if bad:
        observed["first_counterexample"] = bad[0]
    return observed, {"mismatches": 0}, mismatches == 0


def _rho1_prefix_row(n: int):
    """Right-shift guess-one first-hit count by playback, against the
    binomial sum and the reference prefix 0, 4, 45."""
    binom = closedform.rho1_binomial_sum(n)
    brute = analysis.gf_playback(strategies.cyclic_shift(n))[1][1]
    expected = closedform.RHO1_PREFIX.value(n)
    return {"binomial_sum": binom, "playback": brute}, expected, binom == brute == expected


@dataclass(frozen=True)
class Check:
    """One registered check and everything the runner needs to run it.

    A check has either a default ``range`` or per-family ranges in
    ``families``, (family, lo, hi) each; the latter scans every family at
    each of its n and labels the rows with the family.  ``scans`` names
    the family a ranged check scans at each n.  ``row`` is ``row(n)``, or
    ``row(n, result)`` for a scan check.
    """

    row: Callable[..., tuple]
    description: str
    range: tuple[int, int] | None = None
    families: tuple[tuple[str, int, int], ...] = ()
    scans: str | None = None
    notes: tuple[str, ...] = ()


THEOREMS: dict[str, Check] = {
    "prop-derange": Check(_prop_derange_row, "second-guess hit average is n/(n-1) for every deranged component", (3, 7), notes=(AVERAGE_ERRATUM_NOTE,)),
    "eq-derange-sum": Check(_eq_derange_sum_row, "sum of second-guess hits over derangements matches 0,2,3,12,55,...", (1, 8)),
    "linquad": Check(_linquad_row, "a_1 = 1 and a_2 = 2^n - n - 1 over entire strategy families", families=(("cyclic", 2, 6), ("deranged", 2, 5), ("inductive", 3, 8))),
    "eulerian-cs": Check(_eulerian_cs_row, "right-shift guess counts follow the Eulerian numbers (full playback)", (1, 8)),
    "rho1": Check(partial(_scan_value_row, index=1, forms=(closedform.rho1_closed_form, closedform.rho1_binomial_sum)), "first-hit-on-guess-one count is strategy-independent and closed-form", (4, 7), scans="inductive"),
    "der2ex": Check(_der2ex_row, "derangements solved in three guesses number 2^n - (2n+1)", (3, 8)),
    "rho3": Check(partial(_scan_value_row, index=3, forms=(closedform.rho3_count,)), "exactly one secret is first hit on guess three, for every cyclic strategy", (4, 6), scans="cyclic"),
    "cs-rho2": Check(partial(_rho2_row, **_CS_RHO2), "right-shift first-hit-on-guess-two count is 2^n - 2n - 2", (4, 8)),
    "best-rho2": Check(partial(_rho2_extreme_row, pick=max, **_CS_RHO2), "right shift uniquely maximizes the guess-two first-hit count (inductive)", (4, 7), scans="inductive"),
    "csl-rho2": Check(partial(_rho2_row, **_CSL_RHO2), "left-shift-top guess-two first-hit count is L_n - n - 1", (4, 8)),
    "worst-rho2": Check(partial(_rho2_extreme_row, pick=min, **_CSL_RHO2), "left-shift-top uniquely minimizes the guess-two first-hit count (inductive)", (4, 7), scans="inductive"),
    "csl-cubic": Check(_csl_cubic_row, "left-shift-top cubic coefficient matches 1,7,51,263,1100,4093", (3, 8)),
    "conjecture-cubic-deranged": Check(_conjecture_cubic_deranged_row, "right shift maximizes the cubic coefficient over deranged strategies", (4, 5), scans="deranged", notes=(MIRROR_TIE_NOTE,)),
    "avg-optimality": Check(_avg_optimality_row, "right shift minimizes the average guess count in every family", families=(("cyclic", 3, 6), ("deranged", 3, 5), ("inductive", 3, 8)), notes=(MIRROR_TIE_NOTE,)),
    "scan-symmetry": Check(_scan_symmetry_row, "scans that evaluate one strategy per rotation or mirror orbit equal per-strategy decomposition", families=(("cyclic", 3, 5), ("deranged", 3, 5), ("inductive", 3, 7))),
}

# Each reference sequence of closedform, regenerated over the n its table
# stores.
SEQUENCES: dict[str, Check] = {
    "A284843": THEOREMS["eq-derange-sum"],
    "csl-cubic": THEOREMS["csl-cubic"],
    "A385588-prefix": Check(_rho1_prefix_row, "right-shift guess-one first-hit count by playback matches 0,4,45"),
}
SEQUENCE_NAMES = tuple(closedform.REFERENCE_SEQUENCES)


def _run(
    name: str, check: Check, lo: int | None, hi: int | None, cache: ScanCache
) -> VerificationReport:
    """Run one check over lo..hi and build its report.

    Per-family checks walk each family's default range, clipped below by
    lo and replaced above by hi when a range is given.  A range that gives
    no rows is refused, and so is one with a scan above the cost limit,
    before any scan starts."""
    if check.families:
        plan = [
            (family, n)
            for family, fam_lo, fam_hi in check.families
            for n in range(fam_lo if lo is None else max(lo, fam_lo), (fam_hi if hi is None else hi) + 1)
        ]
    else:
        plan = [(check.scans, n) for n in range(lo, hi + 1)]
    if not plan:
        raise ValueError(f"{name} checks no n in range {lo}..{hi}")
    for family, n in plan:
        if family is not None:
            analysis.check_scan_cost(n, family, cache.max_cost)
    started = time.perf_counter()
    rows = []
    for family, n in plan:
        scan = () if family is None else (cache.scan(n, family),)
        observed, expected, ok = check.row(n, *scan)
        row = {"n": n, "observed": json_value(observed), "expected": json_value(expected), "ok": ok}
        if check.families:
            row["label"] = family
        rows.append(row)
    seconds = time.perf_counter() - started
    if not all(row["ok"] for row in rows):
        status = "fail"
    elif AVERAGE_ERRATUM_NOTE in check.notes:
        status = "erratum-noted"
    else:
        status = "pass"
    if lo is None:
        lo, hi = min(n for _, n in plan), max(n for _, n in plan)
    return VerificationReport(name, (lo, hi), rows, status, seconds, check.notes)


def verify(
    theorem_id: str,
    n_range: tuple[int, int] | None = None,
    *,
    cache: ScanCache | None = None,
) -> VerificationReport:
    """Run one named check over an n range (defaults mirror the verified
    scales) and return its report.  Unknown ids and oversized ranges raise;
    ``cache`` carries the scan settings and shares scans between calls."""
    if theorem_id not in THEOREMS:
        known = ", ".join(sorted(THEOREMS))
        raise ValueError(f"unknown theorem id {theorem_id!r}; known ids: {known}")
    check = THEOREMS[theorem_id]
    if n_range is None:
        lo, hi = check.range or (None, None)
    else:
        lo, hi = n_range
        if lo > hi:
            raise ValueError(f"empty range {lo}..{hi}")
    return _run(theorem_id, check, lo, hi, cache or ScanCache())


def check_sequence(name: str) -> VerificationReport:
    """Regenerate a reference sequence from first principles and compare it
    to the hardcoded table, over the n the table stores."""
    if name not in SEQUENCES:
        known = ", ".join(SEQUENCE_NAMES)
        raise ValueError(f"unknown sequence {name!r}; known names: {known}")
    table = closedform.REFERENCE_SEQUENCES[name]
    lo = table.offset
    return _run(name, SEQUENCES[name], lo, lo + len(table.values) - 1, ScanCache())
