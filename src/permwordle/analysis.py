"""Strategy performance measures: generating functions, averages, first-hit
classes, and exhaustive scans over strategy families.

Two independent routes produce a strategy's generating function and its
first-hit-class counts, each as one (gf, rho) pair from one pass:

* direct playback of all n! secrets (``gf_playback``), and
* the subgame decomposition (``decomposition_stats``): a secret with k
  incorrect positions contributes through its relative derangement d, so
  the count of secrets solved in 1 + t guesses is
  sum over k of C(n, k) * #{d in D_k : T(d) = t}.

The two pairs must agree everywhere; tests enforce it.  Scans use the
decomposition with a memo shared across strategies that agree on component
prefixes, which is what makes family-wide sweeps cheap, and evaluate only
one strategy per rotation or mirror orbit (``_canonical``).  At the top size
a scan reads T(d) = m(d) + V(y(d)): V is the lookup table of the lower
prefix and m, y come from the no-lock chains of the top component
(``_top_chains``), which the memo reuses under every lower prefix.

Averages are exact rationals; a strategy that loops on any secret gets an
infinite average and sorts after every terminating strategy.
"""

from __future__ import annotations

import itertools
import multiprocessing
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf
from typing import NamedTuple

from . import closedform, perms, strategies
from .engine import LOOPED, SubgameMemo, _chase, solve_rounds, successor
from .perms import Perm
from .strategies import Strategy

DEFAULT_MAX_COST = 10_000_000_000


@dataclass(frozen=True)
class GFCoefficients:
    """Counts of secrets solved in exactly r guesses, plus the loop count.

    Invariants checked at construction: the counts and loops add up to n!,
    and exactly one secret (the identity) is solved in one guess.
    """

    n: int
    coeffs: dict[int, int]
    loop_count: int = 0

    def __post_init__(self) -> None:
        total = sum(self.coeffs.values()) + self.loop_count
        if total != factorial(self.n):
            raise ValueError(
                f"coefficients sum to {total}, expected {self.n}! = {factorial(self.n)}"
            )
        if self.coeffs.get(1) != 1:
            raise ValueError("exactly one secret is solvable in one guess")

    def coefficient(self, r: int) -> int:
        return self.coeffs.get(r, 0)

    @property
    def max_guesses(self) -> int:
        return max(self.coeffs)

    def as_tuple(self) -> tuple[int, ...]:
        """Coefficients (a_1, ..., a_max) with gaps filled by zeros."""
        return tuple(self.coefficient(r) for r in range(1, self.max_guesses + 1))


@lru_cache(maxsize=None)
def _derangements(k: int) -> tuple[Perm, ...]:
    return tuple(perms.enumerate_perms(k, "derangements"))


@lru_cache(maxsize=None)
def _composers(k: int) -> tuple[operator.itemgetter, ...]:
    """One getter per d in D_k, in ``_derangements`` order, mapping the
    padded component (0,) + s to s o d.  About 9 MB for k = 9, so it is
    built only for a size that has a top-size lookup table."""
    return tuple(operator.itemgetter(*d) for d in _derangements(k))


@lru_cache(maxsize=None)
def _derangement_index(k: int) -> dict[Perm, int]:
    """The position of each d in ``_derangements(k)``."""
    return {d: i for i, d in enumerate(_derangements(k))}


class TopChains(NamedTuple):
    """The no-lock chains of one top component s over D_n.

    The chain of d is x_1 = s o d, x_(i+1) = s o x_i while x_i is deranged;
    it ends at y(d) = x_m, the first composition with a fixed point, after
    m(d) = m steps.  ``ends`` and ``lengths`` hold y(d) and m(d) side by
    side for every d whose chain ends; ``loops`` counts the d whose chain
    repeats first, and ``no_lock`` the d with m(d) = 2 and y(d) = identity.
    None of it depends on the components below s.
    """

    ends: tuple[Perm, ...]
    lengths: tuple[int, ...]
    loops: int
    no_lock: int


def _top_chains(top: Perm) -> TopChains:
    """``TopChains`` of ``top``, one composition per derangement.

    When x_1 = s o d is deranged, it is some d' in D_n and the chain of d
    continues as that of d', so m(d) = 1 + m(d') and y(d) = y(d').
    Composing with s is injective, so each d' comes from at most one d, and
    the chains are walked back one length at a time from those that end
    after one step."""
    n = len(top)
    pad = (0,) + top
    firsts = [compose(pad) for compose in _composers(n)]
    index = _derangement_index(n)
    came_from = [-1] * len(firsts)
    level: list[tuple[int, Perm]] = []  # (position of d in D_n, y(d))
    for i, j in enumerate(map(index.get, firsts)):
        if j is None:
            level.append((i, firsts[i]))
        else:
            came_from[j] = i
    ends: list[Perm] = []
    lengths: list[int] = []
    m = 0
    while level:
        m += 1
        ends += [y for _, y in level]
        lengths += [m] * len(level)
        level = [(came_from[i], y) for i, y in level if came_from[i] >= 0]
    # y(d) = identity with m(d) = 2 means s o s o d = identity, so the only
    # candidate is d = s^-2, a derangement exactly when s o s is one (and
    # then x_1 = s^-1 is deranged too).
    no_lock = int(perms.is_derangement(perms.compose(top, top)))
    loops = len(firsts) - len(ends)
    return TopChains(tuple(ends), tuple(lengths), loops, no_lock)


def _top_lookup_stats(
    chains: TopChains, lookup: dict[Perm, int | float]
) -> tuple[dict[int | float, int], int]:
    """``_size_stats`` at the top size n, read off the lookup table V of
    ``SubgameMemo.top_lookup``: T(d) = m(d) + V(y(d)), with m and y from
    the top's no-lock ``chains``."""
    values = map(lookup.__getitem__, chains.ends)
    hist = Counter(map(operator.add, values, chains.lengths))
    if chains.loops:
        hist[LOOPED] += chains.loops
    return hist, chains.no_lock


def _size_stats(
    k: int, strategy: Strategy, tables: dict[int, dict[Perm, int | float]]
) -> tuple[dict[int | float, int], int]:
    """Histogram of T over D_k, plus the number of d with T(d) = 2 whose
    first step locked nothing (hit only on the final guess three rather
    than on guess two).  Fills the size-k table completely."""
    invs, comps = strategy.inverses, strategy.components
    component, guess = comps[k - 1], invs[k - 1]
    table = tables[k]
    hist: dict[int | float, int] = {}
    no_lock = 0
    for d in _derangements(k):
        t = table.get(d)
        # A cached value skips the step, except T = 2, whose split by the
        # size of the successor is counted here.
        if t is None or t == 2:
            e = successor(d, component, guess)
            if e:
                t = tables[len(e)].get(e)
                if t is None:
                    t = _chase(e, invs, comps, tables)
                t += 1
                if t == 2 and len(e) == k:
                    no_lock += 1
            else:
                t = 1
            table[d] = t
        hist[t] = hist.get(t, 0) + 1
    return hist, no_lock


def decomposition_stats(
    strategy: Strategy, memo: SubgameMemo | None = None
) -> tuple[GFCoefficients, dict[int, int]]:
    """Generating function and first-hit-class counts via the memoized
    subgame decomposition.

    The returned dict maps the first-hit round i in {1, 2, 3} to the number
    of secrets solved in exactly three guesses whose first correct position
    appeared on guess i.
    """
    n = strategy.n
    if n == 1:
        return GFCoefficients(1, {1: 1}, 0), {1: 0, 2: 0, 3: 0}
    if memo is None:
        memo = SubgameMemo()
    tables = memo.tables_up_to(strategy, n - 1)
    hists: dict[int, dict[int | float, int]] = {}
    for k in range(2, n):
        # Histograms below the top size are shared by every strategy with
        # the same components s_1..s_k.
        prefix = strategy.components[:k]
        if prefix not in memo.hist_cache:
            memo.hist_cache[prefix] = _size_stats(k, strategy, tables)[0]
        hists[k] = memo.hist_cache[prefix]
    # The lower tables are complete now, which the lookup table needs.
    lookup = memo.top_lookup(strategy)
    if lookup is None:
        tables[n] = {}  # the top-size table stays local to this strategy
        hists[n], no_lock = _size_stats(n, strategy, tables)
    else:
        chains = memo.top_chains(strategy.top, _top_chains)
        hists[n], no_lock = _top_lookup_stats(chains, lookup)
    coeffs = {1: 1}
    loops = 0
    for k in range(2, n + 1):
        ways = comb(n, k)
        for t, cnt in hists[k].items():
            if t == LOOPED:
                loops += ways * cnt
            else:
                coeffs[t + 1] = coeffs.get(t + 1, 0) + ways * cnt
    rho1 = sum(comb(n, k) * hists[k].get(2, 0) for k in range(2, n))
    gf = GFCoefficients(n, coeffs, loops)
    # A top-size d with T(d) = 2 is hit on guess two exactly when its first
    # step locked something; otherwise guess three is its first hit.
    rho2 = hists[n].get(2, 0) - no_lock
    return gf, {1: rho1, 2: rho2, 3: no_lock}


def gf_playback(strategy: Strategy) -> tuple[GFCoefficients, dict[int, int]]:
    """Generating function and first-hit-class counts, as from
    ``decomposition_stats``, by playing out every one of the n! secrets."""
    n = strategy.n
    coeffs: dict[int, int] = {}
    loops = 0
    rho = {1: 0, 2: 0, 3: 0}
    for secret in perms.enumerate_perms(n):
        r, first_hit = solve_rounds(secret, strategy)
        if r == LOOPED:
            loops += 1
        else:
            coeffs[r] = coeffs.get(r, 0) + 1
            if r == 3:
                rho[first_hit] += 1
    return GFCoefficients(n, coeffs, loops), rho


def generating_function(strategy: Strategy, method: str = "decomposition") -> GFCoefficients:
    """Generating function by either route; the routes must agree."""
    if method == "decomposition":
        return decomposition_stats(strategy)[0]
    if method == "playback":
        return gf_playback(strategy)[0]
    raise ValueError(f"unknown method {method!r}")


def average_guesses(gf: GFCoefficients) -> Fraction | float:
    """Mean guesses over all n! secrets, or infinity if any secret loops."""
    if gf.loop_count:
        return inf
    weighted = sum(r * a for r, a in gf.coeffs.items())
    return Fraction(weighted, factorial(gf.n))


def average_j2_over_derangements(component: Perm) -> Fraction:
    """Average number of second-guess hits when the secret ranges over all
    derangements and the first application of ``component`` forms guess two.

    Equal to n/(n-1) for every deranged component, which is what makes the
    top component choice invisible to this measure.
    """
    comp = perms.validate(component)
    if not perms.is_derangement(comp):
        raise ValueError("component must be a derangement")
    guess = perms.invert(comp)
    total = 0
    count = 0
    for d in perms.enumerate_perms(len(comp), "derangements"):
        total += sum(1 for a, b in zip(guess, d) if a == b)
        count += 1
    return Fraction(total, count)


class ScanCostError(RuntimeError):
    """A scan was refused because its estimated work exceeds the limit."""

    def __init__(self, n: int, kind: str, estimate: int, limit: int) -> None:
        super().__init__(
            f"scan(n={n}, kind={kind!r}) is estimated at {estimate:,} subgame "
            f"evaluations, above the limit of {limit:,}; pass a larger "
            f"max_cost to run it anyway"
        )
        self.estimate = estimate
        self.limit = limit


def estimate_scan_cost(n: int, kind: str) -> int:
    """Cost model: strategies in the family times derangements up to size n.

    It counts the whole family, so it is an upper bound on the work of a
    scan, which evaluates only one strategy per symmetry orbit.
    """
    per_strategy = sum(closedform.derangement_count(k) for k in range(2, n + 1))
    return strategies.count_strategies(n, kind) * max(per_strategy, 1)


def check_scan_cost(n: int, kind: str, max_cost: int) -> None:
    """Refuse a scan whose estimated work exceeds ``max_cost``."""
    estimate = estimate_scan_cost(n, kind)
    if estimate > max_cost:
        raise ScanCostError(n, kind, estimate, max_cost)


@dataclass(frozen=True)
class ScanRow:
    index: int
    strategy_id: str
    n: int
    gf: GFCoefficients
    average: Fraction | float
    rho: dict[int, int]

    @property
    def a3(self) -> int:
        return self.gf.coefficient(3)


@dataclass(frozen=True)
class ExtremeSet:
    """An extreme value and every strategy attaining it, in scan order."""

    value: object
    strategy_ids: tuple[str, ...]


@dataclass(frozen=True)
class ScanSummary:
    min_average: ExtremeSet
    max_a3: ExtremeSet
    min_a3: ExtremeSet


@dataclass(frozen=True)
class ScanResult:
    n: int
    kind: str
    rows: tuple[ScanRow, ...]
    summary: ScanSummary


def _summarize(rows: tuple[ScanRow, ...]) -> ScanSummary:
    def extreme(key, pick) -> ExtremeSet:
        best = pick(key(row) for row in rows)
        ids = tuple(row.strategy_id for row in rows if key(row) == best)
        return ExtremeSet(best, ids)

    return ScanSummary(
        min_average=extreme(lambda r: r.average, min),
        max_a3=extreme(lambda r: r.a3, max),
        min_a3=extreme(lambda r: r.a3, min),
    )


def _canonical(strategy: Strategy, kind: str) -> tuple[Perm, ...]:
    """Components of the representative of ``strategy``'s symmetry orbit,
    whose members all share one generating function and first-hit split
    (README "Reflection ties").

    Inductive: the lower components plus the least of the n conjugates
    r^j top r^-j of the top, with r the rotation i -> i+1 mod n.  Cyclic and
    deranged: the lesser of the components and those of the mirror.  For
    n >= 3 that is the one with s_3 = (2, 3, 1), so the representatives are
    the first half of the enumeration.
    """
    comps = strategy.components
    if kind == "inductive":
        n, top = strategy.n, strategy.top
        # r^j top r^-j sends i + j to top(i) + j, mod n.
        conjugates = (
            tuple((top[(i - j) % n] + j - 1) % n + 1 for i in range(n))
            for j in range(n)
        )
        return comps[:-1] + (min(conjugates),)
    return min(comps, tuple(map(strategies.mirror_component, comps)))


def _evaluate(
    reps: list[tuple[Perm, ...]],
) -> list[tuple[GFCoefficients, dict[int, int]]]:
    """Decomposition of each representative, with one memo for them all."""
    memo = SubgameMemo()
    return [decomposition_stats(Strategy(comps), memo) for comps in reps]


def scan(
    n: int,
    kind: str,
    *,
    jobs: int = 1,
    max_cost: int = DEFAULT_MAX_COST,
) -> ScanResult:
    """One row per strategy in the family, in enumeration order, plus the
    extrema summary.  Oversized scans are refused up front with the work
    estimate.

    Only one strategy per symmetry orbit (``_canonical``) is evaluated;
    every member's row is built from its representative's result.  Workers
    own private memos and take contiguous runs of the representatives, so
    results are identical for any parallelism degree."""
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, not {jobs!r}")
    check_scan_cost(n, kind, max_cost)
    # A member keeps only its text and orbit number (orbits numbered in
    # first-seen order), not its Strategy, so memory stays near the rows'.
    orbits: dict[tuple[Perm, ...], int] = {}
    family = [
        (s.text, orbits.setdefault(_canonical(s, kind), len(orbits)))
        for s in strategies.enumerate_strategies(n, kind)
    ]
    reps = list(orbits)
    if jobs > 1 and len(reps) >= 4 * jobs:
        bounds = [len(reps) * i // jobs for i in range(jobs + 1)]
        with multiprocessing.Pool(jobs) as pool:
            chunks = pool.map(
                _evaluate, [reps[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            )
        stats = list(itertools.chain.from_iterable(chunks))
    else:
        stats = _evaluate(reps)
    averages = [average_guesses(gf) for gf, _ in stats]
    # Orbit members share the frozen gf and its average; each row gets its
    # own rho dict.
    rows = tuple(
        ScanRow(index, text, n, stats[orbit][0], averages[orbit], dict(stats[orbit][1]))
        for index, (text, orbit) in enumerate(family)
    )
    return ScanResult(n, kind, rows, _summarize(rows))
