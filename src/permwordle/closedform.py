"""Closed-form evaluators and hardcoded reference sequences.

All formulas are evaluated in exact integer arithmetic; callers that want
floats convert at the edge.  The reference tables are transcriptions, not
network lookups; OEIS identifiers are used as labels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb


@dataclass(frozen=True)
class SequenceTable:
    """A named integer sequence with the index of its first term."""

    name: str
    offset: int
    values: tuple[int, ...]

    def value(self, n: int) -> int:
        if not self.offset <= n < self.offset + len(self.values):
            raise ValueError(f"{self.name} has no stored value at n={n}")
        return self.values[n - self.offset]


# Second-guess match totals over all derangements, for n = 1..8 (A284843).
DERANGEMENT_MATCH_TOTALS = SequenceTable(
    "A284843", 1, (0, 2, 3, 12, 55, 318, 2163, 16952)
)

# Cubic coefficient of the left-shift-top strategy, for n = 3..8.
CSL_CUBIC_SEQUENCE = SequenceTable("csl-cubic", 3, (1, 7, 51, 263, 1100, 4093))

# First terms of the rho=1 count for inductive strategies (A385588).
RHO1_PREFIX = SequenceTable("A385588-prefix", 3, (0, 4, 45))

REFERENCE_SEQUENCES = {
    table.name: table
    for table in (DERANGEMENT_MATCH_TOTALS, CSL_CUBIC_SEQUENCE, RHO1_PREFIX)
}


@lru_cache(maxsize=None)
def _eulerian_row(n: int) -> tuple[int, ...]:
    if n == 1:
        return (1,)
    prev = _eulerian_row(n - 1)

    def at(k: int) -> int:
        return prev[k] if 0 <= k < n - 1 else 0

    return tuple((k + 1) * at(k) + (n - k) * at(k - 1) for k in range(n))


def eulerian(n: int, k: int) -> int:
    """Eulerian number A(n, k): length-n permutations with k excedances.

    Uses the recurrence A(n,k) = (k+1) A(n-1,k) + (n-k) A(n-1,k-1) with
    A(1,0) = 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k < n:
        raise ValueError(f"k must satisfy 0 <= k < n, got k={k}, n={n}")
    return _eulerian_row(n)[k]


def eulerian_second(n: int) -> int:
    """A(n, 1) = 2^n - n - 1, the count of secrets solvable in two guesses."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 2**n - n - 1


def lucas(n: int) -> int:
    """Lucas numbers with L_1 = 1, L_2 = 3."""
    if n < 1:
        raise ValueError("n must be at least 1")
    a, b = 2, 1  # L_0, L_1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def derangement_count(n: int) -> int:
    """D_n via the recurrence D_n = (n-1)(D_{n-1} + D_{n-2}), D_0 = 1, D_1 = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    a, b = 1, 0  # D_0, D_1
    for k in range(2, n + 1):
        a, b = b, (k - 1) * (a + b)
    return b


def derangement_match_total(n: int) -> int:
    """Second-guess hits against a fixed deranged component, summed over
    all derangement secrets of length n: n (D_{n-1} + D_{n-2}), and 0 at
    n = 1, where there is no derangement."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n * (derangement_count(n - 1) + derangement_count(n - 2)) if n > 1 else 0


def rho1_closed_form(n: int) -> int:
    """Secrets with a first-guess hit that still need exactly three guesses.

    Closed form 1 - 2^(n+1) + 3^n + (n^2 + 5n)/2 - n 2^n; the two
    half-integer terms always combine to an integer because n(n+5) is even.
    The count is the same for every inductive strategy of length n.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    return 1 - 2 ** (n + 1) + 3**n + (n * n + 5 * n) // 2 - n * 2**n


def rho1_binomial_sum(n: int) -> int:
    """Independent binomial-sum form of rho1_closed_form.

    Sums over the size k of the first-guess hit set: C(n,k) ways to pick it
    times the derangements of the remaining n-k entries that take exactly
    two more guesses.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    return sum(
        comb(n, k) * (2 ** (n - k) - (2 * (n - k) + 1)) for k in range(1, n - 2)
    )


def der2ex_count(n: int) -> int:
    """Derangements of length n solved by cyclic shift in exactly three guesses.

    Equals 2^n - (2n + 1), the derangements with two excedances.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    return 2**n - 2 * n - 1


def rho3_count(n: int) -> int:
    """Secrets with no hit on either opening guess that are still solved on
    guess three: exactly one for every cyclic strategy."""
    if n < 3:
        raise ValueError("n must be at least 3")
    return 1


def cs_rho2_count(n: int) -> int:
    """Secrets whose first hit under cyclic shift comes on guess two of three."""
    if n < 4:
        raise ValueError("n must be at least 4")
    return 2**n - 2 * n - 2


def csl_rho2_count(n: int) -> int:
    """The same rho=2 count for the left-shift-top strategy: L_n - n - 1."""
    if n < 4:
        raise ValueError("n must be at least 4")
    return lucas(n) - n - 1


def csl_cubic(n: int) -> int:
    """Cubic coefficient of the left-shift-top strategy's generating function.

    Sum of the three first-hit-class counts: 1 (both opening guesses miss)
    plus rho1_closed_form(n) plus L_n - n - 1.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    return 1 + rho1_closed_form(n) + (lucas(n) - n - 1)
