"""Permutation arithmetic on one-line-notation tuples.

A permutation of {1..n} is stored as a plain tuple of ints in one-line
(bottom-line) notation: ``p[i]`` is the value at position ``i + 1``, so the
permutation mapping 1->2, 2->3, 3->1 is ``(2, 3, 1)``.  All public positions
and values are 1-based, matching the usual combinatorial convention.

Everything here is a pure function on immutable tuples, so the module is
safe to use from any number of threads or worker processes.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator

Perm = tuple[int, ...]


def validate(entries: Iterable[int]) -> Perm:
    """Check that ``entries`` is a bijection on {1..n} and return it as a tuple.

    >>> validate([2, 3, 1])
    (2, 3, 1)
    """
    p = tuple(entries)
    n = len(p)
    if n == 0:
        raise ValueError("a permutation must have length at least 1")
    seen = [False] * (n + 1)
    for v in p:
        if not 1 <= v <= n:
            raise ValueError(f"entry {v!r} is outside 1..{n}")
        if seen[v]:
            raise ValueError(f"entry {v} appears more than once")
        seen[v] = True
    return p


def identity(n: int) -> Perm:
    """The identity permutation [1, 2, ..., n].

    >>> identity(4)
    (1, 2, 3, 4)
    """
    if n < 1:
        raise ValueError("a permutation must have length at least 1")
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """Compose two permutations: result(i) = p(q(i)), i.e. q applied first.

    >>> compose((2, 3, 1), (2, 3, 1))
    (3, 1, 2)
    """
    if len(p) != len(q):
        raise ValueError(f"cannot compose lengths {len(p)} and {len(q)}")
    return tuple(p[v - 1] for v in q)


def invert(p: Perm) -> Perm:
    """The inverse permutation.

    >>> invert((2, 3, 4, 1))
    (4, 1, 2, 3)
    """
    inv = [0] * len(p)
    for i, v in enumerate(p, 1):
        inv[v - 1] = i
    return tuple(inv)


def is_derangement(p: Perm) -> bool:
    """True iff p has no fixed point."""
    return all(v != i for i, v in enumerate(p, 1))


def is_cyclic(p: Perm) -> bool:
    """True iff p consists of a single n-cycle.

    The trivial permutation (1,) counts as a 1-cycle.

    >>> is_cyclic((2, 3, 4, 1)), is_cyclic((2, 1, 4, 3))
    (True, False)
    """
    n = len(p)
    length = 0
    pos = 1
    while True:
        pos = p[pos - 1]
        length += 1
        if pos == 1:
            return length == n


def excedance_count(p: Perm) -> int:
    """Number of positions i with p(i) > i.

    >>> excedance_count((2, 3, 4, 1))
    3
    """
    return sum(1 for i, v in enumerate(p, 1) if v > i)


TAIL = 5  # derangements end in a block of arrangements of this many values


def _deranged_prefixes(
    prefix: Perm, left: tuple[int, ...], length: int
) -> Iterator[tuple[Perm, tuple[int, ...]]]:
    """Yield each fixed-point-free ``prefix`` of ``length`` entries, with the
    values it leaves (sorted), depth first with each entry increasing."""
    if len(prefix) == length:
        yield prefix, left
        return
    position = len(prefix) + 1
    for i, v in enumerate(left):
        if v != position:
            yield from _deranged_prefixes(prefix + (v,), left[:i] + left[i + 1 :], length)


def enumerate_perms(n: int, kind: str = "all") -> Iterator[Perm]:
    """Yield permutations of {1..n} in lexicographic order.

    ``kind`` selects the class: "all" (n! permutations), "derangements"
    (no fixed points), or "cyclic" (single n-cycles).  The stream is
    independently restartable, so work can be partitioned by index range.

    Derangements come in blocks.  A permutation is a derangement exactly
    when its first n - 5 entries (the prefix) and its last 5 entries (the
    tail) each avoid their own positions.  The prefixes are walked depth
    first with each entry increasing, so they come in lexicographic order.
    Each is followed by its block: every arrangement of the values it
    leaves that fixes none of the last 5 positions, taken from
    ``itertools.permutations`` of those values sorted, so also in
    lexicographic order.  Prefixes in order, each with its tails in order,
    make the whole stream lexicographic.  A block depends only on the
    values left, so it is built once per set of them (at most C(n, 5)) and
    freed with the stream; for n <= 5 there is one block and no prefix.
    """
    if n < 1:
        raise ValueError("a permutation must have length at least 1")
    base = itertools.permutations(range(1, n + 1))
    if kind == "all":
        yield from base
    elif kind == "derangements":
        head = max(n - TAIL, 0)
        positions = range(head + 1, n + 1)
        blocks: dict[tuple[int, ...], list[Perm]] = {}
        for prefix, left in _deranged_prefixes((), tuple(range(1, n + 1)), head):
            block = blocks.get(left)
            if block is None:
                block = blocks[left] = [
                    q for q in itertools.permutations(left) if not any(map(operator.eq, q, positions))
                ]
            yield from map(prefix.__add__, block)
    elif kind == "cyclic":
        for p in base:
            if is_cyclic(p):
                yield p
    else:
        raise ValueError(f"unknown permutation class {kind!r}")


def parse_perm(text: str) -> Perm:
    """Parse a comma-separated one-line notation string, e.g. "2,3,4,1"."""
    parts = [part.strip() for part in text.split(",")]
    entries = []
    for i, part in enumerate(parts, 1):
        try:
            entries.append(int(part))
        except ValueError:
            raise ValueError(
                f"entry {i} of {text!r}: {part!r} is not an integer"
            ) from None
    return validate(entries)


def format_perm(p: Perm) -> str:
    """Render a permutation in the comma-separated form accepted by parse_perm."""
    return ",".join(str(v) for v in p)
