"""Strategy construction and enumeration.

A strategy is a list of components ``s_1 .. s_n`` where ``s_k`` is a
length-k permutation.  During play, ``s_k`` is applied to the k incorrect
positions of the current guess.  ``s_1`` is fixed at (1,) (it can never be
used: a single incorrect position is impossible) and ``s_2`` is forced to
(2, 1), the only derangement of length 2; every component of length >= 2
must be a derangement or a guess would repeat a known-wrong entry in place.

Three families are enumerated:

* ``cyclic``    - every component is a single cycle,
* ``deranged``  - every component is a derangement,
* ``inductive`` - right-shift components below an arbitrary cyclic top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial, prod
from typing import Iterable, Iterator

from . import closedform, perms
from .perms import Perm

STRATEGY_KINDS = ("cyclic", "deranged", "inductive")


class NotCyclicError(ValueError):
    """Raised when a top component required to be a single cycle is not."""


@dataclass(frozen=True)
class Strategy:
    """An immutable component list; equality and identity ignore the kind tag."""

    components: tuple[Perm, ...]
    kind: str = field(default="deranged", compare=False)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def top(self) -> Perm:
        return self.components[-1]

    def component(self, k: int) -> Perm:
        """The component applied when exactly k positions are incorrect."""
        return self.components[k - 1]

    @cached_property
    def inverses(self) -> tuple[Perm, ...]:
        """Inverses of all components; inverses[k-1] is the guess produced
        when s_k acts on a fully-incorrect identity sub-guess."""
        return tuple(perms.invert(c) for c in self.components)

    @cached_property
    def movers(self) -> dict:
        """Playback's position movers, keyed by the incorrect-position mask
        (filled by ``engine._mover``); at most 2^n entries."""
        return {}

    @cached_property
    def text(self) -> str:
        return format_strategy(self)

    def __str__(self) -> str:
        return self.text


def _shift_right(k: int) -> Perm:
    return tuple(range(2, k + 1)) + (1,)


def _shift_left(k: int) -> Perm:
    return (k,) + tuple(range(1, k))


def cyclic_shift(n: int) -> Strategy:
    """The right-shift strategy: every component is [2, 3, ..., k, 1]."""
    if n < 1:
        raise ValueError("a strategy must have length at least 1")
    return Strategy(tuple(_shift_right(k) for k in range(1, n + 1)), "cyclic")


def cyclic_shift_left_top(n: int) -> Strategy:
    """Right-shift components below a left-shift top [n, 1, 2, ..., n-1]."""
    if n < 3:
        raise ValueError(
            "left and right shift coincide below length 3; need n >= 3"
        )
    return inductive(_shift_left(n))


def inductive(top: Iterable[int]) -> Strategy:
    """Right-shift components below the given cyclic top component."""
    top_p = perms.validate(top)
    n = len(top_p)
    if n < 3:
        raise ValueError("an inductive strategy needs length at least 3")
    if not perms.is_cyclic(top_p):
        raise NotCyclicError(
            f"top component {perms.format_perm(top_p)} is not a single {n}-cycle"
        )
    comps = tuple(_shift_right(k) for k in range(1, n)) + (top_p,)
    return Strategy(comps, "inductive")


def from_components(components: Iterable[Iterable[int]]) -> Strategy:
    """Build and validate a strategy from raw component sequences.

    The i-th component must be a permutation of length i, and every
    component of length >= 2 must be a derangement.  The kind tag is
    inferred: "cyclic" when every component is a single cycle, otherwise
    "deranged".
    """
    comps: list[Perm] = []
    for i, raw in enumerate(components, 1):
        p = perms.validate(raw)
        if len(p) != i:
            raise ValueError(
                f"component {i} has length {len(p)}, expected {i}"
            )
        if i >= 2 and not perms.is_derangement(p):
            raise ValueError(
                f"component {i} ({perms.format_perm(p)}) is not a derangement"
            )
        comps.append(p)
    if not comps:
        raise ValueError("a strategy needs at least one component")
    kind = "cyclic" if all(perms.is_cyclic(c) for c in comps) else "deranged"
    return Strategy(tuple(comps), kind)


def mirror_component(c: Perm) -> Perm:
    """c conjugated by the reflection i -> k+1-i of its positions and values,
    k = len(c)."""
    k = len(c) + 1
    return tuple([k - v for v in reversed(c)])


def mirror(strategy: Strategy) -> Strategy:
    """The reflection conjugate: relabel positions and values i -> k+1-i in
    every component.  Mirroring maps right shifts to left shifts and
    preserves the full play-out of every game, so a strategy and its mirror
    always share a generating function."""
    return from_components(map(mirror_component, strategy.components))


def component_pools(n: int, kind: str) -> list[list[Perm]]:
    """The choices for each component s_1..s_n of the family, each pool in
    lexicographic order; the family is their product."""
    if kind == "inductive":
        if n < 3:
            raise ValueError("inductive strategies need length at least 3")
        tops = list(perms.enumerate_perms(n, "cyclic"))
        return [[_shift_right(k)] for k in range(1, n)] + [tops]
    if kind not in ("cyclic", "deranged"):
        raise ValueError(f"unknown strategy class {kind!r}")
    if n < 1:
        raise ValueError("a strategy must have length at least 1")
    # s_2 = (2, 1) is both the only 2-cycle and the only derangement.
    perm_kind = "cyclic" if kind == "cyclic" else "derangements"
    return [[(1,)]] + [list(perms.enumerate_perms(i, perm_kind)) for i in range(2, n + 1)]


def enumerate_strategies(n: int, kind: str) -> Iterator[Strategy]:
    """Yield every strategy of the family exactly once, deterministically.

    Components of each size run in lexicographic order with later (larger)
    components varying fastest.  Counts: inductive (n-1)!, cyclic
    prod (i-1)! for i = 3..n, deranged prod D_i for i = 3..n.
    """
    for comps in itertools.product(*component_pools(n, kind)):
        yield Strategy(comps, kind)


def strategy_texts(pools: list[list[Perm]]) -> list[str]:
    """The text of every strategy of the family with these
    ``component_pools``, in enumeration order, from each component's text,
    with no ``Strategy`` per member."""
    parts = [list(map(_component_text, pool)) for pool in pools]
    return list(map(";".join, itertools.product(*parts)))


def count_strategies(n: int, kind: str) -> int:
    """Size of the family enumerate_strategies(n, kind) yields."""
    if kind == "inductive":
        if n < 3:
            raise ValueError("inductive strategies need length at least 3")
        return factorial(n - 1)
    if kind == "cyclic":
        return prod(factorial(i - 1) for i in range(3, n + 1))
    if kind == "deranged":
        return prod(closedform.derangement_count(i) for i in range(3, n + 1))
    raise ValueError(f"unknown strategy class {kind!r}")


@lru_cache(maxsize=4096)
def _component_text(c: Perm) -> str:
    # A family repeats few distinct components across many members.
    return perms.format_perm(c)


def format_strategy(strategy: Strategy) -> str:
    """Textual form: components as comma-separated entries joined by ';'."""
    return ";".join(map(_component_text, strategy.components))


# The named strategies parse_strategy accepts, each built from its length.
_NAMED = {"cs": cyclic_shift, "csl": cyclic_shift_left_top}


def parse_strategy(text: str, n: int | None = None) -> Strategy:
    """Parse the textual strategy format.

    Accepts the full component list ("1;2,1;2,3,1;2,3,4,1"), the inductive
    shorthand ("inductive:2,4,1,3"), or the named strategies "cs" and "csl"
    (which need an explicit length n).
    """
    t = text.strip()
    low = t.lower()
    if low in _NAMED:
        if n is None:
            raise ValueError(f"strategy {low!r} needs an explicit length n")
        strategy = _NAMED[low](n)
    elif low.startswith("inductive:"):
        strategy = inductive(perms.parse_perm(t.split(":", 1)[1]))
    else:
        parts = t.split(";")
        comps = []
        for i, part in enumerate(parts, 1):
            try:
                comps.append(perms.parse_perm(part))
            except ValueError as exc:
                raise ValueError(f"component {i}: {exc}") from None
        strategy = from_components(comps)
    if n is not None and strategy.n != n:
        raise ValueError(
            f"strategy has length {strategy.n} but n={n} was requested"
        )
    return strategy
