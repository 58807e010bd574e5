"""Deterministic game playback and memoized derangement-subgame evaluation.

The feedback loop: the first guess is always the identity; each round the
set of positions agreeing with the secret is revealed, those positions are
locked for good, and the strategy component matching the number of
incorrect positions permutes the incorrect entries to form the next guess.

Guess-update convention: with the incorrect positions p_1 < ... < p_k and
sigma the length-k component, the value at p_j moves to p_sigma(j).  From a
fully-incorrect identity guess this makes the next guess the inverse of the
component, which is what anchors all the counting below.

Because locked positions never move again, the future of a game depends
only on the relative derangement formed by the incorrect entries.  T(d),
the number of guesses needed to finish from the all-wrong state with
relative secret d, is what ``subgame_guesses`` computes and memoizes; a
full game on secret pi takes 1 + T(relative_derangement(pi)) guesses.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from . import perms
from .perms import Perm
from .strategies import Strategy

# Marker for games/subgames that never terminate.  Using infinity keeps the
# chain arithmetic uniform (LOOPED + 1 == LOOPED) and sorts after all
# finite guess counts.
LOOPED = math.inf

Tables = dict[int, dict[Perm, int | float]]  # T(d) by subgame size, then d


def feedback(guess: Perm, secret: Perm) -> frozenset[int]:
    """Positions at which the guess agrees with the secret (1-based)."""
    if len(guess) != len(secret):
        raise ValueError(
            f"guess length {len(guess)} differs from secret length {len(secret)}"
        )
    hits = frozenset(itertools.compress(range(1, len(guess) + 1), map(operator.eq, guess, secret)))
    if len(hits) == len(guess) - 1 and len(guess) > 1:
        raise ValueError(
            "guess and secret disagree in exactly one position, so they are "
            "not permutations of the same set"
        )
    return hits


def _mover(strategy: Strategy, mask: tuple[bool, ...]) -> Callable[[Perm], Perm]:
    """The next-guess map for every guess whose incorrect positions are the
    True entries of ``mask``: an ``itemgetter`` that moves the value at p_j
    to p_sigma(j) and keeps the locked positions.  The move depends on
    nothing else, so each strategy caches one per mask (at most 2^n).
    ``mask`` has length n and at least two True entries."""
    getter = strategy.movers.get(mask)
    if getter is None:
        wrong = [q for q, w in enumerate(mask) if w]
        sigma = strategy.component(len(wrong))
        source = list(range(len(mask)))
        for j, q in enumerate(wrong):
            source[wrong[sigma[j] - 1]] = q
        getter = strategy.movers[mask] = operator.itemgetter(*source)
    return getter


def next_guess(current: Perm, correct: Iterable[int], strategy: Strategy) -> Perm:
    """Lock the correct positions and permute the rest by the k-component."""
    n = len(current)
    if n != strategy.n:
        raise ValueError(
            f"guess length {n} differs from strategy length {strategy.n}"
        )
    locked = set(correct)
    outside = sorted(i for i in locked if not 1 <= i <= n)
    if outside:
        raise ValueError(f"correct positions {outside} are outside 1..{n}")
    k = n - len(locked)
    if k == 0:
        raise ValueError("game already solved; no next guess exists")
    if k == 1:
        raise ValueError("exactly one incorrect position is impossible")
    return _mover(strategy, tuple(i not in locked for i in range(1, n + 1)))(current)


@dataclass(frozen=True)
class GameTrace:
    """Full record of one game: guesses, per-round correct sets, outcome.

    ``status`` is "solved" or "looped".  A looped trace ends with the first
    repeated guess, so the repetition is visible.
    """

    secret: Perm
    guesses: tuple[Perm, ...]
    correct_sets: tuple[frozenset[int], ...]
    status: str

    @property
    def solved(self) -> bool:
        return self.status == "solved"

    @property
    def rounds(self) -> int | None:
        """Number of guesses used, or None for a looped game."""
        return len(self.guesses) if self.solved else None

    @property
    def first_hit(self) -> int | None:
        """1-based index of the first non-empty correct set, if any."""
        for r, hits in enumerate(self.correct_sets, 1):
            if hits:
                return r
        return None


def _game(secret: Perm, strategy: Strategy) -> tuple[list[Perm], int | None, bool]:
    """The guesses, the round of the first non-empty correct set (or None),
    and whether the game was solved.  For a fixed secret the correct set is
    a function of the guess, so a repeated guess (the last one returned)
    proves the deterministic process can never solve.  The secret must be
    a permutation; each round is one pass for the incorrect-position mask
    and one cached mover."""
    n = len(secret)
    if n != strategy.n:
        raise ValueError(
            f"secret length {n} differs from strategy length {strategy.n}"
        )
    movers = strategy.movers
    guesses: list[Perm] = []
    seen: set[Perm] = set()
    first_hit = None
    current = perms.identity(n)
    while True:
        key = tuple(map(operator.ne, current, secret))
        k = key.count(True)
        if k == 1:
            raise ValueError(
                "guess and secret disagree in exactly one position, so they "
                "are not permutations of the same set"
            )
        guesses.append(current)
        if first_hit is None and k < n:
            first_hit = len(guesses)
        if k == 0:
            return guesses, first_hit, True
        if current in seen:
            return guesses, first_hit, False
        seen.add(current)
        current = (movers.get(key) or _mover(strategy, key))(current)


def play(secret: Perm, strategy: Strategy) -> GameTrace:
    """Play a full game from the identity guess until solved or a guess
    repeats, keeping every guess and correct set (the traced oracle)."""
    secret = perms.validate(secret)
    guesses, _, solved = _game(secret, strategy)
    sets = tuple(feedback(guess, secret) for guess in guesses)
    return GameTrace(secret, tuple(guesses), sets, "solved" if solved else "looped")


def solve_rounds(secret: Perm, strategy: Strategy) -> tuple[int | float, int | None]:
    """(Guess count or LOOPED, round of the first hit or None) for a full
    game; no trace is materialized."""
    guesses, first_hit, solved = _game(perms.validate(secret), strategy)
    return (len(guesses) if solved else LOOPED), first_hit


def relative_derangement(p: Perm) -> Perm:
    """The non-fixed part of p as a derangement on {1..k}.

    Incorrect positions and their values are ranked by increasing
    position/value; the two rankings use the same index set because the
    non-fixed values of a permutation are exactly its non-fixed positions.
    Returns () for the identity.
    """
    wrong = [q for q, v in enumerate(p) if v != q + 1]
    rank = {q: j for j, q in enumerate(wrong, 1)}
    return tuple(rank[p[q] - 1] for q in wrong)


class SubgameMemo:
    """Shared memo of subgame values T(d), keyed by the component prefix.

    Two strategies that agree on components s_1..s_k share all entries of
    size <= k, so one memo serves a whole inductive scan.  Not safe for
    concurrent mutation; use one memo per worker, or populate it fully and
    then share it read-only.

    ``row`` is (components, columns, index) while an in-process scan reads
    one representative back: that strategy's results are row ``index`` of
    the scan's columns.  Else it is None, and every strategy is evaluated.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[Perm, ...], dict[Perm, int | float]] = {}
        # T-value histograms over whole derangement classes, also keyed by
        # component prefix; maintained by the analysis layer.
        self.hist_cache: dict[tuple[Perm, ...], dict[int | float, int]] = {}
        self.row = None

    def table(self, strategy: Strategy, k: int) -> dict[Perm, int | float]:
        """The value table for subgames of size k under this strategy."""
        return self._tables.setdefault(strategy.components[:k], {})

    def tables_up_to(self, strategy: Strategy, k: int) -> Tables:
        return {size: self.table(strategy, size) for size in range(2, k + 1)}


def successor(d: Perm, component: Perm, guess: Perm) -> Perm:
    """The subgame reached from the all-wrong state with relative secret d
    after one application of ``component``: rd(component o d).

    ``guess`` is the inverse of the component (the next guess in relative
    terms); it agrees with d exactly at the fixed points of component o d,
    so those are the positions that lock.  Returns () when the guess is d.
    """
    wrong = [q for q, g in enumerate(guess) if g != d[q]]
    if len(wrong) == len(d):
        # Nothing locked: relabel so the new guess becomes the identity.
        return tuple([component[v - 1] for v in d])
    # Lock the matches; rank the leftover positions and re-express the
    # leftover secret values in the new guess's ordering.
    slot = [0] * (len(d) + 1)
    for j, q in enumerate(wrong, 1):
        slot[guess[q]] = j
    return tuple([slot[d[q]] for q in wrong])


def _chase(
    d: Perm,
    invs: tuple[Perm, ...],
    comps: tuple[Perm, ...],
    tables: Tables,
) -> int | float:
    """T(d) by following T(d) = 1 + T(successor(d)), T(()) = 0, memoizing
    as the chain unwinds.  Each state has exactly one successor, so
    evaluation walks until it hits a cached value, the empty state, or a
    repeated state (which proves every state on the chain loops forever)."""
    chain: list[Perm] = []
    on_chain: set[Perm] = set()
    t = 0
    while d:
        k = len(d)
        cached = tables[k].get(d)
        if cached is not None:
            t = cached
            break
        if d in on_chain:
            for dd in chain:
                tables[len(dd)][dd] = LOOPED
            return LOOPED
        on_chain.add(d)
        chain.append(d)
        d = successor(d, comps[k - 1], invs[k - 1])
    for dd in reversed(chain):
        t += 1
        tables[len(dd)][dd] = t
    return t


def subgame_guesses(
    d: Perm, strategy: Strategy, memo: SubgameMemo | None = None
) -> int | float:
    """Guesses needed to finish from the all-wrong state with relative
    secret d, or LOOPED.  d must be a derangement of length >= 2 and the
    strategy must have components for every size up to len(d)."""
    d = perms.validate(d)
    k = len(d)
    if k < 2 or not perms.is_derangement(d):
        raise ValueError("subgames are defined for derangements of length >= 2")
    if strategy.n < k:
        raise ValueError(
            f"strategy of length {strategy.n} has no component of size {k}"
        )
    if memo is None:
        memo = SubgameMemo()
    tables = memo.tables_up_to(strategy, k)
    return _chase(d, strategy.inverses, strategy.components, tables)
