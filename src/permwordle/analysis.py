"""Strategy performance measures: generating functions, averages, first-hit
classes, and exhaustive scans over strategy families.

Two independent routes produce a strategy's generating function and its
first-hit-class counts, each as one (gf, rho) pair:

* direct playback of all n! secrets (``gf_playback``), the oracle, and
* the subgame decomposition: a secret with k incorrect positions
  contributes through its relative derangement d, so the count of secrets
  solved in 1 + t guesses is sum over k of C(n, k) * #{d in D_k : T(d) = t}.

The two pairs must agree everywhere; tests enforce it.  The decomposition
has one evaluator, the scan chunk (``_scan_chunk``), of a family's
representatives or of one strategy (``decomposition_stats``), and one
conversion of counts into (gf, rho) (``OrbitColumns.stats``).  Each size
k is one pass over D_k (``_size_stats``): the rounds of the successor
walk (``_lock_rounds``) group the derangements by the round and the
positions they first lock, and each group's successors are relabelled
and looked up at once.  A chunk's memo is shared by the strategies that agree
on component prefixes, which makes family-wide sweeps cheap, and a scan
evaluates one strategy per rotation or mirror orbit (``_orbit_map``,
checked against the unshortened ``_canonical``).  At the top size a chunk
of several strategies at a ranked size reads T(d) = m(d) + V(y(d)): V is
the rank-indexed lookup table of the lower prefix and m, y come from the
no-lock chains of the top component (``_top_chains``), which serve it
under every lower prefix.  Tops of one cycle type are conjugate, so their
chains are the rounds of one walk over D_n per cycle type
(``_chain_rows``, the same ``_lock_rounds``), relabelled per top and
ranked.  The tops that recur in a chunk are counted
together: big-int counters hold one fixed-width field per top, and one
C-level sum of chain-end planes per chain length m and value v of V adds
to every top's count of T = m + v at once (``_top_counts``), and the
orbits' count columns are read off those counters.  A lone top is read
off V by itself (``_top_stats``).

Averages are exact rationals; a strategy that loops on any secret gets an
infinite average and sorts after every terminating strategy.
"""

from __future__ import annotations

import gc
import itertools
import operator
import sys
from array import array
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from math import comb, factorial, gcd, inf
from typing import Iterable, NamedTuple

from . import closedform, perms, strategies
from .engine import LOOPED, SubgameMemo, Tables, _game
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


Stats = tuple[GFCoefficients, dict[int, int]]  # (gf, first-hit class counts rho)
Hist = dict[int | float, int]  # number of subgames d by T(d)


LARGE_K = 8  # D_8 has 14,833 entries: from here a collection over D_k costs 1 ms or more


def _collector_paused(func):
    """``func(k, ...)`` run with the cyclic garbage collector paused, for
    k >= ``LARGE_K`` and if it was on.

    For work that builds or groups large containers of the int tuples of
    D_k: they cannot form a cycle, but while they are young every
    collection walks all of them again, and when one comes depends on the
    allocations around it.  Building D_9 takes 55-65 ms with the collector
    on, about half of it in collections over the growing tuple, and 25 ms
    paused (2-vCPU Xeon, Python 3.11).  Below ``LARGE_K`` those walks are
    short and the collector keeps its own schedule."""

    @wraps(func)
    def paused(k, *args):
        if k < LARGE_K or not gc.isenabled():
            return func(k, *args)
        gc.disable()
        try:
            return func(k, *args)
        finally:
            gc.enable()

    return paused


@lru_cache(maxsize=None)
@_collector_paused
def _derangements(k: int) -> tuple[Perm, ...]:
    """D_k in lexicographic order, kept for the life of the process.

    From k = ``LARGE_K`` one collection of the young generations walks the
    new D_k once: CPython untracks a tuple of ints when a collection sees
    it, so no later collection walks D_k's entries, nor a size-k table
    keyed by them, and the walk (12 ms for D_9) falls here and not on
    whatever allocation next sets a collection off."""
    ds = tuple(perms.enumerate_perms(k, "derangements"))
    if k >= LARGE_K:
        gc.collect(1)
    return ds


LOOPED_CODE = 255  # LOOPED in a lookup table V; see ``_top_values``
MAX_RANKED = 9  # n - 1 entries fix a permutation; up to 9 they fit a word


def _words(flat: bytes, n: int, columns: Iterable[int] | None = None) -> bytes:
    """Each size-n permutation of the flat entries as a zero-padded 8-byte
    word of its first n - 1 entries, which ``memoryview.cast`` reads as
    ints: byte j of every word is one strided copy of column ``columns[j]``
    of the rows (column j by default)."""
    words = bytearray(len(flat) // n * 8)
    for j, q in enumerate(range(n - 1) if columns is None else columns):
        words[j::8] = flat[q::n]
    return bytes(words)


class _Ranks(NamedTuple):
    """Structures of size n for the rank route, where the rank of a
    permutation is its lexicographic index in S_n."""

    index: dict[int, int]  # rank by word
    # By rank: the entry of T(rd(x)) in the flat list 0 (the identity),
    # then T(e) for e in _derangements(k), k = 2..n-1; 0 for derangements.
    layout: operator.itemgetter


@lru_cache(maxsize=None)
def _ranks(n: int) -> _Ranks:
    """``_Ranks`` for size n.  Each x with a fixed point is built from its
    incorrect positions W and its relative derangement e, by
    x(W_j) = W_e(j), so its layout entry is that of e: per (k, W), one
    ``bytes.translate`` of the flat D_k entries by j -> W_j gives the
    x(W_j), strided into identity words, and their ranks get e's entries."""
    every = bytes(itertools.chain.from_iterable(itertools.permutations(range(1, n + 1))))
    index = dict(zip(memoryview(_words(every, n)).cast("Q").tolist(), itertools.count()))
    entry = [0] * factorial(n)
    identity = bytes(range(1, n)).ljust(8, b"\0")
    offset = 1
    for k in range(2, n):
        size = len(_derangements(k))
        flat = bytes(itertools.chain.from_iterable(_derangements(k)))
        for wrong in itertools.combinations(range(n), k):
            moved = flat.translate(bytes.maketrans(bytes(range(1, k + 1)), bytes(q + 1 for q in wrong)))
            xs = bytearray(identity * size)
            for j, q in enumerate(wrong):
                if q < n - 1:  # the last entry is not in the word
                    xs[q::8] = moved[j::k]
            ranks = map(index.__getitem__, memoryview(xs).cast("Q").tolist())
            _scatter(entry, ranks, range(offset, offset + size))
        offset += size
    return _Ranks(index, operator.itemgetter(*entry))


def _scatter(target: list[int], at: Iterable[int], values: Iterable[int]) -> None:
    """target[i] = v for each (i, v) of ``at`` and ``values``, in C."""
    deque(map(target.__setitem__, at, values), maxlen=0)


def _top_values(n: int, tables: Tables) -> bytes:
    """The lookup table V of a lower prefix, from its complete size < n
    tables: V[rank of x] = T(rd(x)) for every x in S_n with a fixed point
    (0 for the identity).  A top-size d whose first step s_n o d locks
    something then has T(d) = 1 + V(s_n o d).

    LOOPED is stored as ``LOOPED_CODE`` (255) and every finite T as itself,
    so the codes cannot collide while every finite T is below 255.  A
    finite T is at most the number of subgames below n, which keeps it
    there for every n up to 6 (1 + 2 + 9 + 44 of them); beyond that the
    bound is checked, and a larger T is refused rather than wrapped."""
    flat: list[int | float] = [0]
    for k in range(2, n):
        if len(tables[k]) != closedform.derangement_count(k):
            raise ValueError(f"the size-{k} table must be complete to build V")
        flat += map(tables[k].__getitem__, _derangements(k))
    longest = max(t for t in flat if t != LOOPED)
    if longest >= LOOPED_CODE:
        raise ValueError(f"T = {longest} does not fit below the LOOPED code {LOOPED_CODE}")
    codes = bytes(LOOPED_CODE if t == LOOPED else t for t in flat)
    return bytes(_ranks(n).layout(codes))


class TopChains(NamedTuple):
    """The no-lock chains over D_n of a top component s, whatever is below.

    The chain of d is x_1 = s o d, x_(i+1) = s o x_i while x_i is deranged;
    it ends at y(d) = x_m, the first composition with a fixed point, after
    m(d) = m steps.  ``ends[m - 1]`` holds the rank of y(d) for each d with
    m(d) = m, in no set order; ``loops`` counts the d whose chain repeats.
    Tops of one cycle type are conjugate, and ``_top_chains`` reads all
    their chains off one walk (``_chain_rows``).
    """

    ends: tuple[list[int], ...]
    loops: int


@lru_cache(maxsize=None)
def _chain_rows(lengths: tuple[int, ...]) -> tuple[tuple[bytes, ...], int]:
    """The no-lock chains of c, the permutation of cycle type ``lengths``
    whose cycles are blocks of consecutive values, each shifted by one: by
    m, the flat entries of y(d) for every d with m(d) = m, and the number
    of d whose chain loops.  Kept for the life of the process, one entry
    per cycle type of the tops read off a lookup table.

    x_m = c^m o d, so the chains are the rounds of c over D_n
    (``_lock_rounds``): round m holds the d with m(d) = m, and one
    ``translate`` of their entries by c^m gives their y(d).  The d that
    never lock are the chains that loop."""
    c: list[int] = []
    for size in lengths:  # the block low..low + size - 1, shifted by one
        low = len(c) + 1
        c += [*range(low + 1, low + size), low]
    n = len(c)
    rounds, looping = _lock_rounds(n, bytes.maketrans(bytes(range(1, n + 1)), bytes(c)))
    rows = tuple(
        bytes(itertools.chain.from_iterable(itertools.chain.from_iterable(groups.values()))).translate(power)
        for power, groups in rounds
    )
    return rows, len(looping)


def _top_chains(top: Perm) -> TopChains:
    """``TopChains`` of ``top``, read off the walk of its cycle type.

    Write top = p c p^-1, with c as in ``_chain_rows``: p lists the top's
    cycles, shortest first, so that it sends c's blocks onto them.  Then
    d -> e = p^-1 d p is a bijection of D_n, top^i o d = p (c^i o e) p^-1,
    and the fixed points of p z p^-1 are p(Fix z).  So m(d) = m(e) and
    y(d) = p y(e) p^-1, whose entry at j is p(y(e)(p^-1(j))): per m, one
    ``translate`` by p and n - 1 strided copies of the columns p^-1(j)
    make the words, and each rank is one ``index`` lookup."""
    n, cycles, seen = len(top), [], set()
    for start in top:
        if start not in seen:
            cycle = [start]
            while top[cycle[-1] - 1] != start:
                cycle.append(top[cycle[-1] - 1])
            seen.update(cycle)
            cycles.append(cycle)
    cycles.sort(key=len)
    p = bytes(itertools.chain.from_iterable(cycles))  # p(a) = p[a - 1]
    rows, loops = _chain_rows(tuple(map(len, cycles)))
    relabel = bytes.maketrans(bytes(range(1, n + 1)), p)
    columns = list(map(p.index, range(1, n)))  # p^-1(j) - 1 for j < n
    index = _ranks(n).index
    ends = []
    for flat in rows:
        words = memoryview(_words(flat.translate(relabel), n, columns)).cast("Q")
        ends.append(list(map(index.__getitem__, words.tolist())))
    return TopChains(tuple(ends), loops)


def _top_stats(top: Perm, values: bytes) -> Hist:
    """``_size_stats`` at the top size n, read off the lookup table V:
    T(d) = m(d) + V(y(d)) (LOOPED if either is), with m and y from the
    no-lock chains of the top."""
    chains = _top_chains(top)
    hist: Hist = {LOOPED: chains.loops} if chains.loops else {}
    for m, ends in enumerate(chains.ends, 1):
        # The trailing rank keeps the getter's result a tuple; it is cut.
        found = bytes(operator.itemgetter(*ends, 0)(values))[:-1]
        for v in set(found):
            t = LOOPED if v == LOOPED_CODE else m + v
            hist[t] = hist.get(t, 0) + found.count(v)
    return hist


_IDENTITY = bytes(range(256))  # the translation table of the identity


@lru_cache(maxsize=None)
def _lock_bits(k: int) -> tuple[bytes, ...]:
    """Per position q < k, the translation table from the byte q + 1, a
    fixed point at q, to bit q mod 8 of a lock-set key byte, and from every
    other byte to 0."""
    tables = [bytearray(256) for _ in range(k)]
    for q, table in enumerate(tables):
        table[q + 1] = 1 << q % 8
    return tuple(map(bytes, tables))


def _lock_keys(rows: bytes, k: int) -> memoryview:
    """The fixed points of each size-k permutation in the flat ``rows`` as
    one int key with bit q set when position q + 1 is fixed.  Each column
    is one ``translate`` to its bit; the columns of 8 positions are OR-ed
    into one byte plane as big ints, and the planes are interleaved into a
    1-, 2- or 4-byte key per row."""
    count = len(rows) // k
    code, width = ("B", 1) if k <= 8 else ("H", 2) if k <= 16 else ("I", 4)
    bits = _lock_bits(k)
    keys = bytearray(width * count)
    for low in range(0, k, 8):
        plane = 0
        for q in range(low, min(low + 8, k)):
            plane |= int.from_bytes(rows[q::k].translate(bits[q]), "little")
        byte = low // 8 if sys.byteorder == "little" else width - 1 - low // 8
        keys[byte::width] = plane.to_bytes(count, "little")
    return memoryview(keys).cast(code)


@lru_cache(maxsize=None)
def _relabel(k: int, key: int) -> tuple[int, bytes, bytes]:
    """For a size-k permutation x whose fixed points are the bits of
    ``key``: the size of rd(x), the translation table from each incorrect
    value q + 1 to the rank of q among the incorrect positions, and the
    fixed values, which the translation deletes.  What is left of x is
    rd(x)."""
    wrong = [q for q in range(k) if not key >> q & 1]
    table = bytearray(256)
    for j, q in enumerate(wrong, 1):
        table[q + 1] = j
    return len(wrong), bytes(table), bytes(q + 1 for q in range(k) if key >> q & 1)


@_collector_paused
def _lock_rounds(k: int, step: bytes) -> tuple[list[tuple[bytes, dict[int, list[Perm]]]], Sequence[Perm]]:
    """The rounds of s over D_k, ``step`` the translation table of s: per
    round i, the table of s^i and the d whose first composition with a
    fixed point is s^i o d, grouped by lock-set key (``_lock_keys``); and
    the d that never lock, as s^i o d comes back to d at the order of s.

    A round keys its pending d by one ``translate`` of their flat entries
    and groups them with one C-level ``map`` of ``list.append``: a group
    is a list of the cached D_k tuples, nothing is built per d, and the d
    that lock nothing (key 0) go on to the next round.  The groups hold
    all of D_k, so from k = ``LARGE_K`` the walk runs with the collector
    paused: a collection inside it would walk them all."""
    rounds = []
    power, pending = step, _derangements(k)
    while pending and power != _IDENTITY:
        keys = _lock_keys(bytes(itertools.chain.from_iterable(pending)).translate(power), k)
        groups: dict[int, list[Perm]] = {key: [] for key in set(keys)}
        deque(map(list.append, map(groups.__getitem__, keys), pending), maxlen=0)
        pending = groups.pop(0, [])
        rounds.append((power, groups))
        power = power.translate(step)
    return rounds, pending


@_collector_paused
def _size_stats(k: int, strategy: Strategy, tables: Tables) -> Hist:
    """Histogram of T over D_k, from the complete tables of the sizes below
    k.  Fills ``tables[k]`` completely when ``tables`` has a size-k table.

    T(d) = 1 + T(rd(s o d)) with s = s_k, and s o d is fixed exactly where
    the guess s^-1 agrees with d.  A group of round i of ``_lock_rounds``
    with lock set L has T(d) = i + T(rd(s^i o d)), rd(s^i o d) of size |W|
    for W the complement of L: one ``translate`` of the group's flat
    entries by s^i and one that relabels W and deletes L give every rd at
    once, and the size-|W| table is read by a C-level ``map`` over their
    tuples, each dropped once it is looked up.  The d that never lock
    loop.  The collector is paused from k = ``LARGE_K``, as in the walk."""
    table = tables.get(k)
    hist: Counter = Counter()
    step = bytes.maketrans(bytes(range(1, k + 1)), bytes(strategy.components[k - 1]))
    rounds, looping = _lock_rounds(k, step)
    for i, (power, groups) in enumerate(rounds, 1):
        found: list[int | float] = []  # T(rd(s^i o d)) by group; 0 for the identity
        for key, group in groups.items():
            size, relabel, fixed = _relabel(k, key)
            flat = bytes(itertools.chain.from_iterable(group)).translate(power)
            rds = zip(*[iter(flat.translate(relabel, fixed))] * size)  # a tuple per `size` bytes
            found += map(tables[size].__getitem__, rds) if size else [0]
        ts = map(operator.add, found, itertools.repeat(i))
        if table is not None:
            ts = list(ts)
            table.update(zip(itertools.chain.from_iterable(groups.values()), ts))
        hist.update(ts)
    if looping:
        hist[LOOPED] += len(looping)
        if table is not None:
            table.update(dict.fromkeys(looping, LOOPED))
    return hist


class LowerPrefix(NamedTuple):
    """What the strategies of lower prefix s_1..s_(n-1) share: the sum of
    C(n, k) times the T histogram of each size k < n and, in a chunk of
    several strategies at a ranked size, V."""

    components: tuple[Perm, ...]
    weighted: Counter
    values: bytes | None = None


def _lower_stats(strategy: Strategy, memo: SubgameMemo) -> LowerPrefix:
    """Fill the size < n tables of ``strategy`` and sum their histograms."""
    n = strategy.n
    tables = memo.tables_up_to(strategy, n - 1)
    weighted: Counter = Counter()
    for k in range(2, n):
        # Histograms below the top size are shared by every strategy with
        # the same components s_1..s_k.
        prefix = strategy.components[:k]
        if prefix not in memo.hist_cache:
            memo.hist_cache[prefix] = _size_stats(k, strategy, tables)
        weighted.update({t: comb(n, k) * cnt for t, cnt in memo.hist_cache[prefix].items()})
    return LowerPrefix(strategy.components[:-1], weighted)


# _SELECT[v] translates byte v to 1 and every other byte to 0.
_SELECT = [bytes(v) + b"\1" + bytes(255 - v) for v in range(256)]


def _field_code(n: int) -> str:
    """The array code of one top's field in a counter or a column, 2 bytes
    while n! <= 2^16 and 4 beyond: a field's total is at most n! - 1, which
    4 bytes hold up to n = 12.  No strategy, lone or scanned, reaches
    n = 13: its top-size pass needs all of D_13 (2.3e9 derangements)."""
    return "H" if factorial(n) <= 1 << 16 else "I"


class TopBlock(NamedTuple):
    """Bit-sliced counters for the recurring tops of a scan chunk: big ints
    with one fixed-width field per top.  ``planes[m - 1]`` pairs the ranks
    where some top's chain of length m ends with the plane of each such
    (m, rank), which has 1 in the field of every top whose chain ends
    there; ``loops`` holds each top's count of looping chains and ``ones``
    1 in every field."""

    planes: list[tuple[list[int], list[int]]]
    loops: int
    ones: int


def _top_block(chains: list[TopChains], code: str) -> TopBlock:
    """The ``TopBlock`` of the tops with these ``chains``.  A rank occurs at
    most once in a top's ends of one length (y = s^m o d), so each top's
    ends make a 0/1 row over the ranks, and one strided slice copies it into
    that top's field of every plane's bytes."""
    width = array(code).itemsize
    stride = width * len(chains)
    low = 0 if sys.byteorder == "little" else width - 1  # the byte that holds 1
    planes = []
    for m in range(max(len(c.ends) for c in chains)):
        support = sorted(set().union(*(c.ends[m] for c in chains if m < len(c.ends))))
        at = dict(zip(support, itertools.count()))
        flat = bytearray(stride * len(support))
        for i, c in enumerate(chains):
            if m < len(c.ends):
                row = bytearray(len(support))
                _scatter(row, map(at.__getitem__, c.ends[m]), itertools.repeat(1))
                flat[i * width + low :: stride] = row
        view = memoryview(flat)
        rows = (view[i : i + stride] for i in range(0, len(flat), stride))
        planes.append((support, [int.from_bytes(r, sys.byteorder) for r in rows]))

    def packed(counts: Iterable[int]) -> int:
        return int.from_bytes(array(code, counts).tobytes(), sys.byteorder)

    return TopBlock(planes, packed(c.loops for c in chains), packed([1] * len(chains)))


def _block_counts(block: TopBlock, lower: LowerPrefix) -> dict[int | float, int]:
    """By T, the block's counter of the secrets besides the identity that
    take 1 + T guesses under ``lower`` (T = LOOPED: they loop).

    Per chain length m, the planes of the ranks where V = v are added into
    the counter of T = m + v by one C-level ``sum``; the lower histogram
    adds ``weighted[T]`` to every field.  Every addend is nonnegative and a
    field's total over all counters is n! - 1, which its width holds, so no
    sum carries from one field into the next."""
    counts = {t: cnt * block.ones for t, cnt in lower.weighted.items()}
    if block.loops:
        counts[LOOPED] = counts.get(LOOPED, 0) + block.loops
    for m, (support, planes) in enumerate(block.planes, 1):
        found = bytes(map(lower.values.__getitem__, support))
        for v in set(found):
            t = LOOPED if v == LOOPED_CODE else m + v
            selected = itertools.compress(planes, found.translate(_SELECT[v]))
            counts[t] = counts.get(t, 0) + sum(selected)
    return counts


def _top_counts(
    n: int, tops: list[Perm], lowers: list[LowerPrefix]
) -> list[dict[int | float, memoryview]]:
    """Under each of ``lowers``, by T, the counts of the secrets besides the
    identity that take 1 + T guesses (T = LOOPED: they loop), lower sizes
    included, for ``tops``, the top at index i in field i: one ``TopBlock``
    of all the tops, one pass over it per lower prefix, and each counter
    read out once, as an array of its fields.  No tops give empty
    counters."""
    if not tops:
        return [{} for _ in lowers]
    code = _field_code(n)
    block = _top_block([_top_chains(top) for top in tops], code)
    size = array(code).itemsize * len(tops)
    return [
        {
            t: memoryview(c.to_bytes(size, sys.byteorder)).cast(code)
            for t, c in _block_counts(block, lower).items()
        }
        for lower in lowers
    ]


@lru_cache(maxsize=None)
def _no_lock(top: Perm) -> int:
    """1 if s o s is deranged for the top s, else 0: the number of top-size
    d with T(d) = 2 whose first hit is guess three (``_scan_chunk``)."""
    return int(perms.is_derangement(perms.compose(top, top)))


def decomposition_stats(strategy: Strategy, memo: SubgameMemo | None = None) -> Stats:
    """Generating function and first-hit-class counts via the memoized
    subgame decomposition.

    The returned dict maps the first-hit round i in {1, 2, 3} to the number
    of secrets solved in exactly three guesses whose first correct position
    appeared on guess i.  The strategy is evaluated as a scan chunk of its
    own on ``memo`` (``_scan_chunk``), which builds no rank structure;
    when ``memo.row`` holds the strategy's row in a scan's columns (an
    in-process ``scan`` sets it), that row is read back instead.
    """
    memo = memo or SubgameMemo()
    if memo.row is not None and memo.row[0] == strategy.components:
        _, columns, index = memo.row
        return columns.stats(index)
    return _join(strategy.n, [_scan_chunk([strategy.components], memo)]).stats(0)


def gf_playback(strategy: Strategy) -> Stats:
    """Generating function and first-hit-class counts, as from
    ``decomposition_stats``, by playing out every one of the n! secrets
    (permutations by construction, so the game loop runs unvalidated)."""
    n = strategy.n
    coeffs: dict[int, int] = {}
    loops = 0
    rho = {1: 0, 2: 0, 3: 0}
    for secret in perms.enumerate_perms(n):
        guesses, first_hit, solved = _game(secret, strategy)
        if not solved:
            loops += 1
        else:
            r = len(guesses)
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
    """A scan was refused because its estimated work exceeds the limit.

    ``estimate`` is the estimate at n, or, when ``at`` names a smaller size,
    the estimate there, which already exceeds the limit and bounds the
    estimate at n from below."""

    def __init__(
        self, n: int, kind: str, estimate: int, limit: int, at: int | None = None
    ) -> None:
        bound = f"{estimate:,}"
        if at not in (None, n):
            bound = f"more than {bound} (its estimate at n={at})"
        super().__init__(
            f"scan(n={n}, kind={kind!r}) is estimated at {bound} subgame "
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
    """Refuse a scan whose estimated work exceeds ``max_cost``.

    Both factors of the estimate grow with n, so sizes are priced upward
    from 3 and the first one past the limit refuses n.  A large n is thus
    refused at once, where its own estimate would take minutes and have
    millions of digits."""
    for m in range(min(n, 3), n + 1):
        estimate = estimate_scan_cost(m, kind)
        if estimate > max_cost:
            raise ScanCostError(n, kind, estimate, max_cost, m)


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


# One scan chunk as a worker returns it: the T of each count column, the
# count columns' bytes in that order, and the bytes of rho1, rho2 and rho3.
Chunk = tuple[tuple[int | float, ...], tuple[bytes, ...], tuple[bytes, bytes, bytes]]


class OrbitColumns(Sequence):
    """A scan's per-orbit results as columns, each an ``array`` of the
    field code ``_field_code(n)``, with orbit i at index i of every one:

    * ``counts[t]`` for each T that occurs, in increasing order: the
      secrets besides the identity that the orbit's strategies solve in
      1 + T guesses, T = LOOPED counting those they loop on;
    * ``rho``: the first-hit class counts rho1, rho2 and rho3.

    ``_join`` builds them from the chunks of a scan's workers, or from the
    one chunk of a lone strategy, and checks them.  The summary, the
    writers and the checks read the columns; indexing builds orbit i's
    ``(gf, rho, average)`` only when asked, and holds nothing."""

    def __init__(self, n: int, counts: dict[int | float, array], rho: tuple[array, array, array]):
        self.n, self.counts, self.rho = n, counts, rho

    def __len__(self) -> int:
        return len(self.rho[0])

    def __getitem__(self, i: int) -> tuple[GFCoefficients, dict[int, int], Fraction | float]:
        gf, rho = self.stats(operator.index(i))
        return gf, rho, average_guesses(gf)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrbitColumns):
            return NotImplemented
        return (self.n, self.counts, self.rho) == (other.n, other.counts, other.rho)

    def stats(self, i: int) -> Stats:
        """Orbit i's (gf, rho): the one place where the decomposition's
        counts become a generating function and first-hit class counts."""
        counts = {t: column[i] for t, column in self.counts.items()}
        loops = counts.pop(LOOPED, 0)
        gf = GFCoefficients(self.n, {1: 1, **{t + 1: c for t, c in counts.items() if c}}, loops)
        return gf, {j: column[i] for j, column in enumerate(self.rho, 1)}

    def _filled(self, value: int) -> array:
        return array(self.rho[0].typecode, [value]) * len(self)

    def coefficient(self, r: int) -> array:
        """a_r of every orbit."""
        return self._filled(1) if r == 1 else self.counts.get(r - 1) or self._filled(0)

    def loops(self) -> array:
        return self.counts.get(LOOPED) or self._filled(0)

    def max_guesses(self) -> int:
        """The largest r with a_r > 0 in some orbit."""
        return 1 + max((t for t, column in self.counts.items() if t != LOOPED and any(column)), default=0)

    @cached_property
    def guess_totals(self) -> list[int]:
        """Guesses summed over all n! secrets, the identity's one included,
        per orbit: the numerator of its average, where it has no loops;
        kept for the summary and the averages (the columns never change)."""
        totals = [1] * len(self)
        for t, column in self.counts.items():
            if t != LOOPED:
                totals = list(map(operator.add, totals, map(operator.mul, column, itertools.repeat(t + 1))))
        return totals

    def averages(self) -> tuple[list[int], list[int]]:
        """Each orbit's average in lowest terms, as numerators and
        denominators (reduced by one C-level ``map`` of ``gcd``); an orbit
        with loops has an infinite average instead, and its entries mean
        nothing."""
        totals = self.guess_totals
        whole = itertools.repeat(factorial(self.n))
        common = list(map(gcd, totals, whole))
        return list(map(operator.floordiv, totals, common)), list(map(operator.floordiv, whole, common))


def _join(n: int, chunks: list[Chunk]) -> OrbitColumns:
    """The columns of a scan, or of one strategy, from its chunks, in order;
    a chunk without some T has zeros there.  What ``GFCoefficients`` checks
    of one strategy is checked here of every orbit at once: its counts and
    loops add up to n! - 1 (the identity is not counted), and no T = 0
    count is nonzero, so a_1 = 1.  Either failure raises ``ValueError``."""
    code = _field_code(n)
    counts = {t: array(code) for t in sorted(set().union(*(ts for ts, _, _ in chunks)))}
    rho = (array(code), array(code), array(code))
    for ts, blobs, rho_blobs in chunks:
        given = dict(zip(ts, blobs))
        zeros = bytes(len(rho_blobs[0]))
        for t, column in counts.items():
            column.frombytes(given.get(t, zeros))
        for column, blob in zip(rho, rho_blobs):
            column.frombytes(blob)
    columns = OrbitColumns(n, counts, rho)
    if any(len(column) != len(columns) for column in (*counts.values(), *rho)):
        raise ValueError("the columns of a scan chunk differ in length")
    expected = factorial(n) - 1
    totals = list(map(sum, zip(*counts.values()))) if counts else [0] * len(columns)
    if totals.count(expected) != len(totals):
        orbit = next(i for i, total in enumerate(totals) if total != expected)
        raise ValueError(
            f"orbit {orbit}: counts and loops add up to {totals[orbit]}, "
            f"expected {n}! - 1 = {expected}"
        )
    if any(counts.get(0, ())):
        raise ValueError("exactly one secret is solvable in one guess")
    return columns


@dataclass(frozen=True)
class ScanResult:
    """A family's scan: the text of every member in enumeration order, each
    member's orbit number, the orbits' stats and the extrema summary.

    ``stats`` is always an ``OrbitColumns``: per T, one fixed-width
    ``array`` of the orbits' counts of secrets solved in 1 + T guesses
    (LOOPED: looping), and one each of rho1, rho2 and rho3, joined from the
    workers' chunks by ``_join``, which refused any orbit whose counts and
    loops do not add up to n! - 1 or whose a_1 is not 1.  Member i is
    ``texts[i]`` with the stats ``stats[orbits[i]]``, a ``(gf, rho,
    average)`` built when indexed."""

    n: int
    kind: str
    texts: list[str]
    orbits: list[int]
    stats: OrbitColumns
    summary: ScanSummary


def flagged_members(texts: list[str], orbits: list[int], flags: list[bool]) -> tuple[str, ...]:
    """The texts of the members whose orbit is flagged, in scan order."""
    return tuple(itertools.compress(texts, map(flags.__getitem__, orbits)))


def _summarize(texts: list[str], orbits: list[int], stats: OrbitColumns) -> ScanSummary:
    """The extrema over the orbits' columns; the attainers are then listed
    member by member, in scan order.  The least average is the least guess
    total of an orbit without loops, or infinite when every orbit loops."""

    def extreme(value, flags: list[bool]) -> ExtremeSet:
        return ExtremeSet(value, flagged_members(texts, orbits, flags))

    a3 = stats.coefficient(3)
    finite = list(map(operator.not_, stats.loops()))
    totals = stats.guess_totals
    if any(finite):
        least = min(itertools.compress(totals, finite))
        average = extreme(
            Fraction(least, factorial(stats.n)),
            list(map(operator.and_, map(least.__eq__, totals), finite)),
        )
    else:
        average = extreme(inf, [True] * len(stats))
    high, low = max(a3), min(a3)
    return ScanSummary(
        min_average=average,
        max_a3=extreme(high, list(map(high.__eq__, a3))),
        min_a3=extreme(low, list(map(low.__eq__, a3))),
    )


def _rotations(top: Perm) -> Iterable[Perm]:
    """The n conjugates r^j top r^-j of ``top``, with r the rotation
    i -> i+1 mod n: r^j top r^-j sends i + j to top(i) + j, mod n."""
    n = len(top)
    return (
        tuple((top[(i - j) % n] + j - 1) % n + 1 for i in range(n)) for j in range(n)
    )


def _canonical(strategy: Strategy, kind: str) -> tuple[Perm, ...]:
    """Components of the representative of ``strategy``'s symmetry orbit,
    whose members all share one generating function and first-hit split
    (README "Reflection ties").  This is the unshortened reference for
    ``_orbit_map``.

    Inductive: the lower components plus the least of the n conjugates
    r^j top r^-j of the top.  Cyclic and deranged: the lesser of the
    components and those of the mirror.  For n >= 3 that is the one with
    s_3 = (2, 3, 1), so the representatives are the first half of the
    enumeration.
    """
    comps = strategy.components
    if kind == "inductive":
        return comps[:-1] + (min(_rotations(strategy.top)),)
    return min(comps, tuple(map(strategies.mirror_component, comps)))


def _orbit_map(kind: str, pools: list[list[Perm]]) -> tuple[list[int], list[tuple[Perm, ...]]]:
    """Each member's orbit number and each orbit's representative, as
    numbering ``_canonical`` of every member in first-seen order gives
    them, but without a ``Strategy`` or a ``_canonical`` per member.
    ``pools`` are the family's ``strategies.component_pools``.

    Inductive: tops run in lexicographic order and conjugates of an n-cycle
    are n-cycles, so an orbit's first member has its least top and is its
    representative; its n conjugates are computed then, once per orbit.
    Cyclic and deranged, n >= 3: the representatives are the first half of
    the enumeration (s_3 = (2, 3, 1)), each its own orbit.  A second-half
    member's orbit is the index of its mirror, whose mixed-radix digit for
    each size is the mirror position of the member's digit in that pool;
    the mirror's s_3 digit is 0.
    """
    if kind == "inductive":
        lower = tuple(pool[0] for pool in pools[:-1])
        orbit_of: dict[Perm, int] = {}
        reps = []
        for top in pools[-1]:
            if top not in orbit_of:
                orbit_of.update(dict.fromkeys(_rotations(top), len(reps)))
                reps.append(lower + (top,))
        return list(map(orbit_of.__getitem__, pools[-1])), reps
    if len(pools) < 3:
        return [0], list(itertools.product(*pools))
    reps = list(itertools.product(*pools[:2], pools[2][:1], *pools[3:]))
    mirrors = [0]
    for pool in pools[3:]:
        position = {c: i for i, c in enumerate(pool)}
        table = [position[strategies.mirror_component(c)] for c in pool]
        mirrors = [len(pool) * index + digit for index in mirrors for digit in table]
    return list(range(len(reps))) + mirrors, reps


def _group_counts(
    group: list[tuple[Perm, ...]],
    lower: LowerPrefix,
    views: dict[int | float, memoryview],
    fields: dict[Perm, int],
    memo: SubgameMemo,
) -> dict[int | float, list[int]]:
    """By T, the count column of one group of representatives: a recurring
    top's entries are read off its field of the counters ``views``, one
    ``itemgetter`` per T for the whole group, and any other top's entries
    are lower.weighted plus ``_top_stats`` over V, or without V the
    lock-set pass."""
    at = [fields.get(comps[-1]) for comps in group]
    counted = [i for i, field in enumerate(at) if field is not None]
    columns: dict[int | float, list[int]] = {}
    if counted:
        # The trailing field keeps the getter's result a tuple; the scatter
        # stops before it.
        get = operator.itemgetter(*map(at.__getitem__, counted), 0)
        for t, view in views.items():
            columns[t] = [0] * len(group)
            _scatter(columns[t], counted, get(view))
    for i, field in enumerate(at):
        if field is None:
            if lower.values:
                top = _top_stats(group[i][-1], lower.values)
            else:  # given the tables below n only, the pass keeps no top table
                s = Strategy(group[i])
                top = _size_stats(s.n, s, memo.tables_up_to(s, s.n - 1))
            for t, count in (lower.weighted + Counter(top)).items():
                columns.setdefault(t, [0] * len(group))[i] = count
    return columns


def _scan_chunk(reps: list[tuple[Perm, ...]], memo: SubgameMemo | None = None) -> Chunk:
    """The results of a run of representatives on ``memo`` (a scan worker's
    or one strategy's): their ``OrbitColumns`` as bytes, a few bytes per
    orbit and column.

    Each run of representatives that share a lower prefix is one group: its
    lower sizes and their histogram sum are built once.  A chunk of more
    than one representative at a ranked size (2 <= n <= ``MAX_RANKED``)
    also builds each group's lookup table V, counts the tops that occur
    more than once in ``reps`` under every group at once (``_top_counts``,
    one set of planes that grows with the number of those tops), reads
    each group's count columns off those counters (``_group_counts``) and
    any other top off V.  Each group's V and counters (n! bytes and a few
    bytes per recurring top and T) are kept until its columns are read.
    Every other chunk (one strategy, n = 1, n > ``MAX_RANKED``) reads each
    top off the lock-set pass, with tables only below n."""
    memo = memo or SubgameMemo()
    n = len(reps[0]) if reps else 0
    ranked = len(reps) > 1 and 1 < n <= MAX_RANKED
    groups = [list(group) for _, group in itertools.groupby(reps, key=lambda comps: comps[:-1])]
    lowers = []
    for group in groups:
        first = Strategy(group[0])
        lower = _lower_stats(first, memo)
        if ranked:
            lower = lower._replace(values=_top_values(n, memo.tables_up_to(first, n - 1)))
        lowers.append(lower)
    recurring = Counter(comps[-1] for comps in reps) if ranked else {}
    tops = [top for top, count in recurring.items() if count > 1]
    fields = dict(zip(tops, itertools.count()))
    code = _field_code(n)
    counts: dict[int | float, array] = {}
    rho = (array(code), array(code), array(code))
    for group, lower, views in zip(groups, lowers, _top_counts(n, tops, lowers)):
        columns = _group_counts(group, lower, views, fields, memo)
        for t in columns.keys() - counts.keys():
            counts[t] = array(code, [0]) * len(rho[0])
        zeros = [0] * len(group)
        for t, column in counts.items():
            column.extend(columns.get(t, zeros))
        # Below the top size guess one hits, so rho1 = weighted[2].  A top-size
        # d with T(d) = 2 is first hit on guess two if its first step locked
        # something, else on guess three: then s o d is deranged and s o s o d
        # = identity (s = s_n), so d = s^-2, a derangement exactly when s o s
        # is one (s o d = s^-1 is).  So rho3 is ``_no_lock`` of the top, and
        # rho2 the rest of a_3.
        hit_one = [lower.weighted[2]] * len(group)
        no_lock = [_no_lock(comps[-1]) for comps in group]
        rho[0].extend(hit_one)
        rho[1].extend(map(operator.sub, map(operator.sub, columns.get(2, zeros), hit_one), no_lock))
        rho[2].extend(no_lock)
    ts = sorted(counts)
    return tuple(ts), tuple(counts[t].tobytes() for t in ts), tuple(column.tobytes() for column in rho)


def _evaluate(reps: list[tuple[Perm, ...]]) -> list[Stats]:
    """(gf, rho) of each representative, as ``decomposition_stats`` gives
    them: a view over the columns that ``_scan_chunk`` returns for them (a
    count column per T, LOOPED included, and rho1, rho2, rho3), after
    ``_join`` has checked that each orbit's counts and loops add up to
    n! - 1 and that a_1 = 1.  For the tests and the ``scan-symmetry``
    check."""
    columns = _join(len(reps[0]) if reps else 0, [_scan_chunk(reps)])
    return [columns.stats(i) for i in range(len(columns))]


def scan(
    n: int,
    kind: str,
    *,
    jobs: int = 1,
    max_cost: int = DEFAULT_MAX_COST,
) -> ScanResult:
    """Every strategy in the family, in enumeration order, with its orbit's
    stats, plus the extrema summary.  Oversized scans are refused up front
    with the work estimate.

    Only one strategy per symmetry orbit (``_orbit_map``) is evaluated, and
    the summary is read off the orbits' columns.  Workers own private memos,
    take contiguous runs of the representatives and return their columns as
    bytes (``_scan_chunk``), which ``_join`` concatenates and checks, so
    results are identical for any parallelism degree.

    In process (one job, or too few representatives for a pool), every
    representative then passes once, in order, through
    ``decomposition_stats`` on the scan's memo, which reads its row back
    through ``memo.row``: the per-strategy step that
    ``perfbench/traced.py`` times inside a scan
    (``test_scan_keeps_the_traced_entry_points``).  It changes no result.
    A pool has no such pass: a tracer in the main process never sees the
    calls a worker makes."""
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, not {jobs!r}")
    check_scan_cost(n, kind, max_cost)
    pools = strategies.component_pools(n, kind)
    orbits, reps = _orbit_map(kind, pools)
    if jobs > 1 and len(reps) >= 4 * jobs:
        if 1 < n <= MAX_RANKED:
            _ranks(n)  # built once here and shared by the forked workers
        bounds = [len(reps) * i // jobs for i in range(jobs + 1)]
        # Imported here, where a pool starts: importing multiprocessing costs
        # about 8 ms, which every command would otherwise pay at start-up.
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            chunks = pool.map(_scan_chunk, [reps[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
        stats = _join(n, chunks)
    else:
        memo = SubgameMemo()
        stats = _join(n, [_scan_chunk(reps, memo)])
        for i, comps in enumerate(reps):
            memo.row = (comps, stats, i)
            decomposition_stats(Strategy(comps), memo)
        memo.row = None
    texts = strategies.strategy_texts(pools)
    return ScanResult(n, kind, texts, orbits, stats, _summarize(texts, orbits, stats))
