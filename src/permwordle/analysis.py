"""Strategy performance measures: generating functions, averages, first-hit
classes, and exhaustive scans over strategy families.

Two independent routes produce a strategy's generating function and its
first-hit-class counts, each as one (gf, rho) pair:

* direct playback of all n! secrets (``gf_playback``), the oracle: the
  games are played together, one round at a time, as rows of
  z = secret^-1 o guess grouped by their correct positions, each group
  moved by the strategy's move rule (``engine._mover``) with no
  successor, table or memo (``_play_block``), and
* the subgame decomposition: a secret with k incorrect positions
  contributes through its relative derangement d, so the count of secrets
  solved in 1 + t guesses is sum over k of C(n, k) * #{d in D_k : T(d) = t}.

The two pairs must agree everywhere; tests enforce it.  The
decomposition has one evaluator, the scan chunk (``_scan_chunk``) of
lower prefixes s_1..s_(n-1) times tops s_n, and one conversion of counts
into (gf, rho) (``OrbitColumns.stats``).  A cyclic or deranged family's
representatives are its prefixes times one pool of tops, an inductive
family's one prefix times its tops (``_orbit_map``, checked against the
unshortened ``_canonical``), and a lone strategy
(``decomposition_stats``) is 1 x 1.  D_k is kept once per process as
one byte buffer, k bytes a row, and its rows (``_derangements``); a
derangement becomes a tuple only to key or read a table below the top
size.
Each size k is one pass over D_k (``_size_stats``): the rounds of the
successor walk (``_lock_rounds``) group the rows by the round and the
positions they first lock, and each group's successors are relabelled
and looked up at once.  A
chunk's memo is shared by its prefixes' strategies, which makes
family-wide sweeps cheap.  At the top size a chunk of several strategies
up to ``MAX_RANKED`` reads T(d) = m(d) + V(y(d)): V is the lower
prefix's tables as one flat list, read at the entry of rd(y), and m, y
come from the no-lock chains of the top component, which serve it under
every lower prefix.  The chains nest: where s o d is deranged, the chain
of d is that of s o d and one step more, so the chain ends of length m
are the ends of length 1 whose depth is at least m, and each top needs
only those, ordered by depth.  Tops of one cycle type are conjugate, so
their ends are the rounds of one walk per cycle type over the d that
start a chain (``_chain_rows``, the same ``_lock_rounds``), relabelled
per top and keyed by entry (``_entries``), one lookup per level-1 end
(``_top_ends``).  Under several prefixes a chunk counts all its tops
together: big-int counters hold one fixed-width field per top, one
C-level sum of chain-end planes per chain length m (``_top_chains``)
and value v of V adds to every top's count of T = m + v at once
(``_top_counts``), and a prefix's counter for T, as bytes, is its count
column for T.  Under one prefix each top is read off V by itself, each
end's code once for every length it ends (``_top_stats``).

Averages are exact rationals; a strategy that loops on any secret gets an
infinite average and sorts after every terminating strategy.
"""

from __future__ import annotations

import itertools
import operator
import os
import struct
import sys
from array import array
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, inf, lcm
from typing import Iterable, NamedTuple

from . import closedform, perms, strategies
from .engine import LOOPED, SubgameMemo, Tables, _mover
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


@lru_cache(maxsize=None)
def _derangements(k: int) -> tuple[bytes, tuple[bytes, ...]]:
    """D_k in lexicographic order, kept for the life of the process: one
    buffer of k bytes a row, and its rows as ``bytes`` objects, which
    ``_lock_rounds`` groups.  Each row is packed from the tuple that
    ``perms.enumerate_perms`` yields, and the tuple is dropped at once:
    the decomposition walks D_k only as rows and buffer, and a derangement
    becomes a tuple again only to key or read a table below the top size.
    The buffer grows by ``bytearray.extend``: a ``join`` of the rows would
    hold an 80-byte ``Py_buffer`` per row while it runs (10.7 MB for D_9)."""
    rows = tuple(itertools.starmap(struct.Struct(f"{k}B").pack, perms.enumerate_perms(k, "derangements")))
    flat = bytearray()
    deque(map(flat.extend, rows), maxlen=0)
    return bytes(flat), rows


@lru_cache(maxsize=None)
def _keys(k: int) -> dict[bytes, Perm]:
    """Each row of ``_derangements(k)`` to its tuple, in lexicographic
    order: the keys of every size-k table, so that one tuple per
    derangement serves all of them and ``_top_values`` reads a table with
    its own keys.  Built only for the sizes below the top."""
    flat, rows = _derangements(k)
    return dict(zip(rows, zip(*[iter(flat)] * k)))


LOOPED_CODE = 255  # LOOPED in a lookup table V; see ``_top_values``
MAX_RANKED = 9  # the largest n of the word map: n - 1 entries fit a word up to 9


@lru_cache(maxsize=None)
def _entries(n: int) -> dict[int, int]:
    """The entry of rd(x) in the flat list of the lower tables, 0 for the
    identity and then each row e of ``_derangements(k)``, k = 2..n-1,
    for each x in S_n with a fixed point, keyed by its first n - 1 values packed
    into a zero-padded 8-byte word that ``memoryview.cast`` reads as an
    int.  x(W_j) = W_e(j) for its incorrect positions W and e = rd(x): per
    (k, W), one ``bytes.translate`` of the D_k buffer by j -> W_j
    gives the x(W_j), strided into identity words, which get e's entries."""
    identity = bytes(range(1, n)).ljust(8, b"\0")
    index = {int.from_bytes(identity, sys.byteorder): 0}
    offset = 1
    for k in range(2, n):
        flat = _derangements(k)[0]
        size = len(flat) // k
        for wrong in itertools.combinations(range(n), k):
            moved = flat.translate(bytes.maketrans(bytes(range(1, k + 1)), bytes(q + 1 for q in wrong)))
            xs = bytearray(identity * size)
            for j, q in enumerate(wrong):
                if q < n - 1:  # the last entry is not in the word
                    xs[q::8] = moved[j::k]
            index.update(zip(memoryview(xs).cast("Q").tolist(), range(offset, offset + size)))
        offset += size
    return index


def _top_values(n: int, tables: Tables) -> bytes:
    """The lookup table V of a lower prefix, from its complete size < n
    tables, one byte per entry of ``_entries``: V[0] = 0 for the identity,
    then T(e) for each row e of ``_derangements(k)``, k = 2..n-1, read
    by its key (``_keys``).  A top-size d whose first step x = s_n o d locks
    something has T(d) = 1 + V(x) = 1 + T(rd(x)).

    LOOPED is stored as ``LOOPED_CODE`` (255) and every finite T as itself,
    so the codes cannot collide while every finite T is below 255.  A
    finite T is at most the number of subgames below n, which keeps it
    there for every n up to 6 (1 + 2 + 9 + 44 of them); beyond that the
    bound is checked, and a larger T is refused rather than wrapped."""
    flat: list[int | float] = [0]
    for k in range(2, n):
        if len(tables[k]) != closedform.derangement_count(k):
            raise ValueError(f"the size-{k} table must be complete to build V")
        flat += map(tables[k].__getitem__, _keys(k).values())
    longest = max(t for t in flat if t != LOOPED)
    if longest >= LOOPED_CODE:
        raise ValueError(f"T = {longest} does not fit below the LOOPED code {LOOPED_CODE}")
    return bytes(LOOPED_CODE if t == LOOPED else t for t in flat)


class TopChains(NamedTuple):
    """The no-lock chains over D_n of a top component s, whatever is below.

    The chain of d is x_1 = s o d, x_(i+1) = s o x_i while x_i is deranged;
    it ends at y(d) = x_m, the first composition with a fixed point, after
    m(d) = m steps.  ``ends[m - 1]``, level m, holds the entry of rd(y(d))
    (``_entries``) for each d with m(d) = m; ``loops`` counts the d whose
    chain repeats.  The levels are nested (``_chain_rows``): level m is
    the suffix of the level-1 ends, ordered by depth, whose depth is at
    least m.  Tops of one cycle type are conjugate, and ``_top_ends``
    reads all their chains off one walk.
    """

    ends: tuple[list[int], ...]
    loops: int


@lru_cache(maxsize=None)
def _chain_rows(lengths: tuple[int, ...]) -> tuple[bytes, tuple[int, ...], int]:
    """The level-1 chain ends of c, the permutation of cycle type
    ``lengths`` whose cycles are blocks of consecutive values, each shifted
    by one: the flat y(d) of every d with m(d) = 1, ordered by depth, the
    count of each depth 1, 2, ..., and the number of d whose chain loops.
    Kept for the life of the process, one entry per cycle type of the tops
    read off a lookup table.

    The levels are nested.  If c o d is deranged, the chain of d is that
    of c o d with one step before it: y(d) = y(c o d) and m(d) = m(c o d)
    + 1.  So level m, the y(d) with m(d) = m, is the level-1 ends of depth
    at least m, the depth of y being the largest m(d) with y(d) = y, and
    no level repeats an end, since d -> c^m o d is one-to-one.  An end of
    depth k is y(d) for one d of each m = 1..k, and the one of m = k, its
    start, is the d whose c^-1 o d has a fixed point (d(q) = c(q) for some
    q), as d = c o d' for no deranged d'.  One ``translate`` of D_n by
    c^-1 and its lock-set keys (``_lock_keys``) pick the starts, and their
    chains are the rounds of c over them (``_lock_rounds``): round k holds
    the starts of depth k, and one ``translate`` of their joined rows by
    c^k gives their y.  A looping chain has no start, as it passes through
    a deranged c^-1 o d, and every other d is on one start's chain, so the
    loop count is |D_n| less the sum over k of k times the count of depth
    k."""
    c: list[int] = []
    for size in lengths:  # the block low..low + size - 1, shifted by one
        low = len(c) + 1
        c += [*range(low + 1, low + size), low]
    n = len(c)
    inverse = bytes.maketrans(bytes(c), bytes(range(1, n + 1)))
    flat, rows = _derangements(n)
    starts = list(itertools.compress(rows, _lock_keys(flat.translate(inverse), n)))
    rounds, _ = _lock_rounds(n, bytes.maketrans(bytes(range(1, n + 1)), bytes(c)), starts)
    ends = b"".join(b"".join(map(b"".join, groups.values())).translate(power) for power, groups in rounds)
    counts = tuple(sum(map(len, groups.values())) for _, groups in rounds)
    return ends, counts, len(rows) - sum(map(operator.mul, counts, itertools.count(1)))


def _cycles(p: Perm) -> list[list[int]]:
    """The cycles of p (p(a) = p[a - 1]), each from the first of its values
    that p lists, in that order; a fixed point is a cycle of one."""
    cycles, seen = [], set()
    for start in p:
        if start not in seen:
            cycle = [start]
            while p[cycle[-1] - 1] != start:
                cycle.append(p[cycle[-1] - 1])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def _top_ends(top: Perm) -> tuple[list[int], tuple[int, ...], int]:
    """The level-1 chain ends of ``top`` as entries of their rd
    (``_entries``), ordered by depth, the count of each depth and the loop
    count, read off the walk of its cycle type (``_chain_rows``): what
    both top-size routes read of a top.

    Write top = p c p^-1, with c as in ``_chain_rows``: p lists the top's
    cycles, shortest first, so that it sends c's blocks onto them.  Then
    d -> e = p^-1 d p is a bijection of D_n, top^i o d = p (c^i o e) p^-1,
    and the fixed points of p z p^-1 are p(Fix z).  So m(d) = m(e), the
    depths agree, and y(d) = p y(e) p^-1, whose entry at j is
    p(y(e)(p^-1(j))): one ``translate`` by p and n - 1 strided copies of
    the columns p^-1(j) make the words, and the entry of each level-1 end
    is one ``_entries`` lookup, 1,275 of the 1,854 chain ends at n = 7
    and 90,109 of 133,496 at n = 9 for the n-cycles."""
    n, cycles = len(top), sorted(_cycles(top), key=len)
    p = bytes(itertools.chain.from_iterable(cycles))  # p(a) = p[a - 1]
    rows, counts, loops = _chain_rows(tuple(map(len, cycles)))
    flat, words = rows.translate(bytes.maketrans(bytes(range(1, n + 1)), p)), bytearray(len(rows) // n * 8)
    for j, q in enumerate(map(p.index, range(1, n))):  # q = p^-1(j + 1) - 1
        words[j::8] = flat[q::n]
    return list(map(_entries(n).__getitem__, memoryview(words).cast("Q").tolist())), counts, loops


def _top_chains(top: Perm) -> TopChains:
    """``TopChains`` of ``top``: level m is the suffix of its level-1 ends
    (``_top_ends``) from the first of depth m.  While some chain loops the
    levels run on, empty, to the order of the top minus one, as the rounds
    of its walk would."""
    ends, counts, loops = _top_ends(top)
    starts = [*itertools.accumulate(counts[:-1], initial=0)]
    if loops:
        starts += [len(ends)] * (_order(top) - 1 - len(starts))
    return TopChains(tuple(ends[start:] for start in starts), loops)


def _top_stats(top: Perm, values: bytes) -> Hist:
    """``_size_stats`` at the top size n, read off the lookup table V:
    T(d) = m(d) + V(y(d)) (LOOPED if either is), with m and y from the
    no-lock chains of the top.  Each level-1 end y of depth k is y(d) for
    one d of each m = 1..k (``_chain_rows``), so its code v = V(y) is read
    once and counts once for each T = v + 1, ..., v + k, or k times for
    LOOPED."""
    ends, counts, loops = _top_ends(top)
    # The trailing entry keeps the getter's result a tuple; it is cut.
    found = bytes(operator.itemgetter(*ends, 0)(values))[:-1]
    hist: Hist = {LOOPED: loops} if loops else {}
    start = 0
    for depth, count in enumerate(counts, 1):
        part = found[start : start + count]
        start += count
        for v in set(part):
            times = part.count(v)
            for t in [LOOPED] * depth if v == LOOPED_CODE else range(v + 1, v + depth + 1):
                hist[t] = hist.get(t, 0) + times
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


def _lock_keys(rows: bytes, k: int, stride: int | None = None) -> memoryview:
    """The fixed points of each size-k permutation in the flat ``rows`` as
    one int key with bit q set when position q + 1 is fixed.  A row is
    ``stride`` bytes (k unless given), the permutation its first k.  Each
    column is one ``translate`` to its bit; the columns of 8 positions are
    OR-ed into one byte plane as big ints, and the planes are interleaved
    into a 1-, 2- or 4-byte key per row."""
    stride = stride or k
    count = len(rows) // stride
    code, width = ("B", 1) if k <= 8 else ("H", 2) if k <= 16 else ("I", 4)
    bits = _lock_bits(k)
    keys = bytearray(width * count)
    for low in range(0, k, 8):
        plane = 0
        for q in range(low, min(low + 8, k)):
            plane |= int.from_bytes(rows[q::stride].translate(bits[q]), "little")
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


def _lock_rounds(
    k: int, step: bytes, start: list[bytes] | None = None
) -> tuple[list[tuple[bytes, dict[int, list[bytes]]]], Sequence[bytes]]:
    """The rounds of s over D_k, ``step`` the translation table of s: per
    round i, the table of s^i and the d whose first composition with a
    fixed point is s^i o d, grouped by lock-set key (``_lock_keys``); and
    the d that never lock, as s^i o d comes back to d at the order of s.
    A d is its row of ``_derangements(k)``, k bytes; the rounds walk all
    of D_k, or the rows ``start`` when given.

    A round keys its pending d by one ``translate`` of their flat entries
    (in a round one over D_k the cached buffer itself, else the ``join``
    of the pending rows) and groups the rows with one C-level ``map`` of
    ``list.append``: nothing is built per d, and the d that lock nothing
    (key 0) go on to the next round."""
    rounds, power = [], step
    flat, rows = _derangements(k)
    pending = rows if start is None else start
    while pending and power != _IDENTITY:
        if pending is not rows:
            flat = b"".join(pending)
        keys = _lock_keys(flat.translate(power), k)
        groups: dict[int, list[bytes]] = {key: [] for key in set(keys)}
        deque(map(list.append, map(groups.__getitem__, keys), pending), maxlen=0)
        pending = groups.pop(0, [])
        rounds.append((power, groups))
        power = power.translate(step)
    return rounds, pending


def _size_stats(k: int, strategy: Strategy, tables: Tables) -> Hist:
    """Histogram of T over D_k, from the complete tables of the sizes below
    k.  Fills ``tables[k]`` completely when ``tables`` has a size-k table.

    T(d) = 1 + T(rd(s o d)) with s = s_k, and s o d is fixed exactly where
    the guess s^-1 agrees with d.  A group of round i of ``_lock_rounds``
    with lock set L has T(d) = i + T(rd(s^i o d)), rd(s^i o d) of size |W|
    for W the complement of L: one ``translate`` of the group's joined
    rows by s^i and one that relabels W and deletes L give every rd at
    once, and the size-|W| table is read by a C-level ``map`` over their
    tuples, each dropped once it is looked up.  The d that never lock
    loop.  The d themselves are keyed in the size-k table by their cached
    tuples (``_keys``)."""
    table = tables.get(k)
    hist: Counter = Counter()
    step = bytes.maketrans(bytes(range(1, k + 1)), bytes(strategy.components[k - 1]))
    rounds, looping = _lock_rounds(k, step)
    for i, (power, groups) in enumerate(rounds, 1):
        found: list[int | float] = []  # T(rd(s^i o d)) by group; 0 for the identity
        flats = list(map(b"".join, groups.values()))
        for key, flat in zip(groups, flats):
            size, relabel, fixed = _relabel(k, key)
            rds = zip(*[iter(flat.translate(power).translate(relabel, fixed))] * size)  # a tuple per `size` bytes
            found += map(tables[size].__getitem__, rds) if size else [0]
        ts = map(operator.add, found, itertools.repeat(i))
        if table is not None:
            ts = list(ts)
            table.update(zip(map(_keys(k).__getitem__, itertools.chain.from_iterable(groups.values())), ts))
        hist.update(ts)
    if looping:
        hist[LOOPED] += len(looping)
        if table is not None:
            table.update(dict.fromkeys(map(_keys(k).__getitem__, looping), LOOPED))
    return hist


class LowerPrefix(NamedTuple):
    """What the strategies of lower prefix s_1..s_(n-1) share: the sum of
    C(n, k) times the T histogram of each size k < n and, in a chunk of
    several strategies up to ``MAX_RANKED``, V."""

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
    return LowerPrefix(weighted)


# _SELECT[v] translates byte v to 1 and every other byte to 0.
_SELECT = [bytes(v) + b"\1" + bytes(255 - v) for v in range(256)]


def _field_code(n: int) -> str:
    """The array code of one top's field in a counter or a column, 2 bytes
    while n! <= 2^16 and 4 beyond: a field's total is at most n! - 1, which
    4 bytes hold up to n = 12.  No strategy, lone or scanned, reaches
    n = 13: its top-size pass needs all of D_13 (2.3e9 derangements)."""
    return "H" if factorial(n) <= 1 << 16 else "I"


class TopBlock(NamedTuple):
    """Bit-sliced counters for the tops of a scan chunk: big ints with one
    fixed-width field per top.  ``planes[m - 1]`` pairs the
    entries of V (``TopChains.ends``) where some top's chain of length m
    ends with the plane of each such (m, entry), which holds in the field
    of every top the number of its chains of length m that end there;
    ``loops`` each top's count of looping chains and ``ones`` 1 in each."""

    planes: list[tuple[list[int], list[int]]]
    loops: int
    ones: int


def _top_block(chains: list[TopChains], code: str) -> TopBlock:
    """The ``TopBlock`` of the tops with these ``chains``.  y = s^m o d is
    injective in d and C(n, k) permutations share one rd of size k, so an
    entry occurs at most C(n, floor(n / 2)) times in a top's ends of one
    length, 126 at n = 9: each top's ends make a row of one-byte counts
    over the entries (a larger count would raise ``ValueError``, not wrap),
    and one strided slice copies it into that top's field of every plane."""
    width = array(code).itemsize
    stride = width * len(chains)
    low = 0 if sys.byteorder == "little" else width - 1  # the byte that holds a count
    planes = []
    for m in range(max(len(c.ends) for c in chains)):
        support = sorted(set().union(*(c.ends[m] for c in chains if m < len(c.ends))))
        at = dict(zip(support, itertools.count()))
        flat = bytearray(stride * len(support))
        for i, c in enumerate(chains):
            if m < len(c.ends):
                row = bytearray(len(support))
                counted = Counter(c.ends[m])
                deque(map(row.__setitem__, map(at.__getitem__, counted), counted.values()), maxlen=0)
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

    Per chain length m, the planes of the entries where V = v are added into
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


def _top_counts(n: int, tops: list[Perm], lowers: list[LowerPrefix]) -> list[dict[int | float, bytes]]:
    """Under each of ``lowers``, by T, the counts of the secrets besides the
    identity that take 1 + T guesses (T = LOOPED: they loop), lower sizes
    included, for ``tops``, the top at index i in field i: one ``TopBlock``
    of all the tops, one pass over it per lower prefix, and each counter
    read out once, as its bytes, which are that prefix's count column."""
    code = _field_code(n)
    block = _top_block([_top_chains(top) for top in tops], code)
    size = array(code).itemsize * len(tops)
    return [
        {t: c.to_bytes(size, sys.byteorder) for t, c in _block_counts(block, lower).items()}
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
    own on ``memo`` (``_scan_chunk`` of 1 x 1), which builds no word map;
    when ``memo.row`` holds the strategy's row in a scan's columns (an
    in-process ``scan`` sets it), that row is read back instead.
    """
    memo = memo or SubgameMemo()
    if memo.row is not None and memo.row[0] == strategy.components:
        _, columns, index = memo.row
        return columns.stats(index)
    comps = strategy.components
    return _join(strategy.n, [_scan_chunk([comps[:-1]], [comps[-1]], memo)]).stats(0)


PLAYBACK_BLOCK = 20_160  # 8!/2: the secrets one playback keeps in flight at once
_SAME = b"\xff" + bytes(255)  # translates a zero difference byte to 0xFF, every other to 0


def _order(p: Perm) -> int:
    """The order of p: the lcm of its cycle lengths."""
    return lcm(*map(len, _cycles(p)))


def _stayed(keys: memoryview, last: bytes) -> int:
    """As a big int, 0xFF in the byte of each row whose key equals its key
    of the round before (``last``, laid out as ``keys``), 0 in the others:
    one XOR of the keys, its bytes of one row OR-ed into one, and one
    ``translate``."""
    size, count = keys.itemsize, len(keys)
    diff = (int.from_bytes(keys, "little") ^ int.from_bytes(last, "little")).to_bytes(size * count, "little")
    changed = 0
    for j in range(size):
        changed |= int.from_bytes(diff[j::size], "little")
    return int.from_bytes(changed.to_bytes(count, "little").translate(_SAME), "little")


def _play_block(strategy: Strategy, limits: list[int], block: bytes, counts: Counter, rho: dict[int, int]) -> None:
    """Play the game of each permutation z of the flat ``block`` to its
    end, with z as secret^-1, adding the games by rounds to ``counts``
    (LOOPED: those that loop) and the first-hit rounds of those solved in
    three to ``rho``.

    A row of n + 2 bytes is z = secret^-1 o guess, which is fixed exactly
    where the guess is correct (in round one, with the identity guess, the
    permutation from ``block``), then a counter of the rounds spent under
    the current correct set and the first hit's round (0 before it; kept
    up to round 2, all that ``rho`` reads).  Each round keys every row by
    its correct positions (``_lock_keys``), counts a counter up where the
    key is the one of the round before and restarts it at 1 elsewhere, and
    groups the rows by key with one C-level ``map``.  A full key is solved.
    The move of a key is the mover of ``engine._mover``: the next guess is
    guess o move, so z becomes z o move, n strided column copies for the
    whole group.  The move's order is that of the component it applies
    (``limits[k - 1]`` is one more), and under one correct set only the
    move acts, so a row whose counter reaches the limit has come back to
    the guess it had when that set appeared: exactly where ``engine._game``
    sees a guess repeat, it loops."""
    n = strategy.n
    width, full = n + 2, (1 << n) - 1
    split = struct.Struct(f"{width}s").iter_unpack
    moves: dict[int, tuple[int, ...]] = {}
    rows = bytearray(len(block) // n * width)
    for q in range(n):
        rows[q::width] = block[q::n]
    last = None  # the keys of the round before; key 0 before round one
    r = 0
    while rows:
        r += 1
        count = len(rows) // width
        keys = _lock_keys(rows, n, width)
        counters = int.from_bytes(rows[n::width], "little") & _stayed(keys, last or bytes(keys.nbytes))
        rows[n::width] = (counters + int.from_bytes(b"\1" * count, "little")).to_bytes(count, "little")
        groups: dict[int, list[bytes]] = {key: [] for key in set(keys)}
        deque(map(list.append, map(groups.__getitem__, keys), map(operator.itemgetter(0), split(rows))), maxlen=0)
        solved = groups.pop(full, None)
        if solved:
            counts[r] += len(solved)
            if r == 3:
                hits = b"".join(solved)[n + 1 :: width]
                rho[1] += hits.count(1)
                rho[2] += hits.count(2)
                rho[3] += hits.count(0)
        first = bytes([r]) + _IDENTITY[1:]  # translates "no hit yet" to this round
        parts, lasts = [], []
        for key, group in groups.items():
            limit = limits[n - key.bit_count() - 1]
            flat = b"".join(group)
            looped = flat[n::width].count(limit)
            if looped:
                counts[LOOPED] += looped
                keep = flat[n::width].translate(bytes(map(limit.__ne__, range(256))))  # 0 where it loops
                group = list(itertools.compress(group, keep))
                flat = b"".join(group)
            if key not in moves:
                mask = tuple(not key >> q & 1 for q in range(n))
                moves[key] = (*_mover(strategy, mask)(range(n)), n, n + 1)
            moved = bytearray(len(flat))
            for i, q in enumerate(moves[key]):
                moved[i::width] = flat[q::width]
            if key and r < 3:
                moved[n + 1 :: width] = moved[n + 1 :: width].translate(first)
            parts.append(moved)
            lasts.append(key.to_bytes(keys.itemsize, sys.byteorder) * len(group))
        rows, last = bytearray(b"".join(parts)), b"".join(lasts)


def gf_playback(strategy: Strategy) -> Stats:
    """Generating function and first-hit-class counts, as from
    ``decomposition_stats``, by playing out every one of the n! secrets.

    The secrets are played together, one round at a time, in blocks of
    ``PLAYBACK_BLOCK`` (``_play_block``), with the guess-update rule of
    ``engine._mover`` and nothing of the decomposition.  A block is
    permutations z from S_n, each played as the secret z^-1, and the blocks
    together are S_n.  A game's round counter is one byte, so a strategy
    with a component of order 255 or more is refused with ``ValueError``.
    """
    n = strategy.n
    limits = [_order(c) + 1 for c in strategy.components]
    if max(limits) > 255:
        raise ValueError(f"a component of order {max(limits) - 1} does not fit the one-byte round counter")
    counts: Counter = Counter()
    rho = {1: 0, 2: 0, 3: 0}
    secrets = itertools.permutations(range(1, n + 1))
    while block := bytes(itertools.chain.from_iterable(itertools.islice(secrets, PLAYBACK_BLOCK))):
        _play_block(strategy, limits, block, counts, rho)
    loops = counts.pop(LOOPED, 0)
    return GFCoefficients(n, dict(sorted(counts.items())), loops), rho


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
    counts = _second_guess_counts(len(comp))  # guess two g hits d at q + 1 where g(q + 1) = d(q + 1)
    hits = sum(map(operator.getitem, counts, perms.invert(comp)))
    return Fraction(hits, sum(counts[0]))


@lru_cache(maxsize=None)
def _second_guess_counts(n: int) -> tuple[tuple[int, ...], ...]:
    """``counts[q][v]``, the number of d in D_n with d(q + 1) = v, v = 0..n:
    the count of byte v in column q of the D_n buffer (``_derangements``)."""
    flat = _derangements(n)[0]
    return tuple(tuple(map(flat[q::n].count, range(n + 1))) for q in range(n))


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
    member's orbit number, the orbits' stats and, once read, the summary.

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

    @cached_property
    def summary(self) -> ScanSummary:
        """The extrema (``_summarize``), kept once read; a scan's CSV never
        reads them."""
        return _summarize(self.texts, self.orbits, self.stats)


def flagged_members(texts: list[str], orbits: list[int], flags: list[bool]) -> tuple[str, ...]:
    """The texts of the members whose orbit is flagged, in scan order."""
    return tuple(itertools.compress(texts, map(flags.__getitem__, orbits)))


def column_extreme(texts: list[str], orbits: list[int], column: Sequence, pick) -> ExtremeSet:
    """The extreme (``pick`` is max or min) of a per-orbit ``column`` and
    the members whose orbit attains it, in scan order."""
    value = pick(column)
    return ExtremeSet(value, flagged_members(texts, orbits, list(map(operator.eq, column, itertools.repeat(value)))))


def _summarize(texts: list[str], orbits: list[int], stats: OrbitColumns) -> ScanSummary:
    """The extrema over the orbits' columns (``column_extreme``).  The least
    average is the least guess total over n!, that of an orbit with loops
    being infinite."""
    totals = [inf if loops else total for total, loops in zip(stats.guess_totals, stats.loops())]
    average = column_extreme(texts, orbits, totals, min)
    if average.value != inf:
        average = ExtremeSet(Fraction(average.value, factorial(stats.n)), average.strategy_ids)
    a3 = stats.coefficient(3)
    return ScanSummary(
        min_average=average,
        max_a3=column_extreme(texts, orbits, a3, max),
        min_a3=column_extreme(texts, orbits, a3, min),
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


def _orbit_map(kind: str, pools: list[list[Perm]]) -> tuple[list[int], list[tuple[Perm, ...]], list[Perm]]:
    """Each member's orbit number, and the orbits' representatives as lower
    prefixes and tops: orbit i is ``prefixes[i // len(tops)] +
    (tops[i % len(tops)],)``.  Both are what numbering ``_canonical`` of
    every member in first-seen order gives, but without a ``Strategy`` or a
    ``_canonical`` per member, and no representative is built.  ``pools``
    are the family's ``strategies.component_pools``.

    Inductive: one prefix.  Tops run in lexicographic order and conjugates
    of an n-cycle are n-cycles, so an orbit's first member has its least
    top and is its representative: the tops are each orbit's first, and its
    n conjugates are computed then, once per orbit.  Cyclic and deranged,
    n >= 3: the representatives are the first half of the enumeration
    (s_3 = (2, 3, 1)), each its own orbit: the product of the pools with
    ``pools[2][:1]`` in the s_3 slot, whose last factor gives the tops.  A
    second-half member's orbit is the index of its mirror, whose mixed-radix
    digit for each size is the mirror position of the member's digit in
    that pool; the mirror's s_3 digit is 0.
    """
    if kind == "inductive":
        orbit_of: dict[Perm, int] = {}
        tops: list[Perm] = []
        for top in pools[-1]:
            if top not in orbit_of:
                orbit_of.update(dict.fromkeys(_rotations(top), len(tops)))
                tops.append(top)
        prefix = tuple(pool[0] for pool in pools[:-1])
        return list(map(orbit_of.__getitem__, pools[-1])), [prefix], tops
    if len(pools) < 3:
        return [0], list(itertools.product(*pools[:-1])), pools[-1]
    slots = [*pools[:2], pools[2][:1], *pools[3:]]
    prefixes, tops = list(itertools.product(*slots[:-1])), slots[-1]
    mirrors = [0]
    for pool in pools[3:]:
        position = {c: i for i, c in enumerate(pool)}
        table = [position[strategies.mirror_component(c)] for c in pool]
        mirrors = [len(pool) * index + digit for index in mirrors for digit in table]
    return list(range(len(prefixes) * len(tops))) + mirrors, prefixes, tops


def _lone_counts(
    prefix: tuple[Perm, ...], tops: list[Perm], lower: LowerPrefix, memo: SubgameMemo
) -> dict[int | float, bytes]:
    """By T, the count column of the strategies prefix + (top,) as bytes:
    lower.weighted plus each top's histogram, read off V by itself
    (``_top_stats``) or, without V, by the lock-set pass."""
    n = len(tops[0])
    columns: dict[int | float, list[int]] = {}
    for i, top in enumerate(tops):
        if lower.values:
            hist = _top_stats(top, lower.values)
        else:  # given the tables below n only, the pass keeps no top table
            s = Strategy(prefix + (top,))
            hist = _size_stats(n, s, memo.tables_up_to(s, n - 1))
        for t, count in (lower.weighted + Counter(hist)).items():
            columns.setdefault(t, [0] * len(tops))[i] = count
    code = _field_code(n)
    return {t: array(code, column).tobytes() for t, column in columns.items()}


def _scan_chunk(prefixes: list[tuple[Perm, ...]], tops: list[Perm], memo: SubgameMemo | None = None) -> Chunk:
    """The results of every strategy prefix + (top,), prefixes outermost,
    on ``memo`` (a scan worker's or one strategy's): their ``OrbitColumns``
    as bytes, a few bytes per orbit and column.

    Each prefix's lower tables and their histogram sum are built once, and
    the chunk's shape alone picks the route for the tops.  A chunk of more
    than one strategy at 2 <= n <= ``MAX_RANKED`` (``ranked``) builds each
    prefix's lookup table V.  Under several prefixes it counts all its tops
    under every prefix at once (``_top_counts``, one set of planes that
    grows with the number of tops), and a prefix's counter for T, as bytes,
    is its count column for T; the V and counters (a byte per lower
    subgame, a few per top and T) are kept until then.  Under one prefix
    it reads each top off V (``_top_stats``).  Every other chunk (one
    strategy, n = 1, n > ``MAX_RANKED``) reads each top off the lock-set
    pass, with tables only below n."""
    if not (prefixes and tops):
        return (), (), (b"", b"", b"")
    memo = memo or SubgameMemo()
    n = len(tops[0])
    ranked = len(prefixes) * len(tops) > 1 and 1 < n <= MAX_RANKED
    lowers = []
    for prefix in prefixes:
        first = Strategy(prefix + (tops[0],))
        lower = _lower_stats(first, memo)
        if ranked:
            lower = lower._replace(values=_top_values(n, memo.tables_up_to(first, n - 1)))
        lowers.append(lower)
    if ranked and len(prefixes) > 1:
        columns = _top_counts(n, tops, lowers)
    else:
        columns = [_lone_counts(prefix, tops, lower, memo) for prefix, lower in zip(prefixes, lowers)]
    code = _field_code(n)
    zeros = bytes(array(code).itemsize * len(tops))
    no_lock = array(code, map(_no_lock, tops))
    rho = (array(code), array(code), array(code))
    for lower, column in zip(lowers, columns):
        # Below the top size guess one hits, so rho1 = weighted[2].  A top-size
        # d with T(d) = 2 is first hit on guess two if its first step locked
        # something, else on guess three: then s o d is deranged and s o s o d
        # = identity (s = s_n), so d = s^-2, a derangement exactly when s o s
        # is one (s o d = s^-1 is).  So rho3 is ``_no_lock`` of the top, and
        # rho2 the rest of a_3.
        hit_one = lower.weighted[2]
        rho[0].extend(itertools.repeat(hit_one, len(tops)))
        a3 = array(code, column.get(2, zeros))
        rho[1].extend(map(operator.sub, map(operator.sub, a3, itertools.repeat(hit_one)), no_lock))
        rho[2].extend(no_lock)
    ts = sorted(set().union(*columns))
    counts = tuple(b"".join(column.get(t, zeros) for column in columns) for t in ts)
    return tuple(ts), counts, tuple(column.tobytes() for column in rho)


def _parts(prefixes: list[tuple[Perm, ...]], tops: list[Perm], jobs: int) -> list[tuple[list, list]]:
    """A pooled scan's chunks, in order: at most ``jobs`` contiguous runs of
    whole prefixes, each with every top, when there is more than one
    prefix, and otherwise runs of the one prefix's tops.  No run is empty.
    The caller evaluates the first, and the pool's ``jobs - 1`` workers the
    rest."""
    runs = prefixes if len(prefixes) > 1 else tops
    count = min(jobs, len(runs))
    cut = [runs[len(runs) * i // count : len(runs) * (i + 1) // count] for i in range(count)]
    return [(run, tops) if runs is prefixes else (prefixes, run) for run in cut]


def _scan_part(part: tuple[int, tuple[list, list]]) -> Chunk:
    """``_scan_chunk`` of chunk i of a pooled scan, after one move to the
    i-th allowed CPU (the mask is restored at once): forked workers may
    start on one CPU and stay there (README, "Scales and cost guard").
    The calling process runs chunk 0, on the first CPU; worker i, chunk i."""
    i, (prefixes, tops) = part
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    return _scan_chunk(prefixes, tops)


def available_cpus() -> int:
    """CPUs this process may run on, which can be fewer than the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _evaluate(prefixes: list[tuple[Perm, ...]], tops: list[Perm]) -> list[Stats]:
    """(gf, rho) of each strategy prefix + (top,), prefixes outermost, as
    ``decomposition_stats`` gives them: a view over the columns that
    ``_scan_chunk`` returns for them (a count column per T, LOOPED
    included, and rho1, rho2, rho3), after ``_join`` has checked that each
    orbit's counts and loops add up to n! - 1 and that a_1 = 1.  For the
    tests and the ``scan-symmetry`` check."""
    columns = _join(len(tops[0]) if tops else 0, [_scan_chunk(prefixes, tops)])
    return [columns.stats(i) for i in range(len(columns))]


def scan(
    n: int,
    kind: str,
    *,
    jobs: int = 1,
    max_cost: int = DEFAULT_MAX_COST,
) -> ScanResult:
    """Every strategy in the family, in enumeration order, with its orbit's
    stats, and the extrema summary when it is read.  Oversized scans are
    refused up front with the work estimate.

    Only one strategy per symmetry orbit is evaluated: the representatives
    are lower prefixes times tops (``_orbit_map``), and the summary is read
    off the orbits' columns.  A pooled scan runs in at most ``jobs``
    processes, and no more than ``available_cpus``: ``jobs - 1`` forked
    workers plus the caller, which evaluates the first part while the
    workers evaluate the rest.  Each owns a private memo, takes a
    contiguous run of whole prefixes, or of the tops of a lone prefix
    (``_parts``), and a CPU (``_scan_part``), and returns its columns as
    bytes (``_scan_chunk``), which ``_join`` concatenates in order and
    checks, so results are identical for any parallelism.  An error in a
    worker's part is raised again by ``scan``.

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
    orbits, prefixes, tops = _orbit_map(kind, pools)
    jobs = min(jobs, available_cpus())
    if jobs > 1 and len(prefixes) * len(tops) >= 4 * jobs:
        if 1 < n <= MAX_RANKED:
            _entries(n)  # built once here: the caller uses it, forked workers share it
        parts = _parts(prefixes, tops, jobs)
        # Imported here, where a pool starts: importing multiprocessing costs
        # about 8 ms, which every command would otherwise pay at start-up.
        import multiprocessing

        # Fork, where the platform has it, so that workers inherit the
        # package and ``_entries(n)`` instead of importing and rebuilding them.
        fork = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        with multiprocessing.get_context(fork).Pool(len(parts) - 1) as pool:
            rest = pool.map_async(_scan_part, enumerate(parts[1:], 1))
            chunks = [_scan_part((0, parts[0])), *rest.get()]
        stats = _join(n, chunks)
    else:
        memo = SubgameMemo()
        stats = _join(n, [_scan_chunk(prefixes, tops, memo)])
        reps = (prefix + (top,) for prefix in prefixes for top in tops)
        for i, comps in enumerate(reps):
            memo.row = (comps, stats, i)
            decomposition_stats(Strategy(comps), memo)
        memo.row = None
    texts = strategies.strategy_texts(pools)
    return ScanResult(n, kind, texts, orbits, stats)
