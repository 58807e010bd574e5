import array
import collections
import functools
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from math import comb, factorial, inf
from pathlib import Path

import pytest

from permwordle import analysis, closedform, engine, perms, strategies
from permwordle.analysis import GFCoefficients, ScanCostError
from permwordle.engine import LOOPED, SubgameMemo

CS4 = strategies.cyclic_shift(4)
CSL4 = strategies.cyclic_shift_left_top(4)
CS5 = strategies.cyclic_shift(5)
CSL5 = strategies.cyclic_shift_left_top(5)


@functools.lru_cache(maxsize=None)
def _derangements(k):
    """D_k as tuples in lexicographic order, for the references and the
    seeded strategies: the tuple stream of ``perms.enumerate_perms``."""
    return tuple(perms.enumerate_perms(k, "derangements"))


def test_gf_reference_rows():
    cases = [
        (CS4, (1, 11, 11, 1)),
        (strategies.inductive((2, 4, 1, 3)), (1, 11, 9, 3)),
        (CSL4, (1, 11, 7, 5)),
        (CS5, (1, 26, 66, 26, 1)),
        (strategies.inductive((4, 3, 1, 5, 2)), (1, 26, 60, 25, 8)),
        (strategies.inductive((3, 5, 2, 1, 4)), (1, 26, 55, 27, 10, 1)),
        (CSL5, (1, 26, 51, 26, 11, 5)),
    ]
    for s, expected in cases:
        assert analysis.generating_function(s, "decomposition").as_tuple() == expected
        assert analysis.generating_function(s, "playback").as_tuple() == expected


def test_gf_validates_totals():
    with pytest.raises(ValueError):
        GFCoefficients(3, {1: 1, 2: 2}, 0)
    with pytest.raises(ValueError):
        GFCoefficients(3, {2: 6}, 0)
    gf = GFCoefficients(3, {1: 1, 2: 4, 3: 1}, 0)
    assert gf.coefficient(2) == 4 and gf.coefficient(9) == 0
    assert gf.as_tuple() == (1, 4, 1)


def test_gf_unknown_method():
    with pytest.raises(ValueError):
        analysis.generating_function(CS4, "oracle")


def test_gf_counts_loops():
    swap_top = strategies.from_components([[1], [2, 1], [2, 3, 1], [2, 1, 4, 3]])
    by_decomp = analysis.generating_function(swap_top, "decomposition")
    by_play = analysis.generating_function(swap_top, "playback")
    assert by_decomp == by_play
    assert by_decomp.loop_count > 0
    assert sum(by_decomp.coeffs.values()) + by_decomp.loop_count == factorial(4)


def test_average_guesses():
    assert analysis.average_guesses(analysis.generating_function(CS4)) == Fraction(5, 2)
    assert analysis.average_guesses(
        analysis.generating_function(strategies.cyclic_shift(1))
    ) == 1
    assert analysis.average_guesses(
        analysis.generating_function(strategies.cyclic_shift(2))
    ) == Fraction(3, 2)
    swap_top = strategies.from_components([[1], [2, 1], [2, 3, 1], [2, 1, 4, 3]])
    assert analysis.average_guesses(analysis.generating_function(swap_top)) == inf


def test_rho_class_counts():
    assert analysis.gf_playback(CS4)[1] == {1: 4, 2: 6, 3: 1}
    assert analysis.gf_playback(CSL4)[1] == {1: 4, 2: 2, 3: 1}
    assert analysis.gf_playback(CS5)[1] == {1: 45, 2: 20, 3: 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rho_counts_playback_matches_decomposition(n):
    for s in strategies.enumerate_strategies(n, "deranged"):
        assert analysis.decomposition_stats(s) == analysis.gf_playback(s)


@pytest.mark.parametrize("n, seed, count", [(6, 3106, 6), (7, 3107, 6), (9, 3110, 1)], ids=["6", "7", "9"])
def test_rho_counts_playback_matches_seeded_deranged(n, seed, count):
    """Seeded deranged strategies, looping ones included: at n = 6 and 7
    the 36 of six seeded lower prefixes times six seeded tops, some of which
    loop and some not; at n = 9 one strategy, where the top-size pass has
    2-byte lock keys, and 44,321 of whose games loop.  The (gf, rho) of a
    lone decomposition, and of the same strategies evaluated as one chunk,
    equal the oracle's, which plays all n! secrets."""
    rng = random.Random(seed)
    seeded = [
        ((1,), (2, 1)) + tuple(rng.choice(_derangements(k)) for k in range(3, n + 1))
        for _ in range(count)
    ]
    prefixes, tops = [c[:-1] for c in seeded], [c[-1] for c in seeded]
    family = [p + (t,) for p in prefixes for t in tops]
    oracle = [analysis.gf_playback(strategies.Strategy(c)) for c in family]
    assert any(gf.loop_count for gf, _ in oracle)
    if count > 1:
        assert not all(gf.loop_count for gf, _ in oracle)
    assert [analysis.decomposition_stats(strategies.Strategy(c)) for c in family] == oracle
    assert analysis._evaluate(prefixes, tops) == oracle


def _solve_rounds_tally(s):
    """(gf, rho) tallied one secret at a time from ``engine.solve_rounds``:
    the rounds of each solved game, its first hit when that is three, and
    the games that loop."""
    counts, loops, rho = collections.Counter(), 0, {1: 0, 2: 0, 3: 0}
    for secret in itertools.permutations(range(1, s.n + 1)):
        rounds, first_hit = engine.solve_rounds(secret, s)
        if rounds == LOOPED:
            loops += 1
        else:
            counts[rounds] += 1
            if rounds == 3:
                rho[first_hit] += 1
    return GFCoefficients(s.n, dict(counts), loops), rho


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gf_playback_equals_a_solve_rounds_tally_deranged(n):
    """Every deranged strategy up to n = 5, n = 1 and n = 2 included."""
    family = list(strategies.enumerate_strategies(n, "deranged"))
    assert family
    for s in family:
        assert analysis.gf_playback(s) == _solve_rounds_tally(s)


@pytest.mark.parametrize("n", [6, 7])
def test_gf_playback_equals_a_solve_rounds_tally_seeded(n):
    rng = random.Random(2700 + n)
    family = [
        strategies.Strategy(((1,), (2, 1)) + tuple(rng.choice(_derangements(k)) for k in range(3, n + 1)))
        for _ in range(8)
    ]
    tallies = [_solve_rounds_tally(s) for s in family]
    assert any(gf.loop_count for gf, _ in tallies) and not all(gf.loop_count for gf, _ in tallies)
    assert [analysis.gf_playback(s) for s in family] == tallies


def test_gf_playback_equals_a_solve_rounds_tally_over_several_blocks():
    assert factorial(8) > analysis.PLAYBACK_BLOCK
    cs8 = strategies.cyclic_shift(8)
    assert analysis.gf_playback(cs8) == _solve_rounds_tally(cs8)


@pytest.mark.parametrize("n", [9, 16])
def test_row_keys_are_each_rows_fixed_points(n):
    """Two-byte keys of rows of n + 2 bytes, whose last two bytes may
    equal any position, against the fixed points of each row; and
    ``_stayed`` against a key-by-key comparison."""
    rng = random.Random(n)
    zs = []
    for _ in range(300):
        z = list(range(1, n + 1))
        moved = rng.sample(range(n), rng.choice([0, 2, 3, n // 2, n]))
        values = [z[q] for q in moved]
        rng.shuffle(values)
        for q, v in zip(moved, values):
            z[q] = v
        zs.append(z)
    rows = bytes(itertools.chain.from_iterable(z + [rng.randrange(256), rng.randrange(n + 3)] for z in zs))
    keys = analysis._lock_keys(rows, n, n + 2)
    expected = [sum(1 << q for q in range(n) if z[q] == q + 1) for z in zs]
    assert keys.itemsize == 2 and list(keys) == expected
    last = [key if rng.random() < 0.5 else rng.randrange(1 << n) for key in expected]
    stayed = analysis._stayed(keys, array.array("H", last).tobytes())
    assert stayed.to_bytes(len(zs), "little") == bytes(255 if a == b else 0 for a, b in zip(expected, last))


def test_gf_playback_refuses_a_component_beyond_the_round_counter():
    top = []
    for size in (3, 4, 5, 7):  # cycle type 3 + 4 + 5 + 7: order 420
        low = len(top) + 1
        top += [*range(low + 1, low + size), low]
    s = strategies.Strategy(strategies.cyclic_shift(18).components + (tuple(top),))
    with pytest.raises(ValueError, match="order 420"):
        analysis.gf_playback(s)


def test_rho_counts_sum_to_a3():
    for s in strategies.enumerate_strategies(5, "inductive"):
        gf, rho = analysis.decomposition_stats(s)
        assert sum(rho.values()) == gf.coefficient(3)


def test_average_j2_over_derangements():
    assert analysis.average_j2_over_derangements((2, 3, 4, 1)) == Fraction(4, 3)
    assert analysis.average_j2_over_derangements((2, 1, 4, 3)) == Fraction(4, 3)
    assert analysis.average_j2_over_derangements((2, 1)) == 2
    with pytest.raises(ValueError):
        analysis.average_j2_over_derangements((1, 2, 3))


def _streamed_second_guess_counts(n):
    """``analysis._second_guess_counts`` by one ``Counter`` of the
    (position, value) pairs of a streamed pass over D_n."""
    pairs = collections.Counter(
        itertools.chain.from_iterable(map(enumerate, perms.enumerate_perms(n, "derangements")))
    )
    return tuple(tuple(pairs[q, v] for v in range(n + 1)) for q in range(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_second_guess_counts_equal_the_streamed_count(n):
    """The column counts of the D_n buffer equal the per-pair count."""
    assert analysis._second_guess_counts(n) == _streamed_second_guess_counts(n)


@pytest.mark.parametrize("k", range(1, 10))
def test_derangement_rows_are_the_tuple_stream(k):
    """The cached D_k is the tuple stream of ``perms.enumerate_perms``
    flattened, and its rows are that buffer cut every k bytes, one per
    derangement."""
    flat, rows = analysis._derangements(k)
    assert flat == bytes(itertools.chain.from_iterable(perms.enumerate_perms(k, "derangements")))
    assert len(flat) // k == len(rows) == closedform.derangement_count(k)
    assert b"".join(rows) == flat and {len(row) for row in rows} <= {k}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_average_j2_constant_across_components(n):
    expected = Fraction(n, n - 1)
    for d in perms.enumerate_perms(n, "derangements"):
        assert analysis.average_j2_over_derangements(d) == expected


def test_scan_inductive_4():
    result = analysis.scan(4, "inductive")
    assert len(result.texts) == 6
    assert result.summary.max_a3.value == 11
    assert result.summary.max_a3.strategy_ids == (CS4.text,)
    assert result.summary.min_a3.value == 7
    assert result.summary.min_a3.strategy_ids == (CSL4.text,)
    assert result.summary.min_average.value == Fraction(5, 2)


def test_scan_cyclic_3_has_two_tied_rows():
    result = analysis.scan(3, "cyclic")
    assert len(result.texts) == 2
    assert all(result.stats[orbit][0].coefficient(3) == 1 for orbit in result.orbits)
    assert len(result.summary.min_average.strategy_ids) == 2


def test_scan_inductive_5():
    result = analysis.scan(5, "inductive")
    assert len(result.texts) == 24
    assert result.summary.max_a3.value == 66
    assert result.summary.max_a3.strategy_ids == (CS5.text,)
    assert result.summary.min_a3.value == 51
    assert result.summary.min_a3.strategy_ids == (CSL5.text,)


def test_scan_rows_match_playback():
    result = analysis.scan(4, "deranged")
    assert len(result.texts) == 18
    by_id = {s.text: s for s in strategies.enumerate_strategies(4, "deranged")}
    gfs = [result.stats[orbit][0] for orbit in result.orbits]
    for text, gf in zip(result.texts, gfs):
        assert gf == analysis.generating_function(by_id[text], "playback")
    assert any(gf.loop_count > 0 for gf in gfs)


def test_scan_row_order_is_enumeration_order():
    result = analysis.scan(4, "inductive")
    expected = [s.text for s in strategies.enumerate_strategies(4, "inductive")]
    assert result.texts == expected
    assert len(result.orbits) == 6


def test_scan_parallel_matches_serial():
    serial = analysis.scan(5, "inductive", jobs=1)
    parallel = analysis.scan(5, "inductive", jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("kind", ["cyclic", "deranged"])
def test_scan_parallel_matches_serial_over_mirror_orbits(kind):
    serial = analysis.scan(5, kind, jobs=1)
    parallel = analysis.scan(5, kind, jobs=2)
    assert serial == parallel
    members = [serial.stats[orbit] for orbit in serial.orbits]
    assert members == [parallel.stats[orbit] for orbit in parallel.orbits]


@pytest.mark.parametrize("i", [0, 1, 5])
def test_scan_part_moves_to_its_cpu_and_restores_the_mask(monkeypatch, i):
    """A pooled scan's run i is ``_scan_chunk`` of that run, computed after
    one move to the i-th allowed CPU (modulo their number); the worker's
    mask is then the one it had."""
    prefixes, tops = _split_reps("cyclic", 5)
    calls = []
    if hasattr(os, "sched_setaffinity"):
        mask = os.sched_getaffinity(0)
        real = os.sched_setaffinity
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, set(cpus))) or real(pid, cpus))
    assert analysis._scan_part((i, (prefixes, tops))) == analysis._scan_chunk(prefixes, tops)
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(mask)
        assert calls == [(0, {cpus[i % len(cpus)]}), (0, mask)]
        assert os.sched_getaffinity(0) == mask


def _column_bytes(columns):
    """Each count column's T and bytes, and the rho columns' bytes."""
    counts = [(t, column.tobytes()) for t, column in columns.counts.items()]
    return counts, [column.tobytes() for column in columns.rho]


@pytest.mark.parametrize("jobs", [2, 4, 8])
@pytest.mark.parametrize("kind, n", [("cyclic", 5), ("inductive", 6)])
def test_parts_hold_whole_prefixes_and_join_to_the_serial_bytes(kind, n, jobs):
    """A pooled scan's chunks, built and evaluated in-process: cyclic n = 5
    has 6 lower prefixes, and each chunk is a run of whole prefixes with
    every top; inductive n = 6 has one, and each chunk is a run of its
    tops.  No chunk is empty, there are at most ``jobs``, and ``_join`` of
    their results gives the bytes of the jobs=1 scan."""
    _, prefixes, tops = analysis._orbit_map(kind, strategies.component_pools(n, kind))
    parts = analysis._parts(prefixes, tops, jobs)
    runs = prefixes if kind == "cyclic" else tops
    assert len(runs) > 1 and len(parts) == min(jobs, len(runs))
    assert all(run_prefixes and run_tops for run_prefixes, run_tops in parts)
    if kind == "cyclic":
        assert len(prefixes) == 6 and all(run_tops == tops for _, run_tops in parts)
        assert [p for run_prefixes, _ in parts for p in run_prefixes] == prefixes
    else:
        assert all(run_prefixes == prefixes for run_prefixes, _ in parts)
        assert [t for _, run_tops in parts for t in run_tops] == tops
    joined = analysis._join(n, [analysis._scan_chunk(*part) for part in parts])
    assert _column_bytes(joined) == _column_bytes(analysis.scan(n, kind, jobs=1).stats)


class _FakePools:
    """Stands in for ``multiprocessing.get_context``: it records the start
    method asked for, and the pools it gives record the number of workers
    asked for and the parts sent to them.  A pool maps in-process when its
    result is read, with ``in_pool`` set meanwhile, so no process starts;
    like a real pool's result, ``.get()`` raises what a part raised."""

    def __init__(self):
        self.methods, self.sizes, self.sent = [], [], []
        self.in_pool = False

    def __call__(self, method=None):
        self.methods.append(method)
        return self

    def Pool(self, processes):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map_async(self, func, iterable):
        items = list(iterable)
        self.sent.append(items)

        def get():
            self.in_pool = True
            try:
                return list(map(func, items))
            finally:
                self.in_pool = False

        return types.SimpleNamespace(get=get)


@pytest.fixture
def fake_pools(monkeypatch):
    import multiprocessing

    pools = _FakePools()
    monkeypatch.setattr(multiprocessing, "get_context", pools)
    return pools


@pytest.mark.parametrize("cpus", [None, 3], ids=["allowed", "three"])
def test_scan_pool_asks_for_no_more_workers_than_cpus(monkeypatch, fake_pools, cpus):
    """``jobs`` far above the CPU count (``scan --n 6 --class deranged
    --jobs 10000`` would have asked for 10,000 workers) runs in no more
    processes than the CPUs this process may run on (``available_cpus``,
    also the CLI's default): a pool of one worker fewer, since the caller
    evaluates a part too.  The scan equals its jobs=1 result.  The pool is
    a fake that records the number of workers asked for and maps
    in-process: no process starts."""
    if cpus:
        monkeypatch.setattr(analysis, "available_cpus", lambda: cpus)
    allowed = analysis.available_cpus()
    serial = analysis.scan(5, "deranged", jobs=1)
    assert analysis.scan(5, "deranged", jobs=10_000) == serial
    sizes = fake_pools.sizes
    if cpus:
        assert sizes == [2]
    assert len(sizes) == (allowed > 1)
    assert all(1 < size + 1 <= allowed for size in sizes)


@pytest.mark.parametrize("kind, n", [("cyclic", 5), ("inductive", 6)])
def test_scan_caller_evaluates_the_first_part(monkeypatch, fake_pools, kind, n):
    """A pooled scan's caller runs ``_scan_part`` on part 0 only, and the
    pool, of ``jobs - 1`` workers, receives parts 1.. in order, numbered
    from 1; the joined columns are the bytes of the jobs=1 scan."""
    jobs = 3
    monkeypatch.setattr(analysis, "available_cpus", lambda: jobs)
    serial = analysis.scan(n, kind, jobs=1)
    _, prefixes, tops = analysis._orbit_map(kind, strategies.component_pools(n, kind))
    parts = analysis._parts(prefixes, tops, jobs)
    in_caller = []
    real = analysis._scan_part

    def recording_part(part):
        if not fake_pools.in_pool:
            in_caller.append(part[0])
        return real(part)

    monkeypatch.setattr(analysis, "_scan_part", recording_part)
    pooled = analysis.scan(n, kind, jobs=jobs)
    assert len(parts) == jobs
    assert in_caller == [0]
    assert fake_pools.sizes == [jobs - 1]
    assert fake_pools.sent == [list(enumerate(parts[1:], 1))]
    assert _column_bytes(pooled.stats) == _column_bytes(serial.stats)
    assert pooled == serial


def test_scan_pool_forks_where_the_platform_can(monkeypatch, fake_pools):
    """The pool comes from the fork context wherever fork is a start
    method, so that workers share the package and ``_entries(n)`` that the
    caller already holds, whatever the interpreter's default method; where
    it is not, from the default context."""
    import multiprocessing

    monkeypatch.setattr(analysis, "available_cpus", lambda: 2)
    analysis.scan(5, "cyclic", jobs=2)
    fork = "fork" in multiprocessing.get_all_start_methods()
    assert fake_pools.methods == ["fork" if fork else None]
    assert fake_pools.sizes == [1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the patched chunk reaches the worker only by fork")
def test_scan_raises_a_pooled_part_error(monkeypatch):
    """A ``ValueError`` raised in a part that a pool worker evaluates (a
    real, forked worker) comes out of ``scan`` with its type and message,
    and the caller's own part still ran."""
    monkeypatch.setattr(analysis, "available_cpus", lambda: 2)
    caller = os.getpid()
    real = analysis._scan_chunk
    in_caller = []

    def chunk(prefixes, tops, memo=None):
        if os.getpid() != caller:
            raise ValueError(f"bad part of {len(prefixes)} prefixes")
        in_caller.append(len(prefixes))
        return real(prefixes, tops, memo)

    monkeypatch.setattr(analysis, "_scan_chunk", chunk)
    with pytest.raises(ValueError) as raised:
        analysis.scan(5, "cyclic", jobs=2)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "bad part of 3 prefixes"
    assert in_caller == [3]


@pytest.mark.parametrize(
    "kind, n",
    [("cyclic", n) for n in range(1, 7)]
    + [("deranged", n) for n in range(1, 6)]
    + [("inductive", n) for n in range(3, 9)],
)
def test_orbit_map_equals_canonical_numbering(kind, n):
    """The orbit map by index arithmetic gives each member the orbit number
    and each orbit the representative, lower prefix times top in that
    order, that numbering ``_canonical`` of every member in first-seen
    order gives."""
    reference = {}
    orbits = [
        reference.setdefault(analysis._canonical(s, kind), len(reference))
        for s in strategies.enumerate_strategies(n, kind)
    ]
    pools = strategies.component_pools(n, kind)
    orbit_of, prefixes, tops = analysis._orbit_map(kind, pools)
    assert orbit_of == orbits
    assert [p + (t,) for p in prefixes for t in tops] == list(reference)
    assert len(set(prefixes)) == len(prefixes) and len(set(tops)) == len(tops)


@pytest.mark.parametrize("kind, n", [("cyclic", 5), ("deranged", 4), ("inductive", 6)])
def test_scan_builds_the_pools_once(monkeypatch, kind, n):
    """A scan builds its family's component pools once and hands them to
    both the orbit map and the member texts."""
    calls = []
    pools = strategies.component_pools

    def counting(*args):
        calls.append(args)
        return pools(*args)

    monkeypatch.setattr(strategies, "component_pools", counting)
    result = analysis.scan(n, kind, jobs=1)
    assert calls == [(n, kind)]
    assert result.texts == [s.text for s in strategies.enumerate_strategies(n, kind)]


@pytest.mark.parametrize(
    "kind, n",
    [("inductive", n) for n in range(3, 8)]
    + [(kind, n) for kind in ("cyclic", "deranged") for n in range(3, 6)],
)
def test_scan_rows_match_per_strategy_decomposition(kind, n):
    """Scans evaluate one strategy per symmetry orbit; every member's text
    and orbit's stats must equal its own strategy's text and stats."""
    result = analysis.scan(n, kind)
    memo = SubgameMemo()
    expected = []
    for index, s in enumerate(strategies.enumerate_strategies(n, kind)):
        gf, rho = analysis.decomposition_stats(s, memo)
        expected.append((index, s.text, gf, rho, analysis.average_guesses(gf)))
    observed = [
        (index, text, *result.stats[orbit])
        for index, (text, orbit) in enumerate(zip(result.texts, result.orbits))
    ]
    assert observed == expected


@pytest.mark.parametrize(
    "kind, n, calls", [("inductive", 6, 24), ("cyclic", 5, 144), ("deranged", 5, 396)]
)
def test_scan_decomposes_one_strategy_per_orbit(monkeypatch, kind, n, calls):
    seen = []
    decompose = analysis.decomposition_stats

    def counting(strategy, memo=None):
        seen.append(strategy.components)
        return decompose(strategy, memo)

    monkeypatch.setattr(analysis, "decomposition_stats", counting)
    result = analysis.scan(n, kind, jobs=1)
    assert len(seen) == len(set(seen)) == calls
    assert len(result.texts) == len(result.orbits) == strategies.count_strategies(n, kind)


def test_scan_cost_refusal():
    estimate = analysis.estimate_scan_cost(7, "cyclic")
    assert estimate > 10**10  # the reference scale that motivated the guard
    with pytest.raises(ScanCostError) as info:
        analysis.scan(7, "cyclic")
    assert info.value.estimate == estimate
    assert "max_cost" in str(info.value)


def test_mirror_strategy_has_identical_gf():
    rng = random.Random(1207)
    pools = {i: list(perms.enumerate_perms(i, "derangements")) for i in range(3, 6)}
    for _ in range(25):
        n = rng.randint(3, 5)
        comps = [[1], [2, 1]] + [list(rng.choice(pools[i])) for i in range(3, n + 1)]
        s = strategies.from_components(comps)
        assert analysis.generating_function(s) == analysis.generating_function(
            strategies.mirror(s)
        )


def test_shared_memo_reused_between_strategies():
    memo = SubgameMemo()
    a, _ = analysis.decomposition_stats(strategies.inductive((2, 3, 4, 5, 1)), memo)
    b, _ = analysis.decomposition_stats(strategies.inductive((5, 1, 2, 3, 4)), memo)
    assert a.as_tuple() == (1, 26, 66, 26, 1)
    assert b.as_tuple() == (1, 26, 51, 26, 11, 5)
    # sizes 2..4 are histogrammed once and shared by both strategies
    assert len(memo.hist_cache) == 3


@pytest.mark.parametrize(
    "kind, n",
    [("cyclic", n) for n in range(1, 6)]
    + [("deranged", n) for n in range(1, 6)]
    + [("inductive", n) for n in range(3, 8)],
)
def test_lookup_route_equals_fresh_decomposition(monkeypatch, kind, n):
    """``_evaluate`` reads every top size off its lower prefix's lookup
    table; a fresh memo never does.  Both must give the same (gf, rho) for
    every strategy of the family."""
    built = {"ends": 0, "chains": 0, "values": 0}
    for name, key in (("_top_ends", "ends"), ("_top_chains", "chains"), ("_top_values", "values")):
        def counting(*args, _orig=getattr(analysis, name), _key=key):
            built[_key] += 1
            return _orig(*args)

        monkeypatch.setattr(analysis, name, counting)
    prefixes, tops = _product(kind, n)
    family = [p + (t,) for p in prefixes for t in tops]
    assert analysis._evaluate(prefixes, tops) == [
        analysis.decomposition_stats(strategies.Strategy(c)) for c in family
    ]
    # One V per lower prefix and one read of each top's chain ends, whether
    # the tops are counted together (several prefixes, through
    # ``_top_chains``) or one by one (one prefix, straight off the ends); a
    # lone decomposition builds none, nor does ``_evaluate`` of a family of
    # one strategy.
    ranked = n > 1 and len(family) > 1
    assert built["values"] == ranked * len(prefixes)
    assert built["ends"] == ranked * len(tops)
    assert built["chains"] == (ranked and len(prefixes) > 1) * len(tops)


def _product(kind, n):
    """The lower prefixes and tops of the whole family, whose product it is."""
    pools = strategies.component_pools(n, kind)
    return list(itertools.product(*pools[:-1])), pools[-1]


def _split_reps(kind, n):
    """The orbits' representatives, by ``_canonical`` of every member in
    first-seen order, as their distinct lower prefixes and tops, checked
    to be their product."""
    reps = []
    for s in strategies.enumerate_strategies(n, kind):
        canonical = analysis._canonical(s, kind)
        if canonical not in reps:
            reps.append(canonical)
    prefixes = list(dict.fromkeys(c[:-1] for c in reps))
    tops = list(dict.fromkeys(c[-1] for c in reps))
    assert [p + (t,) for p in prefixes for t in tops] == reps
    return prefixes, tops


@pytest.mark.parametrize(
    "kind, n, ranked",
    [
        pytest.param(kind, n, ranked, id=f"{kind}-{n}" + ("" if ranked else "-unranked"))
        for ranked in (True, False)
        for kind, n in (("cyclic", 5), ("deranged", 5), ("inductive", 6))
    ],
)
def test_evaluate_is_the_same_over_any_split(monkeypatch, kind, n, ranked):
    """Workers take runs of whole prefixes, or of the tops of a lone
    prefix; any split of the prefixes, and any split of the tops of one
    prefix, must give the unsplit result, though a run of one prefix reads
    its tops off V one by one where the whole counts them together.
    Unranked: with ``MAX_RANKED`` below n every chunk takes its tops from
    the lock-set pass, as scans at n >= 10 do, builds no V, and the whole
    and split runs must equal the ranked result."""
    prefixes, tops = _split_reps(kind, n)
    whole = analysis._evaluate(prefixes, tops)
    if not ranked:
        monkeypatch.setattr(analysis, "MAX_RANKED", n - 1)
        monkeypatch.setattr(analysis, "_top_values", None)  # any call fails
        assert analysis._evaluate(prefixes, tops) == whole
    rng = random.Random(5700 + n)

    def cuts(size):
        return sorted({0, 1, size // 2, size - 1, size} | {rng.randrange(size) for _ in range(3)})

    for cut in cuts(len(prefixes)):
        split = analysis._evaluate(prefixes[:cut], tops) + analysis._evaluate(prefixes[cut:], tops)
        assert split == whole
    for i in sorted({0, rng.randrange(len(prefixes)), len(prefixes) - 1}):
        row = whole[i * len(tops) : (i + 1) * len(tops)]
        for cut in cuts(len(tops)):
            split = analysis._evaluate(prefixes[i : i + 1], tops[:cut])
            assert split + analysis._evaluate(prefixes[i : i + 1], tops[cut:]) == row
        bounds = sorted(rng.sample(range(1, len(tops)), 4))
        runs = [tops[lo:hi] for lo, hi in zip([0] + bounds, bounds + [len(tops)])]
        assert [r for run in runs for r in analysis._evaluate(prefixes[i : i + 1], run)] == row
    if len(prefixes) > 4:
        bounds = sorted(rng.sample(range(1, len(prefixes)), 4))
        runs = [prefixes[lo:hi] for lo, hi in zip([0] + bounds, bounds + [len(prefixes)])]
        assert [r for run in runs for r in analysis._evaluate(run, tops)] == whole


@functools.lru_cache(maxsize=None)
def _cyclic_6_chunks():
    """The two worker chunks of a jobs=2 scan of cyclic n = 6."""
    _, prefixes, tops = analysis._orbit_map("cyclic", strategies.component_pools(6, "cyclic"))
    return tuple(analysis._scan_chunk(*part) for part in analysis._parts(prefixes, tops, 2))


def _objects(value):
    """``value`` and everything it holds, through tuples."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _objects(item)


def test_scan_worker_payload_is_compact():
    """A worker returns its 8,640 cyclic n = 6 orbits as a few columns of
    bytes: under 40 bytes an orbit pickled, and no per-orbit object."""
    payload = _cyclic_6_chunks()[0]
    assert len(analysis._join(6, [payload])) == 8640
    assert len(pickle.dumps(payload)) < 40 * 8640
    objects = list(_objects(payload))
    assert len(objects) < 50
    assert not any(isinstance(o, (GFCoefficients, Fraction, dict)) for o in objects)
    assert {type(o) for o in objects} <= {tuple, bytes, int, float}


def test_scan_columns_hold_few_bytes_per_orbit():
    """A scan's per-orbit results, joined from its workers' chunks, hold
    under 150 bytes an orbit at cyclic n = 6 (``tracemalloc``)."""
    chunks = list(_cyclic_6_chunks())
    tracemalloc.start()
    try:
        stats = analysis._join(6, chunks)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stats) == 17280
    assert held < 150 * len(stats)


def _with_column(chunk, t, change):
    """``chunk`` with ``change`` applied to a copy of its column for T = t,
    which it gets if it has none."""
    ts, blobs, rho = chunk
    columns = dict(zip(ts, blobs))
    code = analysis._field_code(5)
    column = array.array(code, columns.get(t, bytes(len(rho[0]))))
    change(column)
    columns[t] = column.tobytes()
    ts = tuple(sorted(columns))
    return ts, tuple(columns[t] for t in ts), rho


def test_join_refuses_broken_columns():
    """The join checks every orbit's counts: they and the loops add up to
    n! - 1, and no secret besides the identity takes one guess (a_1 = 1).
    A chunk with one count changed by 1 is refused with ``ValueError``, also
    under ``python -O``, which strips ``assert``."""
    chunk = analysis._scan_chunk(*_split_reps("cyclic", 5))
    orbits = len(analysis._join(5, [chunk]))

    def bump(column):
        column[3] += 1

    def drop(column):
        column[3] -= 1

    for change in (bump, drop):
        # The second chunk's orbit 3 is the scan's orbit orbits + 3.
        with pytest.raises(ValueError, match=f"orbit {orbits + 3}: counts and loops add up to"):
            analysis._join(5, [chunk, _with_column(chunk, 2, change)])
    # One secret moved from two guesses to one: the totals still hold.
    moved = _with_column(_with_column(chunk, 1, drop), 0, bump)
    with pytest.raises(ValueError, match="one guess"):
        analysis._join(5, [moved])
    code = (
        "import pickle, sys\n"
        "from permwordle import analysis\n"
        "try:\n"
        "    analysis._join(5, [pickle.loads(sys.stdin.buffer.read())])\n"
        "except ValueError:\n"
        "    sys.exit(3)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(analysis.__file__).parent.parent)}
    for broken in (_with_column(chunk, 2, bump), moved):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], input=pickle.dumps(broken), env=env, timeout=60
        )
        assert proc.returncode == 3


@pytest.mark.parametrize(
    "kind, n, code",
    [
        ("cyclic", 3, None),
        ("cyclic", 5, None),
        ("deranged", 5, None),
        ("deranged", 5, "I"),
        ("cyclic", 4, "I"),
        ("inductive", 5, None),
    ],
)
def test_counter_route_equals_lone_decomposition(monkeypatch, kind, n, code):
    """``_evaluate`` of a chunk of several lower prefixes counts all its
    tops with the bit-sliced counters of ``_top_counts``, in one
    ``TopBlock``; each strategy's (gf, rho) must equal its lone
    decomposition, with 2- or 4-byte fields.  A chunk of one prefix (the
    whole family below n = 4, and an inductive one) reads every top off V
    with ``_top_stats``.  (The other sizes to 5 are compared by
    ``test_lookup_route_equals_fresh_decomposition``.)"""
    if code:
        monkeypatch.setattr(analysis, "_field_code", lambda n: code)
    blocks, lone = [], []
    make_block, top_stats = analysis._top_block, analysis._top_stats

    def block(chains, code):
        blocks.append(len(chains))
        return make_block(chains, code)

    def single(top, values):
        lone.append(top)
        return top_stats(top, values)

    monkeypatch.setattr(analysis, "_top_block", block)
    monkeypatch.setattr(analysis, "_top_stats", single)
    prefixes, tops = _product(kind, n)
    family = [p + (t,) for p in prefixes for t in tops]
    assert analysis._evaluate(prefixes, tops) == [
        analysis.decomposition_stats(strategies.Strategy(c)) for c in family
    ]
    counted = len(prefixes) > 1
    assert counted == (kind != "inductive" and n > 3)
    assert blocks == ([len(tops)] if counted else [])
    assert lone == ([] if counted else tops)


def test_field_width_holds_every_total():
    """A field's total is n! - 1 secrets: 2 bytes hold it up to n = 8,
    4 bytes at n = 9, the largest ranked size."""
    sizes = range(2, analysis.MAX_RANKED + 1)
    assert [analysis._field_code(n) for n in sizes] == ["H"] * 7 + ["I"]
    for n in sizes:
        assert factorial(n) - 1 < 1 << 8 * array.array(analysis._field_code(n)).itemsize


@pytest.mark.parametrize("kind", ["cyclic", "inductive"])
def test_scan_keeps_the_traced_entry_points(monkeypatch, kind):
    """``perfbench/traced.py`` wraps ``analysis.decomposition_stats`` and
    ``analysis.SubgameMemo`` as module attributes and reads the memo's
    tables after a scan: a jobs=1 scan must call the wrapped function once
    per representative, in order, on one memo made by the patched class,
    and leave that memo's lower tables and histograms filled."""
    memos, calls = [], []

    class RecordingMemo(SubgameMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    decompose = analysis.decomposition_stats

    def recording(strategy, memo=None):
        calls.append((strategy.components, memo))
        return decompose(strategy, memo)

    monkeypatch.setattr(analysis, "SubgameMemo", RecordingMemo)
    monkeypatch.setattr(analysis, "decomposition_stats", recording)
    analysis.scan(5, kind, jobs=1)
    _, prefixes, tops = analysis._orbit_map(kind, strategies.component_pools(5, kind))
    reps = [p + (t,) for p in prefixes for t in tops]
    assert [comps for comps, _ in calls] == reps
    assert len(memos) == 1 and all(memo is memos[0] for _, memo in calls)
    for comps in reps:
        s = strategies.Strategy(comps)
        for k in range(2, 5):
            assert len(memos[0].table(s, k)) == closedform.derangement_count(k)
            assert comps[:k] in memos[0].hist_cache


def _reference_size_stats(k, strategy, tables):
    """``analysis._size_stats`` one derangement at a time: each d's T from
    ``engine.successor`` and the size-|e| table, or a chase by
    ``engine._chase`` when that entry is missing.  Fills the size-k table."""
    invs, comps = strategy.inverses, strategy.components
    component, guess = comps[k - 1], invs[k - 1]
    table = tables[k]
    hist = {}
    for d in _derangements(k):
        t = table.get(d)
        if t is None:
            e = engine.successor(d, component, guess)
            if e:
                t = tables[len(e)].get(e)
                if t is None:
                    t = engine._chase(e, invs, comps, tables)
                t += 1
            else:
                t = 1
            table[d] = t
        hist[t] = hist.get(t, 0) + 1
    return hist


def _random_cycle(rng, k):
    order = [1] + rng.sample(range(2, k + 1), k - 1)
    image = [0] * k
    for i, v in enumerate(order):
        image[v - 1] = order[(i + 1) % k]
    return tuple(image)


def _seeded_cyclic(n, seed):
    rng = random.Random(seed)
    return strategies.Strategy(((1,), (2, 1)) + tuple(_random_cycle(rng, k) for k in range(3, n + 1)))


# A deranged strategy whose top size has both kinds of loop: 80 d that
# lock nothing by the order of s_6, and 128 that lock into a looping subgame.
BOTH_LOOPS = strategies.parse_strategy("1;2,1;2,3,1;2,1,4,3;2,1,4,5,3;2,1,4,3,6,5")


@pytest.mark.parametrize(
    "family",
    [("cyclic", n) for n in range(2, 6)]
    + [("deranged", n) for n in range(2, 6)]
    + [("inductive", n) for n in range(3, 8)]
    + [("seeded", n) for n in (8, 9)]
    + [("both-loops", 6)],
    ids=lambda family: "-".join(map(str, family)),
)
def test_size_pass_equals_the_per_derangement_loop(family):
    """Every size of every strategy: the lock-set pass gives the histogram
    and the size-k table of the loop over D_k through ``engine.successor``
    and ``engine._chase``.  Seeded n = 9 puts position 9 in the second byte
    of the lock-set keys; the deranged families and ``BOTH_LOOPS`` loop."""
    kind, n = family
    if kind == "seeded":
        family = [_seeded_cyclic(n, 2000 + n + seed) for seed in range(3)]
    elif kind == "both-loops":
        family = [BOTH_LOOPS]
    else:
        family = list(strategies.enumerate_strategies(n, kind))
    fresh, reference, seen = SubgameMemo(), SubgameMemo(), set()
    for s in family:
        for k in range(2, n + 1):
            if s.components[:k] in seen:
                continue  # the size-k result depends on s_1..s_k only
            seen.add(s.components[:k])
            hist = analysis._size_stats(k, s, fresh.tables_up_to(s, k))
            assert hist == _reference_size_stats(k, s, reference.tables_up_to(s, k))
            assert fresh.table(s, k) == reference.table(s, k)
    if kind == "both-loops":
        assert hist[LOOPED] == 80 + 128


def _first_lock(s, d):
    """(i, key) for the first i at which s^i o d has a fixed point, with
    bit q of key set when position q + 1 is fixed; None when s^i o d comes
    back to d before any has one."""
    image, x = (0,) + s, d
    for i in itertools.count(1):
        x = tuple(map(image.__getitem__, x))  # s o x
        key = 0
        for q, v in enumerate(x):
            if v == q + 1:
                key |= 1 << q
        if key:
            return i, key
        if x == d:
            return None


def _lock_round_components(family):
    """The components of one case of ``test_lock_rounds_partition_d_k``."""
    kind, n = family
    if kind == "seeded":
        rng = random.Random(2400 + n)
        return [_random_cycle(rng, n), _random_cycle(rng, n), rng.choice(_derangements(n))]
    if kind == "pair-swap":
        return [_pair_swap_top(k) for k in range(3, n + 1)]
    return [c for pool in strategies.component_pools(n, kind)[1:] for c in pool]


def _conjugator(s):
    """The cycle type of s and p with s = p c p^-1, c the permutation of
    that type whose cycles are blocks of consecutive values, each shifted
    by one: p lists the cycles of s, shortest first."""
    cycles, seen = [], set()
    for start in range(1, len(s) + 1):
        if start not in seen:
            cycle = [start]
            while s[cycle[-1] - 1] != start:
                cycle.append(s[cycle[-1] - 1])
            seen.update(cycle)
            cycles.append(cycle)
    cycles.sort(key=len)
    return tuple(map(len, cycles)), tuple(itertools.chain.from_iterable(cycles))


@functools.lru_cache(maxsize=None)
def _reference_first_locks(lengths):
    """``_first_lock`` of c, the block permutation of cycle type
    ``lengths``, for every d of D_k in order, one d at a time."""
    c = []
    for size in lengths:
        low = len(c) + 1
        c += [*range(low + 1, low + size), low]
    return [_first_lock(tuple(c), d) for d in _derangements(len(c))]


def _conjugated_first_locks(s):
    """``_first_lock(s, d)`` for every d of D_k in order, relabelled in bulk
    from the per-d walk of its cycle type: with s = p c p^-1 and
    e = p^-1 d p, s^i o d = p (c^i o e) p^-1, whose fixed points are
    p(Fix(c^i o e)).  So d locks in the round e does, at the positions p
    sends e's to.  e(j) = p^-1(d(p(j))): column j of the e's is column p(j)
    of the d's, translated by p^-1."""
    k = len(s)
    lengths, p = _conjugator(s)
    flat = bytes(itertools.chain.from_iterable(_derangements(k)))
    columns = bytearray(len(flat))
    for j in range(k):
        columns[j::k] = flat[p[j] - 1 :: k]
    es = zip(*[iter(bytes(columns).translate(bytes.maketrans(bytes(p), bytes(range(1, k + 1)))))] * k)
    reference = _reference_first_locks(lengths)
    moved = [0]  # moved[key]: bit p(q + 1) - 1 for each bit q of key
    for q in range(k):
        moved += [key | 1 << p[q] - 1 for key in moved]
    relabel = {lock: lock and (lock[0], moved[lock[1]]) for lock in set(reference)}
    position = {d: i for i, d in enumerate(_derangements(k))}
    return list(map(relabel.__getitem__, map(reference.__getitem__, map(position.__getitem__, es))))


@pytest.mark.parametrize(
    "family",
    [("cyclic", 7), ("deranged", 6), ("seeded", 8), ("seeded", 9), ("pair-swap", 9)],
    ids=lambda family: "-".join(map(str, family)),
)
def test_lock_rounds_partition_d_k(family):
    """Every component s of the family (all k-cycles for k <= 7, all
    derangements for k <= 6, seeded ones at 8 and 9, the pair-swap tops):
    ``_lock_rounds`` lists |D_k| entries, and each d of D_k is in one
    round's group or among the looping d, with round i the first at which
    s^i o d has a fixed point, key its fixed-point set and the round's
    table that of s^i, as the walk of each d by itself gives them (walked
    once per cycle type and relabelled per component).  A d is its row of
    ``analysis._derangements(k)``, compared as the tuple of its bytes."""
    for s in _lock_round_components(family):
        k = len(s)
        ds = _derangements(k)
        rounds, looping = analysis._lock_rounds(k, bytes.maketrans(bytes(range(1, k + 1)), bytes(s)))
        assert sum(len(group) for _, groups in rounds for group in groups.values()) + len(looping) == len(ds)
        power = s
        for table, _ in rounds:
            assert table == bytes.maketrans(bytes(range(1, k + 1)), bytes(power))
            power = perms.compose(s, power)
        found = dict.fromkeys(map(tuple, looping))
        for i, (_, groups) in enumerate(rounds, 1):
            found.update((tuple(d), (i, key)) for key, group in groups.items() for d in group)
        assert found == dict(zip(ds, _conjugated_first_locks(s)))


def test_size_pass_keeps_no_top_table():
    """Without a size-k table the pass only counts: the lone top-size pass
    of ``decomposition_stats`` keeps no table and fills none below."""
    s = _seeded_cyclic(7, 7)
    memo = SubgameMemo()
    analysis.decomposition_stats(s, memo)
    tables = memo.tables_up_to(s, 6)
    before = {k: dict(table) for k, table in tables.items()}
    hist = analysis._size_stats(7, s, tables)
    assert tables == before and 7 not in tables
    assert hist == _reference_size_stats(7, s, SubgameMemo().tables_up_to(s, 7))


def test_decomposition_peak_is_below_the_per_derangement_loop():
    """``tracemalloc`` peak of a fresh decomposition at n = 8, with the
    derangements cached: the lock-set pass builds nothing per d that it
    keeps, and no top-size table, so it stays below the loop's peak."""
    s = _seeded_cyclic(8, 8)
    for k in range(2, 9):
        analysis._derangements(k)
        _derangements(k)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def loop():
        tables = SubgameMemo().tables_up_to(s, 8)
        for k in range(2, 9):
            _reference_size_stats(k, s, tables)

    assert peak(lambda: analysis.decomposition_stats(s)) <= peak(loop)


def _word(p):
    """The word map's word of p: its first n - 1 entries as one int."""
    return int.from_bytes(bytes(p[:-1]).ljust(8, b"\0"), sys.byteorder)


def _reference_entries(n):
    """The entry of each lower subgame in the flat list of the lower tables
    of size n: the identity's empty rd at 0, then D_2, ..., D_(n-1) in
    lexicographic order."""
    lower = itertools.chain.from_iterable(perms.enumerate_perms(k, "derangements") for k in range(2, n))
    return dict(zip(itertools.chain([()], lower), itertools.count()))


@functools.lru_cache(maxsize=None)
def _reference_ranks(n):
    """The rank of every permutation (its lexicographic index in S_n) by
    word, and by rank the entry of rd(x) in the flat list of the lower
    tables, 0 for the identity and for derangements: built one permutation
    at a time, each word packed by itself, each x with a fixed point filled
    in place, x(W_j) = W_e(j)."""
    index = {_word(p): r for r, p in enumerate(itertools.permutations(range(1, n + 1)))}
    entry = [0] * len(index)
    offset = 1
    for k in range(2, n):
        for wrong in itertools.combinations(range(n), k):
            x = list(range(1, n + 1))
            targets = (0,) + tuple(q + 1 for q in wrong)
            for i, e in enumerate(_derangements(k), offset):
                for q, v in zip(wrong, e):
                    x[q] = targets[v]
                entry[index[_word(x)]] = i
        offset += len(_derangements(k))
    return index, tuple(entry)


@pytest.mark.parametrize("n", range(2, 9))
def test_ranks_equal_the_per_permutation_construction(n):
    """``_entries`` is the reference's rank index restricted to the
    permutations with a fixed point, composed with its entry list."""
    index, entry = _reference_ranks(n)
    fixed = [p for p in itertools.permutations(range(1, n + 1)) if not perms.is_derangement(p)]
    assert len(fixed) == factorial(n) - closedform.derangement_count(n)
    assert analysis._entries(n) == {_word(p): entry[index[_word(p)]] for p in fixed}


def _no_lock_chain(top, d):
    """(m, y) of d's chain x_1 = top o d, x_(i+1) = top o x_i, followed until
    x_m has a fixed point, or None when it repeats first."""
    x, seen = perms.compose(top, d), set()
    while perms.is_derangement(x):
        if x in seen:
            return None
        seen.add(x)
        x = perms.compose(top, x)
    return len(seen) + 1, x


def _prefixes(n, rng):
    """Lower prefixes s_1..s_(n-1): right shifts and their mirror, and from
    n = 5 seeded derangements and a prefix whose size-4 component loops.
    n = 3 has a single lower prefix."""
    right = strategies.cyclic_shift(n - 1).components
    if n == 3:
        return [right]
    found = [right, tuple(map(strategies.mirror_component, right))]
    if n >= 5:
        pools = [list(perms.enumerate_perms(k, "derangements")) for k in range(3, n)]
        found.append(((1,), (2, 1)) + tuple(rng.choice(p) for p in pools))
        found.append(((1,), (2, 1), (2, 3, 1), (2, 1, 4, 3)) + right[4:])
    return found


def _pair_swap_top(n):
    """Swaps of adjacent pairs, ending in a 3-cycle when n is odd; some of
    its chains loop at n = 4, 6 and 7 (no top of size 3 or 5 has one)."""
    swaps = [v for i in range(1, n - 2 if n % 2 else n, 2) for v in (i + 1, i)]
    return tuple(swaps) + ((n - 1, n, n - 2) if n % 2 else ())


@pytest.mark.parametrize("n", range(3, 8))
def test_top_chains_are_prefix_independent(n):
    """T(d) = m(d) + V(y(d)) under every lower prefix, with m, y, the loop
    and no-lock counts taken once per top from ``_top_chains``."""
    rng = random.Random(4100 + n)
    entry = _reference_entries(n)
    tops = [
        strategies.cyclic_shift(n).top,
        strategies.cyclic_shift_left_top(n).top,
        rng.choice(list(perms.enumerate_perms(n, "derangements"))),
        _pair_swap_top(n),
    ]
    for top in tops:
        chains = analysis._top_chains(top)
        ends = [_no_lock_chain(top, d) for d in _derangements(n)]
        reached = sorted((m, entry[engine.relative_derangement(y)]) for m, y in filter(None, ends))
        found = [(m, y) for m, ends_m in enumerate(chains.ends, 1) for y in ends_m]
        assert sorted(found) == reached
        assert chains.loops == ends.count(None)
        no_lock = ends.count((2, perms.identity(n)))
        for prefix in _prefixes(n, rng):
            s = strategies.Strategy(prefix + (top,))
            memo = SubgameMemo()
            analysis.decomposition_stats(s, memo)
            values = analysis._top_values(n, memo.tables_up_to(s, n - 1))
            tables = SubgameMemo().tables_up_to(s, n)
            fresh = [
                engine._chase(d, s.inverses, s.components, tables)
                for d in _derangements(n)
            ]
            for t, end in zip(fresh, ends):
                v = None if end is None else values[entry[engine.relative_derangement(end[1])]]
                if v in (None, analysis.LOOPED_CODE):
                    assert t == LOOPED
                else:
                    assert t == end[0] + v
            looped = sum(values[y] == analysis.LOOPED_CODE for _, y in found)
            assert fresh.count(LOOPED) == chains.loops + looped
            hist = {t: fresh.count(t) for t in fresh}
            assert analysis._top_stats(top, values) == hist
            assert analysis.decomposition_stats(s)[1][3] == no_lock


def _flat_words(flat, n):
    """The word of each size-n permutation in the flat entries: its first
    n - 1 entries, one strided copy per column, read as one int."""
    words = bytearray(len(flat) // n * 8)
    for j in range(n - 1):
        words[j::8] = flat[j::n]
    return memoryview(words).cast("Q").tolist()


@functools.lru_cache(maxsize=None)
def _reference_walk_base(n):
    """The flat entries of D_n, and the D_n position of each derangement
    by its rank in ``_reference_ranks``."""
    flat = bytes(itertools.chain.from_iterable(_derangements(n)))
    index, _ = _reference_ranks(n)
    return flat, dict(zip(map(index.__getitem__, _flat_words(flat, n)), itertools.count()))


def _reference_top_chains(top):
    """``TopChains`` of ``top`` by its own walk over D_n, all chains at once:
    one ``translate`` composes the top with every d, and a deranged x_i is
    some d' in D_n, so x_(i+1) = top o d' is read off those compositions by
    its position.  A chain that has not ended by the order of the top
    loops.  The walk steps by rank, and each chain end is given as the
    entry of its rd by ``_reference_ranks``."""
    n = len(top)
    index, entry = _reference_ranks(n)
    flat, position = _reference_walk_base(n)
    compose = bytes.maketrans(bytes(range(n + 1)), bytes((0,) + top))
    firsts = xs = list(map(index.__getitem__, _flat_words(flat.translate(compose), n)))
    identity, power, order = bytes(range(1, n + 1)), bytes(top), 1
    while power != identity:
        power, order = power.translate(compose), order + 1
    ends = []
    while xs and len(ends) < order - 1:
        at = [position.get(x, -1) for x in xs]
        ended = [a < 0 for a in at]
        ends.append([entry[x] for x in itertools.compress(xs, ended)])
        xs = [firsts[a] for a in at if a >= 0]
    return analysis.TopChains(tuple(ends), len(xs))


def _chain_pairs(chains):
    """The chain ends as sorted entries by m, which is the sorted
    (m, entry) pairs, and the loop count."""
    return [sorted(ends) for ends in chains.ends], chains.loops


@pytest.mark.parametrize(
    "kind, n", [("cyclic", n) for n in range(2, 8)] + [("deranged", n) for n in range(2, 7)]
)
def test_conjugation_route_equals_the_per_top_walk(kind, n):
    """Every distinct top of the family: the chains read off its cycle
    type's walk are its own walk's, as (m, entry) pairs and loops."""
    for top in strategies.component_pools(n, kind)[-1]:
        assert _chain_pairs(analysis._top_chains(top)) == _chain_pairs(_reference_top_chains(top))


def _cycle_types(n, least=2):
    """The cycle types of size n with no part below ``least``, ascending."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(least, n + 1) for rest in _cycle_types(n - k, k)]


@pytest.mark.parametrize("n", [8, 9])
def test_conjugation_route_equals_the_per_top_walk_at_every_cycle_type(n):
    """One seeded top of every fixed-point-free cycle type, repeated
    lengths included (2+2+2+2, 3+3+3, 2+2+2+3), and the pair-swap top,
    some of whose chains loop."""
    rng = random.Random(2300 + n)
    types = _cycle_types(n)
    assert len(types) == {8: 7, 9: 8}[n]
    tops = [_pair_swap_top(n)]
    for lengths in types:
        lows = itertools.accumulate((1,) + lengths)
        blocks = [list(range(low, low + size)) for low, size in zip(lows, lengths)]
        values = rng.sample(range(1, n + 1), n)  # a seeded relabelling p
        top = [0] * n
        for block in blocks:
            for a, b in zip(block, block[1:] + block[:1]):
                top[values[a - 1] - 1] = values[b - 1]  # top = p c p^-1
        tops.append(tuple(top))
    reference = [_chain_pairs(_reference_top_chains(top)) for top in tops]
    assert any(loops for _, loops in reference)
    assert [_chain_pairs(analysis._top_chains(top)) for top in tops] == reference


def _block_cycle(lengths):
    """The permutation of cycle type ``lengths`` whose cycles are blocks of
    consecutive values, each shifted by one: the c of ``_chain_rows``."""
    c = []
    for size in lengths:
        low = len(c) + 1
        c += [*range(low + 1, low + size), low]
    return tuple(c)


@pytest.mark.parametrize(
    "lengths",
    [lengths for n in range(3, 9) for lengths in _cycle_types(n)] + [(9,)],
    ids=lambda lengths: "+".join(map(str, lengths)),
)
def test_chain_levels_nest_into_depth_classes(lengths):
    """The chain ends of ``_chain_rows``, the level-1 ends ordered by depth,
    against every d's own chain (``_no_lock_chain``): each level's ends are
    distinct, level m + 1 lies in level m, and the depth of each end is the
    largest m(d) over the d with y(d) = y."""
    c = _block_cycle(lengths)
    n = len(c)
    walked = [_no_lock_chain(c, d) for d in _derangements(n)]
    levels, deepest = collections.defaultdict(list), {}
    for m, y in filter(None, walked):
        levels[m].append(y)
        deepest[y] = max(deepest.get(y, 0), m)
    for m, ends in levels.items():
        assert len(set(ends)) == len(ends)
        assert m == 1 or set(ends) <= set(levels.get(m - 1, ()))
    rows, counts, loops = analysis._chain_rows(lengths)
    found = [tuple(rows[i : i + n]) for i in range(0, len(rows), n)]
    depths = [m for m, count in enumerate(counts, 1) for _ in range(count)]
    assert len(found) == len(depths) == len(deepest)
    assert dict(zip(found, depths)) == deepest
    assert loops == walked.count(None)


def test_top_stats_equal_a_per_derangement_tally_at_n8():
    """``_top_stats`` reads each level-1 end's code once for all the levels
    it ends; at n = 8 it must equal the tally of T(d) = m(d) + V(y(d)) over
    every d's own chain, for the right shift, the left-shift top and the
    pair-swap top, whose chains loop, under a lower prefix whose size-4
    component loops, so that V holds LOOPED codes."""
    n = 8
    prefix = ((1,), (2, 1), (2, 3, 1), (2, 1, 4, 3)) + strategies.cyclic_shift(n - 1).components[4:]
    s = strategies.Strategy(prefix + (strategies.cyclic_shift(n).top,))
    memo = SubgameMemo()
    analysis.decomposition_stats(s, memo)
    values = analysis._top_values(n, memo.tables_up_to(s, n - 1))
    assert analysis.LOOPED_CODE in values
    entry = _reference_entries(n)
    tops = [strategies.cyclic_shift(n).top, strategies.cyclic_shift_left_top(n).top, _pair_swap_top(n)]
    for top in tops:
        tally = collections.Counter()
        ends = [_no_lock_chain(top, d) for d in _derangements(n)]
        for end in ends:
            v = None if end is None else values[entry[engine.relative_derangement(end[1])]]
            tally[LOOPED if v in (None, analysis.LOOPED_CODE) else end[0] + v] += 1
        assert analysis._top_stats(top, values) == dict(tally)
    assert None in ends  # the pair-swap top's chains loop


@pytest.mark.parametrize(
    "kind, n, types",
    [
        pytest.param(kind, n, types, id=f"{kind}-{n}")
        for kind, n, types in (
            ("inductive", 7, {(7,)}),
            ("cyclic", 6, {(6,)}),
            ("deranged", 6, {(6,), (2, 4), (3, 3), (2, 2, 2)}),
        )
    ],
)
def test_scan_walks_the_chains_once_per_cycle_type(monkeypatch, kind, n, types):
    """A scan builds one ``_chain_rows`` entry per cycle type of its tops;
    a lone strategy builds none."""
    analysis._chain_rows.cache_clear()
    seen = set()
    walk = analysis._chain_rows

    def recording(lengths):
        seen.add(lengths)
        return walk(lengths)

    monkeypatch.setattr(analysis, "_chain_rows", recording)
    analysis.scan(n, kind)
    assert seen == types
    assert walk.cache_info().currsize == walk.cache_info().misses == len(types)
    walk.cache_clear()
    analysis.generating_function(strategies.cyclic_shift(n))
    analysis.decomposition_stats(strategies.cyclic_shift(n), SubgameMemo())
    assert walk.cache_info().currsize == 0


def test_planes_hold_counts_up_to_the_middle_binomial():
    """At n = 9 the right shift's chains of one length end at one entry of V
    up to C(9, 4) = 126 times, and its plane holds that count in one byte;
    ``test_counter_route_equals_lone_decomposition`` checks the sums."""
    chains = analysis._top_chains(strategies.cyclic_shift(9).top)
    block = analysis._top_block([chains], "I")
    counts = [plane for _, planes in block.planes for plane in planes]
    expected = [collections.Counter(ends) for ends in chains.ends]
    assert counts == [c[e] for c in expected for e in sorted(c)]
    assert max(counts) == comb(9, 4) == 126


def test_memo_row_reads_back_only_its_strategy(monkeypatch):
    """A memo whose ``row`` names a representative reads that strategy's
    results off the columns at the row's index, and evaluates any other
    strategy in full.  ``_evaluate`` and a lone ``decomposition_stats`` read
    nothing back, so neither makes a further ``decomposition_stats`` call."""
    right = strategies.cyclic_shift(6).components[:-1]
    other = ((1,), (2, 1), (3, 1, 2), (2, 3, 4, 1), (2, 3, 4, 5, 1))
    tops = [(2, 3, 4, 5, 6, 1), (6, 1, 2, 3, 4, 5), (3, 1, 5, 2, 6, 4)]
    reps = [p + (t,) for p in (right, other) for t in tops]
    columns = analysis._join(6, [analysis._scan_chunk([right, other], tops)])
    memo = SubgameMemo()
    assert memo.row is None
    memo.row = (reps[1], columns, 1)
    assert analysis.decomposition_stats(strategies.Strategy(reps[1]), memo) == columns.stats(1)
    # Another index is read as given, not recomputed.
    assert columns.stats(3) != columns.stats(1)
    memo.row = (reps[1], columns, 3)
    assert analysis.decomposition_stats(strategies.Strategy(reps[1]), memo) == columns.stats(3)
    for i in (0, 2, 3, 4, 5):
        lone = strategies.Strategy(reps[i])
        assert analysis.decomposition_stats(lone, memo) == columns.stats(i)
    assert memo.row == (reps[1], columns, 3)

    calls = []
    decompose = analysis.decomposition_stats

    def counting(strategy, memo=None):
        calls.append(strategy.components)
        return decompose(strategy, memo)

    monkeypatch.setattr(analysis, "decomposition_stats", counting)
    assert [columns.stats(i) for i in range(len(reps))] == analysis._evaluate([right, other], tops)
    assert calls == []
    analysis.decomposition_stats(strategies.Strategy(reps[0]))
    assert calls == [reps[0]]


def test_single_strategy_builds_no_lookup():
    """A lone strategy (``gf``, ``avg``) takes its top size from the
    lock-set pass: it builds no word map, which costs about 0.1 s at
    n = 9."""
    analysis._entries.cache_clear()
    analysis.generating_function(strategies.cyclic_shift(7))
    analysis.decomposition_stats(strategies.cyclic_shift(7), SubgameMemo())
    assert analysis._entries.cache_info().currsize == 0


@pytest.mark.parametrize("jobs", [0, -3])
def test_scan_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError):
        analysis.scan(4, "inductive", jobs=jobs)
