import itertools
import random
from math import factorial

import pytest

from permwordle import analysis, closedform, engine, perms, strategies
from permwordle.engine import LOOPED, SubgameMemo

CS4 = strategies.cyclic_shift(4)
CS5 = strategies.cyclic_shift(5)
# The involution component that loops: swapping pairs twice returns to start.
SWAP_TOP = strategies.from_components([[1], [2, 1], [2, 3, 1], [2, 1, 4, 3]])


def test_feedback_examples():
    assert engine.feedback((4, 1, 2, 3), (2, 1, 4, 3)) == frozenset({2, 4})
    assert engine.feedback((2, 1, 4, 3), (3, 4, 1, 2)) == frozenset()
    p = (3, 1, 4, 2)
    assert engine.feedback(p, p) == frozenset({1, 2, 3, 4})
    with pytest.raises(ValueError):
        engine.feedback((1, 2), (1, 2, 3))


def test_feedback_rejects_a_lone_disagreement():
    # Equal lengths but not permutations of the same set: the invariant is
    # an explicit check, so it also holds under python -O.
    with pytest.raises(ValueError):
        engine.feedback((1, 2, 3), (1, 2, 4))


def test_feedback_never_misses_exactly_one():
    for guess in itertools.permutations(range(1, 5)):
        for secret in itertools.permutations(range(1, 5)):
            assert len(engine.feedback(guess, secret)) != 3


def test_next_guess_worked_example():
    # length 5, position 2 already correct: right shift gives 52134
    out = engine.next_guess((1, 2, 3, 4, 5), {2}, CS5)
    assert out == (5, 2, 1, 3, 4)


def test_next_guess_from_identity_is_component_inverse():
    assert engine.next_guess((1, 2, 3, 4), set(), CS4) == (4, 1, 2, 3)
    assert engine.next_guess((1, 2, 3, 4), set(), SWAP_TOP) == (2, 1, 4, 3)
    for s in strategies.enumerate_strategies(5, "deranged"):
        assert engine.next_guess((1, 2, 3, 4, 5), set(), s) == perms.invert(s.top)


def test_next_guess_rejects_degenerate_states():
    with pytest.raises(ValueError):
        engine.next_guess((1, 2, 3), {1, 2, 3}, strategies.cyclic_shift(3))
    with pytest.raises(ValueError):
        engine.next_guess((1, 2, 3), {1, 2}, strategies.cyclic_shift(3))


def test_play_identity_solves_immediately():
    for s in strategies.enumerate_strategies(4, "deranged"):
        trace = engine.play((1, 2, 3, 4), s)
        assert trace.solved and trace.rounds == 1


def test_play_known_traces():
    trace = engine.play((4, 1, 2, 3), CS4)
    assert trace.solved and trace.rounds == 2
    assert trace.correct_sets[-1] == frozenset({1, 2, 3, 4})

    trace = engine.play((3, 4, 1, 2), CS4)
    assert trace.solved and trace.rounds == 3
    assert trace.guesses == ((1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2))
    assert trace.correct_sets[1] == frozenset()


def test_play_loop_returns_to_identity():
    trace = engine.play((3, 4, 1, 2), SWAP_TOP)
    assert trace.status == "looped"
    assert trace.rounds is None
    assert trace.guesses == ((1, 2, 3, 4), (2, 1, 4, 3), (1, 2, 3, 4))
    assert all(not s for s in trace.correct_sets)


def test_play_length_mismatch():
    with pytest.raises(ValueError):
        engine.play((1, 2, 3), CS4)


def test_solve_rounds_rejects_length_mismatch():
    # A shorter secret must not be played with the lower components, nor a
    # longer one run off the end of the strategy.
    for secret in [(2, 1, 3), (2, 3, 4, 5, 1)]:
        with pytest.raises(ValueError):
            engine.solve_rounds(secret, CS4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_trace_invariants(n):
    strats = list(strategies.enumerate_strategies(n, "deranged"))
    for s in strats:
        for secret in perms.enumerate_perms(n):
            trace = engine.play(secret, s)
            assert trace.guesses[0] == perms.identity(n)
            for guess, hits in zip(trace.guesses, trace.correct_sets):
                assert hits == engine.feedback(guess, secret)
                assert len(hits) != n - 1
            if trace.solved:
                assert trace.correct_sets[-1] == frozenset(range(1, n + 1))
                assert all(
                    len(h) < n for h in trace.correct_sets[:-1]
                )
            assert engine.solve_rounds(secret, s) == (
                trace.rounds or LOOPED, trace.first_hit
            )


def _reference_next_guess(current, correct, strategy):
    """The move rule one position at a time, with no cached mover: with the
    incorrect positions p_1 < ... < p_k and sigma = s_k, the value at p_j
    moves to p_sigma(j)."""
    wrong = [i for i in range(1, len(current) + 1) if i not in correct]
    sigma = strategy.component(len(wrong))
    out = list(current)
    for j, pos in enumerate(wrong):
        out[wrong[sigma[j] - 1] - 1] = current[pos - 1]
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_play_traces_follow_the_reference_move_rule(n):
    for s in strategies.enumerate_strategies(n, "deranged"):
        for secret in perms.enumerate_perms(n):
            trace = engine.play(secret, s)
            for r in range(len(trace.guesses) - 1):
                assert trace.guesses[r + 1] == _reference_next_guess(
                    trace.guesses[r], trace.correct_sets[r], s
                )


def _move_rule_strategies(n):
    rng = random.Random(1300 + n)
    pools = strategies.component_pools(n, "deranged")
    out = [strategies.cyclic_shift(n)]
    if n >= 3:
        out.append(strategies.cyclic_shift_left_top(n))
    out += [strategies.from_components(rng.choice(p) for p in pools) for _ in range(3)]
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_next_guess_matches_the_reference_for_every_mask(n):
    rng = random.Random(n)
    currents = [perms.identity(n), tuple(rng.sample(range(1, n + 1), n))]
    for s in _move_rule_strategies(n):
        for k in range(2, n + 1):
            for wrong in itertools.combinations(range(1, n + 1), k):
                correct = set(range(1, n + 1)) - set(wrong)
                for current in currents:
                    assert engine.next_guess(current, correct, s) == (
                        _reference_next_guess(current, correct, s)
                    )


def test_mover_cache_is_bounded_and_per_strategy():
    n = 6
    strats = _move_rule_strategies(n)
    assert len({s.components for s in strats}) == len(strats)
    for s in strats:
        analysis.gf_playback(s)
        assert 0 < len(s.movers) <= 2**n
        assert all(len(mask) == n and mask.count(True) >= 2 for mask in s.movers)
    for a, b in itertools.combinations(strats, 2):
        assert a.movers is not b.movers
        assert {id(g) for g in a.movers.values()}.isdisjoint(
            id(g) for g in b.movers.values()
        )


def test_play_and_solve_rounds_refuse_a_non_permutation_secret():
    cs3 = strategies.cyclic_shift(3)
    for secret in [(2, 2, 2), (1, 2, 4), (0, 1, 2)]:
        with pytest.raises(ValueError):
            engine.solve_rounds(secret, cs3)
        with pytest.raises(ValueError):
            engine.play(secret, cs3)


def test_next_guess_refuses_positions_outside_the_guess():
    cs3 = strategies.cyclic_shift(3)
    for correct in [{0}, {3, 4}, {-1, 1}]:
        with pytest.raises(ValueError, match="outside"):
            engine.next_guess((1, 2, 3), correct, cs3)
    # A guess of another length than the strategy is refused too.
    with pytest.raises(ValueError):
        engine.next_guess((1, 2, 3), set(), CS4)


def test_rho_examples():
    assert engine.play((1, 2, 3, 4), CS4).first_hit == 1
    assert engine.play((2, 1, 4, 3), CS4).first_hit == 2
    assert engine.play((3, 4, 1, 2), CS4).first_hit == 3
    # looped with every recorded correct set empty: no rho
    assert engine.play((3, 4, 1, 2), SWAP_TOP).first_hit is None


def test_rho_on_looped_game_with_a_hit():
    # Secret fixes position 5; the length-4 remainder loops under the swap
    # component, so the game loops while the trace still records a hit.
    s = strategies.from_components(
        [[1], [2, 1], [2, 3, 1], [2, 1, 4, 3], [2, 3, 4, 5, 1]]
    )
    trace = engine.play((3, 4, 1, 2, 5), s)
    assert trace.status == "looped"
    assert trace.first_hit == 1
    assert engine.play((3, 4, 1, 2, 5), s).first_hit == 1


def test_relative_derangement():
    assert engine.relative_derangement((1, 2, 3, 4)) == ()
    assert engine.relative_derangement((2, 1, 4, 3)) == (2, 1, 4, 3)
    # fixed point at 1; remainder 3,4,2 on positions 2,3,4 ranks to (2,3,1)
    assert engine.relative_derangement((1, 3, 4, 2)) == (2, 3, 1)
    for p in itertools.permutations(range(1, 6)):
        rel = engine.relative_derangement(p)
        if rel:
            assert perms.is_derangement(rel)
        else:
            assert p == perms.identity(5)


@pytest.mark.parametrize("k", range(2, 7))
def test_successor_is_relative_derangement_of_composition(k):
    """The one-step shortcut agrees with the unshortened route
    rd(s o d) for every deranged component s and every d in D_k."""
    pool = list(perms.enumerate_perms(k, "derangements"))
    for s in pool:
        guess = perms.invert(s)
        for d in pool:
            assert engine.successor(d, s, guess) == engine.relative_derangement(
                perms.compose(s, d)
            )


def _lookup_prefixes(k):
    """Cyclic shift, its left-top variant, the looping swap top where it
    fits, and two seeded deranged strategies of length k."""
    rng = random.Random(k)
    pools = {i: list(perms.enumerate_perms(i, "derangements")) for i in range(3, k + 1)}
    out = [strategies.cyclic_shift(k), strategies.cyclic_shift_left_top(k)]
    if k == 5:
        out.append(strategies.from_components(list(SWAP_TOP.components) + [(2, 3, 4, 5, 1)]))
    for _ in range(2):
        comps = [[1], [2, 1]] + [list(rng.choice(pools[i])) for i in range(3, k + 1)]
        out.append(strategies.from_components(comps))
    return out


@pytest.mark.parametrize("k", range(3, 8))
def test_top_lookup_is_relative_derangement_then_lower_table(k):
    """V(x) = T(rd(x)) from the lower tables, with V(identity) = 0 and
    LOOPED as the byte 255, at the entry of rd(x) for each of the
    k! - D_k permutations x of size k that have a fixed point: 0 for the
    identity, then D_2, ..., D_(k-1) in lexicographic order."""
    with_fixed_point = [p for p in perms.enumerate_perms(k) if not perms.is_derangement(p)]
    assert len(with_fixed_point) == factorial(k) - closedform.derangement_count(k)
    lower = itertools.chain.from_iterable(perms.enumerate_perms(size, "derangements") for size in range(2, k))
    entry = dict(zip(itertools.chain([()], lower), itertools.count()))
    looped = 0
    for s in _lookup_prefixes(k):
        memo = SubgameMemo()
        for size in range(2, k):
            for d in perms.enumerate_perms(size, "derangements"):
                engine.subgame_guesses(d, s, memo)
        values = analysis._top_values(k, memo.tables_up_to(s, k - 1))
        assert len(values) == 1 + sum(map(closedform.derangement_count, range(2, k)))
        for x in with_fixed_point:
            rd = engine.relative_derangement(x)
            t = memo.table(s, len(rd))[rd] if rd else 0
            assert values[entry[rd]] == (analysis.LOOPED_CODE if t == LOOPED else t)
            looped += t == LOOPED
    # Only the swap prefix (k = 5) loops: 4 size-4 subgames at C(5, 4)
    # position sets each.
    assert looped == (20 if k == 5 else 0)


def test_top_lookup_refuses_incomplete_lower_tables():
    memo = SubgameMemo()
    engine.subgame_guesses((2, 1, 4, 3), CS5, memo)
    with pytest.raises(ValueError):
        analysis._top_values(5, memo.tables_up_to(CS5, 4))


def test_top_lookup_refuses_a_finite_value_at_the_looped_code():
    """V stores T as one byte with LOOPED as 255, so a finite T of 255 or
    more is refused rather than wrapped or read back as LOOPED."""
    assert analysis._top_values(3, {2: {(2, 1): 254}})[0:2] == bytes([0, 254])
    assert analysis._top_values(3, {2: {(2, 1): LOOPED}}).count(255) == 1
    for t in (255, 256, 1000):
        with pytest.raises(ValueError):
            analysis._top_values(3, {2: {(2, 1): t}})


def test_subgame_examples():
    assert engine.subgame_guesses((2, 1), CS4) == 1
    assert engine.subgame_guesses((4, 1, 2, 3), CS4) == 1
    assert engine.subgame_guesses((2, 1, 4, 3), CS4) == 2
    assert engine.subgame_guesses((3, 4, 1, 2), SWAP_TOP) == LOOPED


def test_subgame_rejects_non_derangements():
    with pytest.raises(ValueError):
        engine.subgame_guesses((1, 2), CS4)
    with pytest.raises(ValueError):
        engine.subgame_guesses((2, 1, 4, 3), strategies.cyclic_shift(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_playback_equals_one_plus_subgame_value(n):
    """Oracle equivalence: full-game rounds = 1 + T(relative derangement)."""
    fams = list(strategies.enumerate_strategies(n, "deranged"))
    for s in fams:
        memo = SubgameMemo()
        for secret in perms.enumerate_perms(n):
            direct, _ = engine.solve_rounds(secret, s)
            rel = engine.relative_derangement(secret)
            if not rel:
                assert direct == 1
                continue
            t = engine.subgame_guesses(rel, s, memo)
            assert direct == (LOOPED if t == LOOPED else 1 + t)


@pytest.mark.parametrize("n", range(1, 7))
def test_cs_round_count_is_excedances_plus_one(n):
    cs = strategies.cyclic_shift(n)
    for secret in perms.enumerate_perms(n):
        rounds, _ = engine.solve_rounds(secret, cs)
        assert rounds == perms.excedance_count(secret) + 1


def test_memo_shared_across_matching_prefixes():
    memo = SubgameMemo()
    a = strategies.inductive((2, 3, 4, 5, 1))
    b = strategies.inductive((5, 1, 2, 3, 4))
    engine.subgame_guesses((2, 1, 4, 3), a, memo)
    assert memo.table(a, 4) is memo.table(b, 4)
    assert memo.table(a, 5) is not memo.table(b, 5)


def test_random_games_match_trace_and_fast_path():
    rng = random.Random(52134)
    for _ in range(200):
        n = rng.randint(2, 6)
        secret = tuple(rng.sample(range(1, n + 1), n))
        pool = [list(perms.enumerate_perms(i, "derangements")) for i in range(3, n + 1)]
        comps = [[1]] + ([[2, 1]] if n >= 2 else []) + [list(rng.choice(ps)) for ps in pool]
        s = strategies.from_components(comps)
        trace = engine.play(secret, s)
        fast = engine.solve_rounds(secret, s)
        assert fast == (trace.rounds or LOOPED, trace.first_hit)
