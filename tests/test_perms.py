import doctest
import itertools
import tracemalloc
from math import factorial

import pytest

from permwordle import closedform, perms

# The nine derangements of length 4, in lexicographic order.
D4 = [
    (2, 1, 4, 3),
    (2, 3, 4, 1),
    (2, 4, 1, 3),
    (3, 1, 4, 2),
    (3, 4, 1, 2),
    (3, 4, 2, 1),
    (4, 1, 2, 3),
    (4, 3, 1, 2),
    (4, 3, 2, 1),
]


def brute_derangements(n):
    """Independent filter over all n! permutations."""
    return [
        p
        for p in itertools.permutations(range(1, n + 1))
        if all(v != i for i, v in enumerate(p, 1))
    ]


def test_doctests():
    results = doctest.testmod(perms)
    assert results.failed == 0


def test_identity():
    assert perms.identity(1) == (1,)
    assert perms.identity(4) == (1, 2, 3, 4)
    assert perms.identity(5) == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        perms.identity(0)


def test_validate_rejects_bad_input():
    with pytest.raises(ValueError):
        perms.validate([])
    with pytest.raises(ValueError):
        perms.validate([1, 1])
    with pytest.raises(ValueError):
        perms.validate([0, 1])
    with pytest.raises(ValueError):
        perms.validate([1, 3])


def test_compose_examples():
    assert perms.compose((2, 3, 1), (2, 3, 1)) == (3, 1, 2)
    p = (3, 1, 4, 2)
    assert perms.compose(p, perms.identity(4)) == p
    assert perms.compose((2, 1, 4, 3), (2, 1, 4, 3)) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        perms.compose((1, 2), (1,))


def test_invert_examples():
    assert perms.invert((2, 3, 4, 1)) == (4, 1, 2, 3)
    assert perms.invert((2, 1, 4, 3)) == (2, 1, 4, 3)
    assert perms.invert(perms.identity(5)) == (1, 2, 3, 4, 5)


def test_inverse_laws():
    for p in itertools.permutations(range(1, 5)):
        inv = perms.invert(p)
        assert perms.compose(p, inv) == perms.identity(4)
        assert perms.compose(inv, p) == perms.identity(4)


def test_is_derangement():
    assert perms.is_derangement((2, 1, 4, 3))
    assert not perms.is_derangement((1, 2, 3, 4))
    assert not perms.is_derangement((2, 3, 1, 4))


def test_is_cyclic():
    assert perms.is_cyclic((2, 3, 4, 1))
    assert not perms.is_cyclic((2, 1, 4, 3))
    assert perms.is_cyclic((1,))
    assert not perms.is_cyclic((1, 2))
    assert perms.is_cyclic((2, 1))


def test_excedance_count():
    assert perms.excedance_count((1, 2, 3, 4)) == 0
    assert perms.excedance_count((2, 3, 4, 1)) == 3
    assert perms.excedance_count((4, 1, 2, 3)) == 1


def test_enumerate_derangements_4_matches_known_rows():
    assert list(perms.enumerate_perms(4, "derangements")) == D4


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_counts_and_order(n):
    allp = list(perms.enumerate_perms(n))
    der = list(perms.enumerate_perms(n, "derangements"))
    cyc = list(perms.enumerate_perms(n, "cyclic"))
    assert len(allp) == factorial(n)
    assert der == brute_derangements(n)
    assert len(der) == closedform.derangement_count(n)
    assert len(cyc) == factorial(n - 1)
    # lexicographic order, each class a sorted sub-stream of the full one
    assert allp == sorted(allp)
    assert der == sorted(der)
    assert cyc == sorted(cyc)


@pytest.mark.parametrize("n", range(1, 10))
def test_derangement_enumeration_equals_brute_filter(n):
    assert list(perms.enumerate_perms(n, "derangements")) == brute_derangements(n)


def test_derangement_enumeration_is_lazy():
    """The first of D_14 comes without walking the 13! permutations that
    start with 1, and without building a block for every set of tail values."""
    tracemalloc.start()
    try:
        first = next(perms.enumerate_perms(14, "derangements"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == tuple(v for i in range(1, 14, 2) for v in (i + 1, i))
    assert peak < 1_000_000


@pytest.mark.parametrize("kind", ["all", "derangements", "cyclic"])
def test_enumerate_refuses_length_below_one(kind):
    with pytest.raises(ValueError, match="at least 1"):
        next(perms.enumerate_perms(0, kind))


def test_enumerate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        list(perms.enumerate_perms(3, "swaps"))


@pytest.mark.parametrize("n", range(2, 7))
def test_invert_preserves_class(n):
    for d in perms.enumerate_perms(n, "derangements"):
        assert perms.is_derangement(perms.invert(d))
    for c in perms.enumerate_perms(n, "cyclic"):
        assert perms.is_cyclic(perms.invert(c))


def test_derangement_recurrence_against_enumeration():
    counts = {n: len(brute_derangements(n)) for n in range(1, 8)}
    assert counts[1] == 0 and counts[2] == 1
    for n in range(3, 8):
        assert counts[n] == (n - 1) * (counts[n - 1] + counts[n - 2])


@pytest.mark.parametrize("n", range(1, 8))
def test_excedance_histogram_is_eulerian_row(n):
    hist = [0] * n
    for p in perms.enumerate_perms(n):
        hist[perms.excedance_count(p)] += 1
    assert hist == [closedform.eulerian(n, k) for k in range(n)]
    assert sum(hist) == factorial(n)


def test_parse_and_format():
    assert perms.parse_perm("2,3,4,1") == (2, 3, 4, 1)
    assert perms.parse_perm(" 2 , 1 ") == (2, 1)
    assert perms.format_perm((2, 3, 4, 1)) == "2,3,4,1"
    with pytest.raises(ValueError, match="entry 3"):
        perms.parse_perm("4,1,x,3")
    with pytest.raises(ValueError):
        perms.parse_perm("1,1")
    for p in itertools.permutations(range(1, 6)):
        assert perms.parse_perm(perms.format_perm(p)) == p
