from fractions import Fraction
from math import factorial

import pytest

from permwordle import closedform as cf


def test_eulerian_examples():
    assert cf.eulerian(4, 2) == 11
    assert cf.eulerian(5, 1) == 26
    for n in range(1, 8):
        assert cf.eulerian(n, 0) == 1
    with pytest.raises(ValueError):
        cf.eulerian(4, 4)
    with pytest.raises(ValueError):
        cf.eulerian(4, -1)


@pytest.mark.parametrize("n", range(1, 11))
def test_eulerian_row_sums(n):
    assert sum(cf.eulerian(n, k) for k in range(n)) == factorial(n)


def test_eulerian_second():
    assert cf.eulerian_second(4) == 11
    assert cf.eulerian_second(5) == 26
    assert cf.eulerian_second(1) == 0
    for n in range(2, 12):
        assert cf.eulerian_second(n) == cf.eulerian(n, 1)


def test_lucas():
    values = [cf.lucas(n) for n in range(1, 9)]
    assert values == [1, 3, 4, 7, 11, 18, 29, 47]


def test_derangement_match_total():
    """n (D_(n-1) + D_(n-2)), 0 at n = 1, against the stored A284843 terms."""
    totals = [cf.derangement_match_total(n) for n in range(1, 9)]
    assert totals == [cf.DERANGEMENT_MATCH_TOTALS.value(n) for n in range(1, 9)]
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            cf.derangement_match_total(n)


def test_derangement_count():
    assert [cf.derangement_count(n) for n in range(0, 9)] == [
        1, 0, 1, 2, 9, 44, 265, 1854, 14833,
    ]


def test_rho1_closed_form():
    assert cf.rho1_closed_form(3) == 0
    assert cf.rho1_closed_form(4) == 4
    assert cf.rho1_closed_form(5) == 45


@pytest.mark.parametrize("n", range(3, 41))
def test_rho1_closed_form_equals_rational_formula(n):
    half_terms = Fraction(n * n + 5 * n, 2)
    exact = 1 - 2 ** (n + 1) + 3**n + half_terms - n * 2**n
    assert cf.rho1_closed_form(n) == exact


@pytest.mark.parametrize("n", range(3, 21))
def test_rho1_closed_form_equals_binomial_sum(n):
    assert cf.rho1_closed_form(n) == cf.rho1_binomial_sum(n)


def test_der2ex_count():
    assert cf.der2ex_count(3) == 1
    assert cf.der2ex_count(4) == 7
    assert cf.der2ex_count(5) == 21


def test_cs_rho2_count():
    assert cf.cs_rho2_count(4) == 6
    assert cf.cs_rho2_count(5) == 20
    assert cf.cs_rho2_count(6) == 50


def test_csl_rho2_count():
    assert cf.csl_rho2_count(4) == 2
    assert cf.csl_rho2_count(5) == 5
    assert cf.csl_rho2_count(6) == 11


def test_der2ex_splits_as_rho2_plus_one():
    for n in range(4, 12):
        assert cf.der2ex_count(n) == cf.cs_rho2_count(n) + 1


def test_csl_cubic_sequence():
    assert [cf.csl_cubic(n) for n in range(3, 9)] == [1, 7, 51, 263, 1100, 4093]
    assert cf.csl_cubic(4) == 7
    assert cf.csl_cubic(5) == 51


def test_csl_cubic_below_cs_cubic():
    for n in range(4, 11):
        assert cf.csl_cubic(n) < cf.eulerian(n, 2)


def test_reference_tables():
    t = cf.DERANGEMENT_MATCH_TOTALS
    assert t.value(1) == 0 and t.value(8) == 16952
    assert cf.CSL_CUBIC_SEQUENCE.value(3) == 1
    assert cf.RHO1_PREFIX.values == (0, 4, 45)
    assert set(cf.REFERENCE_SEQUENCES) == {"A284843", "csl-cubic", "A385588-prefix"}
    with pytest.raises(ValueError):
        t.value(9)


def test_domain_errors():
    for fn in (cf.lucas, cf.eulerian_second):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        cf.derangement_count(-1)
    with pytest.raises(ValueError):
        cf.rho1_closed_form(2)
    with pytest.raises(ValueError):
        cf.der2ex_count(2)
    with pytest.raises(ValueError):
        cf.cs_rho2_count(3)
    with pytest.raises(ValueError):
        cf.csl_rho2_count(3)
    with pytest.raises(ValueError):
        cf.csl_cubic(2)
