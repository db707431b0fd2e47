from fractions import Fraction

import pytest

from chromacount import (
    InvalidParameterError,
    asymptotic_gap,
    complete_bipartite,
    count_colorings,
    count_colorings_kdd,
    eta,
    m_count,
    pair_census,
    surjections,
)

from helpers import brute_count_colorings, brute_surjections


def test_eta():
    assert eta(4) == 4
    assert eta(3) == 2
    assert eta(1) == 0
    assert eta(6) == 9
    assert eta(7) == 12
    with pytest.raises(InvalidParameterError):
        eta(0)


def test_m_count():
    assert m_count(4) == 6
    assert m_count(3) == 6
    assert m_count(2) == 2
    assert m_count(5) == 20  # C(6,3)
    with pytest.raises(InvalidParameterError):
        m_count(-1)


def test_surjections_small():
    assert surjections(2, 2) == 2
    assert surjections(3, 2) == 6
    assert surjections(2, 3) == 0
    assert surjections(0, 0) == 1
    for n in range(7):
        for k in range(7):
            assert surjections(n, k) == brute_surjections(n, k)


def test_count_colorings_kdd_examples():
    assert count_colorings_kdd(1, 2) == 2
    assert count_colorings_kdd(2, 3) == 18  # brute force over 3^4
    assert count_colorings_kdd(3, 3) == 42  # 6 * (2^3 - 1)
    assert count_colorings_kdd(2, 3) == brute_count_colorings(complete_bipartite(2, 2), 3)


def test_count_colorings_kdd_matches_exact_counter():
    for d in range(1, 5):
        g = complete_bipartite(d, d)
        for q in range(6):
            assert count_colorings_kdd(d, q) == count_colorings(g, q)


def test_count_colorings_kdd_at_large_q():
    # the closed form sums over at most d colour-set sizes, so a large q
    # costs no more than a small one
    for d in range(2, 5):
        g = complete_bipartite(d, d)
        for q in list(range(40)) + [10**2, 10**3, 10**4]:
            assert count_colorings_kdd(d, q) == count_colorings(g, q), (d, q)


def test_c3_kdd_identity():
    for d in range(1, 51):
        assert count_colorings_kdd(d, 3) == 6 * (2**d - 1)


def test_pair_census_totals():
    for d in range(1, 7):
        for q in range(2, 7):
            census = pair_census(d, q)
            assert census.total == count_colorings_kdd(d, q)
            assert census.max_product == eta(q)
            assert census.dominant_pairs == m_count(q)


def test_pair_census_examples():
    census = pair_census(2, 3)
    dominant = [e for e in census.entries if e.product == census.max_product]
    assert sorted((e.a, e.b) for e in dominant) == [(1, 2), (2, 1)]
    assert sum(e.pairs for e in dominant) == 6

    assert pair_census(1, 2).total == 2

    census = pair_census(3, 4)
    assert census.max_product == 4
    assert all((e.a, e.b) == (2, 2) for e in census.entries if e.product == 4)


def test_pair_census_counts_all_ordered_pairs():
    # sum of multiplicities = number of ordered disjoint nonempty (A,B)
    for q in range(2, 7):
        census = pair_census(2, q)
        expected = sum(1 for a_mask in range(1, 1 << q) for b_mask in range(1, 1 << q) if not a_mask & b_mask)
        assert census.pair_total == expected


def test_asymptotic_gap_examples():
    assert asymptotic_gap(10, 3).ratio == 1 - Fraction(1, 2**10)
    for d in (1, 3, 8, 25):
        assert asymptotic_gap(d, 2).ratio == 1
    assert abs(asymptotic_gap(20, 4).ratio - 1) <= Fraction(1, 100)
    with pytest.raises(InvalidParameterError):
        asymptotic_gap(5, 1)


def test_asymptotic_gap_convergence():
    for q in (3, 4, 5):
        previous = None
        for d in range(5, 41):
            dist = abs(asymptotic_gap(d, q).ratio - 1)
            if previous is not None:
                assert dist <= previous
            previous = dist
        assert dist <= Fraction(1, 100)
