from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from chromacount import (
    InvalidParameterError,
    asymptotic_gap,
    complete_bipartite,
    count_colorings,
    count_colorings_kdd,
    eta,
    m_count,
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
    assert m_count(1) == 0  # no two disjoint nonempty colour sets
    with pytest.raises(InvalidParameterError):
        m_count(-1)


def colour_set_pair_census(q):
    """Ordered pairs (A, B) of disjoint non-empty subsets of q colours, as bit
    masks, counted by size pair (|A|, |B|).  A coloring of K_{d,d} is such a
    pair, one colour set per side, with each side mapped onto its set."""
    return Counter(
        (a.bit_count(), b.bit_count()) for a in range(1, 1 << q) for b in range(1, 1 << q) if not a & b
    )


def test_pair_census_totals():
    for q in range(1, 8):
        census = colour_set_pair_census(q)
        top = max((a * b for a, b in census), default=0)
        assert eta(q) == top
        assert m_count(q) == sum(pairs for (a, b), pairs in census.items() if a * b == top)
        for d in range(1, 6):
            expected = sum(pairs * brute_surjections(d, a) * brute_surjections(d, b) for (a, b), pairs in census.items())
            assert count_colorings_kdd(d, q) == expected, (d, q)


def test_pair_census_counts_all_ordered_pairs():
    # each size class holds C(q,a)*C(q-a,b) pairs, the class sizes that
    # count_colorings_kdd sums over; together they are all 3^q - 2^(q+1) + 1
    # ordered disjoint non-empty pairs
    for q in range(1, 8):
        census = colour_set_pair_census(q)
        assert sum(census.values()) == 3**q - 2 ** (q + 1) + 1
        classes = {(a, b): comb(q, a) * comb(q - a, b) for a in range(1, q) for b in range(1, q - a + 1)}
        assert census == classes
        for d in range(1, 6):
            assert count_colorings_kdd(d, q) == sum(
                pairs * surjections(d, a) * surjections(d, b) for (a, b), pairs in classes.items()
            ), (d, q)


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
