import random
from fractions import Fraction

import pytest

from chromacount import (
    Graph,
    InvalidParameterError,
    alon_kahn_verdict,
    classify,
    complete,
    complete_bipartite,
    complete_target,
    conjecture_verdict,
    constrained_scan,
    count_colorings,
    count_colorings_kdd,
    count_homomorphisms,
    count_independent_sets,
    cycle,
    disjoint_copies,
    h_ind,
    hom_conjecture_verdict,
    looped_vertex,
    write_graph6,
)

from helpers import k4_minus_edge, petersen, prism, random_regular, regular_corpus, regular_family, target_classes


def test_conjecture_verdict_examples():
    v = conjecture_verdict(complete_bipartite(3, 3), 3)
    assert v.holds and v.equality

    v = conjecture_verdict(complete(4), 3)
    assert v.holds and not v.equality
    assert v.comparisons[0].lhs_base == 0

    v = conjecture_verdict(petersen(), 3)
    assert v.holds and not v.equality
    assert (v.comparisons[0].lhs_base, v.comparisons[0].lhs_exp) == (120, 6)
    assert (v.comparisons[0].rhs_base, v.comparisons[0].rhs_exp) == (42, 10)
    assert 120**6 <= 42**10


def test_conjecture_verdict_rejects_irregular():
    with pytest.raises(InvalidParameterError):
        conjecture_verdict(k4_minus_edge(), 3)


def test_conjecture_sweep_full_corpus():
    # no counterexample anywhere; bipartite members in particular must hold
    for g, d in regular_corpus():
        if d < 2:
            continue
        for q in (3, 4):
            v = conjecture_verdict(g, q)
            assert v.holds, (write_graph6(g), q)


def test_equality_at_disjoint_kdd_unions():
    for d, t in [(2, 2), (2, 3), (3, 2)]:
        g = disjoint_copies(complete_bipartite(d, d), t)
        for q in (2, 3, 4):
            v = conjecture_verdict(g, q)
            assert v.holds and v.equality


def test_hom_conjecture_examples():
    # d >= q makes the clique side vanish and the check reduces to colorings
    assert count_homomorphisms(complete(4), complete_target(3)) == 0
    for g in regular_family(6, 3):
        v = hom_conjecture_verdict(g, complete_target(3))
        w = conjecture_verdict(g, 3)
        assert v.holds == w.holds
        assert v.comparisons[0].holds == w.comparisons[0].holds
        assert v.comparisons[1].rhs_base == 0

    # single looped vertex: both sides 1
    v = hom_conjecture_verdict(cycle(4), looped_vertex())
    assert v.holds and v.equality

    # independent-set target on bipartite members agrees with i(G)
    for g in [complete_bipartite(2, 2), complete_bipartite(3, 3), cycle(6)]:
        v = hom_conjecture_verdict(g, h_ind())
        assert v.holds
        assert v.comparisons[0].lhs_base == count_independent_sets(g)


def test_hom_references_match_backtracking():
    from chromacount.verdicts import _hom_references

    for h in target_classes(4):
        for d in range(1, 6):
            want = count_homomorphisms(complete_bipartite(d, d), h), count_homomorphisms(complete(d + 1), h)
            assert _hom_references.__wrapped__(d, h) == want, (h, d)


def test_hom_references_meet_the_kdd_closed_forms():
    from chromacount.verdicts import _hom_references

    for d in range(1, 13):
        for q in range(1, 8):
            assert _hom_references.__wrapped__(d, complete_target(q))[0] == count_colorings_kdd(d, q), (d, q)
        assert _hom_references.__wrapped__(d, h_ind())[0] == 2 ** (d + 1) - 1, d


def test_galvin_tetali_on_bipartite_regular_graphs():
    # Galvin-Tetali (DIMACS Series 63, 2004): hom(G, H) <= hom(K_{d,d}, H)^(n/2d)
    # for every bipartite d-regular G and every H, so a failure is a bug
    graphs = [g for d in range(2, 6) for n in range(2 * d, 11, 2) for g in regular_family(n, d) if classify(g).bipartite]
    assert len(graphs) == 11
    for g in graphs:
        for h in target_classes(3):
            assert hom_conjecture_verdict(g, h).comparisons[0].holds, (write_graph6(g), h)


def test_alon_kahn_examples():
    v = alon_kahn_verdict(complete_bipartite(3, 3))
    assert v.holds and v.equality

    v = alon_kahn_verdict(complete(4))
    assert v.holds
    assert (v.comparisons[0].lhs_base, v.comparisons[0].rhs_base) == (5, 15)
    assert 5**6 == 15625 and 15**4 == 50625

    assert alon_kahn_verdict(petersen()).holds


def test_alon_kahn_on_regular_corpus():
    for g, d in regular_corpus():
        v = alon_kahn_verdict(g)
        assert v.holds
        expected_equality = count_independent_sets(g) ** (2 * d) == (2 ** (d + 1) - 1) ** g.n
        assert v.equality == expected_equality


def _double_cover(g):
    # G x K_2: vertex v + n mirrors v, as in classify
    return Graph(2 * g.n, tuple([r << g.n for r in g.rows] + list(g.rows)))


def test_zhao_double_cover_inequality():
    # Zhao (Combin. Probab. Comput. 2010): i(G)^2 <= i(G x K_2), with
    # equality on bipartite G, whose cover is two copies of G
    rng = random.Random(6)
    sample = [random_regular(n, d, rng) for d in range(3, 7) for n in range(d + 1, 25) if n * d % 2 == 0]
    bipartite = [_double_cover(g) for g in sample if g.n <= 12]
    bipartite += [disjoint_copies(complete_bipartite(d, d), t) for d in range(3, 7) for t in (1, 2, 3)]
    for g in sample + bipartite:
        square, cover = count_independent_sets(g) ** 2, count_independent_sets(_double_cover(g))
        assert square <= cover, g
        # the converse, strictness off bipartite G, was observed on this
        # sample and is not taken from a paper
        assert (square == cover) == classify(g).bipartite, g


def test_constrained_scan_cubic6():
    result = constrained_scan(regular_family(6, 3), 3, 0)
    assert result.max_count == 42
    assert result.argmax == write_graph6(complete_bipartite(3, 3))
    assert len(result.rows) == 2
    assert {r.count for r in result.rows} == {42, count_colorings(prism(), 3)}


def test_constrained_scan_boundary_eps():
    # eps > 1 - 2/q forces alpha < n/q on the filtered family, so c_q = 0
    for n in (4, 6, 8):
        result = constrained_scan(regular_family(n, 3), 3, 0.4)
        assert result.max_count == 0
        assert all(r.count == 0 for r in result.rows)


def test_constrained_scan_monotone_in_eps():
    fam = regular_family(8, 3)
    values = [constrained_scan(fam, 3, eps).max_count for eps in (0, 0.1, 0.25, 0.4, 1)]
    assert values == sorted(values, reverse=True)


def test_constrained_scan_empty_and_mixed():
    result = constrained_scan([], 3, 0)
    assert result.max_count == 0 and result.argmax is None and result.rows == ()
    with pytest.raises(InvalidParameterError):
        constrained_scan([complete(4), complete_bipartite(3, 3)], 3, 0)
