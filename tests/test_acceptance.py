"""Acceptance suite: one test per criterion, each printing a PASS line with
the numbers it actually checked.  All tolerances are pinned here."""
import math
import random
from fractions import Fraction
from itertools import combinations

from chromacount import (
    asymptotic_gap,
    alon_kahn_verdict,
    build_certificate,
    canonical_key,
    complete_bipartite,
    conjecture_verdict,
    constrained_scan,
    count_colorings,
    count_colorings_kdd,
    count_independent_sets,
    cycle,
    d_profile,
    disjoint_copies,
    explicit_weak_bound,
    greedy_maximal_matching,
    independence_number,
    induced_subgraph,
    lemma_opt_bound,
    mask_of,
    threshold,
    verify_certificate,
)
from chromacount.certificates import _profile_from_sets

from helpers import (
    brute_compatible_partitions,
    brute_count_colorings,
    random_maximal_independent_set,
    random_regular,
    regular_corpus,
    regular_family,
    small_corpus,
)


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_oracle_equivalence():
    corpus = small_corpus(max_n=8)
    checked = 0
    for g in corpus:
        for q in range(5):
            brute = brute_count_colorings(g, q)
            assert count_colorings(g, q, "backtrack") == brute
            assert count_colorings(g, q, "polynomial") == brute
            checked += 1
    report(1, f"backtrack = polynomial = brute force on {len(corpus)} graphs x q in 0..4, {checked} triples")


def test_criterion_2_closed_form_agreement():
    for d in range(1, 5):
        g = complete_bipartite(d, d)
        for q in range(6):
            assert count_colorings_kdd(d, q) == count_colorings(g, q)
    for d in range(1, 51):
        assert count_colorings_kdd(d, 3) == 6 * (2**d - 1)
    report(2, "closed form = exact counter for d<=4, q<=5; c3(K_{d,d}) = 6(2^d-1) for d<=50")


def test_criterion_3_reference_ratio_convergence():
    tol = Fraction(1, 100)
    for q in (3, 4, 5):
        assert abs(asymptotic_gap(20, q).ratio - 1) <= tol
        previous = None
        for d in range(5, 41):
            dist = abs(asymptotic_gap(d, q).ratio - 1)
            if previous is not None:
                assert dist <= previous
            previous = dist
    report(3, "|c_q(K_{d,d})/(eta^d m) - 1| <= 1e-2 at d=20 and nonincreasing on 5..40, q in {3,4,5}, exact rationals")


def _cubic_corpus():
    return [(n, g) for n in (4, 6, 8, 10) for g in regular_family(n, 3)]


def test_criterion_4_conjecture_sweep():
    corpus = _cubic_corpus()
    assert [len(regular_family(n, 3)) for n in (4, 6, 8, 10)] == [1, 2, 5, 19]
    k33_key = canonical_key(complete_bipartite(3, 3))
    failures = 0
    equalities = []
    for n, g in corpus:
        for q in (3, 4):
            v = conjecture_verdict(g, q)
            if not v.holds:
                failures += 1
            if v.equality:
                equalities.append((n, canonical_key(g), q))
    assert failures == 0
    assert all(key == k33_key for (_, key, _) in equalities)
    assert sorted(q for (_, _, q) in equalities) == [3, 4]
    report(4, f"0 failures over {len(corpus)} cubic graphs (1+2+5+19) x q in {{3,4}}; equality only at K_3,3")


def test_criterion_5_alon_kahn_sweep():
    corpus = _cubic_corpus()
    k33_key = canonical_key(complete_bipartite(3, 3))
    failures = 0
    equalities = []
    for n, g in corpus:
        v = alon_kahn_verdict(g)
        if not v.holds:
            failures += 1
        if v.equality:
            equalities.append(canonical_key(g))
    assert failures == 0
    assert equalities == [k33_key]
    report(5, f"0 failures over {len(corpus)} cubic graphs; independent-set equality only at K_3,3")


def _nonempty_independent_sets(g):
    for r in range(1, g.n + 1):
        for subset in combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                yield mask_of(subset)


def _assert_certificate(g, d, indset, t, n):
    cert = build_certificate(g, indset, t)
    rep = verify_certificate(g, cert)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert cert.t_mask.bit_count() * t <= n
    assert cert.source_mask & ~cert.d_mask == 0
    assert cert.d_mask.bit_count() * (2 * d - t + 1) <= n * d
    assert rep.check("edge_count_lower").passed and rep.check("edge_count_upper").passed


def test_criterion_6_certificate_invariants():
    exhaustive = 0
    for g, d in regular_corpus():
        if g.n > 8 or d < 2:
            continue
        for q in (3, 4, 5):
            t = threshold(d, q)
            for indset in _nonempty_independent_sets(g):
                _assert_certificate(g, d, indset, t, g.n)
                exhaustive += 1
    rng = random.Random(60)
    randomized = 0
    while randomized < 1000:
        d = rng.choice([3, 4, 5, 6, 7, 8])
        n = rng.choice([i for i in range(d + 2, 61) if i * d % 2 == 0])
        g = random_regular(n, d, rng)
        q = rng.choice([3, 4, 5])
        indset = random_maximal_independent_set(g, rng)
        _assert_certificate(g, d, indset, threshold(d, q), n)
        randomized += 1
    report(6, f"invariants + edge sandwich on {exhaustive} exhaustive small instances and {randomized} random ones (n<=60, d in 3..8)")


def test_criterion_7_lemma_grid_suite():
    a_values = [Fraction(num, den) for den in (1, 2, 3) for num in range(2 * den, 10 * den + 1)]
    delta_values = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]
    instances = 0
    equalities = 0
    for m in range(1, 11):
        counts = [
            (c1, c2, c3, c4)
            for c1 in range(m + 1)
            for c2 in range(m + 1 - c1)
            for c3 in range(m + 1 - c1 - c2)
            for c4 in (m - c1 - c2 - c3,)
            if -2 * c1 - c2 + c3 + 2 * c4 == 0
        ]
        for c1, c2, c3, c4 in counts:
            for a in a_values:
                for delta in delta_values:
                    if a <= 2 * delta:
                        continue
                    values = (
                        [a - 2 * delta] * c1 + [a - delta] * c2 + [a + delta] * c3 + [a + 2 * delta] * c4
                    )
                    out = lemma_opt_bound(values, a, delta)
                    assert out.holds
                    expected_equality = c1 == 0 and c4 == 0 and c2 == c3 and m % 2 == 0
                    assert out.equality == expected_equality
                    instances += 1
                    equalities += out.equality
    assert instances >= 10**4
    report(7, f"{instances} grid instances (m<=10), all below (a^2-d^2)^(m/2); {equalities} equalities, exactly the even half/half splits")


def test_criterion_8_weak_bound_soundness():
    checked = 0
    for g, d in regular_corpus():
        n = g.n
        alpha = independence_number(g)
        eps = Fraction(1) - Fraction(2 * alpha, n)
        for q in (3, 4):
            exact = count_colorings(g, q)
            assert Fraction(exact) <= explicit_weak_bound(n, d, q)
            assert Fraction(exact) <= explicit_weak_bound(n, d, q, eps)
            checked += 1
    report(8, f"explicit bound covers the exact count on {checked} (graph, q) pairs, with and without the alpha-derived eps")


def _proper_colorings(g, q, limit):
    n = g.n
    colors = [0] * n
    found = []

    def rec(v):
        if len(found) >= limit:
            return
        if v == n:
            found.append(list(colors))
            return
        used = {colors[u] for u in g.neighbors(v) if u < v}
        for c in range(1, q + 1):
            if c not in used:
                colors[v] = c
                rec(v + 1)
        colors[v] = 0

    rec(0)
    return found


def test_criterion_9_matching_lower_bound():
    checked = 0
    for g, d in regular_corpus():
        n = g.n
        alpha = independence_number(g)
        eps = Fraction(1) - Fraction(2 * alpha, n)  # tight: alpha = (n/2)(1-eps)
        for q in (3, 4, 5):
            for coloring in _proper_colorings(g, q, limit=3):
                prof = d_profile(g, coloring, q, threshold(d, q))
                for dk in prof.d_sets:
                    if 2 * dk.bit_count() >= n:
                        matching = greedy_maximal_matching(induced_subgraph(g, dk))
                        assert Fraction(4 * len(matching)) >= Fraction(n) * eps
                        checked += 1
    assert checked > 0
    report(9, f"greedy matching of G[S] has >= n*eps/4 edges on {checked} container subsets with |S| >= n/2")


def test_criterion_10_scan_boundary():
    eps = 0.4
    assert Fraction("0.4") > 1 - Fraction(2, 3)
    for n in (4, 6, 8, 10):
        result = constrained_scan(regular_family(n, 3), 3, eps)
        assert result.max_count == 0
    report(10, "constrained scan max is 0 at q=3, eps=0.4 (> 1 - 2/q) over the full cubic corpus n in {4,6,8,10}")


def test_criterion_11_compatible_count_equivalence():
    rng = random.Random(11)
    for trial in range(500):
        n = rng.randint(1, 6)
        q = rng.randint(1, 3)
        d_sets = [rng.randrange(1 << n) for _ in range(q)]
        prof = _profile_from_sets(n, d_sets)
        assert prof.product == brute_compatible_partitions(n, q, d_sets)
    report(11, "product of multiplicities = brute-force compatible-partition count on 500 random profiles (n<=6, q<=3)")
