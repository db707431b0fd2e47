import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from chromacount import (
    Certificate,
    InvalidParameterError,
    build_certificate,
    complete,
    complete_bipartite,
    container_size_cap,
    count_colorings,
    count_colorings_kdd,
    cycle,
    d_profile,
    explicit_weak_bound,
    independence_number,
    lemma_opt_bound,
    mask_of,
    phi,
    refined_bound,
    threshold,
    verify_certificate,
    vertices_of,
)
from chromacount.certificates import CheckResult, DProfile, _padded, _product_cap, _profile_from_sets, _sum_cap

from helpers import brute_compatible_partitions, brute_compatible_proper, random_maximal_independent_set, random_regular


def all_independent_sets(g):
    """All nonempty independent vertex masks."""
    out = []
    for r in range(1, g.n + 1):
        for subset in combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                out.append(mask_of(subset))
    return out


def test_phi_values():
    assert math.isclose(phi(4, 3), 2 * math.sqrt(2) / 3)
    assert math.isclose(phi(2, 3), math.sqrt(2) / 3)
    with pytest.raises(InvalidParameterError):
        phi(1, 3)
    with pytest.raises(InvalidParameterError):
        phi(4, 1)


def test_phi_below_d():
    ds = list(range(2, 1001)) + [2**k for k in range(10, 21)] + [10**6, 10**6 - 1]
    for d in ds:
        for q in range(2, 11):
            assert phi(d, q) < d


def test_threshold_is_least_integer_at_or_above_phi():
    # in exact ints: x >= phi(d, q) exactly when 2^((q*x)^2) >= d^d
    for d in range(2, 301):
        dd = d**d
        for q in range(2, 13):
            t = threshold(d, q)
            assert 1 <= t <= d
            assert 2 ** ((q * t) ** 2) >= dd, (d, q)
            assert t == 1 or 2 ** ((q * (t - 1)) ** 2) < dd, (d, q)
            assert t - 1 < phi(d, q) <= t
    with pytest.raises(InvalidParameterError):
        threshold(1, 3)
    with pytest.raises(InvalidParameterError):
        threshold(4, 1)


def test_threshold_rejects_non_integers():
    # a stale caller that still passes the float phi must fail loudly
    g = cycle(6)
    for bad in (phi(2, 3), 1.0, 0, -2, Fraction(1), "1", None):
        with pytest.raises(InvalidParameterError, match="threshold must be an int >= 1"):
            build_certificate(g, mask_of([0, 3]), bad)
        with pytest.raises(InvalidParameterError, match="threshold must be an int >= 1"):
            d_profile(g, [1, 2, 1, 2, 1, 2], 3, bad)
        with pytest.raises(InvalidParameterError, match="threshold must be an int >= 1"):
            container_size_cap(6, 2, bad)


def test_certificate_on_kdd_side():
    for d in (2, 3, 4):
        g = complete_bipartite(d, d)
        side = (1 << d) - 1
        cert = build_certificate(g, side, threshold(d, 3))
        assert cert.t_mask == 1  # first vertex of the side
        assert cert.d_mask == side
        assert verify_certificate(g, cert).passed


def test_certificate_invariants_exhaustive_c6():
    g = cycle(6)
    t = threshold(2, 3)
    for indset in all_independent_sets(g):
        cert = build_certificate(g, indset, t)
        report = verify_certificate(g, cert)
        assert report.passed
        assert cert.t_mask.bit_count() * t <= g.n


def test_certificate_determinism():
    g = cycle(6)
    a = build_certificate(g, mask_of([0, 2]), threshold(2, 3))
    b = build_certificate(g, mask_of([0, 2]), threshold(2, 3))
    assert a == b and a.trace == b.trace


def test_certificate_integral_phi_tie_semantics():
    # a gain exactly equal to t counts as >= t during growth, and an outside
    # count exactly equal to t is excluded from the container's "below t" test
    g = cycle(6)
    cert = build_certificate(g, mask_of([0]), 1)
    assert cert.t_mask == mask_of([0])
    assert cert.d_mask == mask_of([0])  # vertices 2,3,4 keep >= 1 outside neighbor

    g = cycle(8)
    cert = build_certificate(g, mask_of([0]), 2)
    assert cert.trace == ((0, 2),)  # new == t: vertex 0 joins T
    assert cert.d_mask == mask_of([0, 2, 6])  # outside == t: 3, 4 and 5 stay out of D
    assert verify_certificate(g, cert).check("d_members_small_outside").slack == 0

    # at d = 16, phi = 8/q is exact: 4, 2 and 1 at q = 2, 4 and 8, and t = phi
    g = complete_bipartite(16, 16)
    side = (1 << 16) - 1
    for q in (2, 4, 8):
        assert phi(16, q) == 8 // q == threshold(16, q)
        cert = build_certificate(g, side, threshold(16, q))
        assert cert.t_mask == 1 and cert.d_mask == side
        assert verify_certificate(g, cert).passed
    # a vertex of the other side has 16 outside neighbors at T = {}: at
    # t = 16 it is left out of D, at t = 17 it joins
    assert build_certificate(g, side, 16).d_mask == side
    assert build_certificate(g, mask_of([0]), 17).d_mask == (1 << 32) - 1


def test_profile_soundness_exhaustive_small():
    # every proper 3-coloring of every regular corpus graph with n <= 6:
    # each color class sits inside its container and the total respects the
    # per-class size cap
    from helpers import regular_corpus
    from itertools import product as iproduct

    for g, d in regular_corpus():
        if g.n > 6 or d < 2:
            continue
        t = threshold(d, 3)
        cap = 3 * container_size_cap(g.n, d, t)
        edges = g.edges()
        for assignment in iproduct((1, 2, 3), repeat=g.n):
            if any(assignment[u] == assignment[v] for u, v in edges):
                continue
            prof = d_profile(g, list(assignment), 3, t)
            for k in (1, 2, 3):
                class_mask = mask_of([v for v in range(g.n) if assignment[v] == k])
                assert class_mask & ~prof.d_sets[k - 1] == 0
            assert prof.total <= cap
            assert prof.product >= 1


def test_certificate_input_validation():
    g = complete_bipartite(2, 2)
    with pytest.raises(InvalidParameterError):
        build_certificate(g, 0, threshold(2, 3))
    with pytest.raises(InvalidParameterError):
        build_certificate(g, mask_of([0, 2]), threshold(2, 3))  # 0-2 adjacent
    with pytest.raises(InvalidParameterError):
        build_certificate(cycle(3), 1 << 5, threshold(2, 3))


def test_verify_reports_tampering():
    g = complete_bipartite(3, 3)
    cert = build_certificate(g, 0b000111, threshold(3, 3))
    nt = 0b111000
    tampered = Certificate(cert.t_mask, cert.d_mask | nt, cert.source_mask, cert.threshold, cert.trace)
    report = verify_certificate(g, tampered)
    assert not report.passed
    assert report.check("d_avoids_nt") == CheckResult("d_avoids_nt", False, -3)  # 3, 4 and 5 lie in N(T)

    # T := I breaks the T-size bound exactly when |I| > n/t
    g2 = complete_bipartite(4, 4)
    for t, slack in ((threshold(4, 8), 8 - 4 * 1), (2, 0), (3, 8 - 4 * 3)):
        cert2 = build_certificate(g2, 0b1111, t)
        tampered2 = Certificate(cert2.source_mask, cert2.d_mask, cert2.source_mask, cert2.threshold, cert2.trace)
        report2 = verify_certificate(g2, tampered2)
        assert report2.check("t_size") == CheckResult("t_size", slack >= 0, slack)


def test_certificate_random_instances():
    rng = random.Random(20240809)
    for trial in range(120):
        d = rng.choice([3, 4, 5, 6, 7, 8])
        n = rng.choice([i for i in range(max(12, d + 1), 61) if i * d % 2 == 0])
        g = random_regular(n, d, rng)
        q = rng.choice([3, 4, 5])
        t = threshold(d, q)
        indset = random_maximal_independent_set(g, rng)
        cert = build_certificate(g, indset, t)
        assert verify_certificate(g, cert).passed
        assert cert.t_mask.bit_count() * t <= n


def test_d_profile_k22_example():
    g = complete_bipartite(2, 2)
    t = threshold(2, 3)
    prof = d_profile(g, [1, 1, 2, 2], 3, t)
    assert vertices_of(prof.d_sets[0]) == [0, 1]
    assert vertices_of(prof.d_sets[1]) == [2, 3]
    # empty third class: deterministic completion, capped by the size bound
    assert container_size_cap(4, 2, t) == 2
    assert prof.d_sets[2] == 0b0011
    assert prof.total <= 3 * container_size_cap(4, 2, t)
    assert prof.product >= 1


def test_d_profile_compatibility_and_size_bound():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.choice([3, 4])
        n = rng.choice([8, 10, 12])
        g = random_regular(n, d, rng)
        q = rng.choice([4, 5])
        coloring = _some_proper_coloring(g, q)
        if coloring is None:
            continue
        t = threshold(d, q)
        prof = d_profile(g, coloring, q, t)
        for k in range(1, q + 1):
            class_mask = mask_of([v for v in range(n) if coloring[v] == k])
            assert class_mask & ~prof.d_sets[k - 1] == 0  # I_k subset of D_k
        assert prof.total <= q * container_size_cap(n, d, t)
        assert prof.product >= 1


def test_d_profile_rejects_improper():
    g = cycle(4)
    with pytest.raises(InvalidParameterError):
        d_profile(g, [1, 1, 2, 2], 3, threshold(2, 3))
    with pytest.raises(InvalidParameterError):
        d_profile(g, [1, 2, 1, 5], 3, threshold(2, 3))


def _some_proper_coloring(g, q):
    n = g.n
    colors = [0] * n

    def rec(v):
        if v == n:
            return True
        used = {colors[u] for u in g.neighbors(v) if u < v}
        for c in range(1, q + 1):
            if c not in used:
                colors[v] = c
                if rec(v + 1):
                    return True
        colors[v] = 0
        return False

    return colors if rec(0) else None


def test_compatible_count_equals_brute_force():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(2, 6)
        q = rng.randint(1, 3)
        d_sets = [rng.randrange(1 << n) for _ in range(q)]
        prof = _profile_from_sets(n, d_sets)
        assert prof.product == brute_compatible_partitions(n, q, d_sets)
    # any vertex left out of every container kills the count
    prof = _profile_from_sets(3, [0b011, 0b001])
    assert prof.product == 0
    # every vertex in both containers: free choice, 2^n
    prof = _profile_from_sets(4, [0b1111, 0b1111])
    assert prof.product == 16


def test_refined_bound_reduces_to_product_without_edges():
    g = complete_bipartite(2, 2)
    prof = _profile_from_sets(4, [0b0011, 0b0100, 0b1000])  # D1 = one side, independent
    assert refined_bound(g, prof, 3) == prof.product


def test_refined_bound_dominates_brute_force():
    rng = random.Random(123)
    checked = 0
    while checked < 60:
        n = rng.randint(4, 6)
        d = rng.choice([2, 3])
        if n * d % 2 or d >= n:
            continue
        g = random_regular(n, d, rng)
        q = 3
        coloring = _some_proper_coloring(g, q)
        if coloring is None:
            continue
        prof = d_profile(g, coloring, q, threshold(d, q))
        bound = refined_bound(g, prof, q)
        exact = brute_compatible_proper(g, q, list(prof.d_sets))
        assert Fraction(exact) <= bound
        checked += 1


def test_refined_bound_matching_size():
    # with alpha(G) <= (n/2)(1-eps) and |D1| >= n/2 the greedy matching of
    # the induced subgraph has at least n*eps/4 edges
    from chromacount import greedy_maximal_matching, induced_subgraph

    rng = random.Random(77)
    for _ in range(40):
        d = rng.choice([3, 4, 5])
        n = rng.choice([12, 16, 20])
        g = random_regular(n, d, rng)
        eps = 1 - Fraction(2 * independence_number(g), n)
        if eps <= 0:
            continue
        half = (n + 1) // 2
        for subset_seed in range(3):
            srng = random.Random(subset_seed)
            verts = srng.sample(range(n), half)
            matching = greedy_maximal_matching(induced_subgraph(g, mask_of(verts)))
            assert len(matching) >= n * eps / 4


def test_lemma_opt_bound_examples():
    out = lemma_opt_bound([1, 3], 2, 1)
    assert out.holds and out.equality and out.bound == pytest.approx(3.0)
    out = lemma_opt_bound([1, 1, 3, 3], 2, 1)
    assert out.holds and out.equality and out.bound == pytest.approx(9.0)
    out = lemma_opt_bound([1, 3, 3, 3], Fraction(5, 2), Fraction(1, 2))
    assert out.holds and not out.equality and out.bound == pytest.approx(36.0)
    # a bound past the float range is displayed as inf; the verdict is exact
    out = lemma_opt_bound([1, 3] * 600, 2, 1)
    assert out.holds and out.equality and out.bound == math.inf


def test_lemma_opt_bound_validation():
    with pytest.raises(InvalidParameterError):
        lemma_opt_bound([1, 2, 3], 2, 1)  # 2 inside (1, 3)
    with pytest.raises(InvalidParameterError):
        lemma_opt_bound([1, 3], 3, 1)  # wrong mean
    with pytest.raises(InvalidParameterError):
        lemma_opt_bound([-1, 5], 2, 1)
    out = lemma_opt_bound([Fraction(1, 2), Fraction(3, 2)], 1, 1)  # a == delta
    assert out.degenerate and not out.holds


def test_explicit_weak_bound_domain():
    with pytest.raises(InvalidParameterError):
        explicit_weak_bound(10, 1, 3)
    with pytest.raises(InvalidParameterError):
        explicit_weak_bound(3, 3, 3)
    with pytest.raises(InvalidParameterError):
        explicit_weak_bound(10, 3, 2)
    with pytest.raises(InvalidParameterError):
        explicit_weak_bound(10, 3, 3, 1.5)


def test_explicit_weak_bound_dominates_dominant_term():
    from chromacount import eta

    for q in (3, 4, 5):
        for d in (2, 3, 4, 6, 8):
            for n in (d + 1, 2 * d, 3 * d + 1, 40):
                if n < d + 1:
                    continue
                bound = explicit_weak_bound(n, d, q)
                assert bound * bound >= Fraction(eta(q)) ** n


def test_explicit_weak_bound_eps_strictly_decreases():
    base = explicit_weak_bound(12, 3, 3)
    for eps in (0.1, 0.25, "1/2", 1):
        assert explicit_weak_bound(12, 3, 3, eps) < base
    assert explicit_weak_bound(12, 3, 3, 0) == base


def test_explicit_weak_bound_binomial_sum(monkeypatch):
    from chromacount import certificates

    for n in range(41):
        for k in range(n + 1):
            assert certificates._binomial_sum(n, k) == sum(math.comb(n, i) for i in range(k + 1))
    cases = [(n, d, q) for n in (5, 12, 25, 40) for d in (2, 3, 4) for q in (3, 4, 5) if n >= d + 1]
    fast = [explicit_weak_bound(*c) for c in cases]
    monkeypatch.setattr(certificates, "_binomial_sum", lambda n, k: sum(math.comb(n, i) for i in range(k + 1)))
    assert [explicit_weak_bound(*c) for c in cases] == fast


def test_explicit_weak_bound_covers_exact_counts():
    for d, n in [(3, 6), (3, 8), (2, 5), (4, 8)]:
        from helpers import regular_family

        fams = regular_family(n, d) if d >= 3 else (cycle(n),)
        for g in fams:
            for q in (3, 4):
                assert Fraction(count_colorings(g, q)) <= explicit_weak_bound(n, d, q)


def test_explicit_weak_bound_covers_disjoint_kdd():
    # m disjoint copies of K_{d,d}, the conjectured extremal graphs
    for d in range(2, 41):
        for q in range(3, 11):
            c = count_colorings_kdd(d, q)
            for m in (1, 2, 3, 5):
                assert explicit_weak_bound(2 * d * m, d, q) >= c**m, (d, q, m)


def _largest_products(n, top):
    """Brute force: the largest product of n positive integers with sum s,
    for every s <= top, over the non-decreasing vectors."""
    best = {}

    def rec(k, low, s, prod):
        if k == n:
            best[s] = max(best.get(s, 0), prod)
            return
        for v in range(low, (top - s) // (n - k) + 1):
            rec(k + 1, v, s + v, prod * v)

    rec(0, 1, 0, 1)
    return best


def test_product_cap_brute_force():
    # the balanced vector's product is the largest, at odd n too
    for n in range(1, 8):
        best = _largest_products(n, 4 * n)
        for s in range(n, 4 * n + 1):
            top = max(p for total, p in best.items() if total <= s)
            assert _product_cap(s, n) == top, (n, s)


def test_product_cap_never_above_the_lemma_form():
    # the lemma's (a^2 - rho^2)^(n/2) at a = s/n, rho the distance from a to
    # the nearest integer, compared squared; the two agree exactly when a is
    # an integer or a half-integer
    equal = lower = 0
    for n in range(1, 41):
        for s in range(n, 8 * n + 1):
            a = Fraction(s, n)
            rho = min(a - math.floor(a), math.ceil(a) - a)
            lemma_sq = (a * a - rho * rho) ** n
            cap_sq = _product_cap(s, n) ** 2
            assert cap_sq <= lemma_sq, (n, s)
            assert (cap_sq == lemma_sq) == (2 * s % n == 0), (n, s)
            equal += cap_sq == lemma_sq
            lower += cap_sq < lemma_sq
    assert (equal, lower) == (460, 5320)


def test_explicit_weak_bound_is_an_int():
    for eps in (None, 0, "1/3", 0.4, 1):
        for n, d, q in ((10, 3, 3), (11, 4, 5), (31, 8, 4)):
            assert type(explicit_weak_bound(n, d, q, eps)) is int, (n, d, q, eps)


def test_explicit_weak_bound_eps_factor_is_floored_once():
    # the bound without eps times (1 - 1/q^2)^ceil(n*eps/4), in Fractions
    for n, d, q in ((10, 3, 3), (11, 4, 5), (31, 8, 4), (101, 16, 7)):
        base = explicit_weak_bound(n, d, q)
        for eps in (0, "1/3", "0.4", "1/7", 1):
            e = math.ceil(n * Fraction(eps) / 4)
            assert explicit_weak_bound(n, d, q, eps) == math.floor(base * Fraction(q * q - 1, q * q) ** e), (n, d, q, eps)


def test_padded_profile_total_within_sum_cap():
    # the multiplicity sum that explicit_weak_bound assumes, on every proper
    # 3- and 4-coloring of the small corpus graphs; on some odd-n graphs the
    # padding to ceil(n/2) exceeds q * container_size_cap
    from itertools import product as iproduct

    from helpers import regular_corpus

    colorings = over_cap = 0
    for g, d in regular_corpus():
        n = g.n
        if n > 7:
            continue
        edges = g.edges()
        for q in (3, 4):
            t = threshold(d, q)
            for coloring in iproduct(range(1, q + 1), repeat=n):
                if any(coloring[u] == coloring[v] for u, v in edges):
                    continue
                padded, _ = _padded(n, d_profile(g, list(coloring), q, t))
                assert padded.total <= _sum_cap(n, d, q, t), (g, coloring)
                over_cap += padded.total > q * container_size_cap(n, d, t)
                colorings += 1
    assert colorings > 0 and over_cap > 0
