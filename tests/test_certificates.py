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
    compatible_count,
    container_size_cap,
    count_colorings,
    cycle,
    d_profile,
    explicit_weak_bound,
    independence_number,
    lemma_opt_bound,
    mask_of,
    phi,
    refined_bound,
    verify_certificate,
    vertices_of,
)
from chromacount.certificates import DProfile, _profile_from_sets

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


def test_certificate_on_kdd_side():
    for d in (2, 3, 4):
        g = complete_bipartite(d, d)
        side = (1 << d) - 1
        cert = build_certificate(g, side, phi(d, 3))
        assert cert.t_mask == 1  # first vertex of the side
        assert cert.d_mask == side
        assert verify_certificate(g, cert).passed


def test_certificate_invariants_exhaustive_c6():
    g = cycle(6)
    p = phi(2, 3)
    for indset in all_independent_sets(g):
        cert = build_certificate(g, indset, p)
        report = verify_certificate(g, cert)
        assert report.passed
        assert cert.t_mask.bit_count() * p <= g.n + 1e-9


def test_certificate_determinism():
    g = cycle(6)
    a = build_certificate(g, mask_of([0, 2]), phi(2, 3))
    b = build_certificate(g, mask_of([0, 2]), phi(2, 3))
    assert a == b and a.trace == b.trace


def test_certificate_integral_phi_tie_semantics():
    # a gain exactly equal to phi counts as >= phi during growth and is
    # therefore excluded from the container's "below phi" test
    g = cycle(6)
    cert = build_certificate(g, mask_of([0]), 1.0)
    assert cert.t_mask == mask_of([0])
    assert cert.d_mask == mask_of([0])  # vertices 2,3,4 keep >= 1 outside neighbor

    # phi(16, 8) is exactly 1.0; the one-side pattern still holds on K_{16,16}
    assert phi(16, 8) == 1.0
    g = complete_bipartite(16, 16)
    side = (1 << 16) - 1
    cert = build_certificate(g, side, phi(16, 8))
    assert cert.t_mask == 1 and cert.d_mask == side
    assert verify_certificate(g, cert).passed


def test_profile_soundness_exhaustive_small():
    # every proper 3-coloring of every regular corpus graph with n <= 6:
    # each color class sits inside its container and the total respects the
    # per-class size cap
    from helpers import regular_corpus
    from itertools import product as iproduct

    for g, d in regular_corpus():
        if g.n > 6 or d < 2:
            continue
        p = phi(d, 3)
        cap = 3 * g.n * d / (2 * d - p)
        edges = g.edges()
        for assignment in iproduct((1, 2, 3), repeat=g.n):
            if any(assignment[u] == assignment[v] for u, v in edges):
                continue
            prof = d_profile(g, list(assignment), 3, p)
            for k in (1, 2, 3):
                class_mask = mask_of([v for v in range(g.n) if assignment[v] == k])
                assert class_mask & ~prof.d_sets[k - 1] == 0
            assert prof.total <= cap + 1e-9
            assert prof.product >= 1


def test_certificate_input_validation():
    g = complete_bipartite(2, 2)
    with pytest.raises(InvalidParameterError):
        build_certificate(g, 0, phi(2, 3))
    with pytest.raises(InvalidParameterError):
        build_certificate(g, mask_of([0, 2]), phi(2, 3))  # 0-2 adjacent
    with pytest.raises(InvalidParameterError):
        build_certificate(cycle(3), 1 << 5, phi(2, 3))


def test_verify_reports_tampering():
    g = complete_bipartite(3, 3)
    cert = build_certificate(g, 0b000111, phi(3, 3))
    nt = 0b111000
    tampered = Certificate(cert.t_mask, cert.d_mask | nt, cert.source_mask, cert.phi, cert.trace)
    report = verify_certificate(g, tampered)
    assert not report.passed
    assert not report.check("d_avoids_nt").passed

    # T := I can break the T-size bound when |I| > n/phi
    g2 = complete_bipartite(4, 4)
    p2 = phi(4, 8)  # phi = sqrt(8)/8 ~ 0.35, n/phi ~ 22 > 4: report slack either way
    cert2 = build_certificate(g2, 0b1111, p2)
    tampered2 = Certificate(cert2.source_mask, cert2.d_mask, cert2.source_mask, cert2.phi, cert2.trace)
    report2 = verify_certificate(g2, tampered2)
    assert report2.check("t_size").slack == pytest.approx(8 / p2 - 4)


def test_certificate_random_instances():
    rng = random.Random(20240809)
    for trial in range(120):
        d = rng.choice([3, 4, 5, 6, 7, 8])
        n = rng.choice([i for i in range(max(12, d + 1), 61) if i * d % 2 == 0])
        g = random_regular(n, d, rng)
        q = rng.choice([3, 4, 5])
        p = phi(d, q)
        indset = random_maximal_independent_set(g, rng)
        cert = build_certificate(g, indset, p)
        assert verify_certificate(g, cert).passed
        assert cert.t_mask.bit_count() * p <= n + 1e-9


def test_d_profile_k22_example():
    g = complete_bipartite(2, 2)
    p = phi(2, 3)
    prof = d_profile(g, [1, 1, 2, 2], 3, p)
    assert vertices_of(prof.d_sets[0]) == [0, 1]
    assert vertices_of(prof.d_sets[1]) == [2, 3]
    # empty third class: deterministic completion, capped by the size bound
    assert prof.d_sets[2] == (1 << container_size_cap(4, 2, p)) - 1
    assert prof.total <= 3 * (4 * 2) / (2 * 2 - p)
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
        p = phi(d, q)
        prof = d_profile(g, coloring, q, p)
        for k in range(1, q + 1):
            class_mask = mask_of([v for v in range(n) if coloring[v] == k])
            assert class_mask & ~prof.d_sets[k - 1] == 0  # I_k subset of D_k
        assert prof.total <= q * n * d / (2 * d - p) + 1e-9
        assert prof.product >= 1


def test_d_profile_rejects_improper():
    g = cycle(4)
    with pytest.raises(InvalidParameterError):
        d_profile(g, [1, 1, 2, 2], 3, phi(2, 3))
    with pytest.raises(InvalidParameterError):
        d_profile(g, [1, 2, 1, 5], 3, phi(2, 3))


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
        assert compatible_count(prof) == brute_compatible_partitions(n, q, d_sets)
    # any vertex left out of every container kills the count
    prof = _profile_from_sets(3, [0b011, 0b001])
    assert compatible_count(prof) == 0
    # every vertex in both containers: free choice, 2^n
    prof = _profile_from_sets(4, [0b1111, 0b1111])
    assert compatible_count(prof) == 16


def test_refined_bound_reduces_to_product_without_edges():
    g = complete_bipartite(2, 2)
    prof = _profile_from_sets(4, [0b0011, 0b0100, 0b1000])  # D1 = one side, independent
    assert refined_bound(g, prof, 3) == compatible_count(prof)


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
        prof = d_profile(g, coloring, q, phi(d, q))
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
