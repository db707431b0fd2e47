import hashlib
import random
from math import comb

import pytest

from chromacount import (
    InvalidParameterError,
    CapExceededError,
    chromatic_polynomial,
    complete,
    complete_bipartite,
    complete_target,
    count_colorings,
    count_colorings_kdd,
    count_homomorphisms,
    count_independent_sets,
    cycle,
    disjoint_copies,
    disjoint_union,
    evaluate_polynomial,
    from_edges,
    greedy_maximal_matching,
    h_ind,
    independence_number,
    looped_vertex,
    maximum_independent_set,
    relabel,
    write_graph6,
)
from chromacount.graphs import Graph, TargetGraph, bfs

from helpers import (
    brute_alpha,
    brute_count_colorings,
    brute_count_homomorphisms,
    brute_count_independent_sets,
    brute_maximum_independent_set,
    interpolate_int_polynomial,
    petersen,
    poly_product,
    random_regular,
    reference_bfs_order,
    regular_family,
    small_corpus,
)


def test_count_colorings_examples():
    assert count_colorings(complete(3), 3) == 6
    assert count_colorings(cycle(5), 3) == 30  # brute force over 3^5
    assert count_colorings(complete(4), 3) == 0
    assert count_colorings(disjoint_copies(complete_bipartite(2, 2), 2), 3) == 324


def test_count_colorings_edge_cases():
    assert count_colorings(complete(3), 0) == 0
    assert count_colorings(complete(1), 1) == 1
    assert count_colorings(complete(2), 1) == 0
    with pytest.raises(InvalidParameterError):
        count_colorings(complete(2), -1)
    with pytest.raises(InvalidParameterError):
        count_colorings(complete(2), 2, method="guess")


def test_methods_agree_on_small_corpus():
    cases = [(g, q) for g in small_corpus(max_n=7) for q in range(6)]
    cases += [(Graph(0, ()), 0), (Graph(0, ()), 1)]
    for g, q in cases:
        back = count_colorings(g, q, "backtrack")
        assert count_colorings(g, q) == back == count_colorings(g, q, "polynomial")


def test_default_count_matches_kdd_closed_form():
    for d in range(1, 8):
        for q in range(7):
            assert count_colorings(complete_bipartite(d, d), q) == count_colorings_kdd(d, q)


def test_default_count_matches_cycle_closed_form():
    for n in range(3, 21):
        for q in range(7):
            assert count_colorings(cycle(n), q) == (q - 1) ** n + (-1) ** n * (q - 1)


def test_default_count_multiplies_over_large_unions():
    # n >= 30, out of reach of backtracking: the factors are counted by it
    cases = [
        ([petersen()] * 3, (3, 4, 5)),
        ([complete_bipartite(3, 3)] * 5, (3, 4, 5)),
        ([petersen(), cycle(7), complete(4), complete_bipartite(4, 4), cycle(6)], (4, 5)),
    ]
    for factors, qs in cases:
        g = factors[0]
        for f in factors[1:]:
            g = disjoint_union(g, f)
        assert g.n >= 30
        for q in qs:
            expected = 1
            for f in factors:
                expected *= count_colorings(f, q, "backtrack")
            assert count_colorings(g, q) == expected


def test_state_cap(monkeypatch):
    import chromacount.counting as counting

    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 3)
    assert count_colorings(cycle(5), 3) == 30  # fits under the cap
    with pytest.raises(CapExceededError):
        count_colorings(complete_bipartite(3, 3), 4)
    with pytest.raises(CapExceededError):
        chromatic_polynomial(complete_bipartite(3, 3))
    # the oracle does not use the frontier pass
    assert count_colorings(complete_bipartite(3, 3), 4, "backtrack") == count_colorings_kdd(3, 4)


def test_default_count_relabel_invariant():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 14))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
        return from_edges(n, edges), draw(st.permutations(range(n))), draw(st.integers(0, 5))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        g, perm, q = case
        assert count_colorings(relabel(g, perm), q) == count_colorings(g, q)
        assert count_independent_sets(relabel(g, perm)) == count_independent_sets(g)

    check()


def test_chromatic_polynomial_k3():
    # q(q-1)(q-2) = -0 + 2q - 3q^2 + q^3
    assert chromatic_polynomial(complete(3)) == (0, 2, -3, 1)


def test_chromatic_polynomial_c4_against_interpolation_oracle():
    values = [brute_count_colorings(cycle(4), q) for q in range(6)]
    expected = interpolate_int_polynomial(values)
    assert chromatic_polynomial(cycle(4)) == expected
    # (q-1)^4 + (q-1) expands to q^4 - 4q^3 + 6q^2 - 3q
    assert expected == (0, -3, 6, -4, 1)


def test_chromatic_polynomial_single_vertex():
    assert chromatic_polynomial(complete(1)) == (0, 1)


def test_chromatic_polynomial_shape_invariants():
    for g in small_corpus(max_n=7):
        coeffs = chromatic_polynomial(g)
        assert len(coeffs) == g.n + 1
        assert coeffs[-1] == 1
        assert evaluate_polynomial(coeffs, 0) == 0
        # signs alternate from the leading coefficient down (zeros allowed)
        for k, c in enumerate(coeffs):
            if c:
                assert (c > 0) == ((g.n - k) % 2 == 0)


def test_chromatic_polynomial_cap(monkeypatch):
    import chromacount.counting as counting

    # no cap on n: an edgeless graph gives q^n at once
    for n in (15, 40, 62):
        assert chromatic_polynomial(Graph(n, (0,) * n)) == (0,) * n + (1,)
    # the frontier state cap alone guards the polynomial: K_{3,3} has m = 9,
    # so its q = 2**11 keeps the full cap
    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 3)
    with pytest.raises(CapExceededError, match="^frontier pass exceeds state cap 3 at vertex"):
        chromatic_polynomial(complete_bipartite(3, 3))
    # the cap shrinks by q's bit length only above 64 bits
    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 1000)
    for q, cap in ((2**64 - 1, 1000), (2**64, 984), (2**127, 500)):
        with pytest.raises(CapExceededError, match=f"^frontier pass exceeds state cap {cap} at"):
            count_colorings(complete_bipartite(8, 8), q)


def test_chromatic_polynomial_beyond_former_n_cap():
    # graphs with n > 14, which the polynomial refused before the frontier
    # pass replaced deletion-contraction; backtracking is the oracle
    graphs = [random_regular(n, 3, random.Random(seed)) for n in (20, 24) for seed in (1, 2)]
    graphs += [complete_bipartite(8, 8), disjoint_copies(petersen(), 2)]
    for g in graphs:
        coeffs = chromatic_polynomial(g)
        assert len(coeffs) == g.n + 1
        assert coeffs[-1] == 1 and coeffs[-2] == -g.edge_count()
        for k, c in enumerate(coeffs):
            if c:
                assert (c > 0) == ((g.n - k) % 2 == 0)
        assert evaluate_polynomial(coeffs, 3) == count_colorings(g, 3, "backtrack")


def test_chromatic_polynomial_state_cap_bounds_memory():
    import chromacount.counting as counting

    # m = 400 edges, so q = 2**402 has 403 bits and the pass's cap is
    # DEFAULT_STATE_CAP * 64 // 403
    with pytest.raises(CapExceededError) as exc:
        chromatic_polynomial(complete_bipartite(20, 20))
    cap = int(str(exc.value).split("state cap ")[1].split()[0])
    assert cap == counting.DEFAULT_STATE_CAP * 64 // 403 < counting.DEFAULT_STATE_CAP


def test_chromatic_polynomial_petersen_published():
    # t(t-1)(t-2)(t^7 - 12t^6 + 67t^5 - 230t^4 + 529t^3 - 814t^2 + 775t - 352)
    expected = poly_product([(0, 1), (-1, 1), (-2, 1), (-352, 775, -814, 529, -230, 67, -12, 1)])
    coeffs = chromatic_polynomial(petersen())
    assert coeffs == expected
    assert evaluate_polynomial(coeffs, 3) == 120


def test_chromatic_polynomial_complete_is_falling_factorial():
    for k in range(1, 9):
        assert chromatic_polynomial(complete(k)) == poly_product([(-j, 1) for j in range(k)])


def test_chromatic_polynomial_multiplies_over_components():
    k33 = chromatic_polynomial(complete_bipartite(3, 3))
    assert chromatic_polynomial(disjoint_copies(complete_bipartite(3, 3), 2)) == poly_product([k33, k33])


def test_chromatic_polynomial_trees_at_whitney_bound():
    # every tree on 14 vertices has q(q-1)^13, whose coefficients +-C(13, k)
    # meet the broken-circuit bound C(m, k) with m = 13
    path = from_edges(14, [(i, i + 1) for i in range(13)])
    star = from_edges(14, [(0, i) for i in range(1, 14)])
    expected = tuple([0] + [(-1) ** (13 - k) * comb(13, k) for k in range(14)])
    assert expected == poly_product([(0, 1)] + [(-1, 1)] * 13)
    assert chromatic_polynomial(path) == expected
    assert chromatic_polynomial(star) == expected


def test_chromatic_polynomial_edgeless_at_cap():
    assert chromatic_polynomial(Graph(14, (0,) * 14)) == (0,) * 14 + (1,)


def test_chromatic_polynomial_k77_matches_closed_form():
    coeffs = chromatic_polynomial(complete_bipartite(7, 7))
    for q in (2, 3, 4):
        assert evaluate_polynomial(coeffs, q) == count_colorings_kdd(7, q)


def test_chromatic_polynomial_matches_backtracking_on_cubic_families():
    assert len(regular_family(12, 3)) == 85  # OEIS A002851
    # the classes and their order, pinned by the sha256 of the graph6 lines
    lines = "\n".join(write_graph6(g) for g in regular_family(12, 3))
    assert hashlib.sha256(lines.encode()).hexdigest() == "769e761873e711e15626581e6c4f76dcecce8a08f188fcdf52acb16e69d891ab"
    for n, qs in ((10, range(6)), (12, (3, 4))):
        for g in regular_family(n, 3):
            coeffs = chromatic_polynomial(g)
            for q in qs:
                back = count_colorings(g, q, "backtrack")
                assert evaluate_polynomial(coeffs, q) == back == count_colorings(g, q)


def test_chromatic_polynomial_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs_with_perm(draw):
        n = draw(st.integers(1, 8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return from_edges(n, edges), draw(st.permutations(range(n)))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(graphs_with_perm())
    def check(case):
        g, perm = case
        coeffs = chromatic_polynomial(g)
        for q in range(6):
            assert evaluate_polynomial(coeffs, q) == count_colorings(g, q, "backtrack")
        assert chromatic_polynomial(relabel(g, perm)) == coeffs

    check()


def test_hom_generalizes_colorings_and_independent_sets():
    for g in small_corpus(max_n=6):
        for q in (2, 3, 4):
            assert count_homomorphisms(g, complete_target(q)) == count_colorings(g, q)
        assert count_homomorphisms(g, h_ind()) == count_independent_sets(g)


def test_hom_examples():
    assert count_homomorphisms(complete(2), looped_vertex()) == 1
    assert count_homomorphisms(complete(2), h_ind()) == 3
    g = cycle(5)
    assert count_homomorphisms(g, h_ind()) == brute_count_homomorphisms(g, h_ind())


def test_hom_of_the_empty_graph_and_into_the_empty_target():
    # one map from no vertices, none from at least one vertex into none
    empty = TargetGraph(0, ())
    for h in (empty, h_ind(), complete_target(3)):
        assert count_homomorphisms(Graph(0, ()), h) == 1
    for g in (complete(1), complete(2), cycle(5), petersen()):
        assert count_homomorphisms(g, empty) == 0


def test_independent_set_memo_cap(monkeypatch):
    import chromacount.counting as counting

    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 3)
    assert count_independent_sets(complete(4)) == 5  # fits under the cap
    # K_{d,d} holds 3 states at any d: the forbidden set is {}, the rest of
    # one side, or what is left of the other
    assert count_independent_sets(complete_bipartite(20, 20)) == 2**21 - 1
    with pytest.raises(CapExceededError, match="state cap 3"):
        count_independent_sets(petersen())


# the vertex named for each cap 1, 2, ...: the first step whose table holds
# more than cap states.  The independence number runs the independent-set
# pass in max-plus form, whose states are the same.
_PETERSEN_INDSET_CAP_VERTICES = [1, 2, 3, 3, 4, 4, 4, 5, 5, 5]
_RR16_INDSET_CAP_VERTICES = [1, 2, 3, 3, 4, 4, 5, 5, 5, 5, 6, 6, 6, 7, 7, 7, 7, 7, 8, 8, 8] + [9] * 6


@pytest.mark.parametrize(
    "count, expected",
    [
        (count_independent_sets, (_PETERSEN_INDSET_CAP_VERTICES, _RR16_INDSET_CAP_VERTICES)),
        (independence_number, (_PETERSEN_INDSET_CAP_VERTICES, _RR16_INDSET_CAP_VERTICES)),
        (
            lambda g: count_colorings(g, 3),
            ([3, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 8], [3, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7] + [9] * 8),
        ),
    ],
    ids=["count_independent_sets", "independence_number", "count_colorings_q3"],
)
def test_independent_set_cap_raises_at_same_vertex(monkeypatch, count, expected):
    import chromacount.counting as counting

    # every pass raises with one message, naming the same vertex as before;
    # caps 1-39 are checked, and past the listed ones the graph fits
    graphs = (petersen(), random_regular(16, 4, random.Random(5)))
    for g, vertices in zip(graphs, expected):
        for cap, vertex in enumerate(vertices + [None] * (39 - len(vertices)), 1):
            monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", cap)
            if vertex is None:
                count(g)
                continue
            with pytest.raises(CapExceededError) as exc:
                count(g)
            assert str(exc.value) == f"frontier pass exceeds state cap {cap} at vertex {vertex} of {g.n}"


def test_bfs_order_matches_list_queue_reference():
    rng = random.Random(12)
    graphs = [complete(1), complete(5), cycle(7), petersen(), disjoint_copies(complete_bipartite(2, 3), 3)]
    graphs += [from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
               for n in range(1, 40) for p in (0.05, 0.2, 0.5)]
    graphs += [random_regular(n, d, rng) for n, d in ((20, 3), (30, 4), (62, 5))]
    for g in graphs:
        assert bfs(g.rows, (1 << g.n) - 1)[0] == reference_bfs_order(g)


def test_count_independent_sets_examples():
    # i(K_{d,d}) = 2^(d+1) - 1: any subset of one side, the empty set once
    for d in list(range(1, 10)) + [20]:
        assert count_independent_sets(complete_bipartite(d, d)) == 2 ** (d + 1) - 1
    # five disjoint Petersen graphs (n = 50) overflowed the former mask memo
    assert count_independent_sets(petersen()) == 76
    assert count_independent_sets(disjoint_copies(petersen(), 5)) == 76**5
    edgeless = Graph(6, (0,) * 6)
    assert count_independent_sets(edgeless) == 64
    assert count_independent_sets(complete(3)) == 4  # enumerate all 8 subsets


def test_counts_match_brute_force():
    for g in small_corpus(max_n=6):
        assert count_independent_sets(g) == brute_count_independent_sets(g)
        assert independence_number(g) == brute_alpha(g)


def test_independence_number_examples():
    for d in range(1, 7):
        assert independence_number(complete_bipartite(d, d)) == d
    assert independence_number(cycle(5)) == 2  # enumerate all 32 subsets
    for n in (2, 4, 6):
        assert independence_number(complete(n)) == 1


def test_maximum_independent_set_lex_first():
    assert maximum_independent_set(complete_bipartite(3, 3)) == (0, 1, 2)
    assert maximum_independent_set(cycle(5)) == (0, 2)
    assert maximum_independent_set(complete(4)) == (0,)


def test_independence_number_matches_networkx_clique_of_complement():
    nx = pytest.importorskip("networkx")
    rng = random.Random(16)
    for d in (3, 4, 5):
        for n in (20, 26, 32, 40):
            g = random_regular(n, d, rng)
            complement = nx.complement(nx.Graph(g.edges()))
            complement.add_nodes_from(range(n))
            _, alpha = nx.max_weight_clique(complement, weight=None)
            assert independence_number(g) == alpha, (d, n)
            mis = maximum_independent_set(g)
            assert len(mis) == alpha and all(not g.has_edge(u, v) for u in mis for v in mis)


def test_independence_number_closed_forms_up_to_n62():
    for d in range(1, 8):
        for t in range(1, 62 // (2 * d) + 1):
            assert independence_number(disjoint_copies(complete_bipartite(d, d), t)) == t * d, (d, t)
    for n in range(3, 63):
        assert independence_number(cycle(n)) == n // 2
        assert maximum_independent_set(cycle(n)) == tuple(range(0, n - 1, 2))
    for t in range(1, 7):
        assert independence_number(disjoint_copies(petersen(), t)) == 4 * t


def test_independence_number_matches_brute_force_on_arbitrary_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        # irregular and disconnected graphs, isolated vertices included
        n = draw(st.integers(1, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return from_edges(n, edges)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(graphs())
    def check(g):
        mis = brute_maximum_independent_set(g)
        assert independence_number(g) == brute_alpha(g) == len(mis)
        assert maximum_independent_set(g) == mis

    check()
    empty = Graph(0, ())
    assert (independence_number(empty), maximum_independent_set(empty), count_independent_sets(empty)) == (0, (), 1)


def test_multiplicativity():
    for g1 in (complete(3), cycle(4)):
        for g2 in (complete_bipartite(1, 2), cycle(5)):
            g = disjoint_union(g1, g2)
            for q in (2, 3):
                assert count_colorings(g, q) == count_colorings(g1, q) * count_colorings(g2, q)
            assert count_independent_sets(g) == count_independent_sets(g1) * count_independent_sets(g2)
            assert count_homomorphisms(g, h_ind()) == count_homomorphisms(g1, h_ind()) * count_homomorphisms(g2, h_ind())


def test_zero_colorings_when_alpha_small():
    # a proper q-coloring needs a color class of size >= n/q
    for g in small_corpus(max_n=7):
        for q in (2, 3, 4):
            if independence_number(g) * q < g.n:
                assert count_colorings(g, q) == 0


def test_greedy_matching_examples():
    assert greedy_maximal_matching(complete(4)) == [(0, 1), (2, 3)]
    assert greedy_maximal_matching(Graph(4, (0, 0, 0, 0))) == []
    assert greedy_maximal_matching(cycle(5)) == [(0, 1), (2, 3)]


def test_greedy_matching_is_maximal_and_bounds_alpha():
    for g in small_corpus(max_n=8):
        m = greedy_maximal_matching(g)
        matched = set()
        for u, v in m:
            assert u not in matched and v not in matched
            matched.update((u, v))
        for u, v in g.edges():
            assert u in matched or v in matched
        assert g.n - 2 * len(m) <= independence_number(g)


def test_backtrack_refuses_k_q_exactly_when_the_search_cannot_finish(monkeypatch):
    import chromacount.counting as counting

    # K_2 charges q + q(q - 1) = q^2 search nodes and K_1 charges q; past the
    # cap the target is never built
    built = []
    monkeypatch.setattr(counting, "BACKTRACK_NODE_CAP", 16)
    monkeypatch.setattr(counting, "complete_target", lambda q: built.append(q) or complete_target(q))
    assert count_colorings(complete(2), 4, "backtrack") == 12
    assert count_colorings(complete(1), 16, "backtrack") == 16
    assert built == [4, 16]
    for g, q in ((complete(2), 5), (complete(1), 17)):
        with pytest.raises(CapExceededError, match="search-node cap 16"):
            count_colorings(g, q, "backtrack")
    assert built == [4, 16]
