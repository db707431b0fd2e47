import hashlib
import random
import time
from itertools import permutations

import pytest

from chromacount import (
    CapExceededError,
    Graph,
    Graph6ParseError,
    InvalidParameterError,
    UnsupportedSizeError,
    canonical_key,
    classify,
    complete,
    complete_bipartite,
    cycle,
    disjoint_copies,
    disjoint_union,
    enumerate_regular,
    from_edges,
    h_ind,
    induced_subgraph,
    mask_of,
    parse_graph6,
    relabel,
    write_graph6,
)
from chromacount import count_homomorphisms
from chromacount.graphs import _blocks, _is_canonical_prefix, _pack_blocks, components

from helpers import k4_minus_edge, petersen, random_regular, regular_family


def test_standard_constructors():
    k4 = complete(4)
    assert k4.n == 4 and k4.edge_count() == 6
    assert classify(k4).degree == 3

    k33 = complete_bipartite(3, 3)
    assert k33.n == 6 and k33.edge_count() == 9
    assert classify(k33).bipartite

    two_k22 = disjoint_copies(complete_bipartite(2, 2), 2)
    assert two_k22.n == 8 and two_k22.edge_count() == 8
    assert classify(two_k22).degree == 2
    assert classify(two_k22).components == 2


def test_constructor_domain_errors():
    with pytest.raises(InvalidParameterError):
        complete(0)
    with pytest.raises(InvalidParameterError):
        complete_bipartite(0, 3)
    with pytest.raises(InvalidParameterError):
        cycle(2)
    with pytest.raises(InvalidParameterError):
        disjoint_copies(complete(3), 0)


def test_graph_invariants_enforced():
    with pytest.raises(InvalidParameterError):
        Graph(2, (0b10, 0b00))  # not symmetric
    with pytest.raises(InvalidParameterError):
        Graph(2, (0b01, 0b10))  # loop at 0
    with pytest.raises(InvalidParameterError):
        Graph(1, (0b10,))  # bit out of range


def test_classify():
    assert classify(complete_bipartite(3, 3)) == classify(complete_bipartite(3, 3))
    c = classify(complete_bipartite(3, 3))
    assert (c.n, c.degree, c.bipartite, c.components) == (6, 3, True, 1)
    c = classify(cycle(5))
    assert (c.n, c.degree, c.bipartite, c.components) == (5, 2, False, 1)
    c = classify(k4_minus_edge())
    assert c.degree is None and not c.bipartite and c.components == 1


def test_graph6_k4_roundtrip():
    assert write_graph6(complete(4)) == "C~"
    assert parse_graph6("C~") == complete(4)
    assert parse_graph6(b"C~\n") == complete(4)


def test_graph6_rejects_zero_vertices():
    with pytest.raises(Graph6ParseError):
        parse_graph6("?")


def test_graph6_truncated_body():
    # n=10 needs 8 body bytes
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6("I" + "~" * 3)
    assert exc.value.offset == 4


def test_graph6_trailing_bytes():
    with pytest.raises(Graph6ParseError):
        parse_graph6("C~~")


def test_graph6_out_of_range_byte():
    with pytest.raises(Graph6ParseError):
        parse_graph6("C" + chr(20))


def test_graph6_nonzero_padding_rejected():
    # n = 5 has 10 adjacency bits, so the last byte ends in two padding bits
    assert parse_graph6("D??") == Graph(5, (0,) * 5)
    for bad in ("D?A", "D?@"):
        with pytest.raises(Graph6ParseError, match="padding") as exc:
            parse_graph6(bad)
        assert exc.value.offset == 2


def test_graph6_size_limit():
    big = Graph(63, (0,) * 63)
    with pytest.raises(UnsupportedSizeError):
        write_graph6(big)


def test_graph6_random_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 12)
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        assert parse_graph6(write_graph6(g)) == g


def test_induced_subgraph():
    assert induced_subgraph(complete(4), mask_of([0, 1, 2])) == complete(3)
    empty = induced_subgraph(complete(4), 0)
    assert empty.n == 0
    path3 = induced_subgraph(cycle(5), mask_of([0, 1, 2]))
    assert path3.edges() == [(0, 1), (1, 2)]
    with pytest.raises(InvalidParameterError):
        induced_subgraph(complete(3), 1 << 5)


def test_h_ind():
    h = h_ind()
    assert h.k == 2
    assert sum(h.has_loop(v) for v in range(2)) == 1
    assert h.has_loop(1) and not h.has_loop(0)
    assert h.has_edge(0, 1)
    assert count_homomorphisms(complete(2), h) == 3


def test_canonical_key_isomorphism_invariant():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 8)
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(g) == canonical_key(relabel(g, perm))
    # different graphs get different keys
    assert canonical_key(cycle(6)) != canonical_key(complete_bipartite(3, 3))


def _graph6_bits(g):
    # the adjacency bit string of g's graph6 record, read as one integer
    body = write_graph6(g)[1:]
    value = 0
    for ch in body:
        value = (value << 6) | (ord(ch) - 63)
    return value >> (6 * len(body) - g.n * (g.n - 1) // 2)


def test_canonical_key_is_least_graph6_string():
    # outside oracle: the least graph6 bit string over all n! relabellings
    rng = random.Random(23)
    graphs = [Graph(n, (0,) * n) for n in (1, 4, 7)] + [complete(n) for n in (2, 5, 7)]
    graphs += [
        complete_bipartite(3, 3),
        complete_bipartite(3, 4),
        disjoint_union(cycle(3), complete_bipartite(1, 3)),
        disjoint_copies(complete(3), 2),
        from_edges(7, [(0, 6), (2, 3), (3, 5)]),
    ]
    for _ in range(25):
        n = rng.randint(2, 7)
        p = rng.random()
        graphs.append(from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for g in graphs:
        least = min(_graph6_bits(relabel(g, perm)) for perm in permutations(range(g.n)))
        assert canonical_key(g) == (g.n, least)


def test_canonical_key_fast_on_large_automorphism_groups():
    # twins are tried once per search node, so K_n no longer walks n! orderings
    # (K_10 first: a search without the skip fails on it in seconds)
    for g in (complete(10), complete(12), complete_bipartite(6, 6), disjoint_copies(complete(4), 3)):
        start = time.perf_counter()
        key = canonical_key(g)
        assert time.perf_counter() - start < 1.0
        assert key == canonical_key(relabel(g, list(reversed(range(g.n)))))
    assert canonical_key(complete(12)) == (12, (1 << 66) - 1)


def test_canonical_key_relabel_invariant_beyond_oracle_sizes():
    # n = 11-16, and graphs whose many automorphisms the twin skip collapses
    rng = random.Random(41)
    graphs = [random_regular(n, d, rng) for n in range(11, 17) for d in (3, 4) if n * d % 2 == 0]
    kdd = [complete_bipartite(d, d) for d in range(1, 9)]
    # (two disjoint Petersen graphs, n = 20, have 28,800 automorphisms and no
    # twins; the search walks them all, about 16 s, so they are left out)
    graphs += [petersen()] + kdd
    graphs += [disjoint_copies(g, 2) for g in kdd] + [disjoint_copies(complete(4), 3)]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_key(g) == canonical_key(relabel(g, perm))
    assert canonical_key(disjoint_copies(complete(4), 3)) != canonical_key(disjoint_copies(complete_bipartite(3, 3), 2))


def test_canonicity_test_agrees_with_canonical_key():
    # the early-exit search accepts a prefix exactly when its own labeling is
    # the least one that the full search finds
    rng = random.Random(17)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 10)
        p = rng.random()
        cases.append(from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]).rows)
    for n, d in ((8, 3), (9, 4)):
        cases += [g.rows for g in regular_family(n, d)]
    accepted = 0
    for rows in cases:
        for m in range(1, len(rows) + 1):
            prefix = [r & ((1 << m) - 1) for r in rows[:m]]
            blocks = _blocks(prefix, m)
            canonical = _is_canonical_prefix(prefix, m, blocks)
            assert canonical == (canonical_key(Graph(m, tuple(prefix)))[1] == _pack_blocks(blocks))
            accepted += canonical
    assert 0 < accepted < sum(len(rows) for rows in cases)


def test_enumerate_regular_counts():
    # OEIS A002851, connected cubic graphs (n = 12 is checked where that family is built)
    assert [len(regular_family(n, 3)) for n in (4, 6, 8, 10)] == [1, 2, 5, 19]
    # OEIS A006820, connected quartic graphs
    assert [len(regular_family(n, 4)) for n in range(5, 11)] == [1, 1, 2, 6, 16, 59]
    # disconnected classes join when requested: K4 + K4 on eight vertices
    assert len(tuple(enumerate_regular(8, 3, connected=False))) == 6


def test_enumerate_regular_members_are_regular_and_distinct():
    for (n, d) in [(6, 3), (8, 3), (9, 4)]:
        fam = regular_family(n, d)
        keys = set()
        for g in fam:
            c = classify(g)
            assert c.degree == d and c.components == 1
            keys.add(canonical_key(g))
        assert len(keys) == len(fam)
    assert any(canonical_key(g) == canonical_key(complete_bipartite(3, 3)) for g in regular_family(6, 3))


def test_enumerate_regular_against_edge_subset_brute_force():
    # independent oracle: all 2^C(n,2) labeled graphs, filtered for
    # d-regularity, deduped by canonical key
    from itertools import combinations

    for n, d in [(4, 3), (5, 2), (6, 2), (6, 3)]:
        pairs = list(combinations(range(n), 2))
        seen_all = set()
        seen_connected = set()
        for picks in range(1 << len(pairs)):
            if picks.bit_count() * 2 != n * d:
                continue
            g = from_edges(n, [pairs[i] for i in range(len(pairs)) if (picks >> i) & 1])
            c = classify(g)
            if c.degree != d:
                continue
            key = canonical_key(g)
            seen_all.add(key)
            if c.components == 1:
                seen_connected.add(key)
        assert {canonical_key(g) for g in enumerate_regular(n, d)} == seen_connected
        assert {canonical_key(g) for g in enumerate_regular(n, d, connected=False)} == seen_all


def test_enumerate_regular_deterministic_order():
    first = [write_graph6(g) for g in enumerate_regular(8, 3)]
    second = [write_graph6(g) for g in enumerate_regular(8, 3)]
    assert first == second


def test_enumerate_regular_output_pinned():
    # sha256 of the newline-joined graph6 lines pins the classes and their order
    digests = {
        (10, 3, True): "52ebbafa00eae1d2c88fc76ffd82fd586113645f68e461026e4abbda688377ef",
        (10, 4, True): "ff85772df96941eaeb657b137369afba2e91780780e85615b41c43515464a94f",
        (8, 3, False): "06f7b9ac70b130495a09d0665c6c6acfb50bec8e620dcdb3cfdad4b037d9c2f7",
        (8, 4, False): "9267a9adba361b52791159c8fc20e4a4cfa7349c475537bb672c93fe5c82d8b7",
    }
    for (n, d, connected), digest in digests.items():
        lines = "\n".join(write_graph6(g) for g in regular_family(n, d, connected))
        assert hashlib.sha256(lines.encode()).hexdigest() == digest


def test_enumerate_regular_odd_nd_raises():
    with pytest.raises(InvalidParameterError, match=r"n\*d = 15 is odd: no 3-regular graph on 5 vertices exists"):
        enumerate_regular(5, 3)


def test_enumerate_regular_cap():
    with pytest.raises(CapExceededError):
        enumerate_regular(13, 3)
    with pytest.raises(InvalidParameterError):
        enumerate_regular(4, 4)


def test_enumerate_regular_cap_env_override(monkeypatch):
    monkeypatch.setenv("CHROMA_CAP_N", "6")
    with pytest.raises(CapExceededError):
        enumerate_regular(8, 3)
    monkeypatch.setenv("CHROMA_CAP_N", "14")
    assert len(list(enumerate_regular(8, 3))) == 5
    monkeypatch.setenv("CHROMA_CAP_N", "abc")
    with pytest.raises(InvalidParameterError, match="CHROMA_CAP_N must be an integer, got 'abc'"):
        enumerate_regular(8, 3)


def test_random_regular_helper_is_regular():
    rng = random.Random(3)
    for _ in range(5):
        g = random_regular(20, 4, rng)
        assert classify(g).degree == 4


def test_components_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randrange(1, 16)
        p = rng.random() * 0.4
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        # the full mask, the empty mask and a random mask
        for mask in ((1 << n) - 1, 0, rng.getrandbits(n)):
            ng = nx.Graph()
            ng.add_nodes_from(v for v in range(n) if (mask >> v) & 1)
            ng.add_edges_from((u, v) for u, v in g.edges() if (mask >> u) & 1 and (mask >> v) & 1)
            expected = sorted(mask_of(c) for c in nx.connected_components(ng))
            comps = components(g.rows, mask)
            assert sorted(comps) == expected
            # ordered by least vertex
            assert comps == sorted(comps, key=lambda c: c & -c)
    # isolated vertices are components of their own
    assert components(from_edges(4, [(1, 2)]).rows, 0b1111) == [0b0001, 0b0110, 0b1000]
    assert components(complete(3).rows, 0) == []
