import hashlib
import inspect
import os
import pickle
import random
import time
from itertools import combinations, permutations

import pytest

from chromacount import (
    CapExceededError,
    Graph,
    Graph6ParseError,
    InvalidParameterError,
    TargetGraph,
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
    vertices_of,
    write_graph6,
)
from chromacount import count_homomorphisms, graphs
from chromacount.graphs import _blocks, _least_blocks, _pack_blocks, bfs, components, regular_degree

from helpers import (
    k4_minus_edge,
    petersen,
    random_regular,
    reference_parse_graph6,
    reference_write_graph6,
    regular_family,
)


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


def test_asymmetric_adjacency_names_first_pair():
    # the first asymmetric pair (u, v), u < v, in lexicographic order: the
    # first set bit without a mirror is (1, 3) and the first pair (0, 2);
    # then (1, 2) comes before (0, 3) column by column, but not row by row
    for rows, pair in (((0, 1 << 3, 1 << 0, 0), "(0,2)"), ((1 << 3, 0, 1 << 1, 0), "(0,3)")):
        for make in (Graph, TargetGraph):
            with pytest.raises(InvalidParameterError) as exc:
                make(4, rows)
            assert str(exc.value) == f"adjacency not symmetric at {pair}"
    with pytest.raises(InvalidParameterError, match=r"^adjacency not symmetric at \(0,1\)$"):
        Graph(2, (0b10, 0b00))
    # a loop of a target is its own mirror
    assert TargetGraph(2, (0b11, 0b01)).has_loop(0)


def test_vertices_of():
    assert vertices_of(0) == []
    assert vertices_of(0b101001) == [0, 3, 5]
    assert vertices_of(1 << 200 | 1 << 61) == [61, 200]
    with pytest.raises(InvalidParameterError, match="non-negative"):
        vertices_of(-1)  # -1 >> 1 == -1, so shifting never empties it
    with pytest.raises(InvalidParameterError):
        vertices_of(-6)


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


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def test_graph6_random_roundtrip():
    rng = random.Random(7)
    for _ in range(300):
        g = _random_graph(rng.randint(1, 62), 0.4, rng)
        assert parse_graph6(write_graph6(g)) == g


def _assert_passes_public_checks(g):
    # parse_graph6 builds its graph without the row checks; the graph must
    # pass them when rebuilt by the constructor and by unpickling
    assert type(g) is Graph
    assert Graph(g.n, g.rows) == g
    assert pickle.loads(pickle.dumps(g)) == g


def test_only_parse_graph6_builds_graphs_past_the_row_check():
    # tuple.__new__ skips __new__'s checks; parse_graph6 is its one caller
    package = os.path.dirname(graphs.__file__)
    uses = {}
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                uses[name] = fh.read().count("tuple.__new__")
    assert {name: count for name, count in uses.items() if count} == {"graphs.py": 1}
    assert inspect.getsource(parse_graph6).count("tuple.__new__(Graph,") == 1


def test_graph6_codec_matches_bitwise_reference():
    # every n the single size byte allows, at several densities, with
    # disconnected graphs (a sparse graph, two halves) and both extremes
    rng = random.Random(10)
    for n in range(1, 63):
        graphs = [Graph(n, (0,) * n), complete(n) if n > 1 else Graph(1, (0,))]
        graphs += [_random_graph(n, p, rng) for p in (0.05, 0.3, 0.5, 0.9)]
        if n > 1:
            half = n // 2
            graphs.append(disjoint_union(_random_graph(half, 0.6, rng), _random_graph(n - half, 0.6, rng)))
        for g in graphs:
            record = write_graph6(g)
            assert record == reference_write_graph6(g)
            assert parse_graph6(record) == reference_parse_graph6(record) == g
            assert parse_graph6(record.encode() + b"\r\n") == g
            _assert_passes_public_checks(parse_graph6(record))


def test_graph6_record_read_is_the_record_written():
    # a report names a graph by the record it read, which is exact only if
    # parse_graph6 accepts one record per graph: one size byte, the exact
    # length and zero padding.  Random bodies at every n, packed here.
    rng = random.Random(12)
    for n in range(1, 63):
        nbits = n * (n - 1) // 2
        for bits in (0, (1 << nbits) - 1, *(rng.getrandbits(nbits) for _ in range(4))):
            stream = (format(bits, f"0{nbits}b") if nbits else "") + "0" * (-nbits % 6)
            record = chr(n + 63) + "".join(chr(int(stream[i:i + 6], 2) + 63) for i in range(0, len(stream), 6))
            assert write_graph6(parse_graph6(record)) == record
            assert write_graph6(parse_graph6(record.encode("ascii"))) == record
            _assert_passes_public_checks(parse_graph6(record))


def _parse_outcome(parse, record):
    try:
        return parse(record)
    except Graph6ParseError as exc:
        return (type(exc), exc.message, exc.offset, str(exc))


def test_graph6_malformed_matches_bitwise_reference():
    j = write_graph6(_random_graph(10, 0.5, random.Random(3)))  # n = 10: 8 body bytes
    records = ["", "\n", ">", "\x7f~", "?", "~" + "?" * 400, "C", "I~~~", "I" + j[1:-1], "C~~", "@?", j + "?"]
    # out-of-range adjacency bytes at several positions, one or two at a time
    for pos in (1, 2, 5, 8):
        for bad in ("\x14", "\x7f", " ", "0", "1", "\x80"):
            records.append(j[:pos] + bad + j[pos + 1:])
    records.append(j[:2] + "\x14" + j[3:6] + "\x7f" + j[7:])
    records += [j[:3] + "1" + j[4:6] + "0" + j[7:], j[:2] + "0" + j[3:6] + "0" + j[7:]]
    # nonzero padding: n = 5 leaves 2 padding bits, n = 10 leaves 3, n = 62 leaves 5
    g62 = write_graph6(_random_graph(62, 0.5, random.Random(4)))
    records += ["D?A", "D?@", "D\x14A", j[:-1] + chr((ord(j[-1]) - 63 | 1) + 63), g62[:-1] + chr((ord(g62[-1]) - 63 | 16) + 63)]
    records += [g62[:-1] + "\x7f", "C\xe9", "C~\xe9"]
    for record in records:
        for data in (record, record.encode("latin-1")):
            outcome = _parse_outcome(parse_graph6, data)
            assert isinstance(outcome, tuple), record
            assert outcome == _parse_outcome(reference_parse_graph6, data), record


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
    accepted = filtered = 0
    for rows in cases:
        for m in range(1, len(rows) + 1):
            prefix = [r & ((1 << m) - 1) for r in rows[:m]]
            blocks = _blocks(prefix, m)
            canonical = not _least_blocks(prefix, m, blocks, first=True)
            assert canonical == (canonical_key(Graph(m, tuple(prefix)))[1] == _pack_blocks(blocks))
            accepted += canonical
            # the generator's O(1) filter: when the last block, its final bit
            # dropped, is below the block before it, swapping the last two
            # vertices gives a smaller labeling
            if m >= 2 and blocks[m - 1] >> 1 < blocks[m - 2]:
                assert not canonical
                filtered += 1
    assert 0 < accepted < sum(len(rows) for rows in cases)
    assert filtered > 100


def test_enumerate_regular_canonicity_tests_counted(monkeypatch):
    # a work counter, not a timing: at (10, 4) the swap filter and the skip
    # near the leaves cut the searches to 1,405, none on a prefix with 1 or 2
    # vertices still to come
    searched = []
    search = graphs._least_blocks

    def counted(rows, m, blocks, first=False):
        searched.append(m)
        return search(rows, m, blocks, first)

    monkeypatch.setattr(graphs, "_least_blocks", counted)
    assert len(list(enumerate_regular(10, 4))) == 59
    assert len(searched) == 1405
    assert not {8, 9} & set(searched)
    assert 10 in searched


def test_enumerate_regular_yields_only_canonical_prefixes():
    # the skip near the leaves rests on this: every prefix of a yielded
    # labeling is its own least labeling, so the search on the complete
    # graph rejects every completion of a prefix that is not
    for n in range(4, 11):
        for d in range(3, min(7, n)):
            if n * d % 2:
                continue
            for connected in (True, False):
                for g in enumerate_regular(n, d, connected=connected):
                    for m in range(1, n + 1):
                        prefix = [r & ((1 << m) - 1) for r in g.rows[:m]]
                        assert not _least_blocks(prefix, m, _blocks(prefix, m), first=True), (write_graph6(g), m)


def test_enumerate_regular_counts():
    # OEIS A002851, connected cubic graphs (n = 12 is checked where that family is built)
    assert [len(regular_family(n, 3)) for n in (4, 6, 8, 10)] == [1, 2, 5, 19]
    # OEIS A006820, connected quartic graphs
    assert [len(regular_family(n, 4)) for n in range(5, 13)] == [1, 1, 2, 6, 16, 59, 265, 1544]
    # OEIS A006821, connected 5-regular graphs, and A006822, connected 6-regular graphs
    assert [len(regular_family(n, 5)) for n in (6, 8, 10)] == [1, 3, 60]
    assert [len(regular_family(n, 6)) for n in range(7, 11)] == [1, 1, 4, 21]
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


def test_enumerate_regular_matches_networkx_atlas():
    # independent oracle: the atlas lists every graph on at most 7 vertices
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    for n in range(1, 8):
        for d in range(n):
            expected = [a for a in atlas if a.number_of_nodes() == n and all(k == d for _, k in a.degree())]
            if n * d % 2:
                assert not expected
                continue
            for connected in (True, False):
                want = [a for a in expected if not connected or nx.is_connected(a)]
                got = [nx.Graph(g.edges()) for g in enumerate_regular(n, d, connected=connected)]
                for h in got:
                    h.add_nodes_from(range(n))
                assert len(got) == len(want), (n, d, connected)
                for a in want:
                    assert sum(nx.is_isomorphic(a, h) for h in got) == 1, (n, d, connected)


def test_enumerate_regular_deterministic_order():
    first = [write_graph6(g) for g in enumerate_regular(8, 3)]
    second = [write_graph6(g) for g in enumerate_regular(8, 3)]
    assert first == second


def test_enumerate_regular_output_pinned():
    # sha256 of the newline-joined graph6 lines pins the classes and their order
    digests = {
        (10, 3, True): "52ebbafa00eae1d2c88fc76ffd82fd586113645f68e461026e4abbda688377ef",
        (10, 4, True): "ff85772df96941eaeb657b137369afba2e91780780e85615b41c43515464a94f",
        (10, 5, True): "8ff57aaa05429baf82a1868a796cac72c44b39e7ddd16d2d400372c1dc09e75c",
        (10, 6, True): "34819c225c8d650fb5c0ded2c6e0c4f3042cb53ec5acd4a7b241fecaf48ff178",
        (11, 4, True): "5a17ca9c4c012585a623e3a525f47ec61f6f7279df9fc6574bcfc1ebac2f3d07",
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


def _check_classify(nx, g):
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    degrees = {deg for _, deg in ng.degree()}
    c = classify(g)
    assert c.degree == (degrees.pop() if len(degrees) == 1 else None)
    assert c.bipartite == nx.is_bipartite(ng)
    assert c.components == nx.number_connected_components(ng)


def test_regular_degree_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(12)
    cases = [Graph(0, ())]
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        cases += [from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1]) for bits in range(1 << len(pairs))]
    cases += [random_regular(n, d, rng) for n, d in ((20, 3), (21, 4), (30, 5), (16, 0))]
    for g in cases:
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges())
        degrees = {deg for _, deg in ng.degree()}
        assert regular_degree(g) == (degrees.pop() if len(degrees) == 1 else None)


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
            # the shared search: each component is one run of its queue order
            order, masks = bfs(g.rows, mask)
            assert masks == comps
            runs = [sum(c.bit_count() for c in comps[:i]) for i in range(len(comps) + 1)]
            assert [mask_of(order[a:b]) for a, b in zip(runs, runs[1:])] == comps
            assert len(order) == mask.bit_count()
        _check_classify(nx, g)
    # every labelled graph with n <= 5, and the graph with no vertex
    _check_classify(nx, Graph(0, ()))
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            _check_classify(nx, from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1]))
    # isolated vertices are components of their own
    assert components(from_edges(4, [(1, 2)]).rows, 0b1111) == [0b0001, 0b0110, 0b1000]
    assert components(complete(3).rows, 0) == []
