"""Seeded input corpora for the benchmark, built without chromacount.

Graphs are lists of adjacency bit masks (bit v of rows[u] set when u~v).
The graph6 codec here is written from the format
description and shares no code with the program under test.
"""
from __future__ import annotations

import random

import networkx as nx

# Connected cubic (OEIS A002851) and quartic (OEIS A006820) graphs, counted
# up to isomorphism.
CONNECTED_REGULAR = {
    3: {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509},
    4: {5: 1, 6: 1, 7: 2, 8: 6, 9: 16, 10: 59, 11: 265, 12: 1544},
}


def to_graph6(rows: list[int]) -> str:
    n = len(rows)
    bits = [(rows[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def from_graph6(s: str) -> list[int]:
    n = ord(s[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"bad graph6 size byte in {s!r}")
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        bits.extend((val >> t) & 1 for t in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(s) - 1 != (need + 5) // 6:
        raise ValueError(f"graph6 length does not match n={n} in {s!r}")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def to_nx(rows: list[int]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from((v, {"signature": str(sig)}) for v, sig in enumerate(vertex_signatures(rows)))
    g.add_edges_from((u, v) for u, r in enumerate(rows) for v in range(u + 1, len(rows)) if (r >> v) & 1)
    return g


def random_regular(n: int, d: int, rng: random.Random) -> list[int]:
    """A random simple labelled d-regular graph on n vertices: pair up the
    n*d half-edges one random suitable pair at a time, starting over when no
    suitable pair is left (Steger-Wormald; close to uniform)."""
    while True:
        rows = [0] * n
        points = [v for v in range(n) for _ in range(d)]
        while points:
            for _ in range(8):
                i = rng.randrange(len(points))
                j = rng.randrange(len(points))
                if points[i] != points[j] and not (rows[points[i]] >> points[j]) & 1:
                    break
            else:
                suitable = [
                    (i, j)
                    for i in range(len(points))
                    for j in range(i)
                    if points[i] != points[j] and not (rows[points[i]] >> points[j]) & 1
                ]
                if not suitable:
                    break
                i, j = rng.choice(suitable)
            u, v = points[i], points[j]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            for k in (max(i, j), min(i, j)):
                points[k] = points[-1]
                points.pop()
        if not points:
            return rows


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """The graph with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for u, r in enumerate(rows):
        for v in range(len(rows)):
            if (r >> v) & 1:
                out[perm[u]] |= 1 << perm[v]
    return out


def is_connected(rows: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in range(len(rows)):
            if (frontier >> v) & 1:
                nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(rows)) - 1


def vertex_signatures(rows: list[int]) -> list[tuple]:
    """Per vertex, an isomorphism-invariant label: the sorted co-degrees to
    every other vertex and the sizes of the BFS layers around it."""
    n = len(rows)
    out = []
    for v in range(n):
        codeg = tuple(sorted((rows[w] & rows[v]).bit_count() for w in range(n) if w != v))
        seen = frontier = 1 << v
        layers = []
        while frontier:
            nxt = 0
            for w in range(n):
                if (frontier >> w) & 1:
                    nxt |= rows[w]
            frontier = nxt & ~seen
            seen |= frontier
            layers.append(frontier.bit_count())
        out.append((codeg, tuple(layers)))
    return out


def connected_regular_family(n: int, d: int, rng: random.Random) -> list[list[int]]:
    """One representative of each isomorphism class of connected d-regular
    graphs on n vertices: sample uniform graphs until the published number of
    pairwise non-isomorphic classes has turned up."""
    want = CONNECTED_REGULAR[d][n]
    buckets: dict[tuple, list[nx.Graph]] = {}
    found: list[list[int]] = []
    while len(found) < want:
        rows = random_regular(n, d, rng)
        if not is_connected(rows):
            continue
        g = to_nx(rows)
        reps = buckets.setdefault(tuple(sorted(vertex_signatures(rows))), [])
        if not any(nx.is_isomorphic(g, h) for h in reps):
            reps.append(g)
            found.append(rows)
    return found


def shuffled_labels(rows: list[int], rng: random.Random) -> list[int]:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return relabel(rows, perm)


def disjoint_kdd(d: int, copies: int) -> list[int]:
    """copies x K_{d,d}, the equality case of the colorings bound."""
    rows = []
    for c in range(copies):
        base = 2 * d * c
        left = ((1 << d) - 1) << base
        right = left << d
        rows += [right] * d + [left] * d
    return rows
