"""Shared test fixtures: brute-force oracles, corpus builders, and a random
regular graph generator.  The oracles here are deliberately naive and stay
independent of the library code paths they check."""
from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from chromacount import (
    Graph,
    Graph6ParseError,
    TargetGraph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_copies,
    enumerate_regular,
    from_edges,
)

# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def brute_count_colorings(g: Graph, q: int) -> int:
    """All q^n assignments, filtered edge by edge."""
    edges = g.edges()
    total = 0
    for assignment in product(range(q), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            total += 1
    return total


def brute_count_homomorphisms(g: Graph, h: TargetGraph) -> int:
    edges = g.edges()
    total = 0
    for image in product(range(h.k), repeat=g.n):
        if all(h.has_edge(image[u], image[v]) for u, v in edges):
            total += 1
    return total


def brute_count_independent_sets(g: Graph) -> int:
    total = 0
    for r in range(g.n + 1):
        for subset in combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                total += 1
    return total


def brute_alpha(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for subset in combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return r
    return best


def brute_maximum_independent_set(g: Graph) -> tuple[int, ...]:
    """The lexicographically first maximum independent set: combinations
    come in lexicographic order, so the first independent one of the
    largest size is it."""
    for r in range(g.n, 0, -1):
        for subset in combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return subset
    return ()


def brute_surjections(n: int, k: int) -> int:
    total = 0
    for image in product(range(k), repeat=n):
        if set(image) == set(range(k)):
            total += 1
    if n == 0 and k == 0:
        return 1
    return total


def interpolate_int_polynomial(values: list[int]) -> tuple[int, ...]:
    """Exact monomial coefficients of the degree <= len(values)-1 polynomial
    through (0, values[0]), (1, values[1]), ... via Lagrange with Fractions."""
    npts = len(values)
    coeffs = [Fraction(0)] * npts
    for i, yi in enumerate(values):
        # Lagrange basis polynomial for node i
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(npts):
            if j == i:
                continue
            denom *= i - j
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-j)
                new[k + 1] += c
            basis = new
        for k, c in enumerate(basis):
            coeffs[k] += Fraction(yi) * c / denom
    assert all(c.denominator == 1 for c in coeffs)
    out = [int(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_product(factors: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Monomial coefficients of a product of polynomials, by schoolbook
    multiplication."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return tuple(out)


def brute_compatible_partitions(n: int, q: int, d_sets: list[int]) -> int:
    """Enumerate all q^n color assignments and keep those with every vertex
    inside its color's container."""
    total = 0
    for assignment in product(range(q), repeat=n):
        if all((d_sets[assignment[v]] >> v) & 1 for v in range(n)):
            total += 1
    return total


def brute_compatible_proper(g: Graph, q: int, d_sets: list[int]) -> int:
    edges = g.edges()
    total = 0
    for assignment in product(range(q), repeat=g.n):
        if all((d_sets[assignment[v]] >> v) & 1 for v in range(g.n)) and all(
            assignment[u] != assignment[v] for u, v in edges
        ):
            total += 1
    return total


def reference_write_graph6(g: Graph) -> str:
    """graph6 record of g (1 <= n <= 62), one adjacency bit at a time."""
    chars = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        chars.append(chr((acc << (6 - nbits)) + 63))
    return "".join(chars)


def reference_parse_graph6(data: bytes | str) -> Graph:
    """Parse one graph6 record one adjacency bit at a time, raising the
    library's Graph6ParseError with the library's messages and offsets."""
    if isinstance(data, str):
        try:
            raw = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError("non-ASCII byte", exc.start) from None
    else:
        raw = bytes(data)
    while raw.endswith((b"\n", b"\r")):
        raw = raw[:-1]
    if not raw:
        raise Graph6ParseError("empty input", 0)
    b0 = raw[0]
    if not 63 <= b0 <= 126:
        raise Graph6ParseError(f"size byte {b0} out of range", 0)
    n = b0 - 63
    if n == 0:
        raise Graph6ParseError("zero-vertex graph rejected (require n >= 1)", 0)
    if n > 62:
        raise Graph6ParseError("multi-byte size encodings (n > 62) not supported", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = len(raw) - 1
    if body < need:
        raise Graph6ParseError(f"truncated adjacency bits (need {need} bytes, got {body})", len(raw))
    if body > need:
        raise Graph6ParseError("trailing bytes after adjacency bits", 1 + need)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    rows = [0] * n
    k = 0
    for bi in range(need):
        byte = raw[1 + bi]
        if not 63 <= byte <= 126:
            raise Graph6ParseError(f"adjacency byte {byte} out of range", 1 + bi)
        for t in range(5, -1, -1):
            if k < nbits and ((byte - 63) >> t) & 1:
                i, j = pairs[k]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    if (raw[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise Graph6ParseError("nonzero padding bits in last byte", need)
    return Graph(n, tuple(rows))


def reference_verify_report(results: list[dict], fmt: str) -> tuple[str, str | None]:
    """verify's report and counterexample bundle (None without failures),
    assembled from every result dict at once: sorted by graph6, then joined
    into one string."""
    results = sorted(results, key=lambda r: r["graph6"])
    failures = [r for r in results if r["type"] == "verdict" and not r["holds"]]
    bundle = json.dumps(failures, indent=2, sort_keys=True) if failures else None
    summary = {
        "type": "summary",
        "total": len(results),
        "verdicts": sum(1 for r in results if r["type"] == "verdict"),
        "holds": sum(1 for r in results if r["type"] == "verdict" and r["holds"]),
        "equality": sum(1 for r in results if r["type"] == "verdict" and r["equality"]),
        "failures": len(failures),
        "skipped": sum(1 for r in results if r["type"] == "skipped"),
    }
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["graph6", "n", "d", "q", "target", "holds", "equality", "slack_log2"])
        for r in results:
            if r["type"] == "verdict":
                writer.writerow([r["graph6"], r["n"], r["d"], r["q"], r["target"], r["holds"], r["equality"], r["slack_log2"]])
        return buf.getvalue(), bundle
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in results + [summary]), bundle


def reference_bfs_order(g: Graph) -> list[int]:
    """BFS from vertex 0 over a list queue, restarting at the smallest
    unvisited vertex and visiting neighbours in increasing order."""
    order = []
    seen = [False] * g.n
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            order.append(u)
            for v in range(g.n):
                if g.has_edge(u, v) and not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return order


# ---------------------------------------------------------------------------
# named graphs and corpora
# ---------------------------------------------------------------------------

def petersen() -> Graph:
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return from_edges(10, edges)


def prism() -> Graph:
    return from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def k4_minus_edge() -> Graph:
    return from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


@lru_cache(maxsize=None)
def regular_family(n: int, d: int, connected: bool = True) -> tuple[Graph, ...]:
    return tuple(enumerate_regular(n, d, connected=connected))


def small_corpus(max_n: int = 8) -> list[Graph]:
    """Mixed corpus (regular and not) used by the counting oracles."""
    graphs = [
        complete(2), complete(3), complete(4), complete(5),
        cycle(3), cycle(4), cycle(5), cycle(6), cycle(7), cycle(8),
        complete_bipartite(1, 1), complete_bipartite(1, 3), complete_bipartite(2, 2),
        complete_bipartite(2, 3), complete_bipartite(3, 3), complete_bipartite(4, 4),
        k4_minus_edge(),
        from_edges(4, [(0, 1), (1, 2), (2, 3)]),  # path
        disjoint_copies(complete_bipartite(2, 2), 2),
        disjoint_copies(complete(3), 2),
    ]
    for n in (4, 6, 8):
        graphs.extend(regular_family(n, 3))
    for n in (5, 6, 7, 8):
        graphs.extend(regular_family(n, 4))
    return [g for g in graphs if g.n <= max_n]


def regular_corpus() -> list[tuple[Graph, int]]:
    """(graph, degree) pairs: full connected cubic and quartic families up
    to n = 10, plus cycles and the disjoint K_{2,2} doubling."""
    out = []
    for n in (4, 6, 8, 10):
        out.extend((g, 3) for g in regular_family(n, 3))
    for n in (5, 6, 7, 8, 9, 10):
        out.extend((g, 4) for g in regular_family(n, 4))
    for n in (4, 5, 6, 7, 8, 10):
        out.append((cycle(n), 2))
    out.append((disjoint_copies(complete_bipartite(2, 2), 2), 2))
    return out


# ---------------------------------------------------------------------------
# random regular graphs (pairing with retry, suitable-pair selection)
# ---------------------------------------------------------------------------

def random_regular(n: int, d: int, rng: random.Random) -> Graph:
    assert (n * d) % 2 == 0 and d < n
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        rows = [0] * n
        ok = True
        while stubs and ok:
            for _ in range(200):
                i, j = rng.sample(range(len(stubs)), 2) if len(stubs) > 2 else (0, 1)
                u, v = stubs[i], stubs[j]
                if u != v and not (rows[u] >> v) & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    for k in sorted((i, j), reverse=True):
                        stubs.pop(k)
                    break
            else:
                ok = False
        if ok:
            return Graph(n, tuple(rows))


def random_maximal_independent_set(g: Graph, rng: random.Random) -> int:
    order = list(range(g.n))
    rng.shuffle(order)
    mask = 0
    blocked = 0
    for v in order:
        if not (blocked >> v) & 1:
            mask |= 1 << v
            blocked |= g.rows[v] | (1 << v)
    return mask
